import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqpde.fem import (BcSpec, BeamProblem, BoundaryCase, SingularSystemError,
                       assemble, classical_solve, default_load,
                       element_stiffness, normalize_load, set_to_zero)

KE_UNIT = np.array([
    [12, 6, -12, 6],
    [6, 4, -6, 2],
    [-12, -6, 12, -6],
    [6, 2, -6, 4],
], dtype=float)


def problem(case, n, L=1.0, E=1.0, I=1.0):
    return BeamProblem(length=L, youngs_modulus=E, second_moment=I,
                       num_qubits=n, boundary_case=case)


def unit_problem(case, n):
    """Geometry chosen so the element length is exactly 1."""
    p = problem(case, n)
    return problem(case, n, L=float(p.num_elements))


def assemble_oracle(problem, num_elements):
    """Naive triple-loop assembly, independent of the production path."""
    N = problem.num_dofs
    Ke = element_stiffness(problem.youngs_modulus, problem.second_moment,
                           problem.element_length)
    K = np.zeros((N, N))
    for e in range(num_elements):
        for a in range(4):
            for b in range(4):
                K[(2 * e + a) % N, (2 * e + b) % N] += Ke[a, b]
    return K


class TestElementStiffness:
    def test_unit_values(self):
        np.testing.assert_array_equal(element_stiffness(1, 1, 1), KE_UNIT)

    def test_linear_in_ei(self):
        np.testing.assert_array_equal(element_stiffness(2, 1, 1), 2 * KE_UNIT)

    def test_against_gauss_quadrature(self):
        # 4-point Gauss integration of EI * B''(x) B''(x)^T with Hermite
        # cubics is exact for the constant-EI beam element.
        E, I, le = 1000.0, 1.0, 10.0 / 15.0
        xg, wg = np.polynomial.legendre.leggauss(4)
        K = np.zeros((4, 4))
        for xi, w in zip(xg, wg):
            x = (xi + 1) * le / 2
            d2 = np.array([
                -6 / le**2 + 12 * x / le**3,
                -4 / le + 6 * x / le**2,
                6 / le**2 - 12 * x / le**3,
                -2 / le + 6 * x / le**2,
            ])
            K += w * (le / 2) * E * I * np.outer(d2, d2)
        np.testing.assert_allclose(element_stiffness(E, I, le), K,
                                   rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("E,I,le", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
    def test_rejects_nonpositive(self, E, I, le):
        with pytest.raises(ValueError):
            element_stiffness(E, I, le)

    def test_rank_two(self):
        eig = np.linalg.eigvalsh(KE_UNIT)
        assert np.sum(np.abs(eig) < 1e-9) == 2

    @pytest.mark.parametrize("le", [0.5, 1.0, 10.0 / 15.0])
    def test_length_scaling(self, le):
        K = element_stiffness(1, 1, le)
        assert K[0, 0] == pytest.approx(12 / le**3)
        assert K[0, 1] == pytest.approx(6 / le**2)
        assert K[1, 1] == pytest.approx(4 / le)
        assert K[1, 3] == pytest.approx(2 / le)


class TestAssembly:
    def test_n3_matches_appendix_block(self):
        K = assemble(unit_problem(BoundaryCase.CANTILEVER, 3)).toarray()
        expected_top = np.array([
            [12, 6, -12, 6, 0, 0],
            [6, 4, -6, 2, 0, 0],
            [-12, -6, 24, 0, -12, 6],
            [6, 2, 0, 8, -6, 2],
            [0, 0, -12, -6, 24, 0],
            [0, 0, 6, 2, 0, 8],
        ], dtype=float)
        np.testing.assert_array_equal(K[:6, :6], expected_top)
        # interior deflection diagonals stack two elements
        assert K[2, 2] == 24 and K[4, 4] == 24

    def test_n2_single_element(self):
        K = assemble(unit_problem(BoundaryCase.CANTILEVER, 2)).toarray()
        np.testing.assert_array_equal(K, KE_UNIT)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_open_matches_loop_oracle(self, n):
        p = problem(BoundaryCase.CANTILEVER, n, L=3.7, E=12.0, I=0.4)
        np.testing.assert_allclose(assemble(p).toarray(),
                                   assemble_oracle(p, p.num_nodes - 1),
                                   atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_periodic_matches_loop_oracle(self, n):
        p = problem(BoundaryCase.PBC, n, L=2.5)
        np.testing.assert_allclose(assemble(p).toarray(),
                                   assemble_oracle(p, p.num_nodes),
                                   atol=1e-12)

    def test_periodic_wraparound_block(self):
        p = unit_problem(BoundaryCase.PBC, 3)
        K = assemble(p).toarray()
        Ko = assemble_oracle(p, p.num_nodes - 1)
        wrap = K - Ko
        Ke = element_stiffness(1, 1, 1)
        dofs = [6, 7, 0, 1]
        np.testing.assert_array_equal(wrap[np.ix_(dofs, dofs)], Ke)
        assert np.count_nonzero(wrap) == np.count_nonzero(Ke)

    def test_periodic_translation_null_vector(self):
        for n in (2, 3, 4):
            p = problem(BoundaryCase.PBC, n)
            K = assemble(p).toarray()
            v = np.zeros(p.num_dofs)
            v[0::2] = 1.0
            assert np.linalg.norm(K @ v) <= 1e-9 * np.linalg.norm(K)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_open_rigid_modes(self, n):
        p = problem(BoundaryCase.CANTILEVER, n, L=4.0)
        K = assemble(p).toarray()
        translation = np.zeros(p.num_dofs)
        translation[0::2] = 1.0
        rotation = np.zeros(p.num_dofs)
        rotation[0::2] = np.arange(p.num_nodes) * p.element_length
        rotation[1::2] = 1.0
        for v in (translation, rotation):
            assert np.linalg.norm(K @ v) <= 1e-9 * np.linalg.norm(K)

    def test_symmetry(self):
        for case in BoundaryCase:
            p = problem(case, 4)
            K = assemble(p).toarray()
            np.testing.assert_allclose(K, K.T, atol=1e-12)


class TestSetToZero:
    def test_appendix_cantilever_block(self):
        K0 = np.array([
            [12, 6, -12, 6, 0, 0],
            [6, 4, -6, 2, 0, 0],
            [-12, -6, 24, 0, -12, 6],
            [6, 2, 0, 8, -6, 2],
            [0, 0, -12, -6, 12, -6],
            [0, 0, 6, 2, -6, 4],
        ], dtype=float)
        K_mod, K_bc = (M.toarray() for M in set_to_zero(K0, BcSpec((0, 1))))
        expected_mod = K0.copy()
        expected_mod[0, 1:] = 0
        expected_mod[1:, 0] = 0
        expected_mod[1, 2:] = 0
        expected_mod[2:, 1] = 0
        expected_mod[1, 0] = expected_mod[0, 1] = 0
        np.testing.assert_array_equal(K_mod, expected_mod)
        np.testing.assert_array_equal(K_bc, K_mod - K0)
        assert np.all(np.diag(K_bc) == 0)
        np.testing.assert_array_equal(K_bc, K_bc.T)

    def test_empty_bc(self):
        K = np.arange(16.0).reshape(4, 4)
        K = K + K.T
        K_mod, K_bc = (M.toarray() for M in set_to_zero(K, BcSpec(())))
        np.testing.assert_array_equal(K_mod, K)
        np.testing.assert_array_equal(K_bc, 0 * K)

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_entrywise_oracle_and_idempotence(self, d1, d2, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(8, 8))
        K = A + A.T
        bc = BcSpec(tuple(sorted({d1, d2})))
        K_mod = set_to_zero(K, bc)[0].toarray()
        expected = np.array([
            [K[i, j] if (i == j or (i not in bc.constrained_dofs
                                    and j not in bc.constrained_dofs)) else 0.0
             for j in range(8)] for i in range(8)])
        np.testing.assert_array_equal(K_mod, expected)
        K_mod2, K_bc2 = (M.toarray() for M in set_to_zero(K_mod, bc))
        np.testing.assert_array_equal(K_mod2, K_mod)
        assert np.all(K_bc2 == 0)


class TestBoundaryCases:
    @pytest.mark.parametrize("case", list(BoundaryCase))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_constrained_matrix_is_spd(self, case, n):
        p = problem(case, n, L=2.0)
        K = assemble(p)
        K_mod, _ = set_to_zero(K, p.bc())
        assert np.min(np.linalg.eigvalsh(K_mod.toarray())) > 0

    def test_bc_dof_sets(self):
        def dofs(case, **kw):
            return BeamProblem(1.0, 1.0, 1.0, 5, case, **kw).bc().constrained_dofs

        assert dofs(BoundaryCase.CANTILEVER) == (0, 1)
        assert dofs(BoundaryCase.SSB) == (0, 30)
        assert dofs(BoundaryCase.FFB) == (0, 1, 30, 31)
        assert dofs(BoundaryCase.PBC) == (0,)
        assert dofs(BoundaryCase.SSB, supports=BcSpec((3, 9))) == (3, 9)

    @pytest.mark.parametrize("dofs,error", [
        ((1, 0), ValueError), ((0, 0), ValueError), ((-1, 2), ValueError),
        ((0.5, 6), TypeError), ((True,), TypeError),
    ])
    def test_bad_supports_rejected(self, dofs, error):
        with pytest.raises(error):
            BcSpec(dofs)
        with pytest.raises(TypeError, match="BcSpec"):
            BeamProblem(1.0, 1.0, 1.0, 3, BoundaryCase.SSB, supports=dofs)


class TestLoads:
    def test_normalization(self):
        bc = BcSpec((0, 1))
        load = normalize_load(np.array([3.0, 4.0, 1.0, 2.0]), bc)
        assert load.vector[0] == 0 and load.vector[1] == 0
        assert np.linalg.norm(load.vector) == pytest.approx(1.0, abs=1e-12)
        assert load.scale == pytest.approx(np.sqrt(5.0))

    def test_all_constrained_load_rejected(self):
        with pytest.raises(ValueError):
            normalize_load(np.array([1.0, 0, 0, 0]), BcSpec((0,)))

    def test_default_loads(self):
        p = problem(BoundaryCase.CANTILEVER, 4)
        load = default_load(p)
        assert load.vector[p.num_dofs - 2] == 1.0

        p = problem(BoundaryCase.SSB, 4)
        load = default_load(p)
        assert load.vector[2 * (p.num_nodes // 2)] == 1.0

        p = problem(BoundaryCase.PBC, 4)
        load = default_load(p)
        # +1 entry sits on the anchored DOF and is zeroed by the constraint
        assert load.vector[0] == 0.0
        assert load.vector[p.num_nodes] == pytest.approx(-1.0)


class TestClassicalSolve:
    def test_diagonal_system(self):
        load = normalize_load(np.array([1.0, 0, 0, 0]), BcSpec(()))
        u, energy = classical_solve(2.0 * np.eye(4), load)
        np.testing.assert_allclose(u, [0.5, 0, 0, 0])
        # minimum of 0.5 u'Ku - f.u at u = f/2 is -f.u/2 = -1/4
        assert energy == pytest.approx(-0.25)

    def test_cantilever_matches_analytic(self):
        # FEM with Hermite cubics is nodally exact for a point tip load:
        # w(x) = F x^2 (3L - x) / (6 E I).
        p = problem(BoundaryCase.CANTILEVER, 3, L=2.0, E=10.0, I=0.5)
        bc = p.bc()
        K_mod, _ = set_to_zero(assemble(p), bc)
        raw = np.zeros(p.num_dofs)
        raw[p.num_dofs - 2] = 1.0
        load = normalize_load(raw, bc)
        u, _ = classical_solve(K_mod, load)
        u_phys = load.scale * u
        F, E, I, L = 1.0, 10.0, 0.5, 2.0
        x = np.arange(p.num_nodes) * p.element_length
        w = F * x**2 * (3 * L - x) / (6 * E * I)
        theta = F * x * (2 * L - x) / (2 * E * I)
        np.testing.assert_allclose(u_phys[0::2], w, atol=1e-9)
        np.testing.assert_allclose(u_phys[1::2], theta, atol=1e-9)

    def test_pbc_without_anchor_is_singular(self):
        p = problem(BoundaryCase.PBC, 3)
        K = assemble(p)
        raw = np.zeros(p.num_dofs)
        raw[2] = 1.0
        with pytest.raises(SingularSystemError):
            classical_solve(K, normalize_load(raw, BcSpec(())))

    # A negative pivot, a zero diagonal that needs a row swap, and an exactly
    # singular factor.
    @pytest.mark.parametrize("K", [[[1.0, 2.0], [2.0, 1.0]],
                                   [[0.0, 1.0], [1.0, 0.0]],
                                   [[1.0, 1.0], [1.0, 1.0]]])
    def test_not_positive_definite_rejected(self, K):
        load = normalize_load(np.array([1.0, 0.0]), BcSpec(()))
        with pytest.raises(SingularSystemError):
            classical_solve(np.array(K), load)

    @pytest.mark.parametrize("case", list(BoundaryCase))
    @pytest.mark.parametrize("n", [3, 6, 9, 12])
    def test_energy_matches_closed_form(self, case, n):
        # Hermite elements are nodally exact, so -f.u/2 under the default unit
        # load equals the Euler-Bernoulli energy: tip load on the cantilever,
        # load at a = the coordinate of node num_nodes // 2 (b = L - a) on the
        # simply supported and fixed-fixed beams, and on the anchored periodic
        # beam a clamped-clamped span L loaded at its middle.
        p = problem(case, n, L=10.0, E=1000.0)
        K_mod, _ = set_to_zero(assemble(p), p.bc())
        _, energy = classical_solve(K_mod, default_load(p))
        L, EI = p.length, p.youngs_modulus * p.second_moment
        a = (p.num_nodes // 2) * p.element_length
        b = L - a
        expected = {
            BoundaryCase.CANTILEVER: -L ** 3 / (6 * EI),
            BoundaryCase.SSB: -a ** 2 * b ** 2 / (6 * EI * L),
            BoundaryCase.FFB: -a ** 3 * b ** 3 / (6 * EI * L ** 3),
            BoundaryCase.PBC: -L ** 3 / (384 * EI),
        }[case]
        assert energy == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("case", list(BoundaryCase))
    def test_residual(self, case):
        p = problem(case, 4, L=3.0)
        K = assemble(p)
        K_mod, _ = set_to_zero(K, p.bc())
        load = default_load(p)
        u, energy = classical_solve(K_mod, load)
        assert np.linalg.norm(K_mod @ u - load.vector) <= 1e-10
        assert energy == pytest.approx(-0.5 * load.vector @ u)
