import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqpde.fem import BcSpec, BeamProblem, BoundaryCase, assemble, element_stiffness, set_to_zero
from vqpde.pauli_ops import (ALL_2Q_LABELS, ELEMENT_BASIS,
                             DecompositionResidualError, Prefix, StructuredTerm,
                             build_structured, decompose_element, materialize,
                             materialize_operator, pauli_matrix)
from vqpde.verify import check_structured_vs_dense

PAPER_COEFFS = {"II": 8.0, "IZ": 4.0, "XI": -5.0, "XZ": -7.0, "YY": -6.0,
                "ZX": 6.0}


def problem(case, n, **kw):
    defaults = dict(length=1.0, youngs_modulus=1.0, second_moment=1.0)
    defaults.update(kw)
    return BeamProblem(num_qubits=n, boundary_case=case, **defaults)


def structured(p, bc):
    """``build_structured`` on the K_bc that ``set_to_zero`` makes."""
    return build_structured(p, set_to_zero(assemble(p), bc)[1])


def full_basis_projection(M):
    """Oracle: project a 4x4 matrix on all 16 Pauli strings."""
    return {label: np.trace(M @ pauli_matrix(label)).real / 4
            for label in ALL_2Q_LABELS}


class TestDecomposeElement:
    def test_paper_coefficients(self):
        coeffs = dict((l, c) for c, l in
                      decompose_element(element_stiffness(1, 1, 1)))
        assert coeffs == PAPER_COEFFS

    def test_zero_matrix(self):
        coeffs = decompose_element(np.zeros((4, 4)))
        assert all(c == 0 for c, _ in coeffs)

    def test_general_element_full_basis_oracle(self):
        Ke = element_stiffness(1000.0, 1.0, 10.0 / 15.0)
        got = dict((l, c) for c, l in decompose_element(Ke))
        oracle = full_basis_projection(Ke)
        for label, c in oracle.items():
            if label in got:
                assert got[label] == pytest.approx(c, abs=1e-9)
            else:
                assert abs(c) < 1e-9  # the other ten strings vanish

    def test_reconstruction_exact(self):
        Ke = element_stiffness(3.0, 0.7, 2.5)
        recon = sum(c * pauli_matrix(l).real for c, l in decompose_element(Ke))
        np.testing.assert_allclose(recon, Ke, atol=1e-12)

    def test_round_trip(self):
        coeffs = decompose_element(element_stiffness(2, 3, 0.5))
        recon = sum(c * pauli_matrix(l).real for c, l in coeffs)
        assert decompose_element(recon) == coeffs

    def test_outside_family_rejected(self):
        M = np.zeros((4, 4))
        M[0, 0] = 1.0  # projector, not in the six-string span
        with pytest.raises(DecompositionResidualError):
            decompose_element(M)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_any_six_string_combination_matches_oracle(self, values):
        M = sum(v * pauli_matrix(l).real for v, l in zip(values, ELEMENT_BASIS))
        got = decompose_element(M)
        assert [l for _, l in got] == list(ELEMENT_BASIS)
        oracle = full_basis_projection(M)
        for c, label in got:
            assert c == pytest.approx(oracle[label], rel=1e-12, abs=1e-12)

    # (L, E, n) of cantilever elements whose entries reach E I / l_e^3 in the
    # thousands or far beyond: an absolute residual bound rejected them all.
    @pytest.mark.parametrize("L,E,n", [
        (3.0, 1e3, 6), (3.0, 1e3, 8), (3.0, 1e3, 10),
        (0.1, 1e3, 8), (0.1, 1e3, 9), (0.1, 1e3, 13),
        (10.0, 2e11, 3), (10.0, 2e11, 4), (10.0, 2e11, 13),
        (1.0, 1e3, 16), (1.0, 1e3, 20), (3.0, 2e11, 2),
    ])
    def test_realistic_beams_decompose(self, L, E, n):
        p = problem(BoundaryCase.CANTILEVER, n, length=L, youngs_modulus=E)
        Ke = element_stiffness(E, 1.0, p.element_length)
        recon = sum(c * pauli_matrix(l).real for c, l in decompose_element(Ke))
        assert np.max(np.abs(recon - Ke)) <= 1e-12 * np.max(np.abs(Ke))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        M = element_stiffness(1, 1, 1)
        M[1, 2] = M[2, 1] = bad
        with pytest.raises(DecompositionResidualError):
            decompose_element(M)


class TestMaterialize:
    def test_identity_term(self):
        t = StructuredTerm(1.0, Prefix.IDENTITY, "II", 0)
        np.testing.assert_array_equal(materialize(t, 3), np.eye(8))

    def test_projector_support(self):
        t = StructuredTerm(1.0, Prefix.ZERO_PROJECTOR, "XI", 0)
        M = materialize(t, 3)
        assert np.count_nonzero(M[4:, :]) == 0
        assert np.count_nonzero(M[:, 4:]) == 0
        np.testing.assert_array_equal(M[:4, :4], pauli_matrix("XI").real)

    @pytest.mark.parametrize("prefix", list(Prefix))
    @pytest.mark.parametrize("tail", ["IZ", "YY", "ZX"])
    def test_shift_equals_permutation_conjugation(self, prefix, tail):
        n, N = 4, 16
        t0 = StructuredTerm(1.7, prefix, tail, 0)
        t2 = StructuredTerm(1.7, prefix, tail, 2)
        P = np.zeros((N, N))
        for i in range(N):
            P[(i + 1) % N, i] = 1.0
        base = materialize(t0, n)
        shifted = np.linalg.matrix_power(P, 2).T @ base @ np.linalg.matrix_power(P, 2)
        np.testing.assert_allclose(materialize(t2, n), shifted, atol=1e-12)

    def test_hermitian(self):
        for t in [StructuredTerm(2.0, Prefix.IDENTITY, "YY", 2),
                  StructuredTerm(-1.0, Prefix.ZERO_PROJECTOR, "XZ", 2, sign=-1)]:
            M = materialize(t, 3)
            np.testing.assert_allclose(M, M.T, atol=1e-12)


class TestBuildStructured:
    @pytest.mark.parametrize("case", list(BoundaryCase))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reconstructs_constrained_matrix(self, case, n):
        p = problem(case, n, length=10.0, youngs_modulus=1000.0)
        bc = p.bc()
        K_mod, K_bc = set_to_zero(assemble(p), bc)
        dense = materialize_operator(build_structured(p, K_bc))
        assert np.max(np.abs(dense - K_mod)) <= 1e-10

    def test_term_count_constant_in_n(self):
        for case in BoundaryCase:
            counts = {len(structured(problem(case, n), BcSpec(())).terms)
                      for n in range(2, 9)}
            assert len(counts) == 1
            assert counts.pop() <= 18

    def test_open_chain_term_layout(self):
        op = structured(problem(BoundaryCase.CANTILEVER, 4), BcSpec(()))
        assert len(op.terms) == 18
        assert sum(1 for t in op.terms if t.shift == 0) == 6
        assert sum(1 for t in op.terms
                   if t.prefix is Prefix.ZERO_PROJECTOR and t.sign == -1) == 6

    def test_pbc_omits_wraparound_correction(self):
        op = structured(problem(BoundaryCase.PBC, 4), BcSpec(()))
        assert len(op.terms) == 12
        assert all(t.prefix is Prefix.IDENTITY for t in op.terms)

    def test_n2_degenerate_cancellation(self):
        p = problem(BoundaryCase.CANTILEVER, 2)
        dense = materialize_operator(structured(p, BcSpec(())))
        np.testing.assert_allclose(dense, element_stiffness(1, 1, 1),
                                   atol=1e-12)

    @pytest.mark.parametrize("case", list(BoundaryCase))
    @pytest.mark.parametrize("n", range(2, 9))
    def test_bc_pairs_against_kbc(self, case, n):
        self._check_pairs(problem(case, n), problem(case, n).bc())

    def test_bc_pairs_custom_interior_constraints(self):
        self._check_pairs(problem(BoundaryCase.SSB, 4), BcSpec((3, 4, 5, 9)))

    @staticmethod
    def _check_pairs(p, bc):
        _, K_bc = set_to_zero(assemble(p), bc)
        op = build_structured(p, K_bc)
        assert all(pp < q for pp, q, _ in op.bc_pairs)
        assert list(op.bc_pairs) == sorted(set(op.bc_pairs))
        recon = np.zeros(K_bc.shape)
        for pp, q, c in op.bc_pairs:
            recon[pp, q] = recon[q, pp] = c
        np.testing.assert_array_equal(recon, K_bc.toarray())

    def test_flip_k2_negative_control(self):
        """Flipping the wraparound correction's sign breaks the operator."""
        check = check_structured_vs_dense(flip_k2_sign=True)
        assert not check["passed"] and check["max_error"] > 1.0
