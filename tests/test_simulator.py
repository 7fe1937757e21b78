import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vqpde.pauli_ops import Prefix, StructuredTerm, materialize, pauli_matrix
from vqpde.simulator import (ArityError, Gate, Statevector, ansatz_gates,
                             ansatz_states, ansatz_vjp, apply_circuit,
                             apply_gate, cnot,
                             expectation_pauli,
                             expectation_structured_term, expectation_tail, h,
                             layer_factors, mcx, overlap_term, prepare_ansatz,
                             ry, shift_by_two, shift_circuit,
                             superposition_state, x)
from vqpde.simulator import _cnot_chain_inverse

U = np.finfo(float).eps / 2  # unit roundoff of float64


def random_state(m, seed, real=False):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** m) + (0 if real else 1j * rng.normal(size=2 ** m))
    amps = amps / np.linalg.norm(amps)
    return Statevector(amps.astype(complex), m)


def engine_state(theta, n, reps):
    return ansatz_states(layer_factors(theta, n, reps))


def gate_matrix(gate, m):
    """Dense unitary oracle built column by column."""
    N = 2 ** m
    U = np.zeros((N, N), dtype=complex)
    for j in range(N):
        e = np.zeros(N, dtype=complex)
        e[j] = 1.0
        U[:, j] = apply_gate(Statevector(e, m), gate).amplitudes
    return U


class TestApplyGate:
    def test_x_on_msb(self):
        state = Statevector.zero(2)
        apply_gate(state, x(0))
        np.testing.assert_array_equal(state.amplitudes, [0, 0, 1, 0])

    def test_ry_half_pi(self):
        state = Statevector.zero(1)
        apply_gate(state, ry(0, np.pi / 2))
        np.testing.assert_allclose(state.amplitudes,
                                   [np.cos(np.pi / 4), np.sin(np.pi / 4)],
                                   atol=1e-15)

    def test_cnot_against_dense_oracle(self):
        state = random_state(3, seed=5)
        expected = gate_matrix(cnot(0, 2), 3) @ state.amplitudes
        apply_gate(state, cnot(0, 2))
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_cnot_truth_table(self):
        # control qubit 0 (MSB): |10> -> |11>
        state = Statevector.zero(2)
        apply_gate(state, x(0))
        apply_gate(state, cnot(0, 1))
        np.testing.assert_array_equal(state.amplitudes, [0, 0, 0, 1])

    def test_mcx(self):
        state = Statevector.zero(3)
        apply_circuit(state, [x(0), x(1), mcx((0, 1), 2)])
        assert state.amplitudes[0b111] == 1.0

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            apply_gate(Statevector.zero(2), x(2))

    def test_control_equals_target_rejected(self):
        with pytest.raises(ValueError):
            Gate("cnot", 1, (1,))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(3, seed)
        gates = []
        for _ in range(50):
            kind = rng.integers(4)
            q = int(rng.integers(3))
            if kind == 0:
                gates.append(x(q))
            elif kind == 1:
                gates.append(h(q))
            elif kind == 2:
                gates.append(ry(q, float(rng.normal())))
            else:
                gates.append(cnot(q, (q + 1) % 3))
        apply_circuit(state, gates)
        assert state.norm() == pytest.approx(1.0, abs=1e-10)


class TestAnsatz:
    def test_zero_parameters_give_ground_state(self):
        state = prepare_ansatz(3, 2, np.zeros(9))
        np.testing.assert_array_equal(state.amplitudes,
                                      Statevector.zero(3).amplitudes)

    def test_single_qubit_pi(self):
        state = prepare_ansatz(1, 0, np.array([np.pi]))
        np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-15)

    def test_against_dense_layer_product(self):
        n, reps = 3, 2
        rng = np.random.default_rng(3)
        theta = rng.uniform(-np.pi, np.pi, n * (reps + 1))
        U = np.eye(2 ** n, dtype=complex)
        for g in ansatz_gates(n, reps, theta):
            U = gate_matrix(g, n) @ U
        expected = U @ Statevector.zero(n).amplitudes
        got = prepare_ansatz(n, reps, theta).amplitudes
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_real_amplitudes(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            theta = rng.uniform(-np.pi, np.pi, 30)
            state = prepare_ansatz(5, 5, theta)
            assert np.max(np.abs(state.amplitudes.imag)) <= 1e-12

    def test_parameter_count(self):
        assert len(ansatz_gates(5, 5, np.zeros(30))) == 30 + 5 * 4
        with pytest.raises(ArityError):
            prepare_ansatz(5, 5, np.zeros(29))
        with pytest.raises(ArityError):
            layer_factors(np.zeros(29), 5, 5)
        with pytest.raises(ArityError):
            layer_factors(np.zeros((1, 30)), 5, 5)

    @pytest.mark.parametrize("n,reps", [(1, 0), (2, 3), (5, 5), (8, 2),
                                        (10, 1), (12, 5)])
    def test_real_engine_equals_gate_path(self, n, reps):
        """Each parameter row's state equals the gate-built state to within
        an a-priori rounding bound, in the 2-norm (so also entry by entry).

        Both paths apply the same L = reps + 1 orthogonal RY layers and
        exact CNOT permutations to |0...0>, so the difference is the sum of
        their rounding errors, each carried on unchanged in norm by the
        later orthogonal layers. To first order in the unit roundoff u, on
        a unit state, with m = n - h, h = n // 2, and every cos and sin
        within 4 ulps (8u relative; libm and SIMD builds promise that):
        - a gate RY on one pair gives c a0 - s a1, two products and a sum,
          each output off by at most 2u (|c a0| + |s a1|); over the state
          that is 2u || |RY| || <= 2 sqrt(2) u, since |RY| has norm
          |c| + |s| <= sqrt(2). Its rounded c and s move it by at most
          8 sqrt(2) u more: 10 sqrt(2) u per gate, L n gates.
        - a Kronecker factor entry is a product of h rounded cos and sin,
          h - 1 multiplies: relative error <= 9h u, so the factor moves by
          at most 9h u || |a| || <= 9h u 2^(h/2).
        - the matmul a X sums 2^h products per entry: |error| <=
          2^h u |a| |X|, at most 2^h u 2^(h/2) in norm (the layer-0 outer
          product rounds each entry once, within that).
        - the same two terms for b, with m for h.
        So ||engine - gate|| <= L u ((2^h + 9h) 2^(h/2)
        + (2^m + 9m) 2^(m/2) + 10 sqrt(2) n).
        """
        h, m = n // 2, n - n // 2
        bound = (reps + 1) * U * ((2 ** h + 9 * h) * 2 ** (h / 2)
                                  + (2 ** m + 9 * m) * 2 ** (m / 2)
                                  + 10 * np.sqrt(2) * n)
        rng = np.random.default_rng(n + reps)
        for theta in rng.uniform(-np.pi, np.pi, (4, n * (reps + 1))):
            state = engine_state(theta, n, reps)
            assert state.shape == (2 ** n,) and state.dtype == np.float64
            gate = prepare_ansatz(n, reps, theta).real_vector()
            assert np.linalg.norm(state - gate) <= bound


def flip_rows(m):
    """Row k: each index of a 2^m state with qubit k's bit flipped (qubit 0
    the most significant), and the sign of index - flip."""
    idx = np.arange(2 ** m)
    flip = idx ^ (1 << (m - 1 - np.arange(m)))[:, None]
    return flip, np.sign(idx - flip).astype(float)


def per_layer_vjp(theta, n, reps, phi, lam):
    """``ansatz_vjp`` with each layer's reads gathered, signed and summed
    inside the sweep: the rounding the batched reads must keep bit for bit,
    since the descent (criterion 6) is chaotic in the gradient's last bits."""
    a, b = layer_factors(theta, n, reps)
    h = n // 2
    rows, cols = 2 ** h, 2 ** (n - h)
    row_flip, row_sign = flip_rows(h)
    col_flip, col_sign = flip_rows(n - h)
    row_idx, col_idx = np.arange(rows), np.arange(cols)
    unchain = _cnot_chain_inverse(n)
    pair = np.concatenate([phi, lam]).reshape(2, rows, cols)
    g = np.empty((reps + 1, n))
    for layer in range(reps, -1, -1):
        psi, mu = pair
        g[layer, :h] = (row_sign * (mu @ psi.T)[row_idx, row_flip]).sum(axis=1)
        g[layer, h:] = (col_sign * (mu.T @ psi)[col_idx, col_flip]).sum(axis=1)
        if layer:
            pair = a[layer].T @ pair @ b[layer]
            pair = pair.reshape(2, -1).take(unchain, axis=1).reshape(
                2, rows, cols)
    return 0.5 * g.ravel()


class TestAnsatzVjp:
    """The reverse sweep against the parameter shift on the forward engine,
    and bit for bit against a per-layer reduction of its reads."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), reps=st.integers(0, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=12, reps=5, seed=0)
    @example(n=1, reps=0, seed=0)   # h = 0: the row factor is 1 x 1
    @example(n=7, reps=12, seed=0)  # odd n: 8 rows, 16 columns; deep ansatz
    def test_matches_parameter_shift(self, n, reps, seed):
        """lam . dphi/dtheta_k = lam . phi(theta + pi e_k) / 2 for any lam,
        with each shifted state theta + pi e_k run through the engine."""
        rng = np.random.default_rng(seed)
        P = n * (reps + 1)
        theta = rng.uniform(-np.pi, np.pi, P)
        lam = rng.normal(size=2 ** n)
        rows = np.repeat(theta[None, :], P, axis=0)
        rows[np.arange(P), np.arange(P)] += np.pi
        want = np.array([0.5 * (lam @ engine_state(row, n, reps))
                         for row in rows])
        factors = layer_factors(theta, n, reps)
        phi = ansatz_states(factors)
        phi0, lam0 = phi.copy(), lam.copy()
        got = ansatz_vjp(factors, phi, lam)
        # phi is the caller's state (LossBreakdown.state): no step of the
        # sweep may write through to it, or to lam.
        np.testing.assert_array_equal(phi, phi0)
        np.testing.assert_array_equal(lam, lam0)
        assert got.shape == (P,)
        # Relative to ||lam||, the bound of every |g_k| (||dphi/dtheta_k|| is
        # 1/2): at n = 1 a single product can cancel to ~1e-4 of it.
        assert np.max(np.abs(got - want)) <= 1e-12 * np.linalg.norm(lam)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), reps=st.integers(0, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=1, reps=0, seed=0)   # h = 0: no row qubit, an empty buffer
    @example(n=7, reps=3, seed=0)   # odd n: 8 rows, 16 columns
    @example(n=12, reps=5, seed=0)
    def test_bits_equal_per_layer_reads(self, n, reps, seed):
        """The same bits as reducing each layer's reads in the sweep: the
        parameter-shift test checks the math, this one the rounding."""
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-np.pi, np.pi, n * (reps + 1))
        lam = rng.normal(size=2 ** n)
        factors = layer_factors(theta, n, reps)
        phi = ansatz_states(factors)
        np.testing.assert_array_equal(
            ansatz_vjp(factors, phi, lam),
            per_layer_vjp(theta, n, reps, phi, lam), strict=True)

    def test_parameter_count(self):
        """One derivative per angle of the layout the factors were built
        for; ``TestAnsatz`` checks that other lengths get no factors."""
        factors = layer_factors(np.zeros(30), 5, 5)
        phi = ansatz_states(factors)
        assert ansatz_vjp(factors, phi, phi).shape == (30,)


class TestShiftCircuit:
    def test_two_qubit_increment(self):
        for start, end in [(3, 0), (0, 1), (1, 2), (2, 3)]:
            amps = np.zeros(4, dtype=complex)
            amps[start] = 1.0
            state = Statevector(amps, 2)
            apply_circuit(state, shift_circuit(2))
            assert state.amplitudes[end] == 1.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_increment_permutation(self, m):
        N = 2 ** m
        for i in range(N):
            amps = np.zeros(N, dtype=complex)
            amps[i] = 1.0
            state = Statevector(amps, m)
            apply_circuit(state, shift_circuit(m))
            assert state.amplitudes[(i + 1) % N] == 1.0

    def test_double_application_is_shift_by_two(self):
        m, N = 4, 16
        for i in range(N):
            amps = np.zeros(N, dtype=complex)
            amps[i] = 1.0
            state = Statevector(amps, m)
            gates = shift_circuit(m)
            apply_circuit(state, gates)
            apply_circuit(state, gates)
            assert state.amplitudes[(i + 2) % N] == 1.0

    def test_shift_by_two_on_register(self):
        state = random_state(4, seed=11)
        shifted = shift_by_two(state)
        np.testing.assert_allclose(shifted.amplitudes,
                                   np.roll(state.amplitudes, 2), atol=1e-12)


class TestExpectations:
    def test_z_on_zero(self):
        assert expectation_pauli(Statevector.zero(1), "Z") == pytest.approx(1.0)

    def test_projector_prefix_on_zero(self):
        assert expectation_tail(Statevector.zero(2), "II",
                                Prefix.ZERO_PROJECTOR) == pytest.approx(1.0)

    @pytest.mark.parametrize("label", ["XIZI", "YYXZ", "ZZZZ", "IXYZ"])
    def test_full_string_against_dense(self, label):
        state = random_state(4, seed=hash(label) % 1000)
        dense = pauli_matrix(label)
        expected = np.real(np.vdot(state.amplitudes, dense @ state.amplitudes))
        assert expectation_pauli(state, label) == pytest.approx(expected,
                                                               abs=1e-10)

    def test_projected_tail_against_dense(self):
        state = random_state(4, seed=21)
        term = StructuredTerm(1.0, Prefix.ZERO_PROJECTOR, "YY", 0)
        dense = materialize(term, 4)
        expected = np.real(np.vdot(state.amplitudes, dense @ state.amplitudes))
        assert expectation_tail(state, "YY", Prefix.ZERO_PROJECTOR) == \
            pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("shift", [0, 2])
    @pytest.mark.parametrize("prefix", list(Prefix))
    def test_structured_term_against_dense(self, shift, prefix):
        state = random_state(4, seed=31 + shift)
        term = StructuredTerm(-2.5, prefix, "XZ", shift,
                              sign=-1 if prefix is Prefix.ZERO_PROJECTOR else 1)
        dense = materialize(term, 4)
        expected = np.real(np.vdot(state.amplitudes, dense @ state.amplitudes))
        got = expectation_structured_term(state, term)
        assert got == pytest.approx(expected, abs=1e-10)


def ancilla_state(f, g):
    """(|0>|f> + |1>|g>)/sqrt(2), written from the branches' amplitudes."""
    amps = np.concatenate([f.amplitudes, g.amplitudes]) / np.sqrt(2)
    return Statevector(amps, f.num_qubits + 1)


class TestOverlap:
    def test_identical_states(self):
        f = random_state(3, seed=1, real=True)
        assert overlap_term(ancilla_state(f, f.copy())) == pytest.approx(
            1.0, abs=1e-10)

    def test_orthogonal_states(self):
        f = Statevector.zero(2)
        g = Statevector(np.array([0, 1, 0, 0], dtype=complex), 2)
        assert overlap_term(ancilla_state(f, g)) == pytest.approx(0.0,
                                                                  abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_inner_product_oracle(self, seed):
        f = random_state(3, seed, real=True)
        g = random_state(3, seed + 1, real=True)
        expected = float(f.amplitudes.real @ g.amplitudes.real)
        assert overlap_term(ancilla_state(f, g)) == pytest.approx(expected,
                                                                  abs=1e-10)

    def test_circuit_path_matches_direct_construction(self):
        rng = np.random.default_rng(17)
        n, reps = 3, 2
        theta = rng.uniform(-np.pi, np.pi, n * (reps + 1))
        gates = ansatz_gates(n, reps, theta)
        phi = prepare_ansatz(n, reps, theta)
        f = random_state(n, seed=4, real=True)
        via_circuit = overlap_term(
            superposition_state(f.amplitudes.real, gates, n))
        expected = float(f.amplitudes.real @ phi.amplitudes.real)
        assert via_circuit == pytest.approx(expected, abs=1e-10)

    def test_superposition_state_layout(self):
        n, reps = 2, 1
        theta = np.array([0.3, -0.7, 1.1, 0.2])
        gates = ansatz_gates(n, reps, theta)
        phi = prepare_ansatz(n, reps, theta).amplitudes
        f = np.zeros(4)
        f[1] = 1.0
        state = superposition_state(f, gates, n)
        np.testing.assert_allclose(state.amplitudes[:4], f / np.sqrt(2),
                                   atol=1e-12)
        np.testing.assert_allclose(state.amplitudes[4:], phi / np.sqrt(2),
                                   atol=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(IndexError):
            superposition_state(Statevector.zero(2).amplitudes.real, [], 3)
