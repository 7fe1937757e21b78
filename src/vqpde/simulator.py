"""Exact statevector simulation: the real engine and the gate-level oracle.

The engine ``driver.py`` runs is one Kronecker-layer kernel on a flat float64
state. ``layer_factors`` builds, once per parameter vector, the row and
column factors of every RY layer of the real-amplitude ansatz; the forward
``ansatz_states`` applies each layer as two matmuls on the state's matrix
view and keeps the state after every layer, and the reverse sweep
``ansatz_vjp`` pulls lam back through one layer per step with the same
factors, reads it against the forward's own states, and returns
lam . dphi/dtheta for all angles.
The forward multiplies the same orthogonal layers as the gate path in another
order, so it matches ``prepare_ansatz`` to rounding (at most 3.6e-16 over
n = 2...14, within the operation-count bound the tests assert), not bit for
bit. The descent is chaotic in the gradient's last bits, but bit-identity
with the gate path buys nothing there: with each gradient perturbed by
1e-15 relative noise (``scripts/gradient_noise_spread.py --runs 6``) the
cantilever's best-of-5 error spans 6.4e-4 to 1.28e-2 on a gate-path
forward and 1.2e-3 to 5.7e-3 on this one, both inside criterion 6's 0.02.

Everything else is the gate-level construction that defines the semantics
and serves as its oracle (used by ``verify.py`` and the tests only): complex
``Statevector`` gate application, the increment (shift) circuit, the
ancilla-based superposition state used by the overlap observable, and
expectation evaluation for Pauli strings and projector-prefixed tails.

Index convention: qubit 0 is the most significant bit of the basis index,
i = sum_k b_k 2^(m-1-k). The element-matrix tail therefore acts on the two
least significant qubits (m-2, m-1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .pauli_ops import Prefix, StructuredTerm, pauli_matrix


class ArityError(ValueError):
    """Parameter vector length does not match the ansatz layout."""


@dataclass(frozen=True)
class Gate:
    kind: str                      # "ry" | "x" | "h" | "cnot" | "mcx" | "cry"
    target: int
    controls: tuple[int, ...] = ()
    angle: float = 0.0

    def __post_init__(self):
        if self.target in self.controls:
            raise ValueError("target must not be a control")


def ry(target: int, angle: float) -> Gate:
    return Gate("ry", target, angle=angle)


def x(target: int) -> Gate:
    return Gate("x", target)


def h(target: int) -> Gate:
    return Gate("h", target)


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", target, (control,))


def mcx(controls, target: int) -> Gate:
    return Gate("mcx", target, tuple(controls))


def cry(control: int, target: int, angle: float) -> Gate:
    return Gate("cry", target, (control,), angle)


class Statevector:
    """Complex amplitude vector of length 2^m with in-place gate semantics."""

    def __init__(self, amplitudes: np.ndarray, num_qubits: int | None = None):
        amps = np.asarray(amplitudes, dtype=complex)
        m = int(np.log2(amps.size)) if num_qubits is None else num_qubits
        if amps.size != 2 ** m:
            raise ValueError("amplitude count must be a power of two")
        self.amplitudes = amps
        self.num_qubits = m

    @classmethod
    def zero(cls, m: int) -> "Statevector":
        amps = np.zeros(2 ** m, dtype=complex)
        amps[0] = 1.0
        return cls(amps, m)

    def copy(self) -> "Statevector":
        return Statevector(self.amplitudes.copy(), self.num_qubits)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def real_vector(self) -> np.ndarray:
        if np.max(np.abs(self.amplitudes.imag)) > 1e-10:
            raise ValueError("state has non-negligible imaginary amplitudes")
        return self.amplitudes.real.copy()


@functools.lru_cache(maxsize=None)
def _gate_indices(m: int, target: int, controls: tuple[int, ...]):
    """Index pairs (i0, i1) swapped/mixed by a controlled 1-qubit gate.

    i0 runs over basis states with all control bits set and the target bit
    clear; i1 is i0 with the target bit set.
    """
    t_bit = 1 << (m - 1 - target)
    c_mask = 0
    for c in controls:
        c_mask |= 1 << (m - 1 - c)
    idx = np.arange(2 ** m)
    i0 = idx[((idx & c_mask) == c_mask) & ((idx & t_bit) == 0)]
    i1 = i0 | t_bit
    return i0, i1


_SWAP_KINDS = frozenset(("x", "cnot", "mcx"))
_ROTATION_KINDS = frozenset(("ry", "cry"))
_SQRT_HALF = 1.0 / np.sqrt(2.0)


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate in place; controls select the |1> subspace."""
    m = state.num_qubits
    if max((gate.target,) + gate.controls) >= m:
        raise IndexError("qubit index out of range")
    amps = state.amplitudes
    i0, i1 = _gate_indices(m, gate.target, gate.controls)
    kind = gate.kind
    a0 = amps[i0]          # fancy indexing copies, so a0 survives the writes
    a1 = amps[i1]
    if kind in _SWAP_KINDS:
        amps[i0] = a1
        amps[i1] = a0
    elif kind in _ROTATION_KINDS:
        c = math.cos(0.5 * gate.angle)
        s = math.sin(0.5 * gate.angle)
        amps[i0] = c * a0 - s * a1
        amps[i1] = s * a0 + c * a1
    elif kind == "h":
        amps[i0] = _SQRT_HALF * (a0 + a1)
        amps[i1] = _SQRT_HALF * (a0 - a1)
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    return state


def apply_circuit(state: Statevector, gates) -> Statevector:
    for g in gates:
        apply_gate(state, g)
    return state


def ansatz_gates(n: int, reps: int, theta: np.ndarray) -> list[Gate]:
    """Real-amplitude layout: RY layer, then reps x (linear CNOT chain + RY layer)."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != n * (reps + 1):
        raise ArityError(
            f"expected {n * (reps + 1)} parameters, got {theta.size}")
    gates: list[Gate] = []
    it = iter(theta)
    gates.extend(ry(k, next(it)) for k in range(n))
    for _ in range(reps):
        gates.extend(cnot(k, k + 1) for k in range(n - 1))
        gates.extend(ry(k, next(it)) for k in range(n))
    return gates


def prepare_ansatz(n: int, reps: int, theta: np.ndarray) -> Statevector:
    return apply_circuit(Statevector.zero(n), ansatz_gates(n, reps, theta))


@functools.lru_cache(maxsize=None)
def _cnot_chain(n: int) -> np.ndarray:
    """Index map of the CNOT chain: it XORs each bit with all more significant
    ones, so |i> receives the amplitude of the Gray code i ^ (i >> 1)."""
    idx = np.arange(2 ** n)
    out = idx ^ (idx >> 1)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _cnot_chain_inverse(n: int) -> np.ndarray:
    """Index map undoing ``_cnot_chain``: |i> receives the amplitude of the
    Gray decode of i."""
    out = np.argsort(_cnot_chain(n))
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _read_table(h: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into one layer's reads buffer, C = mu psi^T (2^h x 2^h)
    then D = mu^T psi (2^m x 2^m), and their signs. For row qubit k < h the
    entries C[i, flip_k[i]], for column qubit k the entries D[i, flip_k[i]],
    qubit by qubit; flip_k flips qubit k's bit of its half, and the sign is
    -1 where that bit is 0 and +1 where it is 1."""
    at, sign = [], []
    for bits, offset in ((h, 0), (m, 4 ** h)):
        idx = np.arange(2 ** bits)
        flip = idx ^ (1 << (bits - 1 - np.arange(bits)))[:, None]
        at.append((offset + (idx << bits) + flip).ravel())
        sign.append(np.sign(idx - flip).ravel())
    at, sign = np.concatenate(at), np.concatenate(sign).astype(float)
    at.setflags(write=False)
    sign.setflags(write=False)
    return at, sign


def _kron_layers(rot: np.ndarray) -> np.ndarray:
    """Per layer l, the Kronecker product of the 2x2 rotations rot[l, k],
    shape (L, 2^m, 2^m) from rot of shape (L, m, 2, 2), with factor 0 the
    most significant. One broadcast multiply per factor, each new factor
    taken as the more significant one, so the innermost axis stays long."""
    L, m = rot.shape[:2]
    out = rot[:, m - 1] if m else np.ones((L, 1, 1))
    for k in range(m - 2, -1, -1):
        d = out.shape[1]
        out = (rot[:, k, :, None, :, None] * out[:, None, :, None, :]
               ).reshape(L, 2 * d, 2 * d)
    return out


def layer_factors(theta: np.ndarray, n: int, reps: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The row and column factors (a, b) of every RY layer, layer 0 first.

    The state is viewed as a 2^h x 2^(n-h) matrix X, h = n // 2: rows are
    qubits 0..h-1, columns qubits h..n-1. Layer l's RYs act as
    X -> a[l] X b[l]^T, with a[l] (2^h x 2^h) and b[l] (2^(n-h) x 2^(n-h))
    the Kronecker products of its row and column rotations. Both
    ``ansatz_states`` and ``ansatz_vjp`` run on these factors, so a caller
    builds them once per parameter vector.
    """
    theta, P = np.asarray(theta, dtype=float), n * (reps + 1)
    if theta.shape != (P,):
        raise ArityError(f"expected {P} parameters, got shape {theta.shape}")
    half = 0.5 * theta.reshape(reps + 1, n)
    cos, sin = np.cos(half), np.sin(half)
    rot = np.empty((reps + 1, n, 2, 2))  # RY(t) = [[c, -s], [s, c]]
    rot[..., 0, 0] = cos
    rot[..., 1, 1] = cos
    rot[..., 1, 0] = sin
    np.negative(sin, out=rot[..., 0, 1])
    h = n // 2
    return _kron_layers(rot[:, :h]), _kron_layers(rot[:, h:])


def ansatz_states(factors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The real ansatz state after each RY layer, shape (L, 2^n), from its
    ``layer_factors``; the last row is the ansatz state phi.

    Layer 0 acts on |0...0>, whose matrix is e_0 e_0^T, so after it
    X = a[0][:, 0] b[0][:, 0]^T, one outer product. Each later layer is one
    gather through the CNOT chain's cached index map, then X -> a X b^T, two
    matmuls, the second written into the layer's row of one buffer. The gate
    path (``prepare_ansatz``) computes the same orthogonal product in another
    order, so the two agree to rounding, not bit for bit.
    """
    a, b = factors
    L, rows, cols = a.shape[0], a.shape[1], b.shape[1]
    chain = _cnot_chain((rows * cols).bit_length() - 1)
    states = np.empty((L, rows, cols))
    np.multiply.outer(a[0, :, 0], b[0, :, 0], out=states[0])
    for layer in range(1, L):
        x = states[layer - 1].take(chain).reshape(rows, cols)
        np.matmul(a[layer] @ x, b[layer].T, out=states[layer])
    return states.reshape(L, -1)


def ansatz_vjp(factors: tuple[np.ndarray, np.ndarray], states: np.ndarray,
               lam: np.ndarray) -> np.ndarray:
    """lam . dphi/dtheta_j for every angle, by one reverse sweep of lam.

    ``states`` are the per-layer states ``ansatz_states`` built from
    ``factors`` (``layer_factors``). dRY(t)/dt = RY(pi) RY(t) / 2, and
    Y_k = RY(pi) on qubit k commutes with every RY of its layer, so the
    derivative along the RY of layer l on qubit k is <mu_l, Y_k psi_l> / 2,
    with psi_l = states[l] and mu_l lam pulled back through the later
    (orthogonal) gates. The sweep carries mu alone, in the factors'
    2^h x 2^(n-h) matrix view: layer l maps X -> a[l] X b[l]^T, so
    mu_(l-1) is the CNOT chain's inverse gather of a[l]^T mu_l b[l], two
    matmuls on one state per layer. A row qubit's read is
    sum_i sign_k[i] C[i, flip_k[i]] with C = mu psi^T, a column qubit's the
    same on D = mu^T psi, with the flip tables of h and n - h qubits. After
    the sweep two matmuls over the layer axis give every C and D in one
    buffer, one ``take`` gathers all L n reads' entries, and one sign
    multiply and one sum per half reduce them. That is
    O(L 2^n (2^h + 2^(n-h))) in BLAS for L = reps + 1 layers.
    """
    a, b = factors
    L, rows, cols = a.shape[0], a.shape[1], b.shape[1]
    h, n = rows.bit_length() - 1, (rows * cols).bit_length() - 1
    unchain = _cnot_chain_inverse(n)
    states = states.reshape(L, rows, cols)
    mu = np.empty((L, rows, cols))
    mu[-1] = lam.reshape(rows, cols)
    for layer in range(L - 1, 0, -1):  # mu_0 is the last one read
        (a[layer].T @ mu[layer] @ b[layer]).take(
            unchain, out=mu[layer - 1].reshape(-1), mode="clip")
    prod = np.empty((L, rows * rows + cols * cols))
    np.matmul(mu, states.transpose(0, 2, 1),
              out=prod[:, :rows * rows].reshape(L, rows, rows))
    np.matmul(mu.transpose(0, 2, 1), states,
              out=prod[:, rows * rows:].reshape(L, cols, cols))
    at, sign = _read_table(h, n - h)
    # ``take`` copies the reads into contiguous rows, whose sums add in the
    # order a per-layer reduction does; sums over a strided view would not.
    reads = prod.take(at, axis=1, mode="clip")
    reads *= sign
    g = np.empty((L, n))
    reads[:, :h * rows].reshape(L, h, rows).sum(axis=2, out=g[:, :h])
    reads[:, h * rows:].reshape(L, n - h, cols).sum(axis=2, out=g[:, h:])
    g *= 0.5
    return g.ravel()


def shift_circuit(m: int) -> list[Gate]:
    """Increment circuit |i> -> |(i+1) mod 2^m>.

    MCX cascade from the most significant target down to a bare X on the
    least significant qubit. Applied to the n-1 most significant qubits of an
    n-qubit register it realizes the shift-by-2 permutation.
    """
    if m < 1:
        raise ValueError("need at least one qubit")
    gates = []
    for t in range(m):
        controls = tuple(range(t + 1, m))
        if controls:
            gates.append(mcx(controls, t))
        else:
            gates.append(x(t))
    return gates


def expectation_pauli(state: Statevector, pauli: str) -> float:
    """Exact <state|O|state> for a Pauli string covering the whole register."""
    m = state.num_qubits
    amps = state.amplitudes
    if len(pauli) != m:
        raise ValueError("Pauli string length must match the register")
    x_mask = sum(1 << (m - 1 - k) for k, ch in enumerate(pauli) if ch in "XY")
    phase_mask = sum(1 << (m - 1 - k) for k, ch in enumerate(pauli)
                     if ch in "ZY")
    n_y = pauli.count("Y")
    idx = np.arange(amps.size)
    parity = [bin(i).count("1") & 1 for i in (idx & phase_mask).tolist()]
    signs = 1 - 2 * np.array(parity)
    out = np.zeros_like(amps)
    out[idx ^ x_mask] = (1j ** n_y) * signs * amps
    val = np.vdot(amps, out)
    if abs(val.imag) > 1e-10:
        raise ValueError("expectation of Hermitian string came out complex")
    return float(val.real)


def expectation_tail(state: Statevector, tail: str, prefix: Prefix) -> float:
    """<state | prefix (x) tail | state> with tail on the two LSB qubits."""
    tail_m = pauli_matrix(tail)
    blocks = state.amplitudes.reshape(-1, 4)
    if prefix is Prefix.ZERO_PROJECTOR:
        blocks = blocks[:1]
    val = np.vdot(blocks, blocks @ tail_m.T)
    return float(val.real)


def expectation_structured_term(state: Statevector, term: StructuredTerm,
                                shifted: Statevector | None = None) -> float:
    """Expectation of one structured term via the circuit path.

    ``shifted`` may carry the precomputed shift-by-2 image of ``state`` to
    share it across terms.
    """
    if term.shift == 0:
        target = state
    else:
        if shifted is None:
            shifted = shift_by_two(state)
        target = shifted
    return term.sign * term.coefficient * expectation_tail(
        target, term.tail, term.prefix)


def shift_by_two(state: Statevector) -> Statevector:
    """Shift-by-2 image P^2|state>, via the increment circuit on the upper qubits."""
    n = state.num_qubits
    out = state.copy()
    apply_circuit(out, shift_circuit(n - 1))
    return out


def superposition_state(f: np.ndarray, phi_gates, n: int) -> Statevector:
    """Build (|0>|f> + |1>|phi>)/sqrt(2) on an ancilla-extended register.

    The ancilla is the new most significant qubit. The f branch is written by
    an assumed amplitude-encoding oracle acting on the ancilla-|0> block; the
    phi branch applies ancilla-controlled versions of the ansatz gates.
    """
    f = np.asarray(f, dtype=float)
    if f.size != 2 ** n:
        raise IndexError("force vector length must match the register")
    state = Statevector.zero(n + 1)
    apply_gate(state, h(0))
    # Oracle step: |0>|0..0>/sqrt2 -> |0>|f>/sqrt2.
    state.amplitudes[: f.size] = f / np.sqrt(2)
    for g in phi_gates:
        if g.kind == "ry":
            cg = cry(0, g.target + 1, g.angle)
        elif g.kind == "cnot":
            cg = mcx((0, g.controls[0] + 1), g.target + 1)
        else:
            cg = Gate(g.kind if g.kind != "x" else "cnot", g.target + 1,
                      (0,) + tuple(c + 1 for c in g.controls), g.angle)
        apply_gate(state, cg)
    return state


def overlap_term(state: Statevector) -> float:
    """<f,phi| X (x) I^n |f,phi> = Re<f|phi> on the ancilla state
    (|0>|f> + |1>|phi>)/sqrt(2), such as ``superposition_state`` builds."""
    return expectation_pauli(state, "X" + "I" * (state.num_qubits - 1))
