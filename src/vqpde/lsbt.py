"""Least-significant-bit transformation for single-pair observables.

A matrix with a single symmetric off-diagonal pair at (p, q) is conjugated by
an X/CNOT sequence into |1><1| on every upper qubit tensor X on the least
significant qubit, which is measurable from computational-basis probabilities.

Gate indices in this module count from the least significant qubit (index 0 =
LSB), matching the matrix algebra the construction is verified against; the
conversion to the simulator's MSB-first register happens at application time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import simulator
from .simulator import Statevector

# Gates are ("x", target) or ("cnot", control, target), LSB-indexed.
LsbtGate = tuple


@dataclass(frozen=True)
class LsbtSequence:
    gates: tuple[LsbtGate, ...]
    num_qubits: int

    def __len__(self):
        return len(self.gates)


def _gate_map(gate: LsbtGate, i: int) -> int:
    if gate[0] == "x":
        return i ^ (1 << gate[1])
    _, c, t = gate
    if (i >> c) & 1:
        return i ^ (1 << t)
    return i


def _apply_to_pair(gates, a: int, b: int) -> tuple[int, int]:
    for g in gates:
        a, b = _gate_map(g, a), _gate_map(g, b)
    return a, b


def _merge_and_fill(a: int, b: int, n: int, pre: list) -> list:
    """Complete a sequence from a pair that already differs in the LSB: on
    each upper qubit j, an X where the even entry's bit is 0, then a CNOT from
    the LSB where the two bits differ, sets bit j of both entries to 1."""
    gates = list(pre)
    odd, even = (a, b) if a & 1 else (b, a)
    for j in range(1, n):
        e, o = (even >> j) & 1, (odd >> j) & 1
        if not e:
            gates.append(("x", j))
        if e != o:
            gates.append(("cnot", 0, j))
    return gates


def _seq_key(gates) -> list:
    return [(0, g[1]) if g[0] == "x" else (1, g[1], g[2]) for g in gates]


@functools.lru_cache(maxsize=None)
def derive_sequence(p: int, q: int, n: int) -> LsbtSequence:
    """X/CNOT sequence T with T' K_pq T equal to the LSB-X observable.

    The gate list is in conjugation order: the first gate is applied to the
    matrix first. Two candidate routes (with and without an initial LSB flip
    swapping the parity roles) are built; the shorter wins, ties broken by
    preferring gates on lower-indexed qubits.
    """
    N = 2 ** n
    if not (0 <= p < q < N):
        raise ValueError("require 0 <= p < q < 2^n")

    pre: list = []
    a, b = p, q
    if (a ^ b) & 1 == 0:
        j0 = ((a ^ b) & -(a ^ b)).bit_length() - 1
        pre.append(("cnot", j0, 0))
        a, b = _apply_to_pair(pre, p, q)

    cand_a = _merge_and_fill(a, b, n, pre)
    cand_b = _merge_and_fill(a ^ 1, b ^ 1, n, pre + [("x", 0)])
    best = min(cand_a, cand_b, key=lambda g: (len(g), _seq_key(g)))
    return LsbtSequence(tuple(best), n)


def permutation(seq: LsbtSequence) -> np.ndarray:
    """Basis-state map of the composite matrix T = G_0 G_1 ... G_m."""
    N = 2 ** seq.num_qubits
    idx = np.arange(N)
    out = idx.copy()
    for g in reversed(seq.gates):
        out = np.array([_gate_map(g, i) for i in out])
    return out


def dense_transform(seq: LsbtSequence) -> np.ndarray:
    """Dense permutation matrix of T (oracle support)."""
    N = 2 ** seq.num_qubits
    perm = permutation(seq)
    T = np.zeros((N, N))
    T[perm, np.arange(N)] = 1.0
    return T


def _sim_gate(gate: LsbtGate, n: int) -> simulator.Gate:
    if gate[0] == "x":
        return simulator.x(n - 1 - gate[1])
    _, c, t = gate
    return simulator.cnot(n - 1 - c, n - 1 - t)


@functools.lru_cache(maxsize=None)
def _sim_gates(seq: LsbtSequence) -> tuple:
    return tuple(_sim_gate(g, seq.num_qubits) for g in seq.gates)


def apply_sequence(state: Statevector, seq: LsbtSequence) -> Statevector:
    """Apply T' to the state (gates in list order; every gate is self-inverse)."""
    for g in _sim_gates(seq):
        simulator.apply_gate(state, g)
    return state


def expectation_kpq(phi: Statevector, p: int, q: int, coefficient: float) -> float:
    """coefficient * <phi| K_pq |phi> via the transformed observable.

    After applying T' the observable is |1..1> projectors tensor X, whose
    expectation is twice the real part of the top-pair amplitude product.
    """
    seq = derive_sequence(p, q, phi.num_qubits)
    psi = apply_sequence(phi.copy(), seq)
    a = psi.amplitudes
    val = 2.0 * float(np.real(np.conj(a[-2]) * a[-1]))
    return coefficient * val


def expectation_kbc(phi: Statevector, bc_pairs) -> float:
    """Weighted sum of single-pair expectations."""
    return sum(expectation_kpq(phi, p, q, c) for p, q, c in bc_pairs)
