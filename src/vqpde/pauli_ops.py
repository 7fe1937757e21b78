"""Constant-length structured Pauli representation of the beam stiffness matrix.

The assembled stiffness matrix decomposes into three block-diagonal pieces
built from the 4x4 element matrix: an aligned block diagonal, the same block
diagonal conjugated by the shift-by-2 cyclic permutation, and (for the open
chain) a projector-prefixed correction removing the spurious wraparound block.
Each piece contributes the six element-level Pauli terms, so the term count is
independent of the number of qubits.

The six element coefficients Tr(Ke P)/4 are written out over the sixteen
entries of the element matrix: each string in ``ELEMENT_BASIS`` is a real
signed permutation matrix, so the projection needs no complex arithmetic and
no dense Pauli matrices. ``pauli_matrix`` builds those matrices for the dense
oracles and for ``materialize``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse

from .fem import BeamProblem, BoundaryCase, element_stiffness


class DecompositionResidualError(ValueError):
    """Input 4x4 matrix lies outside the six-term beam family."""


_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# The six strings spanning the beam element matrix (leftmost factor = most
# significant qubit).
ELEMENT_BASIS = ("II", "IZ", "XI", "XZ", "YY", "ZX")

# Each string in ELEMENT_BASIS as a real signed permutation matrix: row r holds
# sign[r] in column col[r] and zeros elsewhere (YY is real because the two
# factors of i cancel).
_ELEMENT_SIGNED_PERMUTATIONS = {
    "II": ((0, 1, 2, 3), (1, 1, 1, 1)),
    "IZ": ((0, 1, 2, 3), (1, -1, 1, -1)),
    "XI": ((2, 3, 0, 1), (1, 1, 1, 1)),
    "XZ": ((2, 3, 0, 1), (1, -1, 1, -1)),
    "YY": ((3, 2, 1, 0), (-1, 1, 1, -1)),
    "ZX": ((1, 0, 3, 2), (1, 1, -1, -1)),
}

ALL_2Q_LABELS = tuple(a + b for a in "IXYZ" for b in "IXYZ")


@functools.lru_cache(maxsize=None)
def pauli_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli string, leftmost factor most significant."""
    out = np.array([[1.0 + 0j]])
    for ch in label:
        out = np.kron(out, _PAULI_1Q[ch])
    out.setflags(write=False)
    return out


class Prefix(str, Enum):
    IDENTITY = "identity"
    ZERO_PROJECTOR = "zero_projector"


@dataclass(frozen=True)
class StructuredTerm:
    """One shift-conjugated, optionally projector-prefixed 2-qubit Pauli term."""

    coefficient: float
    prefix: Prefix
    tail: str          # 2-character Pauli label on the two least significant qubits
    shift: int         # conjugation by the shift-by-`shift` cyclic permutation
    sign: int = 1

    def __post_init__(self):
        if len(self.tail) != 2 or any(c not in "IXYZ" for c in self.tail):
            raise ValueError(f"bad tail label {self.tail!r}")
        if self.shift not in (0, 2):
            raise ValueError("shift must be 0 or 2")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +-1")


@dataclass(frozen=True)
class StructuredOperator:
    """Constant-length term list plus boundary-condition pair corrections."""

    num_qubits: int
    terms: tuple[StructuredTerm, ...]
    bc_pairs: tuple[tuple[int, int, float], ...]


def decompose_element(Ke: np.ndarray) -> list[tuple[float, str]]:
    """Project a beam element matrix onto its six-string Pauli basis.

    Coefficients are Tr(Ke P)/4, written out over the entries of ``Ke``: for
    a string P with row r holding sign[r] in column col[r], the trace is
    sum_r sign[r] * Ke[r, col[r]]. Everything is real float arithmetic, with
    no complex Pauli matrices and no lazily built state, so a first call costs
    the same as any other. Returns ``(coefficient, label)`` pairs in
    ``ELEMENT_BASIS`` order. Raises ``DecompositionResidualError`` if the six
    terms do not reconstruct every entry to within 1e-10 of the largest
    |entry| (including non-finite input), which means it is outside the beam
    family. The bound is relative because the entries scale as E I / l_e^3.
    """
    Ke = np.asarray(Ke, dtype=float)
    if Ke.shape != (4, 4):
        raise ValueError("element matrix must be 4x4")
    k = Ke.tolist()
    coeffs = []
    recon = [[0.0] * 4 for _ in range(4)]
    for label in ELEMENT_BASIS:
        col, sign = _ELEMENT_SIGNED_PERMUTATIONS[label]
        c = sum(sign[r] * k[r][col[r]] for r in range(4)) / 4.0
        coeffs.append((c, label))
        for r in range(4):
            recon[r][col[r]] += sign[r] * c
    tol = 1e-10 * max(abs(v) for row in k for v in row)
    if not all(abs(recon[r][j] - k[r][j]) <= tol
               for r in range(4) for j in range(4)):
        raise DecompositionResidualError(
            "six-term reconstruction residual exceeds 1e-10 of max |Ke|")
    return coeffs


def build_structured(problem: BeamProblem,
                     K_bc: scipy.sparse.csr_array) -> StructuredOperator:
    """Structured representation of the constrained stiffness matrix K_mod.

    Open chain: aligned blocks + shifted blocks - shifted projector-prefixed
    wraparound block (6 terms each, 18 total). Periodic: the wraparound block
    is a real element, so the correction is omitted (12 terms). Each coupling
    that ``set_to_zero`` removes, an upper-triangle entry (p, q, c) of its
    ``K_bc``, becomes one boundary pair observable.
    """
    Ke = element_stiffness(problem.youngs_modulus, problem.second_moment,
                           problem.element_length)
    element_terms = decompose_element(Ke)

    terms: list[StructuredTerm] = []
    for c, tail in element_terms:
        terms.append(StructuredTerm(c, Prefix.IDENTITY, tail, shift=0))
    for c, tail in element_terms:
        terms.append(StructuredTerm(c, Prefix.IDENTITY, tail, shift=2))
    if problem.boundary_case is not BoundaryCase.PBC:
        for c, tail in element_terms:
            terms.append(StructuredTerm(c, Prefix.ZERO_PROJECTOR, tail,
                                        shift=2, sign=-1))

    removed = scipy.sparse.triu(K_bc, k=1).tocoo()
    pairs = sorted(zip(removed.row.tolist(), removed.col.tolist(),
                       removed.data.tolist()))
    return StructuredOperator(problem.num_qubits, tuple(terms), tuple(pairs))


def materialize(term: StructuredTerm, n: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of one structured term.

    Shift conjugation P^-k A P^k acts on entries as A[(i+k)%N, (j+k)%N].
    """
    if n < 2:
        raise ValueError("need at least 2 qubits")
    N = 2 ** n
    tail = pauli_matrix(term.tail)
    if term.prefix is Prefix.IDENTITY:
        base = np.kron(np.eye(N // 4), tail)
    else:
        prefix = np.zeros((N // 4, N // 4))
        prefix[0, 0] = 1.0
        base = np.kron(prefix, tail)
    idx = (np.arange(N) + term.shift) % N
    shifted = base[np.ix_(idx, idx)]
    out = term.sign * term.coefficient * shifted
    if np.max(np.abs(out.imag)) > 1e-12:
        raise ValueError("materialized term is not real")
    return out.real


def pair_matrix(p: int, q: int, coeff: float, N: int) -> np.ndarray:
    M = np.zeros((N, N))
    M[p, q] = M[q, p] = coeff
    return M


def materialize_operator(op: StructuredOperator) -> np.ndarray:
    """Dense sum of all structured terms and bc pairs (oracle support)."""
    N = 2 ** op.num_qubits
    K = np.zeros((N, N))
    for term in op.terms:
        K += materialize(term, op.num_qubits)
    for p, q, c in op.bc_pairs:
        K += pair_matrix(p, q, c, N)
    return K
