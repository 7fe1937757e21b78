"""Classical FEM layer for the Euler-Bernoulli beam.

Element stiffness, sparse global assembly (open chain and periodic), load
vectors, set-to-zero displacement boundary conditions, and a sparse direct
solve that provides reference solutions and target energies. The stiffness
matrix is banded (half-bandwidth 3, plus the periodic corner), so it stays a
scipy.sparse CSR matrix from assembly to the reference solve.

DOF layout: node i carries deflection at index 2i and rotation at 2i+1.
With n qubits the system has N = 2^n DOFs, i.e. N/2 nodes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


class SingularSystemError(ValueError):
    """Raised when the constrained stiffness matrix is not positive definite."""


def check_int(name: str, value, minimum: int) -> None:
    """TypeError unless an integer (not a bool); ValueError below minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def check_real(name: str, value, positive: bool = True) -> None:
    """TypeError unless a real number (not a bool); ValueError unless finite
    and positive (non-negative with ``positive=False``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        raise ValueError(f"{name} is out of range: {value}")


class BoundaryCase(str, Enum):
    PBC = "pbc"
    SSB = "ssb"
    FFB = "ffb"
    CANTILEVER = "cantilever"


@dataclass(frozen=True)
class BcSpec:
    """Sorted, duplicate-free list of constrained DOF indices."""

    constrained_dofs: tuple[int, ...]

    def __post_init__(self):
        dofs = tuple(self.constrained_dofs)
        if list(dofs) != sorted(set(dofs)):
            raise ValueError("constrained DOFs must be sorted and unique")
        if dofs and dofs[0] < 0:
            raise ValueError("negative DOF index")
        object.__setattr__(self, "constrained_dofs", dofs)

    @staticmethod
    def for_case(case: BoundaryCase, num_dofs: int) -> "BcSpec":
        n = num_dofs
        if case is BoundaryCase.CANTILEVER:
            return BcSpec((0, 1))
        if case is BoundaryCase.SSB:
            return BcSpec((0, n - 2))
        if case is BoundaryCase.FFB:
            return BcSpec((0, 1, n - 2, n - 1))
        # Periodic beam: anchor the node-0 deflection to remove the
        # uniform-translation null mode.
        return BcSpec((0,))


@dataclass(frozen=True)
class BeamProblem:
    """Physical and discretization description of a beam instance."""

    length: float
    youngs_modulus: float
    second_moment: float
    num_qubits: int
    boundary_case: BoundaryCase
    load: "LoadSpec | None" = None

    def __post_init__(self):
        for name in ("length", "youngs_modulus", "second_moment"):
            check_real(name, getattr(self, name))
        check_int("num_qubits", self.num_qubits, 2)
        if not isinstance(self.boundary_case, BoundaryCase):
            raise TypeError(f"boundary_case must be a BoundaryCase, "
                            f"got {self.boundary_case!r}")

    @property
    def num_dofs(self) -> int:
        return 2 ** self.num_qubits

    @property
    def num_nodes(self) -> int:
        return self.num_dofs // 2

    @property
    def num_elements(self) -> int:
        if self.boundary_case is BoundaryCase.PBC:
            return self.num_nodes
        return self.num_nodes - 1

    @property
    def element_length(self) -> float:
        return self.length / self.num_elements

    def bc(self) -> BcSpec:
        return BcSpec.for_case(self.boundary_case, self.num_dofs)


class LoadKind(str, Enum):
    POINT_FORCE = "point_force"
    CUSTOM = "custom"


@dataclass(frozen=True)
class LoadSpec:
    """Unit-norm load vector plus the 2-norm that was removed.

    Entries at constrained DOFs are forced to zero before normalization, so
    ``vector`` is directly compatible with the set-to-zero system. The removed
    norm ``scale`` restores physical units in reported profiles.
    """

    kind: LoadKind
    vector: np.ndarray
    scale: float
    dof_index: int | None = None

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
        object.__setattr__(self, "vector", v)
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("load vector must have unit 2-norm")


def normalize_load(raw: np.ndarray, bc: BcSpec,
                   kind: LoadKind = LoadKind.CUSTOM,
                   dof_index: int | None = None) -> LoadSpec:
    f = np.asarray(raw, dtype=float).copy()
    f[list(bc.constrained_dofs)] = 0.0
    norm = float(np.linalg.norm(f))
    if norm == 0.0:
        raise ValueError("load vector vanishes after applying constraints")
    return LoadSpec(kind=kind, vector=f / norm, scale=norm, dof_index=dof_index)


def default_load(problem: BeamProblem, bc: BcSpec) -> LoadSpec:
    """Per-case load convention.

    Cantilever: unit force at the free-end deflection. SSB/FFB: unit force at
    the mid-span deflection. PBC: self-equilibrated +/-1 pair at node 0 and
    node nodes/2 deflections (the anchored entry is zeroed by the constraint).
    """
    n = problem.num_dofs
    raw = np.zeros(n)
    case = problem.boundary_case
    if case is BoundaryCase.CANTILEVER:
        dof = n - 2
        raw[dof] = 1.0
        return normalize_load(raw, bc, LoadKind.POINT_FORCE, dof)
    if case in (BoundaryCase.SSB, BoundaryCase.FFB):
        dof = 2 * (problem.num_nodes // 2)
        raw[dof] = 1.0
        return normalize_load(raw, bc, LoadKind.POINT_FORCE, dof)
    raw[0] = 1.0
    raw[2 * (problem.num_nodes // 2)] = -1.0
    return normalize_load(raw, bc, LoadKind.CUSTOM)


def element_stiffness(E: float, I: float, l_e: float) -> np.ndarray:
    """4x4 Hermite-cubic bending stiffness of one beam element."""
    if E <= 0 or I <= 0 or l_e <= 0:
        raise ValueError("E, I and element length must be positive")
    a = 12.0 * E * I / l_e ** 3
    b = 6.0 * E * I / l_e ** 2
    c = 4.0 * E * I / l_e
    d = 2.0 * E * I / l_e
    return np.array([
        [a, b, -a, b],
        [b, c, -b, d],
        [-a, -b, a, -b],
        [b, d, -b, c],
    ])


def assemble(problem: BeamProblem) -> scipy.sparse.csr_array:
    """Global stiffness matrix, sparse.

    Element e couples DOFs (2e + k) mod N for k = 0..3, so the periodic case's
    extra element wraps onto node 0. The shared-node rotation couplings of
    neighbouring elements cancel exactly; they are dropped, so every stored
    entry is a true coupling.
    """
    N = problem.num_dofs
    Ke = element_stiffness(problem.youngs_modulus, problem.second_moment,
                           problem.element_length)
    E = problem.num_elements
    dofs = (2 * np.arange(E)[:, None] + np.arange(4)) % N
    rows = np.repeat(dofs, 4, axis=1).ravel()
    cols = np.tile(dofs, (1, 4)).ravel()
    K = scipy.sparse.coo_array((np.tile(Ke.ravel(), E), (rows, cols)),
                               shape=(N, N)).tocsr()
    K.eliminate_zeros()
    return K


def check_supports(problem: BeamProblem, bc: BcSpec) -> None:
    """Reject constraints that leave the set-to-zero system singular.

    Raises ValueError for a constrained DOF outside the system. The
    unconstrained beam moves freely by translation (w = 1) and, on an open
    chain, by rotation (w = x, theta = 1); set-to-zero leaves K_mod singular
    exactly when some combination of these modes vanishes on every
    constrained DOF, which raises SingularSystemError.
    """
    dofs = list(bc.constrained_dofs)
    if dofs and dofs[-1] >= problem.num_dofs:
        raise ValueError(f"constrained DOF {dofs[-1]} is outside the "
                         f"{problem.num_dofs}-DOF system")
    modes = np.zeros((problem.num_dofs, 2))  # translation, rotation
    modes[0::2, 0] = 1.0
    modes[0::2, 1] = np.arange(problem.num_nodes) * problem.element_length
    modes[1::2, 1] = 1.0
    if problem.boundary_case is BoundaryCase.PBC:
        modes = modes[:, :1]
    if np.linalg.matrix_rank(modes[dofs]) < modes.shape[1]:
        raise SingularSystemError(
            f"constraints {bc.constrained_dofs} leave a rigid-body mode free")


def set_to_zero(K, bc: BcSpec
                ) -> tuple[scipy.sparse.csr_array, scipy.sparse.csr_array]:
    """Zero the off-diagonal entries of constrained rows/columns.

    Returns sparse (K_mod, K_bc) with K_bc = K_mod - K; diagonals are
    untouched. The stored entries of K_bc are the removed couplings, which
    become the boundary pair observables.
    """
    K = scipy.sparse.csr_array(K, dtype=float)
    keep = np.ones(K.shape[0])
    keep[list(bc.constrained_dofs)] = 0.0
    D = scipy.sparse.diags_array(keep)
    K_mod = D @ K @ D + scipy.sparse.diags_array(K.diagonal() * (1.0 - keep))
    return K_mod, K_mod - K


def classical_solve(K_mod, load: LoadSpec) -> tuple[np.ndarray, float]:
    """Solve K_mod u = f by a sparse direct solve; return (u, -f.u/2).

    The energy is the minimum of the discretized potential
    0.5 u'Ku - f.u, attained at the solution. The LU factorization keeps the
    natural order and pivots on the diagonal only; for a symmetric matrix the
    U diagonal then holds the Cholesky pivots, so K_mod is positive definite
    exactly when no row is pivoted and every pivot is positive.
    """
    f = load.vector
    not_pd = ("constrained stiffness matrix is not positive definite "
              "(periodic case without an anchor?)")
    try:
        lu = scipy.sparse.linalg.splu(scipy.sparse.csc_array(K_mod, dtype=float),
                                      permc_spec="NATURAL",
                                      diag_pivot_thresh=0.0)
    except RuntimeError as exc:  # SuperLU: factor is exactly singular
        raise SingularSystemError(not_pd) from exc
    if (not np.array_equal(lu.perm_r, lu.perm_c)
            or not np.all(lu.U.diagonal() > 0.0)):
        raise SingularSystemError(not_pd)
    u = lu.solve(f)
    energy = -0.5 * float(f @ u)
    return u, energy
