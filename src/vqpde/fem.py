"""Classical FEM layer for the Euler-Bernoulli beam.

``BeamProblem`` describes a whole beam, its supports and raw nodal load
included. Element stiffness, sparse global assembly (open chain and
periodic), load normalization, set-to-zero supports, and a sparse direct
solve for reference solutions and target energies. The stiffness matrix is
banded (half-bandwidth 3, plus the periodic corner), so it stays a
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
        for dof in dofs:
            check_int("constrained DOF", dof, 0)
        if list(dofs) != sorted(set(dofs)):
            raise ValueError("constrained DOFs must be sorted and unique")
        object.__setattr__(self, "constrained_dofs", dofs)


@dataclass(frozen=True)
class BeamProblem:
    """The whole description of a beam: geometry, stiffness, size, raw
    nodal ``load`` (one force per DOF) and ``supports``; None means the
    case's default load or supports. Every field is hashable."""

    length: float
    youngs_modulus: float
    second_moment: float
    num_qubits: int
    boundary_case: BoundaryCase
    load: tuple[float, ...] | None = None
    supports: BcSpec | None = None

    def __post_init__(self):
        for name in ("length", "youngs_modulus", "second_moment"):
            check_real(name, getattr(self, name))
        check_int("num_qubits", self.num_qubits, 2)
        if not isinstance(self.boundary_case, BoundaryCase):
            raise TypeError(f"boundary_case must be a BoundaryCase, "
                            f"got {self.boundary_case!r}")
        k = _element_entries(self.youngs_modulus, self.second_moment,
                             self.element_length)
        if not all(0.0 < v < math.inf for v in k):
            raise ValueError("element stiffness 12EI/l^3 .. 2EI/l is not "
                             f"finite and positive: {k[0]:.3g} .. {k[3]:.3g}")
        if not isinstance(self.supports, (BcSpec, type(None))):
            raise TypeError(f"supports must be a BcSpec, got {self.supports!r}")
        if self.load is not None:
            f = np.asarray(self.load, dtype=float)
            if f.shape != (self.num_dofs,) or not np.all(np.isfinite(f)):
                raise ValueError(f"load must hold {self.num_dofs} finite "
                                 f"entries, one per DOF, got shape {f.shape}")
            object.__setattr__(self, "load", tuple(f.tolist()))

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
        """``supports``, or the case's default. The periodic beam anchors the
        node-0 deflection to remove the uniform-translation null mode."""
        if self.supports is not None:
            return self.supports
        n = self.num_dofs
        return BcSpec({BoundaryCase.CANTILEVER: (0, 1),
                       BoundaryCase.SSB: (0, n - 2),
                       BoundaryCase.FFB: (0, 1, n - 2, n - 1),
                       BoundaryCase.PBC: (0,)}[self.boundary_case])


@dataclass(frozen=True)
class LoadSpec:
    """Unit-norm load vector plus the 2-norm that was removed.

    Entries at constrained DOFs are forced to zero before normalization, so
    ``vector`` is directly compatible with the set-to-zero system. The removed
    norm ``scale`` restores physical units in reported profiles.
    """

    vector: np.ndarray
    scale: float

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
        object.__setattr__(self, "vector", v)
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("load vector must have unit 2-norm")


def normalize_load(raw, bc: BcSpec) -> LoadSpec:
    f = np.asarray(raw, dtype=float).copy()
    f[list(bc.constrained_dofs)] = 0.0
    norm = float(np.linalg.norm(f))
    if norm == 0.0:
        raise ValueError("load vector vanishes after applying constraints")
    return LoadSpec(vector=f / norm, scale=norm)


def default_load(problem: BeamProblem) -> LoadSpec:
    """Per-case load convention, normalized against ``problem.bc()``.

    Cantilever: unit force at the free-end deflection. SSB/FFB: unit force at
    the mid-span deflection. PBC: self-equilibrated +/-1 pair at node 0 and
    node nodes/2 deflections (the anchored entry is zeroed by the constraint).
    """
    raw = np.zeros(problem.num_dofs)
    mid = 2 * (problem.num_nodes // 2)
    case = problem.boundary_case
    if case is BoundaryCase.CANTILEVER:
        raw[problem.num_dofs - 2] = 1.0
    elif case in (BoundaryCase.SSB, BoundaryCase.FFB):
        raw[mid] = 1.0
    else:
        raw[0] = 1.0
        raw[mid] = -1.0
    return normalize_load(raw, problem.bc())


def _element_entries(E: float, I: float, l_e: float) -> tuple:
    """12EI/l^3, 6EI/l^2, 4EI/l, 2EI/l on float64 scalars: out of range they
    are inf or 0, not an error (l ** 3, not l * l * l, keeps the last bit)."""
    E, I, l_e = np.float64(E), np.float64(I), np.float64(l_e)
    with np.errstate(all="ignore"):
        return (12.0 * E * I / l_e ** 3, 6.0 * E * I / l_e ** 2,
                4.0 * E * I / l_e, 2.0 * E * I / l_e)


def element_stiffness(E: float, I: float, l_e: float) -> np.ndarray:
    """4x4 Hermite-cubic bending stiffness of one beam element."""
    if E <= 0 or I <= 0 or l_e <= 0:
        raise ValueError("E, I and element length must be positive")
    a, b, c, d = _element_entries(E, I, l_e)
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


def check_supports(problem: BeamProblem) -> None:
    """Reject supports that leave the set-to-zero system singular.

    Raises ValueError for a constrained DOF outside the system. The
    unconstrained beam moves freely by translation (w = 1) and, on an open
    chain, by rotation (w = x, theta = 1); set-to-zero leaves K_mod singular
    exactly when some combination of these modes vanishes on every
    constrained DOF, which raises SingularSystemError.
    """
    bc = problem.bc()
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
