"""Variational minimization of the discretized beam energy.

The loss for a trial state phi(theta) is L = -overlap^2 / (2 quad) with
quad = <phi|K_mod|phi> and overlap = <f,phi| X (x) I |f,phi>. The scale
factor c* = overlap/quad is closed-form, so only theta is optimized: BFGS
minimises the scale-free f = -log(-L), which has L's minimiser and the
gradient grad L / |L|. L is about 1e-8 at n = 5 and 1e-14 at n = 10 from a
random start, and f's first step, its stopping rule and its path do not
depend on that size or on EI. Everything recorded stays in units of L. A
state with overlap exactly 0 has L = 0, where f is undefined, and fails its
restart.

The loss and the final state come from one real float64 engine:
``evaluate_loss`` builds the ansatz's per-layer Kronecker factors once
(``simulator.layer_factors``), runs the forward state through them
(``simulator.ansatz_states``) and reads it against the one sparse ``K_mod``.
``gradient`` returns that read together with the exact gradient of L, one
reverse sweep of the adjoint through the same factors, read against the
forward's own per-layer states (``simulator.ansatz_vjp``), so each BFGS
point builds its factors and prepares its trial state once; the records and
the end point's breakdown reuse the reads of the points BFGS accepted. The
forward rounds differently from the gate path (by at most 3.6e-16 over
n = 2...14), so the descents differ from a gate-path forward's in their last
bits; under the noise harness ``scripts/gradient_noise_spread.py --runs 6``
the cantilever's best-of-5 error spreads over the same range either way. The
paper's measurement recipe for quad, the structured Pauli terms plus one LSBT
pair observable per removed coupling, and the ancilla overlap circuit are the
gate-level oracles for those reads, checked against ``K_mod`` by
``verify.py`` and the tests.

The descent loop ``_bfgs`` is scipy's BFGS step for step, with scipy's
Moré-Thuente line search and wolfe2 fallback, less scipy's per-iteration
wrappers: its iterates are scipy's bit for bit, and status, message and
``function_evals`` keep scipy's meaning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
import scipy.sparse
from scipy.optimize._linesearch import LineSearchWarning, scalar_search_wolfe1

from . import simulator
from .fem import (BeamProblem, LoadSpec, assemble, check_int, check_real,
                  check_supports, classical_solve, default_load,
                  normalize_load, set_to_zero)
from .pauli_ops import StructuredOperator, build_structured


class DegenerateStateError(ValueError):
    """The trial state leaves the objective undefined; its restart fails."""


class NearSingularEnergyError(DegenerateStateError):
    """The quadratic form collapsed; the trial state sits in the null space."""


class OptimizationFailedError(RuntimeError):
    """Every restart failed on a degenerate trial state."""


@dataclass(frozen=True)
class OptimizerOptions:
    seed: int = 0
    restarts: int = 5
    max_iter: int = 2000
    grad_tol: float = 1e-8

    def __post_init__(self):
        check_int("seed", self.seed, 0)
        check_int("restarts", self.restarts, 1)
        check_int("max_iter", self.max_iter, 0)
        check_real("grad_tol", self.grad_tol, positive=False)


@dataclass(frozen=True)
class LossBreakdown:
    quad: float
    overlap: float
    c_star: float
    loss: float
    state: np.ndarray = field(compare=False)  # unit phi; not in == or hash
    # K_mod phi, simulator.layer_factors and the state after each layer (phi
    # the last), for gradient's reverse sweep; None in a descent's lean reads
    k_phi: np.ndarray | None = field(default=None, compare=False)
    factors: tuple | None = field(default=None, compare=False)
    states: np.ndarray | None = field(default=None, compare=False)


@dataclass
class ConvergenceRecord:
    loss_history: list[float]
    grad_norm_history: list[float]
    theta_final: np.ndarray
    restart_index: int
    # One record per restart: loss, nit, nfev, status, message, grad_norm and
    # error; a failed restart has its error and None in the other fields.
    restarts: list[dict]

    @property
    def chosen(self) -> dict:
        """The record of the restart the results come from."""
        return self.restarts[self.restart_index]

    # The chosen restart's nit and nfev, as perfbench reads them.
    iterations = property(lambda self: self.chosen["nit"])
    function_evals = property(lambda self: self.chosen["nfev"])


@dataclass
class SolutionProfile:
    deflections: np.ndarray
    rotations: np.ndarray
    scale: float
    state: np.ndarray  # scaled full DOF vector, physical units


@dataclass
class ProblemContext:
    """Everything assembled once per problem: operators, load, reference."""

    problem: BeamProblem
    reps: int
    load: LoadSpec
    K_mod: scipy.sparse.csr_array
    structured: StructuredOperator
    u_ref: np.ndarray
    target_energy: float

    @property
    def n_qubits(self) -> int:
        return self.problem.num_qubits

    @property
    def n_params(self) -> int:
        return self.n_qubits * (self.reps + 1)

    @property
    def circuits_per_eval(self) -> int:
        # One circuit per structured term, one per bc pair, one overlap circuit.
        return len(self.structured.terms) + len(self.structured.bc_pairs) + 1


def build_context(problem: BeamProblem, reps: int) -> ProblemContext:
    """The context of ``problem``. Its load is normalized against
    ``problem.bc()``, so a force on a constrained DOF, a reaction, is zeroed;
    a load with nothing left raises ValueError."""
    check_int("reps", reps, 0)
    check_supports(problem)
    bc = problem.bc()
    load = (default_load(problem) if problem.load is None
            else normalize_load(problem.load, bc))
    K_mod, K_bc = set_to_zero(assemble(problem), bc)
    structured = build_structured(problem, K_bc)
    u_ref, target_energy = classical_solve(K_mod, load)
    return ProblemContext(problem, reps, load, K_mod,
                          structured, u_ref, target_energy)


def evaluate_loss(theta: np.ndarray, ctx: ProblemContext) -> LossBreakdown:
    """The engine's loss at one parameter vector.

    Reads the real engine's unit state phi against the sparse K_mod, quad as
    <phi|K_mod|phi> and the overlap as <f|phi>. The breakdown carries the
    layer factors phi was built from and the state after each layer, so the
    gradient's reverse sweep reuses them. The structured terms and the LSBT
    pairs measure the same quad on hardware; they are the oracle here.

    phi is a unit vector, so quad / ||K_mod phi|| does not depend on the
    beam's stiffness scale EI; a state where it falls to 1e-12 or below sits
    in the near-null space and raises.
    """
    factors = simulator.layer_factors(theta, ctx.n_qubits, ctx.reps)
    states = simulator.ansatz_states(factors)
    phi = states[-1]
    k_phi = ctx.K_mod @ phi
    quad = np.einsum("i,i->", phi, k_phi)
    if quad <= 1e-12 * np.sqrt(k_phi.dot(k_phi)):  # ||K_mod phi||
        raise NearSingularEnergyError("<phi|K_mod|phi> is numerically zero")
    return _breakdown(quad, ctx.load.vector @ phi, phi, k_phi, factors, states)


def evaluate_loss_dense(theta: np.ndarray, ctx: ProblemContext) -> LossBreakdown:
    """Dense-matrix oracle for the loss, independent of the engine path."""
    phi = simulator.prepare_ansatz(ctx.n_qubits, ctx.reps, theta).real_vector()
    return _breakdown(phi @ ctx.K_mod @ phi, ctx.load.vector @ phi, phi)


def _breakdown(quad: float, overlap: float, phi: np.ndarray,
               *engine) -> LossBreakdown:
    """The read at phi; ``engine`` is (k_phi, factors, states), if any."""
    if quad <= 0.0:  # the dense path's guard; the engine's is in evaluate_loss
        raise NearSingularEnergyError("<phi|K_mod|phi> is numerically zero")
    return LossBreakdown(float(quad), float(overlap), float(overlap / quad),
                         float(-overlap ** 2 / (2.0 * quad)), phi, *engine)


def gradient(theta: np.ndarray, ctx: ProblemContext
             ) -> tuple[LossBreakdown, np.ndarray]:
    """The loss at ``theta`` and its exact gradient, from one forward state.

    The loss is one ``evaluate_loss`` read. With lam = dL/dphi =
    (o/q)((o/q) K_mod phi - f), the gradient is lam . dphi/dtheta, which
    ``simulator.ansatz_vjp`` reads by walking lam backwards through the
    ansatz against the forward's per-layer states. K_mod phi, the layer
    factors and those states are the read's own ``k_phi``, ``factors`` and
    ``states``.
    """
    b = evaluate_loss(theta, ctx)
    c = b.c_star
    lam = c * (c * b.k_phi - ctx.load.vector)
    return b, simulator.ansatz_vjp(b.factors, b.states, lam)


def extract_profile(ctx: ProblemContext,
                    breakdown: LossBreakdown) -> SolutionProfile:
    """Physical solution c* ||f_raw|| phi, sign-gauged toward the load.

    phi is ``breakdown.state``, the state the breakdown was read from.
    """
    sign = 1.0 if breakdown.overlap >= 0.0 else -1.0
    phi = sign * breakdown.state
    c_star = sign * breakdown.c_star  # c* flips with phi, the product is fixed
    scale = c_star * ctx.load.scale
    v = scale * phi
    return SolutionProfile(deflections=v[0::2], rotations=v[1::2],
                           scale=scale, state=v)


# scipy's BFGS messages, indexed by status.
_MESSAGES = ("Optimization terminated successfully.",
             "Maximum number of iterations has been exceeded.",
             "Desired error not necessarily achieved due to precision loss.",
             "NaN result encountered.")


def _bfgs(fun, x0, args=(), callback=None, *, gtol=1e-5, maxiter=None,
          xrtol=0.0, c1=1e-4, c2=0.9, jac=None, hess=None, hessp=None,
          bounds=None, constraints=()):
    """scipy's BFGS, ``_minimize_bfgs``, step for step as a custom method of
    ``scipy.optimize.minimize``: the same iterates, status, message and nfev.

    ``fun(x, *args)`` returns (f, grad f, read). The callback and the result
    get the read and max |grad f| (grad_norm) of each accepted point. One
    cache of the last point evaluated stands in for scipy's ScalarFunction
    and MemoizeJac, so phi and derphi share one call per trial point, and
    the accepted point reuses the search's last one. jac, hess, hessp,
    bounds and constraints, which minimize passes, are unused.
    """
    last = None  # (x, f, grad f, read) of the last point evaluated
    step = None  # its step s along pk, when it is xk + s pk
    nfev = 0

    def point(x, s=None):
        nonlocal last, step, nfev
        if last is None or not (x == last[0]).all():
            nfev += 1
            last = (x, *fun(x, *args))
        step = s
        return last

    def trial(s):
        """The point xk + s pk: the last one again when s is its step."""
        return last if s == step else point(xk + s * pk, s)

    def phi(s):
        return trial(s)[1]

    def derphi(s):
        return np.dot(trial(s)[2], pk)

    xk = np.asarray(x0, dtype=float).flatten()
    if maxiter is None:
        maxiter = len(xk) * 200
    _, old_fval, gfk, read = point(xk)
    eye = np.eye(len(xk))
    Hk = eye
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2  # a first step of ~1
    k = status = 0
    gnorm = np.abs(gfk).max()
    while gnorm > gtol and k < maxiter:
        pk = -np.dot(Hk, gfk)
        step = None  # a new pk: no earlier point is a trial point on it
        alpha_k, fval, _ = scalar_search_wolfe1(
            phi, derphi, old_fval, old_old_fval, np.dot(gfk, pk), c1=c1,
            c2=c2, amax=1e100, amin=1e-100, xtol=1e-14)
        if alpha_k is None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LineSearchWarning)
                alpha_k, _, _, fval, _, _ = scipy.optimize.line_search(
                    lambda x: point(x)[1], lambda x: point(x)[2], xk, pk,
                    gfk, old_fval, old_old_fval, c1=c1, c2=c2, amax=1e100)
            if alpha_k is None:
                status = 2
                break
        old_old_fval, old_fval = old_fval, fval
        _, _, gfkp1, read = trial(alpha_k)  # the search's last point
        sk = alpha_k * pk
        xk = xk + sk
        yk = gfkp1 - gfk
        gfk = gfkp1
        k += 1
        gnorm = np.abs(gfk).max()
        if callback is not None:
            callback(scipy.optimize.OptimizeResult(
                x=xk, fun=old_fval, read=read, grad_norm=gnorm))
        if gnorm <= gtol:
            break
        if alpha_k * _norm2(pk) <= xrtol * (xrtol + _norm2(xk)):
            break
        if not np.isfinite(old_fval):
            status = 2
            break
        rhok_inv = np.dot(yk, sk)
        rhok = 1000.0 if rhok_inv == 0.0 else 1.0 / rhok_inv
        A1 = eye - sk[:, np.newaxis] * yk[np.newaxis, :] * rhok
        # scipy's A2 = eye - y s^T rhok: each y_i s_j is s_j y_i bit for bit,
        # so A2 is A1's transpose (copied, so the matmul rounds as scipy's).
        A2 = A1.T.copy()
        Hk = np.dot(A1, np.dot(Hk, A2)) + np.multiply.outer(rhok * sk, sk)

    if status != 2:
        if k >= maxiter:
            status = 1
        elif np.isnan(gnorm) or np.isnan(old_fval) or np.isnan(xk).any():
            status = 3
    return scipy.optimize.OptimizeResult(
        fun=old_fval, jac=gfk, hess_inv=Hk, nfev=nfev, status=status,
        success=status == 0, message=_MESSAGES[status], x=xk, nit=k,
        read=read, grad_norm=gnorm)


def _norm2(v: np.ndarray) -> float:
    """scipy's ``vecnorm(v)``, sum(|v|**2) ** 0.5, rounded as it rounds."""
    return np.add.reduce(v * v) ** 0.5


def _descend(theta0: np.ndarray, ctx: ProblemContext,
             opts: OptimizerOptions) -> tuple[dict, tuple]:
    """One BFGS descent on f = -log(-L) from ``theta0``.

    Each BFGS point is one ``gradient`` call, divided by |L|; ``grad_tol``
    bounds max |grad f| = max |grad L| / |L|. A trial state with overlap
    exactly 0 has L = 0, where f is undefined: DegenerateStateError.
    ``_bfgs`` hands back a lean read, the loss and its own phi, of each
    point it accepts and of its end point (the start when nit is 0). Returns
    the restart's record and its end: x, the breakdown at x, and L and max
    |grad f| per iterate.
    """
    history, grad_history = [], []

    def fun(th):
        b, g = gradient(th, ctx)
        size = -b.loss  # |L|, since L <= 0
        if not size > 0.0:
            raise DegenerateStateError(
                "<f|phi> is zero, so -log(-L) is undefined")
        return -np.log(size), g / size, LossBreakdown(  # a copy, not a view
            b.quad, b.overlap, b.c_star, b.loss, b.state.copy())

    def callback(intermediate_result):
        history.append(intermediate_result.read.loss)
        grad_history.append(float(intermediate_result.grad_norm))

    res = scipy.optimize.minimize(
        fun, theta0, method=_bfgs, callback=callback,
        options={"gtol": opts.grad_tol, "maxiter": opts.max_iter})
    b = res.read
    return ({"loss": b.loss, "nit": res.nit, "nfev": res.nfev,
             "status": res.status, "message": res.message,
             "grad_norm": float(res.grad_norm), "error": None},
            (res.x, b, history, grad_history))


def optimize(problem: BeamProblem, opts: OptimizerOptions,
             reps: int | None = None, ctx: ProblemContext | None = None,
             ) -> tuple[ConvergenceRecord, SolutionProfile, LossBreakdown]:
    """Best-of-restarts BFGS minimization of the reduced loss.

    BFGS descends on f = -log(-L); the records are in units of L. ``reps``
    defaults to ``ctx.reps``, or 5 without a context; a ``problem`` or
    ``reps`` that disagrees with ``ctx`` raises ValueError. A restart that
    hits a degenerate trial state (overlap exactly 0, or a near-singular
    quad) is recorded as failed and the others go on; if none is left,
    OptimizationFailedError.
    """
    if ctx is None:
        ctx = build_context(problem, 5 if reps is None else reps)
    elif reps not in (None, ctx.reps) or problem != ctx.problem:
        raise ValueError("problem and reps must match the context's")

    rng = np.random.default_rng(opts.seed)
    best, restarts = None, []
    for r in range(opts.restarts):
        try:
            run, end = _descend(rng.uniform(-np.pi, np.pi, ctx.n_params),
                                ctx, opts)
        except DegenerateStateError as exc:
            run = dict.fromkeys(("loss", "nit", "nfev", "status", "message",
                                 "grad_norm"), None) | {"error": str(exc)}
        else:
            if best is None or run["loss"] < restarts[best[0]]["loss"]:
                best = (r, end)
        restarts.append(run)

    if best is None:
        errors = sorted({e["error"] for e in restarts})
        raise OptimizationFailedError("all restarts failed: "
                                      + "; ".join(errors))

    r, (x, breakdown, history, grad_history) = best
    record = ConvergenceRecord(
        loss_history=history, grad_norm_history=grad_history, theta_final=x,
        restart_index=r, restarts=restarts)
    return record, extract_profile(ctx, breakdown), breakdown
