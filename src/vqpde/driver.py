"""Variational minimization of the discretized beam energy.

The loss for a trial state phi(theta) is -overlap^2 / (2 quad) with
quad = <phi|K_mod|phi> and overlap = <f,phi| X (x) I |f,phi>. The scale
factor c* = overlap/quad is closed-form, so only theta is optimized (BFGS
with exact gradients).

The loss and the final state come from one real float64 engine,
``simulator.ansatz_states``, read by ``evaluate_loss`` against the one sparse
``K_mod``. ``gradient`` returns that read together with the exact gradient,
one reverse sweep from the same state (``simulator.ansatz_vjp``, O(P 2^n)),
so each BFGS point prepares its trial state once. The paper's measurement
recipe for quad, the structured Pauli terms plus one LSBT pair observable per
removed coupling, and the ancilla overlap circuit are the gate-level oracles
for those reads, checked against ``K_mod`` by ``verify.py`` and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
import scipy.sparse

from . import simulator
from .fem import (BcSpec, BeamProblem, LoadSpec, assemble, check_int,
                  check_real, check_supports, classical_solve, default_load,
                  set_to_zero)
from .pauli_ops import StructuredOperator, build_structured


class NearSingularEnergyError(ValueError):
    """The quadratic form collapsed; the trial state sits in the null space."""


class OptimizationFailedError(RuntimeError):
    """Every restart ended at a non-finite loss."""


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


@dataclass
class ConvergenceRecord:
    iterations: int
    loss_history: list[float]
    grad_norm_history: list[float]
    theta_final: np.ndarray
    n_q: int
    function_evals: int
    restart_index: int
    status: int   # scipy's BFGS status of the chosen restart
    message: str
    # Per restart: loss, nit, nfev, status, message, redrawn and error; a
    # failed restart has its error and None in the other fields.
    restarts: list[dict]

    @property
    def restart_final_losses(self) -> list[float | None]:
        return [e["loss"] for e in self.restarts]


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
    bc: BcSpec
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


def build_context(problem: BeamProblem, reps: int,
                  bc: BcSpec | None = None) -> ProblemContext:
    check_int("reps", reps, 0)
    bc = problem.bc() if bc is None else bc
    check_supports(problem, bc)
    load = problem.load if problem.load is not None else default_load(problem, bc)
    if np.linalg.norm(load.vector) == 0.0:
        raise ValueError("load vector must be nonzero")
    K_mod, K_bc = set_to_zero(assemble(problem), bc)
    structured = build_structured(problem, K_bc)
    u_ref, target_energy = classical_solve(K_mod, load)
    return ProblemContext(problem, bc, reps, load, K_mod,
                          structured, u_ref, target_energy)


def evaluate_loss(theta: np.ndarray, ctx: ProblemContext) -> LossBreakdown:
    """The engine's loss at one parameter vector.

    Reads the real engine's unit state phi against the sparse K_mod, quad as
    <phi|K_mod|phi> and the overlap as <f|phi>. The structured terms and the
    LSBT pairs measure the same quad on hardware; they are the oracle here.

    phi is a unit vector, so quad / ||K_mod phi|| does not depend on the
    beam's stiffness scale EI; a state where it falls to 1e-12 or below sits
    in the near-null space and raises.
    """
    phi = simulator.ansatz_states(theta, ctx.n_qubits, ctx.reps)
    k_phi = ctx.K_mod @ phi
    quad = np.einsum("i,i->", phi, k_phi)
    if quad <= 1e-12 * np.linalg.norm(k_phi):
        raise NearSingularEnergyError("<phi|K_mod|phi> is numerically zero")
    return _breakdown(quad, ctx.load.vector @ phi, phi)


def evaluate_loss_dense(theta: np.ndarray, ctx: ProblemContext) -> LossBreakdown:
    """Dense-matrix oracle for the loss, independent of the engine path."""
    phi = simulator.prepare_ansatz(ctx.n_qubits, ctx.reps, theta).real_vector()
    return _breakdown(phi @ ctx.K_mod @ phi, ctx.load.vector @ phi, phi)


def _breakdown(quad: float, overlap: float, phi: np.ndarray) -> LossBreakdown:
    if quad <= 0.0:  # the dense path's guard; the engine's is in evaluate_loss
        raise NearSingularEnergyError("<phi|K_mod|phi> is numerically zero")
    return LossBreakdown(quad=float(quad), overlap=float(overlap),
                         c_star=float(overlap / quad),
                         loss=float(-overlap ** 2 / (2.0 * quad)), state=phi)


def gradient(theta: np.ndarray, ctx: ProblemContext
             ) -> tuple[LossBreakdown, np.ndarray]:
    """The loss at ``theta`` and its exact gradient, from one forward state.

    The loss is one ``evaluate_loss`` read. With lam = dL/dphi =
    (o/q)((o/q) K_mod phi - f), the gradient is lam . dphi/dtheta, which
    ``simulator.ansatz_vjp`` reads by walking the ansatz backwards from phi.
    """
    b = evaluate_loss(theta, ctx)
    c = b.c_star
    lam = c * (c * (ctx.K_mod @ b.state) - ctx.load.vector)
    return b, simulator.ansatz_vjp(theta, ctx.n_qubits, ctx.reps, b.state, lam)


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


def _descend(theta0: np.ndarray, ctx: ProblemContext,
             opts: OptimizerOptions) -> dict:
    """One BFGS descent from ``theta0``, with its loss and gradient history."""
    history, grad_history = [], []  # loss and max |gradient| per iterate
    last_grad_norm = np.nan

    def fun(th):
        nonlocal last_grad_norm
        b, g = gradient(th, ctx)
        last_grad_norm = float(np.max(np.abs(g)))
        return b.loss, g

    def callback(intermediate_result):
        history.append(float(intermediate_result.fun))
        grad_history.append(last_grad_norm)

    res = scipy.optimize.minimize(
        fun, theta0, jac=True, method="BFGS", callback=callback,
        options={"gtol": opts.grad_tol, "maxiter": opts.max_iter})
    return {"fun": float(res.fun), "x": res.x, "nit": int(res.nit),
            "status": int(res.status), "message": str(res.message),
            "nfev": int(res.nfev), "history": history,
            "grad_history": grad_history}


def optimize(problem: BeamProblem, opts: OptimizerOptions,
             reps: int = 5, bc: BcSpec | None = None,
             ctx: ProblemContext | None = None,
             ) -> tuple[ConvergenceRecord, SolutionProfile, LossBreakdown]:
    """Best-of-restarts BFGS minimization of the reduced loss.

    A start where <f|phi> is about zero has a loss and gradient of about zero;
    BFGS stops there at once on precision loss (nit 0, status 2). Such a
    restart is drawn again, once, from the same generator. A restart that
    hits a near-singular state is recorded as failed and the others go on;
    if none is left, OptimizationFailedError.
    """
    if ctx is None:
        ctx = build_context(problem, reps, bc)

    rng = np.random.default_rng(opts.seed)
    best = None
    restarts = []

    for r in range(opts.restarts):
        redrawn = False
        try:
            run = _descend(rng.uniform(-np.pi, np.pi, ctx.n_params), ctx, opts)
            if run["nit"] == 0 and run["status"] == 2:
                redrawn = True
                run = _descend(rng.uniform(-np.pi, np.pi, ctx.n_params),
                               ctx, opts)
        except NearSingularEnergyError as exc:
            restarts.append({"loss": None, "nit": None, "nfev": None,
                             "status": None, "message": None,
                             "redrawn": redrawn, "error": str(exc)})
            continue
        restarts.append({"loss": run["fun"], "nit": run["nit"],
                         "nfev": run["nfev"], "status": run["status"],
                         "message": run["message"], "redrawn": redrawn,
                         "error": None})
        if best is None or run["fun"] < best["fun"]:
            best = dict(run, restart=r)

    if best is None or not np.isfinite(best["fun"]):
        errors = sorted({e["error"] for e in restarts if e["error"]})
        reason = f": {'; '.join(errors)}" if errors else ""
        raise OptimizationFailedError("all restarts failed" + reason)

    breakdown = evaluate_loss(best["x"], ctx)
    profile = extract_profile(ctx, breakdown)
    record = ConvergenceRecord(
        iterations=best["nit"], loss_history=best["history"],
        grad_norm_history=best["grad_history"], theta_final=best["x"],
        n_q=ctx.circuits_per_eval, function_evals=best["nfev"],
        restart_index=best["restart"], status=best["status"],
        message=best["message"], restarts=restarts)
    return record, profile, breakdown
