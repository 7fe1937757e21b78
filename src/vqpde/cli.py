"""Configuration-driven experiment runner.

``parse_config`` checks a config's JSON value whole, sizes first, and
returns a ``RunConfig``; ``run_case`` solves one and writes its result
files, and ``run_sweep`` solves one at several qubit counts. Nothing is
allocated and no directory is made for a config that fails a check.

Subcommands:
  run    --config FILE          one case -> result.json, convergence.csv, profile.csv
  sweep  --config FILE --qubits 3,4,5   same case across qubit counts
  verify [--flip-k2-sign]               run the oracle suites

Exit codes: 0 success, 1 optimization failure (a singular system, a
degenerate trial state, or every restart failed), 2 config error,
3 verification failure. VQPDE_THREADS, a positive integer, caps sweep
parallelism; a sweep starts at most one process per qubit count.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import metrics as metrics_mod
from . import verify as verify_mod
from .driver import (DegenerateStateError, OptimizerOptions,
                     OptimizationFailedError, build_context, optimize)
from .fem import BoundaryCase, BeamProblem, SingularSystemError, check_int
from .simulator import gradient_bytes


class ConfigError(ValueError):
    pass


MAX_QUBITS = 20  # an 8 MiB state; MAX_GRADIENT_BYTES bounds reps there
# BFGS keeps a dense P x P float64 inverse Hessian and two update
# temporaries, with P = num_qubits * (reps + 1): 128 MiB each at P = 4096.
MAX_PARAMS = 4096
MAX_GRADIENT_BYTES = 2 ** 30  # of simulator.gradient_bytes, a run's engine


def _check_size(n: int, reps: int) -> None:
    """ConfigError unless 3 <= n <= MAX_QUBITS, the ansatz has at most
    MAX_PARAMS angles and the run's engine fits in MAX_GRADIENT_BYTES,
    before anything is allocated."""
    if not 3 <= n <= MAX_QUBITS:
        raise ConfigError(f"num_qubits must be between 3 and {MAX_QUBITS}, "
                          f"got {n}")
    if n * (reps + 1) > MAX_PARAMS:
        raise ConfigError(f"num_qubits * (reps + 1) must be at most "
                          f"{MAX_PARAMS}, got {n} * ({reps} + 1)")
    size = gradient_bytes(n, reps)
    if size > MAX_GRADIENT_BYTES:
        raise ConfigError(f"the engine's buffers at num_qubits {n} and reps "
                          f"{reps} need {size / 2 ** 20:.0f} MiB, more than "
                          f"{MAX_GRADIENT_BYTES // 2 ** 20} MiB")


# Each section's keys. The problem defaults, in this order, are also the
# order of result.json's problem echo.
_PROBLEM_DEFAULTS = {"length": 10.0, "youngs_modulus": 1000.0,
                     "second_moment": 1.0, "num_qubits": 5,
                     "boundary_case": "cantilever"}
_SECTIONS = {"problem": _PROBLEM_DEFAULTS, "ansatz": {"reps"},
             "optimizer": {f.name for f in dataclasses.fields(OptimizerOptions)}}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One checked run: the beam, the ansatz depth, the optimizer, and the
    directory its result files go to."""

    problem: BeamProblem
    reps: int
    opts: OptimizerOptions
    output_dir: str


def _validated(build, *args, **kwargs):
    """``build(...)``, with its type and range errors raised as ConfigError."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(raw) -> RunConfig:
    """The run a config's JSON value describes, every default applied; or
    ConfigError. The sizes are checked before the problem is built, and
    nothing is allocated or created."""
    def section(value, allowed, where: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object, got {value!r}")
        unknown = set(value) - set(allowed)
        if unknown:
            raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
        return value

    section(raw, {*_SECTIONS, "output_dir"}, "config root")
    prob, ansatz, optimizer = (section(raw.get(name, {}), keys, name)
                               for name, keys in _SECTIONS.items())
    out = raw.get("output_dir", ".")
    if not isinstance(out, str):
        raise ConfigError(f"output_dir must be a string, got {out!r}")
    prob = _PROBLEM_DEFAULTS | prob
    reps = ansatz.get("reps", 5)
    _validated(check_int, "reps", reps, 0)
    # A type check only: the range of num_qubits is _check_size's.
    _validated(check_int, "num_qubits", prob["num_qubits"], -math.inf)
    _check_size(prob["num_qubits"], reps)
    case = prob["boundary_case"]
    if not isinstance(case, str):
        raise ConfigError(f"boundary_case must be a string, got {case!r}")
    problem = _validated(lambda: BeamProblem(
        **(prob | {"boundary_case": BoundaryCase(case.lower())})))
    return RunConfig(problem, reps, _validated(OptimizerOptions, **optimizer),
                     out)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(raw)


def _make_dir(path: Path) -> Path:
    """``path``, created with its parents, or ConfigError if it cannot be."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {path}: {exc}") from exc
    return path


def run_case(run: RunConfig) -> dict:
    """Execute one checked run and write its result files."""
    problem, reps, opts = run.problem, run.reps, run.opts
    out = _make_dir(Path(run.output_dir))

    t0 = time.perf_counter()
    ctx = build_context(problem, reps)
    record, profile, breakdown = optimize(problem, opts, reps=reps, ctx=ctx)
    wall = time.perf_counter() - t0

    u_phys = ctx.load.scale * ctx.u_ref
    report = metrics_mod.build_report(
        target_energy=ctx.target_energy, predicted_energy=breakdown.loss,
        loss_history=record.loss_history,
        deflection_pred=profile.deflections, deflection_ref=u_phys[0::2],
        rotation_pred=profile.rotations, rotation_ref=u_phys[1::2],
        state_pred=profile.state, state_ref=ctx.u_ref)

    result = {
        "config": {
            "problem": {key: getattr(problem, key)
                        for key in _PROBLEM_DEFAULTS}
            | {"boundary_case": problem.boundary_case.value},
            "ansatz": {"reps": reps},
            "optimizer": dataclasses.asdict(opts),
        },
        "convergence": {
            "iterations": record.iterations,
            "function_evals": record.function_evals,
            "n_q": ctx.circuits_per_eval,
            "restart_index": record.restart_index,
            "restarts": record.restarts,
            "loss_history": record.loss_history,
            "theta_final": record.theta_final.tolist(),
        },
        "structured_terms": len(ctx.structured.terms),
        "bc_pairs": len(ctx.structured.bc_pairs),
        "target_energy": ctx.target_energy,
        "predicted_energy": breakdown.loss,
        "c_star": breakdown.c_star,
        "solution": {
            "scale": profile.scale,
            "deflections": profile.deflections.tolist(),
            "rotations": profile.rotations.tolist(),
        },
        "metrics": report.to_dict(),
        "wall_time_seconds": wall,
    }

    try:
        (out / "result.json").write_text(json.dumps(result, indent=2) + "\n")
        _write_convergence(out / "convergence.csv", record)
        _write_profile(out / "profile.csv", ctx, profile, u_phys)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out}: {exc}") from exc
    return result


def _write_convergence(path: Path, record):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "loss", "grad_norm"])
        for i, (loss, g) in enumerate(zip(record.loss_history,
                                          record.grad_norm_history)):
            writer.writerow([i, repr(loss), repr(g)])


def _write_profile(path: Path, ctx, profile, u_phys):
    l_e = ctx.problem.element_length
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "x_m", "deflection_pred", "deflection_ref",
                         "rotation_pred", "rotation_ref"])
        for i in range(ctx.problem.num_nodes):
            writer.writerow([i, repr(i * l_e),
                             repr(float(profile.deflections[i])),
                             repr(float(u_phys[2 * i])),
                             repr(float(profile.rotations[i])),
                             repr(float(u_phys[2 * i + 1]))])


def run_sweep(run: RunConfig, qubits: list[int]) -> list[dict]:
    """``run`` at each qubit count n, its outputs in ``output_dir/n<n>``.
    Every run is checked, and every directory made, before the first solve."""
    if len(set(qubits)) < len(qubits):
        raise ConfigError("sweep qubit counts must be distinct")
    for n in qubits:
        _check_size(n, run.reps)
    runs = [dataclasses.replace(
        run, problem=_validated(dataclasses.replace, run.problem, num_qubits=n),
        output_dir=str(Path(run.output_dir) / f"n{n}")) for n in qubits]
    raw = os.environ.get("VQPDE_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError("VQPDE_THREADS must be a positive integer, "
                          f"got {raw!r}")
    for each in runs:
        _make_dir(Path(each.output_dir))
    max_workers = min(threads, len(runs))
    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(run_case, runs))
    return list(map(run_case, runs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vqpde",
        description="Variational quantum solver for FEM beam problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured case")
    p_run.add_argument("--config", required=True)

    p_sweep = sub.add_parser("sweep", help="run a case across qubit counts")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--qubits", required=True,
                         help="comma-separated qubit counts, e.g. 3,4,5")

    p_verify = sub.add_parser("verify", help="run the oracle suites")
    p_verify.add_argument("--flip-k2-sign", action="store_true",
                          help="debug negative control: flip the wraparound "
                               "correction sign")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            result = run_case(load_config(args.config))
            print(json.dumps(result["metrics"], indent=2))
            return 0
        if args.command == "sweep":
            run = load_config(args.config)
            try:
                qubits = [int(s) for s in args.qubits.split(",")]
            except ValueError:
                raise ConfigError("--qubits must be comma-separated integers, "
                                  f"got {args.qubits!r}") from None
            results = run_sweep(run, qubits)
            for n, res in zip(qubits, results):
                print(f"n={n}: terms={res['structured_terms']} "
                      f"accuracy={res['metrics']['accuracy_pct']:.4f}%")
            return 0
        # verify
        report = verify_mod.verify_oracles(flip_k2_sign=args.flip_k2_sign)
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"[{status}] {check['name']}: max error {check['max_error']:.3e}")
        return 0 if report["all_passed"] else 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SingularSystemError, DegenerateStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OptimizationFailedError as exc:
        print(f"optimization failed: {exc}", file=sys.stderr)
        return 1
