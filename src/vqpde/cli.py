"""Configuration-driven experiment runner.

Subcommands:
  run    --config FILE          one case -> result.json, convergence.csv, profile.csv
  sweep  --config FILE --qubits 3,4,5   same case across qubit counts
  verify [--deep] [--flip-k2-sign]      run the oracle suites

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


class ConfigError(ValueError):
    pass


MAX_QUBITS = 20  # the engine's flip table alone is about 335 MB at n = 20
# BFGS keeps a dense P x P float64 inverse Hessian and two update
# temporaries, with P = num_qubits * (reps + 1): 128 MiB each at P = 4096.
MAX_PARAMS = 4096


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_size(n, reps) -> None:
    """ConfigError unless 3 <= n <= MAX_QUBITS and the ansatz has at most
    MAX_PARAMS angles, before anything is allocated. A non-integer value is
    left to the type checks that follow."""
    if not _is_int(n):
        return
    if not 3 <= n <= MAX_QUBITS:
        raise ConfigError(f"num_qubits must be between 3 and {MAX_QUBITS}, "
                          f"got {n}")
    if _is_int(reps) and n * (reps + 1) > MAX_PARAMS:
        raise ConfigError(f"num_qubits * (reps + 1) must be at most "
                          f"{MAX_PARAMS}, got {n} * ({reps} + 1)")


_PROBLEM_KEYS = {"length", "youngs_modulus", "second_moment", "num_qubits",
                 "boundary_case"}
_ANSATZ_KEYS = {"reps"}
_OPTIMIZER_KEYS = {"seed", "restarts", "max_iter", "grad_tol"}
_TOP_KEYS = {"problem", "ansatz", "optimizer", "output_dir"}
_PROBLEM_DEFAULTS = {"length": 10.0, "youngs_modulus": 1000.0,
                     "second_moment": 1.0, "num_qubits": 5}


def _reps(config: dict):
    """The config's ansatz reps, 5 when unset; its type is checked later."""
    return config.get("ansatz", {}).get("reps", 5)


def _check_keys(section: dict, allowed: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _check_keys(raw, _TOP_KEYS, "config root")
    prob = raw.get("problem", {})
    _check_keys(prob, _PROBLEM_KEYS, "problem")
    _check_keys(raw.get("ansatz", {}), _ANSATZ_KEYS, "ansatz")
    _check_keys(raw.get("optimizer", {}), _OPTIMIZER_KEYS, "optimizer")
    out = raw.get("output_dir", ".")
    if not isinstance(out, str):
        raise ConfigError(f"output_dir must be a string, got {out!r}")
    _check_size(prob.get("num_qubits", _PROBLEM_DEFAULTS["num_qubits"]),
                _reps(raw))
    return raw


def _validated(build, *args, **kwargs):
    """``build(...)``, with its type and range errors raised as ConfigError."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def problem_from_config(config: dict) -> BeamProblem:
    prob = dict(config.get("problem", {}))
    case = prob.pop("boundary_case", "cantilever")
    if not isinstance(case, str):
        raise ConfigError(f"boundary_case must be a string, got {case!r}")
    defaults = _PROBLEM_DEFAULTS | prob
    return _validated(lambda: BeamProblem(
        boundary_case=BoundaryCase(case.lower()), **defaults))


def options_from_config(config: dict) -> OptimizerOptions:
    return _validated(OptimizerOptions, **config.get("optimizer", {}))


def _make_dir(path: Path) -> Path:
    """``path``, created with its parents, or ConfigError if it cannot be."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {path}: {exc}") from exc
    return path


def run_case(config: dict, output_dir: str | None = None) -> dict:
    """Execute one configured case and write result files."""
    problem = problem_from_config(config)
    opts = options_from_config(config)
    reps = _reps(config)
    _validated(check_int, "reps", reps, 0)
    out = _make_dir(Path(output_dir or config.get("output_dir", ".")))

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
            "problem": {
                "length": problem.length,
                "youngs_modulus": problem.youngs_modulus,
                "second_moment": problem.second_moment,
                "num_qubits": problem.num_qubits,
                "boundary_case": problem.boundary_case.value,
            },
            "ansatz": {"reps": reps},
            "optimizer": dataclasses.asdict(opts),
        },
        "convergence": {
            "iterations": record.iterations,
            "function_evals": record.function_evals,
            "n_q": record.n_q,
            "restart_index": record.restart_index,
            "status": record.status,
            "message": record.message,
            "restart_final_losses": record.restart_final_losses,
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


def _sweep_worker(args):
    config, n, base_dir = args
    cfg = json.loads(json.dumps(config))
    cfg.setdefault("problem", {})["num_qubits"] = n
    return n, run_case(cfg, output_dir=str(Path(base_dir) / f"n{n}"))


def run_sweep(config: dict, qubits: list[int]) -> list[dict]:
    base_dir = config.get("output_dir", ".")
    jobs = [(config, n, base_dir) for n in qubits]
    raw = os.environ.get("VQPDE_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError("VQPDE_THREADS must be a positive integer, "
                          f"got {raw!r}")
    max_workers = min(threads, len(jobs))
    for n in qubits:  # every output directory before the first solve
        _make_dir(Path(base_dir) / f"n{n}")
    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = dict(pool.map(_sweep_worker, jobs))
    else:
        results = dict(map(_sweep_worker, jobs))
    return [results[n] for n in qubits]


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
    p_verify.add_argument("--deep", action="store_true",
                          help="extend exhaustive pair checks to n=6")
    p_verify.add_argument("--flip-k2-sign", action="store_true",
                          help="debug negative control: flip the wraparound "
                               "correction sign")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            config = load_config(args.config)
            result = run_case(config)
            print(json.dumps(result["metrics"], indent=2))
            return 0
        if args.command == "sweep":
            config = load_config(args.config)
            try:
                qubits = [int(s) for s in args.qubits.split(",")]
            except ValueError:
                raise ConfigError("--qubits must be comma-separated integers, "
                                  f"got {args.qubits!r}") from None
            if len(set(qubits)) < len(qubits):
                raise ConfigError("sweep qubit counts must be distinct")
            for n in qubits:
                _check_size(n, _reps(config))
            results = run_sweep(config, qubits)
            for n, res in zip(qubits, results):
                print(f"n={n}: terms={res['structured_terms']} "
                      f"accuracy={res['metrics']['accuracy_pct']:.4f}%")
            return 0
        # verify
        report = verify_mod.verify_oracles(deep=args.deep,
                                           flip_k2_sign=args.flip_k2_sign)
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


if __name__ == "__main__":
    sys.exit(main())
