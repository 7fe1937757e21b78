"""Benchmark of the vqpde solver, run from the repository root.

    python3 perfbench/run.py --workload ref-n5 --seed 0 --seconds 30 --trace 0

Workloads (each in its own single-threaded process; a round builds the
context of each of the four boundary cases and solves it):
  ref-n5     `vqpde run` at the reference configuration (n=5, reps=5, best
             of 5 restarts) with a fixed budget of 30 BFGS iterations per
             restart.
  wide-n10   one 4-iteration BFGS descent per case at n=10.
  setup-n12  n=12, five solves per context that each evaluate one loss and
             gradient (a 0-iteration BFGS).

A run repeats rounds for about ``--seconds``. With ``--trace 0`` the last
stdout line reports the end-to-end metrics: solve_s (sum over cases of the
median solve time), setup_s (median fresh-interpreter `import vqpde` plus
the median round's summed build_context time) and peak_rss_mb. With
``--trace 1`` it reports the per-layer metrics of tracing.PER_LAYER_UNITS,
from round 0 run untraced and traced in turn after a warm-up run of it. The
line before the last is the environment record.
Per-solve records, failures and the traced spans go to .perfbench_out/.

Exits with code 2, printing no result, when the vqpde sources are missing.
"""

import os

# Pin BLAS to one thread before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
IMPORT_SAMPLES = 5
_IMPORT_CODE = ("import time; t = time.perf_counter(); import vqpde; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Median `import vqpde` time in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", _IMPORT_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def repeat(step, seconds: float) -> None:
    """Call ``step`` until the next call would end half a call past ``seconds``."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + 0.5 * (now - t0) > seconds:
            return


def solve_seconds(rounds: list[dict]) -> float:
    """Sum over cases of each case's median solve time across rounds."""
    return sum(statistics.median(t for r in rounds for t in r[case])
               for case in rounds[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vqpde" / "__init__.py").is_file():
        print(f"perfbench: no vqpde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run = workloads.Run(workload, args.seed, OUT / stem)
    OUT.mkdir(parents=True, exist_ok=True)
    env = environment(args)
    record = {"environment": env}

    if args.trace:
        # After a warm-up run that fills the program's caches, round 0 runs
        # untraced and traced in turn; the tracing overhead is the difference.
        run.round(0, "warm-up")
        tracer = tracing.Tracer()
        untraced, traced = [], []

        def pair():
            untraced.append(run.round(0, "untraced"))
            tracer.install(tracing.PROBES)
            with tracer:
                traced.append(run.round(0, "traced"))

        repeat(pair, args.seconds)
        solve_s = solve_seconds(untraced)
        traced_solve_s = solve_seconds(traced)
        metrics = tracing.layer_metrics(tracer, len(traced), solve_s,
                                        traced_solve_s, run.ref_rel_err)
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        record.update(untraced=untraced, traced=traced)
    else:
        rounds = []
        repeat(lambda: rounds.append(run.round(len(rounds), "untraced")),
               args.seconds)
        import_s = import_seconds()
        setup_s = import_s + statistics.median(run.build_samples)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "solve_s": {"value": solve_seconds(rounds), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        record.update(rounds=rounds, import_s=import_s,
                      build_samples=run.build_samples)

    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    record.update(result=result, solves=run.solves, failures=run.failures)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for failure in run.failures:
        print(f"FAILED {failure['operation']}:\n{failure['error']}",
              file=sys.stderr)
    print(json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
