"""Interleaved A/B benchmark runs: a git revision against the working tree.

Exports ``--base`` (a git revision) with ``git archive`` into a temporary
directory and runs ``perfbench/run.py --trace 0`` there and in the working
tree, one pair per seed (``--seed``, ``--seed`` + 1, ...), alternating which
side runs first (the base first on even pair indices). Every run is a fresh
process, one at a time. Prints each pair's end-to-end metrics, then per
metric each side's median and interquartile range (quartiles interpolated
linearly, as numpy's percentile does) and the pairs the working tree won
(a lower value; ties count for neither side). Beside the benchmark's
metrics it reports ``solve_min_s``, the sum over cases of each case's
fastest solve in the run (from the run's record in .perfbench_out/), which
a burst of host load that slows part of a run moves less than the median;
a faster side runs more rounds, so it also draws more samples. ``--out``
receives every run, both sides' environment records and the summary as
JSON. Standard library only; it changes nothing under perfbench/. Run from
the repository root:

    python scripts/ab_bench.py --base HEAD --workload ref-n5 --pairs 10 \\
        --seconds 30 --seed 700 --out BENCH_ab.json
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_METRICS = ("solve_s", "setup_s", "peak_rss_mb")
METRICS = BENCH_METRICS + ("solve_min_s",)  # all lower is better


def export(rev: str, dest: Path) -> str:
    """The committed files of ``rev`` under ``dest``; returns its commit."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its environment
    record and result, or the error it ended with."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "error": f"exit {done.returncode}: "
                + (done.stderr.strip().splitlines() or ["no output"])[-1]}
    env, result = json.loads(lines[-2]), json.loads(lines[-1])
    metrics = {m: result["metrics"][m]["value"] for m in BENCH_METRICS}
    record = tree / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    rounds = json.loads(record.read_text())["rounds"]
    metrics["solve_min_s"] = sum(min(t for r in rounds for t in r[case])
                                 for case in rounds[0])
    return {"seed": seed, "environment": env, "result": result,
            "rounds": len(rounds), "metrics": metrics}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict]) -> dict:
    """Per metric: each side's median and IQR over the pairs where both
    sides ran, and the pairs the change read lower in."""
    ok = [p for p in pairs
          if "metrics" in p["base"] and "metrics" in p["change"]]
    out = {"pairs_complete": len(ok), "pairs_failed": len(pairs) - len(ok)}
    for metric in METRICS if ok else ():
        base = [p["base"]["metrics"][metric] for p in ok]
        change = [p["change"]["metrics"][metric] for p in ok]
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        out[metric] = {
            "base_median": bm, "base_iqr": b3 - b1,
            "change_median": cm, "change_iqr": c3 - c1,
            "change_minus_base": cm - bm,
            "relative": (cm - bm) / bm if bm else None,
            "change_lower_in": sum(c < b for b, c in zip(base, change)),
            "base_lower_in": sum(b < c for b, c in zip(base, change)),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0,
                        help="the first pair's seed")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    record = {"command": " ".join(["python", "scripts/ab_bench.py"]
                                  + (argv if argv is not None
                                     else sys.argv[1:])),
              "base": {"rev": args.base}, "change": {"tree": "working tree"},
              "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp)
        record["base"]["commit"] = export(args.base, base_tree)
        sides = {"base": base_tree, "change": ROOT}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = (("base", "change") if i % 2 == 0
                         else ("change", "base"))
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side], workload, seed,
                                          args.seconds)
                    env = pair[side].pop("environment", None)
                    if env is not None:
                        record[side].setdefault("environment", env)
                pairs.append(pair)
                print(f"{workload} seed {seed} ({order[0]} first): "
                      + "  ".join(f"{side} " + (
                          json.dumps(pair[side]["metrics"])
                          if "metrics" in pair[side] else pair[side]["error"])
                                  for side in ("base", "change")), flush=True)
            summary = summarize(pairs)
            record["workloads"][workload] = {"pairs": pairs,
                                             "summary": summary}
            for metric in METRICS:
                if metric in summary:
                    s = summary[metric]
                    print(f"{workload} {metric}: base {s['base_median']:.4g} "
                          f"(IQR {s['base_iqr']:.3g}) -> change "
                          f"{s['change_median']:.4g} (IQR "
                          f"{s['change_iqr']:.3g}), change lower in "
                          f"{s['change_lower_in']} of "
                          f"{summary['pairs_complete']}", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
