"""Run the four reference boundary cases and print a summary table.

Configuration: L = 10 m, E = 1000, I = 1, n = 5 qubits, reps = 5, seeded
best-of-5-restart BFGS. Per-case artifacts (result.json, convergence.csv,
profile.csv) land in results/<case>/. The iters, nfev and status columns
are the chosen restart's BFGS iterations, its objective evaluations (one
`gradient` call each) and scipy's status: 0 max |grad L| / |L| fell below
grad_tol, 1 stopped at max_iter, 2 line search lost precision. A restart
that hit a degenerate trial state failed and is never the chosen one; if
every restart of a case failed, the script stops with
OptimizationFailedError. The theta sha column is the first 12 hex digits
of the sha256 of the chosen restart's final parameters (float64 bytes), so
two builds whose solves agree bit for bit print the same value.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from vqpde.cli import parse_config, run_case

CASES = ("pbc", "ssb", "ffb", "cantilever")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="results")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--restarts", type=int, default=5)
    parser.add_argument("--max-iter", type=int, default=3000)
    parser.add_argument("--num-qubits", type=int, default=5)
    args = parser.parse_args(argv)

    rows = []
    for case in CASES:
        config = {
            "problem": {"length": 10.0, "youngs_modulus": 1000.0,
                        "second_moment": 1.0, "num_qubits": args.num_qubits,
                        "boundary_case": case},
            "ansatz": {"reps": 5},
            "optimizer": {"seed": args.seed, "restarts": args.restarts,
                          "max_iter": args.max_iter},
            "output_dir": str(Path(args.output_dir) / case),
        }
        print(f"running {case} ...", flush=True)
        result = run_case(parse_config(config))
        m = result["metrics"]
        conv = result["convergence"]
        theta = np.array(conv["theta_final"], dtype=float)
        sha = hashlib.sha256(theta.tobytes()).hexdigest()[:12]
        rows.append((case, conv["iterations"], conv["function_evals"],
                     conv["restarts"][conv["restart_index"]]["status"],
                     m["accuracy_pct"],
                     m["relative_error"], m["fidelity"], sha,
                     result["wall_time_seconds"]))

    print(f"\n{'case':<12}{'iters':>7}{'nfev':>7}{'status':>8}"
          f"{'accuracy %':>12}{'rel err':>12}{'fidelity':>12}"
          f"{'theta sha':>14}{'wall s':>9}")
    for case, iters, nfev, status, acc, rel, fid, sha, wall in rows:
        print(f"{case:<12}{iters:>7}{nfev:>7}{status:>8}{acc:>12.4f}"
              f"{rel:>12.6f}{fid:>12.8f}{sha:>14}{wall:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
