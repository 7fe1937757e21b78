"""Convergence statistics across optimizer seeds for one boundary case.

Each seed runs a single BFGS descent from its own random start; the table
reports where each run lands and how long it took. Useful for choosing
restart budgets.
"""

import argparse
import sys
import time

import numpy as np

from vqpde.driver import OptimizerOptions, build_context, optimize
from vqpde.fem import BeamProblem, BoundaryCase
from vqpde.metrics import fidelity


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", default="cantilever",
                        choices=[c.value for c in BoundaryCase])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--max-iter", type=int, default=3000)
    parser.add_argument("--num-qubits", type=int, default=5)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)

    problem = BeamProblem(length=10.0, youngs_modulus=1000.0,
                          second_moment=1.0, num_qubits=args.num_qubits,
                          boundary_case=BoundaryCase(args.case))
    ctx = build_context(problem, reps=args.reps)
    print(f"case={args.case} target={ctx.target_energy:.10f}")
    print(f"{'seed':>5}{'iters':>7}{'rel err':>12}{'fidelity':>12}{'wall s':>9}")

    rels = []
    for seed in range(args.seeds):
        opts = OptimizerOptions(seed=seed, restarts=1, max_iter=args.max_iter)
        t0 = time.perf_counter()
        record, profile, breakdown = optimize(problem, opts, reps=args.reps,
                                              ctx=ctx)
        wall = time.perf_counter() - t0
        rel = abs(breakdown.loss - ctx.target_energy) / abs(ctx.target_energy)
        fid = fidelity(profile.state, ctx.u_ref)  # blind to scale and sign
        rels.append(rel)
        print(f"{seed:>5}{record.iterations:>7}{rel:>12.6f}{fid:>12.8f}"
              f"{wall:>9.1f}", flush=True)

    rels = np.array(rels)
    print(f"\nbest rel={rels.min():.6f}  median rel={np.median(rels):.6f}  "
          f"runs at rel<=0.02: {int(np.sum(rels <= 0.02))}/{len(rels)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
