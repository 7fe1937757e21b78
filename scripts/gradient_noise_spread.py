"""Spread of the reference solves under last-bit noise on the gradient.

Runs each of the four reference cases (L = 10 m, E = 1000, I = 1, n = 5,
reps = 5, seed 0, best of 5 restarts, max_iter 3000) ``--runs`` times. In
run k every ``driver.gradient`` result is multiplied by
(1 + 1e-15 N(0, 1)), drawn from ``numpy.random.default_rng(k)``: a change
of the size a different BLAS or a reordered sum makes. Prints the best-of-5
relative energy error of each run, then min / median / max per case, so a
criterion-6 margin can be read as a spread instead of one draw. The header
gives the core count and the numpy and scipy versions. BLAS runs on one
thread, as in the benchmark. Run from the repository root:

    PYTHONPATH=src python scripts/gradient_noise_spread.py [--runs K]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys

import numpy as np
import scipy

from vqpde import driver
from vqpde.fem import BeamProblem, BoundaryCase

CASES = ("pbc", "ssb", "ffb", "cantilever")
NOISE = 1e-15


def noisy_rel(ctx, opts, noise_seed: int) -> float:
    """Best-of-restarts relative error with the gradient's bits perturbed."""
    rng = np.random.default_rng(noise_seed)
    exact = driver.gradient

    def perturbed(theta, ctx):
        b, g = exact(theta, ctx)
        return b, g * (1.0 + NOISE * rng.normal(size=g.shape))

    driver.gradient = perturbed
    try:
        _, _, breakdown = driver.optimize(ctx.problem, opts, ctx=ctx)
    finally:
        driver.gradient = exact
    return abs(breakdown.loss - ctx.target_energy) / abs(ctx.target_energy)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=4,
                        help="noise seeds 0..runs-1 per case (default 4)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    print(f"cores {os.cpu_count()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}")
    opts = driver.OptimizerOptions(seed=0, restarts=5, max_iter=3000)
    for case in CASES:
        problem = BeamProblem(length=10.0, youngs_modulus=1000.0,
                              second_moment=1.0, num_qubits=5,
                              boundary_case=BoundaryCase(case))
        ctx = driver.build_context(problem, reps=5)
        rels = [noisy_rel(ctx, opts, k) for k in range(args.runs)]
        print(f"{case:<12}" + " ".join(f"{r:.2e}" for r in rels))
        print(f"{'':<12}min {min(rels):.2e}  median {np.median(rels):.2e}  "
              f"max {max(rels):.2e}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
