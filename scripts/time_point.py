"""Time one BFGS point and one context build per qubit count, and measure
the memory a gradient call and a short run hold.

For the cantilever at L = 10 m, E = 1000, I = 1 and reps = 5, at n = 5, 8,
10 and 12 qubits, prints in milliseconds:
  point          one ``driver.gradient`` call (the loss and its exact
                 gradient, which is all one BFGS point costs), the min over
                 5 blocks of the mean per call in the block;
  factors        the per-layer Kronecker factors both halves run on, one
                 ``simulator.layer_factors`` call, timed the same way;
  states         its forward half, one ``simulator.ansatz_states`` call on
                 those factors (state preparation, which keeps the state
                 after every layer), timed the same way;
  vjp            its reverse half, one ``simulator.ansatz_vjp`` call on
                 those factors and states (the gradient's reverse sweep of
                 the adjoint alone, then every layer's reads in two batched
                 matmuls), timed the same way;
  build_context  one ``build_context`` call, the min of 5 calls;
  bfgs it        the BFGS overhead per iteration: the wall time of one
                 30-iteration descent (one restart, grad_tol 0), less the
                 time spent inside its own ``driver.gradient`` calls,
                 divided by nit; the min of 5 descents.
and, measured after the timings with the engine's caches warm, the
tracemalloc peaks in MiB (numpy's buffers included) of
  grad MiB       one ``driver.gradient`` call;
  run MiB        one ``optimize`` of 3 restarts x 3 iterations, grad_tol 0.
The header gives the core count and the numpy and scipy versions. BLAS runs
on one thread, as in the benchmark. Run from the repository root:

    PYTHONPATH=src python scripts/time_point.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time
import tracemalloc

import numpy as np
import scipy

from vqpde import driver
from vqpde.driver import OptimizerOptions, build_context, gradient, optimize
from vqpde.fem import BeamProblem, BoundaryCase
from vqpde.simulator import ansatz_states, ansatz_vjp, layer_factors

REPS = 5
ITERATIONS = 30
BLOCKS = 5
CALLS_PER_BLOCK = {5: 200, 8: 100, 10: 50, 12: 20}


def best_mean_ms(fn, calls: int, blocks: int) -> float:
    best = float("inf")
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return 1e3 * best


def peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def bfgs_iteration_ms(problem, opts, ctx, blocks: int) -> float:
    """Per iteration, the descent's wall time outside ``driver.gradient``:
    each point is timed inside the timed descent, not in a separate loop."""
    spans = []

    def timed_gradient(theta, ctx):
        t0 = time.perf_counter()
        try:
            return gradient(theta, ctx)
        finally:
            spans.append(time.perf_counter() - t0)

    best = float("inf")
    driver.gradient = timed_gradient
    try:
        for _ in range(blocks):
            spans.clear()
            t0 = time.perf_counter()
            record = optimize(problem, opts, ctx=ctx)[0]
            wall = time.perf_counter() - t0
            best = min(best, (wall - sum(spans)) / record.iterations)
    finally:
        driver.gradient = gradient
    return 1e3 * best


def main() -> int:
    print(f"cpu_count={os.cpu_count()} numpy={np.__version__} "
          f"scipy={scipy.__version__} case=cantilever reps={REPS}")
    print(f"{'n':>3}{'P':>5}{'point ms':>11}{'factors ms':>12}"
          f"{'states ms':>11}{'vjp ms':>9}{'build_context ms':>18}"
          f"{'bfgs it ms':>12}{'grad MiB':>10}{'run MiB':>9}")
    for n, calls in CALLS_PER_BLOCK.items():
        problem = BeamProblem(length=10.0, youngs_modulus=1000.0,
                              second_moment=1.0, num_qubits=n,
                              boundary_case=BoundaryCase.CANTILEVER)
        ctx = build_context(problem, reps=REPS)
        theta = np.random.default_rng(0).uniform(-np.pi, np.pi, ctx.n_params)
        point = best_mean_ms(lambda: gradient(theta, ctx), calls, BLOCKS)
        b = gradient(theta, ctx)[0]
        lam = b.c_star * (b.c_star * b.k_phi - ctx.load.vector)
        factors = best_mean_ms(lambda: layer_factors(theta, n, REPS), calls,
                               BLOCKS)
        states = best_mean_ms(lambda: ansatz_states(b.factors), calls,
                              BLOCKS)
        vjp = best_mean_ms(lambda: ansatz_vjp(b.factors, b.states, lam),
                           calls, BLOCKS)
        build = best_mean_ms(lambda: build_context(problem, reps=REPS), 1,
                             BLOCKS)
        # One restart from seed 0 starts at theta.
        opts = OptimizerOptions(seed=0, restarts=1, max_iter=ITERATIONS,
                                grad_tol=0.0)
        bfgs_it = bfgs_iteration_ms(problem, opts, ctx, BLOCKS)
        grad_mib = peak_mib(lambda: gradient(theta, ctx))
        run_opts = OptimizerOptions(seed=0, restarts=3, max_iter=3,
                                    grad_tol=0.0)
        run_mib = peak_mib(lambda: optimize(problem, run_opts, ctx=ctx))
        print(f"{n:>3}{ctx.n_params:>5}{point:>11.3f}{factors:>12.3f}"
              f"{states:>11.3f}{vjp:>9.3f}{build:>18.3f}{bfgs_it:>12.3f}"
              f"{grad_mib:>10.3f}{run_mib:>9.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
