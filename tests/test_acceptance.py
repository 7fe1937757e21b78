"""End-to-end acceptance checks.

Each test prints an explicit [PASS]/[FAIL] line with the measured quantities
so the suite doubles as a report. Tolerances are pinned; the optimization
cases use the reference configuration (L = 10 m, E = 1000, I = 1, n = 5,
reps = 5) with seeded best-of-restarts BFGS.
"""

import time

import numpy as np
import pytest

from vqpde.driver import (OptimizerOptions, build_context, evaluate_loss,
                          evaluate_loss_dense, gradient, optimize)
from vqpde.fem import BeamProblem, BoundaryCase, assemble, element_stiffness, set_to_zero
from vqpde.lsbt import derive_sequence, dense_transform
from vqpde.metrics import fidelity
from vqpde.pauli_ops import (build_structured, decompose_element,
                             materialize_operator)
from vqpde.simulator import prepare_ansatz

REFERENCE_COEFFS = {"II": 8.0, "IZ": 4.0, "XI": -5.0, "XZ": -7.0, "YY": -6.0,
                    "ZX": 6.0}


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def reference_problem(case: BoundaryCase, n: int = 5) -> BeamProblem:
    return BeamProblem(length=10.0, youngs_modulus=1000.0, second_moment=1.0,
                       num_qubits=n, boundary_case=case)


class TestCriterion1ElementDecomposition:
    def test_exact_coefficients(self):
        t0 = time.perf_counter()
        coeffs = dict((l, c) for c, l in
                      decompose_element(element_stiffness(1.0, 1.0, 1.0)))
        recon_err = max(abs(coeffs[l] - REFERENCE_COEFFS[l])
                        for l in REFERENCE_COEFFS)
        elapsed = time.perf_counter() - t0
        ok = coeffs == REFERENCE_COEFFS and elapsed < 1e-3
        _report("criterion 1 (element decomposition)", ok,
                f"coeffs={sorted(coeffs.items())} error={recon_err} "
                f"time={elapsed * 1e3:.3f} ms")


class TestCriterion2StructuredEquivalence:
    def test_all_cases_and_sizes(self):
        t0 = time.perf_counter()
        worst = 0.0
        counts = {}
        for case in BoundaryCase:
            per_case = set()
            for n in range(2, 6):
                p = reference_problem(case, n)
                bc = p.bc()
                K_mod, K_bc = set_to_zero(assemble(p), bc)
                op = build_structured(p, K_bc)
                err = float(np.max(np.abs(materialize_operator(op) - K_mod)))
                worst = max(worst, err)
                per_case.add(len(op.terms))
            counts[case.value] = per_case
        elapsed = time.perf_counter() - t0
        constant = all(len(s) == 1 for s in counts.values())
        ok = worst <= 1e-10 and constant and elapsed < 10.0
        _report("criterion 2 (structured operator equivalence)", ok,
                f"max_err={worst:.3e} term_counts={counts} time={elapsed:.2f} s")


class TestCriterion3LsbtExhaustive:
    def test_all_pairs(self):
        t0 = time.perf_counter()
        exact = True
        for n in range(2, 6):
            N = 2 ** n
            target = np.zeros((N, N))
            target[N - 2, N - 1] = target[N - 1, N - 2] = 1.0
            for p in range(N):
                for q in range(p + 1, N):
                    pair = np.zeros((N, N))
                    pair[p, q] = pair[q, p] = 1.0
                    T = dense_transform(derive_sequence(p, q, n))
                    if not np.array_equal(T.T @ pair @ T, target):
                        exact = False
        worked = derive_sequence(0, 3, 2).gates == (("x", 0), ("cnot", 0, 1))
        elapsed = time.perf_counter() - t0
        ok = exact and worked and elapsed < 30.0
        _report("criterion 3 (LSBT exhaustive)", ok,
                f"exact={exact} worked_pair={worked} time={elapsed:.2f} s")


class TestCriterion4LossPathEquivalence:
    def test_fifty_random_points_per_case(self):
        t0 = time.perf_counter()
        worst = 0.0
        rng = np.random.default_rng(0)
        for case in BoundaryCase:
            ctx = build_context(reference_problem(case), reps=5)
            for _ in range(50):
                theta = rng.uniform(-np.pi, np.pi, ctx.n_params)
                a = evaluate_loss(theta, ctx)
                b = evaluate_loss_dense(theta, ctx)
                worst = max(worst, abs(a.quad - b.quad),
                            abs(a.overlap - b.overlap))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-9 and elapsed < 60.0
        _report("criterion 4 (loss-path equivalence)", ok,
                f"max_err={worst:.3e} time={elapsed:.2f} s")


class TestCriterion5VariationalIdentity:
    def test_reference_direction_hits_target(self):
        worst = 0.0
        for case in BoundaryCase:
            ctx = build_context(reference_problem(case), reps=5)
            phi = ctx.u_ref / np.linalg.norm(ctx.u_ref)
            quad = float(phi @ ctx.K_mod @ phi)
            overlap = float(ctx.load.vector @ phi)
            loss = -overlap ** 2 / (2.0 * quad)
            worst = max(worst, abs(loss - ctx.target_energy)
                        / abs(ctx.target_energy))
        ok = worst <= 1e-9
        _report("criterion 5 (variational identity)", ok,
                f"max_rel_err={worst:.3e}")


def _optimization_case(case: BoundaryCase, seed: int, max_iter: int):
    problem = reference_problem(case)
    ctx = build_context(problem, reps=5)
    opts = OptimizerOptions(seed=seed, restarts=5, max_iter=max_iter)
    t0 = time.perf_counter()
    record, profile, breakdown = optimize(problem, opts, reps=5, ctx=ctx)
    wall = time.perf_counter() - t0
    rel = abs(breakdown.loss - ctx.target_energy) / abs(ctx.target_energy)
    phi = prepare_ansatz(5, 5, record.theta_final).real_vector()
    fid = fidelity(phi, ctx.u_ref)
    return rel, fid, wall, record


class TestCriterion6CantileverReproduction:
    def test_cantilever_reference_setup(self):
        rel, fid, wall, record = _optimization_case(
            BoundaryCase.CANTILEVER, seed=0, max_iter=3000)
        ok = rel <= 0.02 and fid >= 0.999 and wall <= 300.0
        _report("criterion 6 (cantilever reproduction)", ok,
                f"rel_err={rel:.5f} fidelity={fid:.6f} "
                f"iterations={record.iterations} time={wall:.1f} s")


class TestCriterion7OtherCases:
    @pytest.mark.parametrize("case", [BoundaryCase.PBC, BoundaryCase.SSB,
                                      BoundaryCase.FFB])
    def test_case(self, case):
        rel, fid, wall, record = _optimization_case(case, seed=0,
                                                    max_iter=3000)
        ok = rel <= 0.02 and fid >= 0.999 and wall <= 300.0
        _report(f"criterion 7 ({case.value})", ok,
                f"rel_err={rel:.5f} fidelity={fid:.6f} "
                f"iterations={record.iterations} time={wall:.1f} s")


class TestCriterion8GradientCheck:
    def test_richardson_oracle(self):
        ctx = build_context(
            BeamProblem(length=10.0, youngs_modulus=1000.0, second_moment=1.0,
                        num_qubits=3, boundary_case=BoundaryCase.CANTILEVER),
            reps=5)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(20):
            theta = rng.uniform(-np.pi, np.pi, ctx.n_params)
            _, g = gradient(theta, ctx)
            oracle = _richardson_gradient(theta, ctx)
            scale = max(float(np.max(np.abs(oracle))), 1e-12)
            worst = max(worst, float(np.max(np.abs(g - oracle))) / scale)
        ok = worst <= 1e-5
        _report("criterion 8 (gradient check)", ok, f"max_rel_err={worst:.3e}")


def _richardson_gradient(theta, ctx, h=1e-4):
    def central(step):
        g = np.zeros_like(theta)
        for k in range(theta.size):
            e = np.zeros_like(theta)
            e[k] = step
            g[k] = (evaluate_loss_dense(theta + e, ctx).loss
                    - evaluate_loss_dense(theta - e, ctx).loss) / (2 * step)
        return g

    g_h, g_h2, g_h4 = (central(h / 2 ** k) for k in range(3))
    r_h = (4.0 * g_h2 - g_h) / 3.0  # O(h^4) truncation error
    r_h2 = (4.0 * g_h4 - g_h2) / 3.0
    return (16.0 * r_h2 - r_h) / 15.0  # O(h^6)


class TestCriterion9Determinism:
    def test_byte_identical_results(self, tmp_path):
        import json

        from vqpde.cli import parse_config, run_case

        cfg = {
            "problem": {"length": 10.0, "youngs_modulus": 1000.0,
                        "second_moment": 1.0, "num_qubits": 3,
                        "boundary_case": "cantilever"},
            "ansatz": {"reps": 3},
            "optimizer": {"seed": 3, "restarts": 2, "max_iter": 150},
        }
        for name in "ab":
            run_case(parse_config(cfg | {"output_dir": str(tmp_path / name)}))
        a = json.loads((tmp_path / "a" / "result.json").read_text())
        b = json.loads((tmp_path / "b" / "result.json").read_text())
        a.pop("wall_time_seconds")
        b.pop("wall_time_seconds")
        ok = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        _report("criterion 9 (determinism)", ok,
                "result.json byte-identical excluding wall time")
