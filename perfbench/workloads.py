"""Workload definitions, generated inputs and correctness checks.

Every workload covers the four boundary cases of the paper's beam (L=10,
E=1000, I=1, reps=5). A round builds each case's context and solves it. The
optimizer seeds of a round come from the workload seed and the round index
alone, so repeated rounds sample the solve time over start points.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import vqpde
import vqpde.cli

CASES = ("cantilever", "ssb", "ffb", "pbc")
LENGTH, YOUNGS_MODULUS, SECOND_MOMENT, REPS = 10.0, 1000.0, 1.0, 5

# Relative tolerance of ctx.target_energy against the closed forms.
CLOSED_FORM_RTOL = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    num_qubits: int
    restarts: int
    max_iter: int
    via_cli: bool        # each solve is one `vqpde run` on a generated config
    solves_per_case: int = 1   # solves per case and round, on one context


# Budgets are fixed iteration counts sized so that a 30 s run repeats its
# round several times: the converged best-of-5 reference takes about 3 minutes
# and its time varies by +-30% with the start seed. At n=12 one BFGS
# iteration from a random start needs ~27 line-search evaluations (~14 s per
# case), so each solve there is a 0-iteration BFGS, one loss and one
# gradient, repeated on the same context because its build is slow.
WORKLOADS = {
    w.name: w for w in (
        Workload("ref-n5", 5, restarts=5, max_iter=30, via_cli=True),
        Workload("wide-n10", 10, restarts=1, max_iter=4, via_cli=False),
        Workload("setup-n12", 12, restarts=1, max_iter=0, via_cli=False,
                 solves_per_case=5),
    )
}


def problem(case: str, num_qubits: int) -> vqpde.BeamProblem:
    return vqpde.BeamProblem(length=LENGTH, youngs_modulus=YOUNGS_MODULUS,
                             second_moment=SECOND_MOMENT,
                             num_qubits=num_qubits,
                             boundary_case=vqpde.BoundaryCase(case))


def closed_form_energy(p: vqpde.BeamProblem) -> float:
    """Euler-Bernoulli minimum energy -f.u/2 under the default unit load.

    Hermite elements are nodally exact, so the FEM target must match. The
    load sits at node num_nodes//2, at a = that node's coordinate.
    """
    L, EI = p.length, p.youngs_modulus * p.second_moment
    a = (p.num_nodes // 2) * p.element_length
    b = L - a
    return {
        "cantilever": -L ** 3 / (6 * EI),
        "ssb": -a ** 2 * b ** 2 / (6 * EI * L),
        "ffb": -a ** 3 * b ** 3 / (6 * EI * L ** 3),
        "pbc": -L ** 3 / (384 * EI),
    }[p.boundary_case.value]


def round_inputs(workload: Workload, seed: int, round_index: int) -> list[dict]:
    """The solves of one round, case by case, with their optimizer seeds."""
    k = workload.solves_per_case
    seeds = np.random.SeedSequence([seed, round_index]).generate_state(
        k * len(CASES))
    return [{"case": CASES[i // k], "optimizer_seed": int(s)}
            for i, s in enumerate(seeds)]


def run_config(workload: Workload, case: str, optimizer_seed: int,
               output_dir: str) -> dict:
    """`vqpde run` config of one ref-n5 solve."""
    return {
        "problem": {"length": LENGTH, "youngs_modulus": YOUNGS_MODULUS,
                    "second_moment": SECOND_MOMENT,
                    "num_qubits": workload.num_qubits, "boundary_case": case},
        "ansatz": {"reps": REPS},
        "optimizer": {"seed": optimizer_seed, "restarts": workload.restarts,
                      "max_iter": workload.max_iter, "grad_tol": 0.0},
        "output_dir": output_dir,
    }


class CheckFailed(AssertionError):
    """A program output missed its correctness check."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _fidelity(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float((a @ b) ** 2 / ((a @ a) * (b @ b)))


def check_context(ctx) -> float:
    """Closed-form check of the reference energy; returns its relative error."""
    err = _rel(ctx.target_energy, closed_form_energy(ctx.problem))
    _require(err <= CLOSED_FORM_RTOL,
             f"target energy off the closed form by {err:.3e}")
    return err


def _check_bound(loss: float, target: float):
    # The loss is bounded below by the minimum energy (variational bound).
    _require(math.isfinite(loss), f"loss {loss!r} is not finite")
    _require(loss >= target - 1e-9 * abs(target),
             f"loss {loss!r} below the target energy {target!r}")


def check_optimize(workload: Workload, ctx, record, profile, breakdown) -> dict:
    _check_bound(breakdown.loss, ctx.target_energy)
    _require(record.iterations == workload.max_iter,
             f"nit {record.iterations} != budget {workload.max_iter}")
    return {"iterations": record.iterations,
            "function_evals": record.function_evals, "loss": breakdown.loss,
            "target_energy": ctx.target_energy,
            "rel_err": _rel(breakdown.loss, ctx.target_energy),
            "fidelity": _fidelity(profile.state, ctx.u_ref)}


def check_run_outputs(workload: Workload, p, out: Path, stdout: str) -> dict:
    """Parse and cross-check result.json, convergence.csv and profile.csv."""
    result = json.loads((out / "result.json").read_text())
    with open(out / "convergence.csv", newline="") as fh:
        conv = list(csv.reader(fh))
    with open(out / "profile.csv", newline="") as fh:
        prof = list(csv.reader(fh))
    _require(json.loads(stdout) == result["metrics"],
             "printed metrics differ from result.json")

    target = result["target_energy"]
    err = _rel(target, closed_form_energy(p))
    _require(err <= CLOSED_FORM_RTOL,
             f"target energy off the closed form by {err:.3e}")
    loss = result["predicted_energy"]
    _check_bound(loss, target)
    iterations = result["convergence"]["iterations"]
    _require(iterations == workload.max_iter,
             f"nit {iterations} != budget {workload.max_iter}")

    _require(conv[0] == ["iteration", "loss", "grad_norm"],
             "bad convergence.csv header")
    history = [float(row[1]) for row in conv[1:]]
    _require(history == result["convergence"]["loss_history"],
             "convergence.csv differs from result.json")
    _require(len(prof) == p.num_nodes + 1, "profile.csv row count")
    cols = np.array([[float(x) for x in row[2:]] for row in prof[1:]])
    pred = cols[:, [0, 2]].ravel()   # deflection, rotation per node
    ref = cols[:, [1, 3]].ravel()
    fid = _fidelity(pred, ref)
    rel = _rel(loss, target)
    metrics = result["metrics"]
    _require(abs(metrics["relative_error"] - rel) <= 1e-12 * max(rel, 1.0),
             "relative_error disagrees with the energies")
    _require(abs(metrics["fidelity"] - fid) <= 1e-9,
             "fidelity disagrees with profile.csv")
    return {"iterations": iterations,
            "function_evals": result["convergence"]["function_evals"],
            "loss": loss, "target_energy": target,
            "rel_err": rel, "fidelity": fid, "closed_form_err": err}


class Run:
    """One benchmark run: timings, per-solve records and failures."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.problems = [problem(c, workload.num_qubits) for c in CASES]
        self.attempted = 0
        self.failures: list[dict] = []
        self.solves: list[dict] = []
        self.build_samples: list[float] = []
        self.ref_rel_err = 0.0

    def _operation(self, what: str, call, check):
        """Time ``call()``, then ``check`` its outcome; returns (seconds, record).

        An exception from either counts the operation as failed and gives
        record None.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        seconds = None
        try:
            outcome = call()
            seconds = time.perf_counter() - t0
            return seconds, check(outcome)
        except Exception:  # the run goes on and reports the failure
            self.failures.append({"operation": what,
                                  "error": traceback.format_exc()})
            if seconds is None:
                seconds = time.perf_counter() - t0
            return seconds, None

    def build(self, p):
        """Build and check one context; returns (build seconds, context)."""
        def check(ctx):
            self.ref_rel_err = max(self.ref_rel_err, check_context(ctx))
            return ctx

        return self._operation(f"build_context {p.boundary_case.value}",
                               lambda: vqpde.build_context(p, REPS), check)

    def round(self, index: int, label: str) -> dict[str, list[float]]:
        """Build and solve every case; return each case's solve seconds.

        The summed build time is one set-up sample. A `vqpde run` solve
        builds its own context; the round's build only times and checks it.
        """
        items = round_inputs(self.workload, self.seed, index)
        seconds_by_case, build_total = {}, 0.0
        for p in self.problems:
            case = p.boundary_case.value
            build_s, ctx = self.build(p)
            build_total += build_s
            for item in (it for it in items if it["case"] == case):
                if self.workload.via_cli:
                    seconds, record = self._solve_cli(p, item)
                else:
                    seconds, record = self._solve_optimize(ctx, p, item)
                seconds_by_case.setdefault(case, []).append(seconds)
                if record is not None:
                    self.solves.append({"round": index, "pass": label,
                                        **item, "seconds": seconds, **record})
            # Drop the context before the next build: at n=12 one holds
            # three dense 4096x4096 matrices.
            del ctx
        self.build_samples.append(build_total)
        return seconds_by_case

    def _solve_optimize(self, ctx, p, item):
        w = self.workload
        opts = vqpde.OptimizerOptions(seed=item["optimizer_seed"],
                                      restarts=w.restarts,
                                      max_iter=w.max_iter, grad_tol=0.0)
        return self._operation(
            f"optimize {item['case']}",
            lambda: vqpde.optimize(p, opts, reps=REPS, ctx=ctx),
            lambda outcome: check_optimize(w, ctx, *outcome))

    def _solve_cli(self, p, item):
        w = self.workload
        out = self.out_dir / item["case"]
        out.mkdir(parents=True, exist_ok=True)
        config_path = out / "config.json"
        config_path.write_text(json.dumps(
            run_config(w, item["case"], item["optimizer_seed"], str(out))))
        printed = io.StringIO()

        def call():
            with contextlib.redirect_stdout(printed):
                return vqpde.cli.main(["run", "--config", str(config_path)])

        def check(code):
            _require(code == 0, f"vqpde run exited with {code}")
            record = check_run_outputs(w, p, out, printed.getvalue())
            self.ref_rel_err = max(self.ref_rel_err,
                                   record.pop("closed_form_err"))
            return record

        return self._operation(f"vqpde run {item['case']}", call, check)
