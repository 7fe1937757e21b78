"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import vqpde  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("case", workloads.CASES)
def test_closed_form_oracle_at_n5(case):
    p = workloads.problem(case, 5)
    ctx = vqpde.build_context(p, workloads.REPS)
    closed = workloads.closed_form_energy(p)
    assert abs(ctx.target_energy - closed) <= 1e-10 * abs(closed)
    assert workloads.check_context(ctx) <= 1e-10


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        (0, -1, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 1, "c", 2.0, 3.0),
        (3, 0, "b", 5.0, 9.0),
        (4, -1, "a", 20.0, 22.0),
    ]
    stats = tracing.summarize(spans)
    assert stats["root"].self_s == pytest.approx(10.0 - 3.0 - 4.0)
    assert stats["a"].calls == 2
    assert stats["a"].total_s == pytest.approx(3.0 + 2.0)
    assert stats["a"].self_s == pytest.approx(2.0 + 2.0)
    assert stats["b"].self_s == pytest.approx(4.0)
    assert stats["c"].self_s == pytest.approx(1.0)


def test_tracer_links_parents_and_restores_the_module():
    def inner(x):
        return x + 1

    mod = types.SimpleNamespace(inner=inner)

    def outer(x):
        return mod.inner(x) * 2

    mod.outer = outer
    tracer = tracing.Tracer()
    assert tracer.patch(mod, "inner", "inner")
    assert tracer.patch(mod, "outer", "outer")
    assert not tracer.patch(mod, "removed", "removed")
    with tracer:
        assert mod.outer(1) == 4
    assert mod.inner is inner and mod.outer is outer
    (sid_in, parent_in, name_in, *_), (sid_out, parent_out, name_out, *_) = (
        tracer.spans[1], tracer.spans[0])
    assert (name_out, parent_out) == ("outer", -1)
    assert (name_in, parent_in) == ("inner", sid_out)
    assert tracer.present == {"inner", "outer"}


def test_missing_functions_are_reported_absent_not_zero():
    tracer = tracing.Tracer()
    metrics = tracing.layer_metrics(tracer, passes=1, solve_s=1.0,
                                    traced_solve_s=1.1,
                                    ref_rel_err=0.0)
    assert metrics["driver.gradient_self_s"] == {
        "value": None, "unit": "s", "absent": True}
    assert metrics["driver.iterations"]["absent"]
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.1)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == tracing.PER_LAYER_UNITS
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_reproducible_from_the_seed(name):
    w = workloads.WORKLOADS[name]
    first = workloads.round_inputs(w, 7, 2)
    assert first == workloads.round_inputs(w, 7, 2)
    assert first != workloads.round_inputs(w, 8, 2)
    assert first != workloads.round_inputs(w, 7, 3)
    assert [item["case"] for item in first] == [
        case for case in workloads.CASES for _ in range(w.solves_per_case)]


def test_checks_pass_a_real_run_and_catch_a_tampered_profile(tmp_path):
    tiny = workloads.Workload("tiny", 3, restarts=1, max_iter=3, via_cli=True)
    run = workloads.Run(tiny, seed=0, out_dir=tmp_path)
    run.round(0, "untraced")
    assert run.failures == []
    assert run.attempted == 2 * len(workloads.CASES)

    out = tmp_path / "ssb"
    profile = (out / "profile.csv").read_text().splitlines()
    cells = profile[2].split(",")
    cells[2] = repr(float(cells[2]) + 1.0)   # a predicted deflection
    profile[2] = ",".join(cells)
    (out / "profile.csv").write_text("\n".join(profile) + "\n")
    problem = workloads.problem("ssb", 3)
    result = json.loads((out / "result.json").read_text())
    with pytest.raises(workloads.CheckFailed, match="fidelity"):
        workloads.check_run_outputs(tiny, problem, out,
                                    json.dumps(result["metrics"]))
