"""Span recording for the traced benchmark run.

The traced run replaces layer functions of the vqpde package with wrappers,
in the module namespace where each caller looks them up (``driver.assemble``
and ``pauli_ops.assemble`` both lead to ``fem.assemble``, for example). Each
wrapper records a span ``(id, parent, name, start, end)``; spans stay in
memory until the run writes them out. A span's self time is its duration
minus the durations of its direct children.

A probe whose attribute no longer exists in the program is skipped, and every
per-layer metric built from it is reported as absent instead of as zero.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans) -> dict[str, SpanStats]:
    """Calls, total time and self time per span name.

    ``spans`` holds ``(id, parent, name, start, end)`` tuples, with ``id``
    equal to the span's position and ``parent`` equal to -1 at the root.
    """
    child_s = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    for sid, _, name, start, end in spans:
        s = stats[name]
        s.calls += 1
        s.total_s += end - start
        s.self_s += end - start - child_s[sid]
    return dict(stats)


class Tracer:
    """Records nested spans and counters from patched module attributes."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span called ``name``; ``count`` updates counters."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, name: str, count=None,
              adapt=None) -> bool:
        """Wrap ``module.attr`` in place; False if the program lacks it.

        ``adapt(original, counts)`` may first wrap the original in a function
        that counts what the call does internally.
        """
        original = getattr(module, attr, None)
        if original is None:
            return False
        fn = original if adapt is None else adapt(original, self.counts)
        setattr(module, attr, self.wrap(name, fn, count))
        self._patched.append((module, attr, original))
        self.present.add(name)
        return True

    def install(self, probes) -> None:
        """Patch ``(module name, attribute, span name, count, adapt)`` probes."""
        for module_name, attr, name, count, adapt in probes:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            self.patch(module, attr, name, count, adapt)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_loss(counts, args, kwargs, result):
    counts["simulator.circuits"] += _arg(args, kwargs, 1, "ctx").circuits_per_eval


def _count_batched(counts, args, kwargs, result):
    rows = len(result)
    counts["simulator.circuits"] += rows * _arg(args, kwargs, 1, "ctx").circuits_per_eval


def _count_pairs(counts, args, kwargs, result):
    counts["lsbt.pairs"] += len(_arg(args, kwargs, 1, "bc_pairs"))


def _count_terms(counts, args, kwargs, result):
    counts["pauli_ops.terms"] += len(result.terms)


def _count_bfgs(minimize, counts):
    """BFGS objective calls and iterations, summed over restarts."""

    def counted(fun, x0, *args, **kwargs):
        def objective(*a, **k):
            counts["driver.function_evals"] += 1
            return fun(*a, **k)

        res = minimize(objective, x0, *args, **kwargs)
        counts["driver.iterations"] += int(res.nit)
        return res

    return counted


# (module, attribute, span name, counter, adapter). The benchmark itself
# calls vqpde.build_context, vqpde.optimize and vqpde.cli.main.
PROBES = (
    ("vqpde", "build_context", "driver.build_context", None, None),
    ("vqpde.driver", "build_context", "driver.build_context", None, None),
    ("vqpde.cli", "build_context", "driver.build_context", None, None),
    ("vqpde", "optimize", "driver.optimize", None, None),
    ("vqpde.cli", "optimize", "driver.optimize", None, None),
    ("vqpde.cli", "run_case", "cli.run_case", None, None),
    ("scipy.optimize", "minimize", "driver.bfgs", None, _count_bfgs),
    ("vqpde.driver", "evaluate_loss", "driver.evaluate_loss", _count_loss, None),
    ("vqpde.driver", "gradient", "driver.gradient", None, None),
    ("vqpde.driver", "batched_losses", "driver.batched_losses",
     _count_batched, None),
    ("vqpde.driver", "assemble", "fem.assemble", None, None),
    ("vqpde.pauli_ops", "assemble", "fem.assemble", None, None),
    ("vqpde.driver", "set_to_zero", "fem.set_to_zero", None, None),
    ("vqpde.pauli_ops", "set_to_zero", "fem.set_to_zero", None, None),
    ("vqpde.driver", "classical_solve", "fem.classical_solve", None, None),
    ("vqpde.driver", "build_structured", "pauli_ops.build_structured",
     _count_terms, None),
    ("vqpde.simulator", "apply_circuit", "simulator.apply_circuit", None, None),
    ("vqpde.simulator", "expectation_structured_term", "simulator.expectation",
     None, None),
    ("vqpde.simulator", "shift_by_two", "simulator.expectation", None, None),
    ("vqpde.simulator", "overlap_term", "simulator.overlap", None, None),
    ("vqpde.lsbt", "expectation_kbc", "lsbt.kbc", _count_pairs, None),
)

# Per-layer metrics of the traced run, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "driver.iterations": "count",
    "driver.function_evals": "count",
    "driver.gradient_calls": "count",
    "driver.iter_ms": "ms",
    "driver.loss_calls": "count",
    "driver.useful_loss_ratio": "ratio",
    "driver.gradient_self_s": "s",
    "driver.bfgs_self_s": "s",
    "driver.build_context_s": "s",
    "simulator.apply_circuit_self_s": "s",
    "simulator.apply_circuit_calls": "count",
    "simulator.expectation_self_s": "s",
    "simulator.overlap_self_s": "s",
    "simulator.circuits": "count",
    "lsbt.kbc_self_s": "s",
    "lsbt.pairs": "count",
    "pauli_ops.build_structured_s": "s",
    "pauli_ops.terms": "count",
    "fem.assemble_s": "s",
    "fem.assemble_calls": "count",
    "fem.set_to_zero_s": "s",
    "fem.classical_solve_s": "s",
    "fem.ref_rel_err": "ratio",
    "cli.run_case_self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, passes: int, solve_s: float,
                  traced_solve_s: float, ref_rel_err: float) -> dict[str, dict]:
    """Per-layer metrics per pass, from the tracer's spans and counters.

    The tracer recorded ``passes`` identical traced passes over the solves
    that ``solve_s`` and ``traced_solve_s`` time with tracing off and on.
    ``driver.iter_ms`` divides the untraced time by the iteration count,
    taking a pass with no iterations as one. A metric whose functions are
    all missing from the program has value None and ``"absent": true``.
    """
    stats = summarize(tracer.spans)
    counts = tracer.counts

    def stat(field, *names):
        if not any(n in tracer.present for n in names):
            return None
        return sum(getattr(stats[n], field) for n in names
                   if n in stats) / passes

    def count(key, name):
        return counts[key] / passes if name in tracer.present else None

    iterations = count("driver.iterations", "driver.bfgs")
    function_evals = count("driver.function_evals", "driver.bfgs")
    loss_calls = stat("calls", "driver.evaluate_loss")
    values = {
        "driver.iterations": iterations,
        "driver.function_evals": function_evals,
        "driver.gradient_calls": stat("calls", "driver.gradient"),
        "driver.iter_ms": (None if iterations is None
                           else 1e3 * solve_s / max(iterations, 1)),
        "driver.loss_calls": loss_calls,
        "driver.useful_loss_ratio": (
            None if function_evals is None or not loss_calls
            else function_evals / loss_calls),
        "driver.gradient_self_s": stat("self_s", "driver.gradient",
                                       "driver.batched_losses"),
        "driver.bfgs_self_s": stat("self_s", "driver.bfgs"),
        "driver.build_context_s": stat("total_s", "driver.build_context"),
        "simulator.apply_circuit_self_s": stat("self_s",
                                               "simulator.apply_circuit"),
        "simulator.apply_circuit_calls": stat("calls",
                                              "simulator.apply_circuit"),
        "simulator.expectation_self_s": stat("self_s",
                                             "simulator.expectation"),
        "simulator.overlap_self_s": stat("self_s", "simulator.overlap"),
        "simulator.circuits": count("simulator.circuits",
                                    "driver.evaluate_loss"),
        "lsbt.kbc_self_s": stat("self_s", "lsbt.kbc"),
        "lsbt.pairs": count("lsbt.pairs", "lsbt.kbc"),
        "pauli_ops.build_structured_s": stat("self_s",
                                             "pauli_ops.build_structured"),
        "pauli_ops.terms": count("pauli_ops.terms",
                                 "pauli_ops.build_structured"),
        "fem.assemble_s": stat("total_s", "fem.assemble"),
        "fem.assemble_calls": stat("calls", "fem.assemble"),
        "fem.set_to_zero_s": stat("total_s", "fem.set_to_zero"),
        "fem.classical_solve_s": stat("total_s", "fem.classical_solve"),
        "fem.ref_rel_err": ref_rel_err,
        "cli.run_case_self_s": stat("self_s", "cli.run_case"),
        "trace.overhead_s": traced_solve_s - solve_s,
    }
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        value = values[name]
        out[name] = ({"value": value, "unit": unit} if value is not None
                     else {"value": None, "unit": unit, "absent": True})
    return out
