"""The traced benchmark run's per-layer metrics, read off a small `vqpde run`.

``perfbench/tracing.py`` wraps the layer functions by name (``PROBES``); a
program change that renames one or routes around it leaves a metric null or
meaningless, and the benchmark run is then malformed. This runs the tracer
as the benchmark does, on a case small enough for tier-1.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

from vqpde import cli

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up here
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_traced_run_reports_every_layer_metric(tmp_path):
    config = {
        "problem": {"length": 10.0, "youngs_modulus": 1000.0,
                    "second_moment": 1.0, "num_qubits": 3,
                    "boundary_case": "cantilever"},
        "ansatz": {"reps": 1},
        "optimizer": {"seed": 0, "restarts": 2, "max_iter": 3},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with tracing.Tracer() as tracer:
        tracer.install(tracing.PROBES)
        assert cli.main(["run", "--config", str(path)]) == 0
    metrics = tracing.layer_metrics(tracer, 1, 1.0, 1.0, 0.0)

    for name, entry in metrics.items():
        value = entry["value"]
        assert isinstance(value, (int, float)), (name, entry)
        assert math.isfinite(value), (name, entry)
    # Every BFGS objective call reads the loss through evaluate_loss.
    assert metrics["driver.function_evals"]["value"] >= 1
    assert (metrics["driver.loss_calls"]["value"]
            >= metrics["driver.function_evals"]["value"])
