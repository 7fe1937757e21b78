import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vqpde
from vqpde import cli, driver
from vqpde.cli import (ConfigError, load_config, main, parse_config, run_case,
                       run_sweep)
from vqpde.fem import BoundaryCase


def small_config(tmp_path, **overrides):
    cfg = {
        "problem": {"length": 1.0, "youngs_modulus": 1.0, "second_moment": 1.0,
                    "num_qubits": 3, "boundary_case": "cantilever"},
        "ansatz": {"reps": 2},
        "optimizer": {"seed": 0, "restarts": 2, "max_iter": 150},
        "output_dir": str(tmp_path / "out"),
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


def _strict_loads(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigLoading:
    def test_valid_config(self, tmp_path):
        path = write_config(tmp_path, small_config(tmp_path))
        problem = load_config(path).problem
        assert problem.num_qubits == 3
        assert problem.boundary_case is BoundaryCase.CANTILEVER

    def test_unknown_top_level_key(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg["optimiser"] = {}
        with pytest.raises(ConfigError, match="optimiser"):
            load_config(write_config(tmp_path, cfg))

    def test_unknown_problem_key(self, tmp_path):
        cfg = small_config(tmp_path, problem={"younqs_modulus": 1.0})
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, cfg))

    def test_unknown_optimizer_key(self, tmp_path):
        cfg = small_config(tmp_path, optimizer={"learning_rate": 0.1})
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, cfg))

    def test_too_few_qubits(self, tmp_path):
        cfg = small_config(tmp_path, problem={"num_qubits": 2})
        with pytest.raises(ConfigError, match="3"):
            load_config(write_config(tmp_path, cfg))

    def test_bad_boundary_case(self):
        with pytest.raises(ConfigError):
            parse_config({"problem": {"boundary_case": "clamped"}})

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_options_passthrough(self):
        opts = parse_config({"optimizer": {"seed": 9, "restarts": 4}}).opts
        assert opts.seed == 9 and opts.restarts == 4

    def test_defaults_applied(self):
        run = parse_config({})
        assert run.problem.num_qubits == 5
        assert run.problem.length == 10.0
        assert run.problem.boundary_case is BoundaryCase.CANTILEVER
        assert run.reps == 5 and run.output_dir == "."


@pytest.fixture(scope="module")
def result_and_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    cfg = small_config(tmp_path)
    return run_case(parse_config(cfg)), tmp_path / "out"


class TestRunCase:
    def test_result_json_written_and_matches(self, result_and_dir):
        result, out = result_and_dir
        on_disk = json.loads((out / "result.json").read_text())
        assert on_disk["target_energy"] == result["target_energy"]
        assert on_disk["metrics"] == result["metrics"]
        assert on_disk["config"]["problem"]["num_qubits"] == 3
        assert on_disk["structured_terms"] == 18

    def test_convergence_csv_schema(self, result_and_dir):
        result, out = result_and_dir
        with open(out / "convergence.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "loss", "grad_norm"]
        assert len(rows) - 1 == len(result["convergence"]["loss_history"])
        losses = [float(r[1]) for r in rows[1:]]
        assert losses == pytest.approx(result["convergence"]["loss_history"])

    def test_profile_csv_schema(self, result_and_dir):
        result, out = result_and_dir
        with open(out / "profile.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["node", "x_m", "deflection_pred", "deflection_ref",
                           "rotation_pred", "rotation_ref"]
        assert len(rows) - 1 == 4  # 2^3 DOFs -> 4 nodes
        xs = [float(r[1]) for r in rows[1:]]
        assert xs == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])

    def test_small_case_is_accurate(self, result_and_dir):
        result, _ = result_and_dir
        assert result["metrics"]["relative_error"] <= 0.05

    def test_rerun_is_deterministic(self, tmp_path):
        a, b = (run_case(parse_config(small_config(
            tmp_path, output_dir=str(tmp_path / name)))) for name in "ab")
        assert a["predicted_energy"] == b["predicted_energy"]
        assert a["convergence"]["theta_final"] == b["convergence"]["theta_final"]
        assert a["metrics"] == b["metrics"]


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["run", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "relative_error" in out

    def test_zero_iteration_run_writes_strict_json(self, tmp_path, capsys):
        # A budget of 0 iterations leaves the loss history empty, so
        # rmse_objective has no value.
        cfg = small_config(
            tmp_path, problem={"length": 3.0, "youngs_modulus": 1000.0,
                               "num_qubits": 6, "boundary_case": "ssb"},
            optimizer={"seed": 0, "restarts": 1, "max_iter": 0})
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", path]) == 0
        printed = _strict_loads(capsys.readouterr().out)
        result = _strict_loads((tmp_path / "out" / "result.json").read_text())
        assert printed == result["metrics"]
        assert result["convergence"]["loss_history"] == []
        assert printed["rmse_objective"] is None

    def test_max_iter_run_records_status(self, tmp_path):
        cfg = small_config(tmp_path, optimizer={"restarts": 1, "max_iter": 5})
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
        result = _strict_loads((tmp_path / "out" / "result.json").read_text())
        convergence = result["convergence"]
        assert convergence["iterations"] == 5
        assert convergence["status"] == 1
        assert "iterations" in convergence["message"]

    def test_failed_restart_still_exits_zero(self, tmp_path, monkeypatch):
        descend, calls = driver._descend, []

        def second_fails(*args):
            calls.append(None)
            if len(calls) == 2:
                raise driver.NearSingularEnergyError("degenerate start")
            return descend(*args)

        monkeypatch.setattr(driver, "_descend", second_fails)
        cfg = small_config(tmp_path, optimizer={"restarts": 3, "max_iter": 30})
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
        result = _strict_loads((tmp_path / "out" / "result.json").read_text())
        convergence = result["convergence"]
        restarts = convergence["restarts"]
        assert [e["error"] for e in restarts] == [None, "degenerate start", None]
        assert convergence["restart_final_losses"] == \
            [e["loss"] for e in restarts]
        assert restarts[1]["loss"] is None and restarts[1]["nit"] is None
        assert restarts[0]["loss"] is not None
        assert convergence["restart_index"] != 1
        assert set(restarts[0]) == {"loss", "nit", "nfev", "status", "message",
                                    "grad_norm", "error"}
        assert set(restarts[1]) == set(restarts[0])
        assert restarts[1]["grad_norm"] is None
        assert restarts[0]["grad_norm"] > 0.0

    def test_degenerate_state_exit_one(self, tmp_path, monkeypatch, capsys):
        def degenerate(*args, **kwargs):
            raise driver.NearSingularEnergyError("degenerate state")

        monkeypatch.setattr(cli, "optimize", degenerate)
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err == "error: degenerate state\n"

    def test_every_restart_failing_exit_one(self, tmp_path, monkeypatch,
                                            capsys):
        def degenerate(*args):
            raise driver.NearSingularEnergyError("degenerate state")

        monkeypatch.setattr(driver, "evaluate_loss", degenerate)
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err == "optimization failed: all restarts failed: " \
            "degenerate state\n"

    def test_zero_overlap_starts_exit_one(self, tmp_path, monkeypatch,
                                          capsys):
        """A generator that draws only theta = 0 starts every restart at
        |0...0>, where the cantilever's load is 0, so <f|phi> = 0 and
        -log(-L) is undefined: every restart fails, and the run exits 1 with
        one line instead of a traceback."""
        class Zeros:
            def uniform(self, low, high, size):
                return np.zeros(size)

        monkeypatch.setattr(driver.np.random, "default_rng",
                            lambda seed: Zeros())
        cfg = small_config(tmp_path, ansatz={"reps": 1})
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == (
            "optimization failed: all restarts failed: "
            "<f|phi> is zero, so -log(-L) is undefined\n")

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        cfg["bogus"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("problem", "num_qubits", "5"),
        ("problem", "num_qubits", 3.5),
        ("problem", "boundary_case", 3),
        ("optimizer", "restarts", 0),
        ("ansatz", "reps", -1),
        (None, "mode", "run"),
        ("optimizer", "fd_step", 1e-6),
        (None, "output_dir", 3),
        (None, "output_dir", None),
    ])
    def test_bad_value_exit_two(self, tmp_path, capsys, section, key, value):
        cfg = small_config(tmp_path)
        (cfg if section is None else cfg[section])[key] = value
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,value", [
        ("problem", 3), ("optimizer", [1]), ("ansatz", "x"),
    ])
    def test_section_not_object_exit_two(self, tmp_path, capsys, section,
                                         value):
        cfg = small_config(tmp_path)
        cfg[section] = value
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"{section} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", [
        {"length": 1e308, "youngs_modulus": 1e-308},  # 12EI/l^3 underflows
        {"youngs_modulus": 1e300, "second_moment": 1e300},  # EI overflows
        {"length": 1e-300},  # 12EI/l^3 overflows
        {"num_qubits": 21},
        {"num_qubits": 60},
    ])
    def test_extreme_sizes_exit_two(self, tmp_path, capsys, monkeypatch,
                                    problem):
        """Each is rejected while the config is read, before any array is
        allocated, with one stderr line."""
        def unreachable(*args):
            raise AssertionError("the config reached build_context")

        monkeypatch.setattr(cli, "build_context", unreachable)
        cfg = small_config(tmp_path, problem=problem)
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("num_qubits,reps", [
        (5, 100000), (5, 5000), (20, 204), (None, 1000),
    ])
    def test_too_many_parameters_exit_two(self, tmp_path, capsys,
                                          monkeypatch, num_qubits, reps):
        """More than MAX_PARAMS angles (num_qubits 5 when unset) is
        rejected while the config is read, before BFGS could ask for its
        P x P matrices, with one stderr line."""
        def unreachable(*args):
            raise AssertionError("the config reached build_context")

        monkeypatch.setattr(cli, "build_context", unreachable)
        cfg = small_config(tmp_path, ansatz={"reps": reps})
        if num_qubits is None:
            del cfg["problem"]["num_qubits"]
        else:
            cfg["problem"]["num_qubits"] = num_qubits
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert f"at most {cli.MAX_PARAMS}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n,reps,fits", [
        (20, 63, True), (20, 64, False), (20, 203, False),
        (19, 101, True), (19, 102, False), (18, 226, True),
    ])
    def test_layer_factor_limit(self, n, reps, fits):
        """(reps + 1) (4^h + 4^(n-h)) 8 bytes of layer factors, h = n // 2,
        must fit in MAX_FACTOR_BYTES: 16 MiB a layer at n = 20, 10 MiB at
        n = 19. Only the check runs; nothing of that size is allocated."""
        h = n // 2
        size = (reps + 1) * (4 ** h + 4 ** (n - h)) * 8
        assert n * (reps + 1) <= cli.MAX_PARAMS
        assert (size <= cli.MAX_FACTOR_BYTES) == fits
        if fits:
            cli._check_size(n, reps)
        else:
            with pytest.raises(ConfigError, match="layer factors"):
                cli._check_size(n, reps)

    def test_parameter_limit_is_inclusive(self, tmp_path):
        cfg = small_config(tmp_path, problem={"num_qubits": 4},
                           ansatz={"reps": cli.MAX_PARAMS // 4 - 1})
        run = load_config(write_config(tmp_path, cfg))
        assert run.problem.num_qubits == 4
        assert run.reps == cli.MAX_PARAMS // 4 - 1

    def test_sweep_rejects_too_many_parameters(self, tmp_path, capsys,
                                               monkeypatch):
        """The limit holds for every swept qubit count, not only the
        config's."""
        monkeypatch.setattr(cli, "run_case", None)
        cfg = small_config(tmp_path, ansatz={"reps": 1000})  # 3 * 1001 fits
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path, "--qubits", "3,5"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "5 * (1000 + 1)" in err

    @pytest.mark.parametrize("qubits", ["3,21", "3,60"])
    def test_sweep_rejects_too_many_qubits(self, tmp_path, capsys,
                                           monkeypatch, qubits):
        monkeypatch.setattr(cli, "run_case", None)
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", path, "--qubits", qubits]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "between 3 and 20" in err

    def test_missing_config_exit_two(self):
        assert main(["run", "--config", "/does/not/exist.json"]) == 2

    def test_sweep_rejects_small_qubits(self, tmp_path):
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", path, "--qubits", "2,3"]) == 2

    def test_sweep_rejects_repeated_qubits(self, tmp_path, capsys,
                                           monkeypatch):
        """A repeated count would run one case twice into one n3/ directory."""
        pools = _fake_pool(monkeypatch)
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", path, "--qubits", "3,4,3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "distinct" in captured.err
        assert captured.out == "" and pools == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("qubits", ["a,b", ""])
    def test_sweep_rejects_non_integer_qubits(self, tmp_path, capsys, qubits):
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", path, "--qubits", qubits]) == 2
        assert "--qubits" in capsys.readouterr().err

    def test_sweep_rejects_non_integer_threads(self, tmp_path, capsys,
                                               monkeypatch):
        pools = _fake_pool(monkeypatch)
        monkeypatch.setenv("VQPDE_THREADS", "abc")
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", path, "--qubits", "3"]) == 2
        assert "VQPDE_THREADS" in capsys.readouterr().err
        assert pools == []

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_sweep_rejects_threads_below_one(self, tmp_path, capsys,
                                             monkeypatch, threads):
        """A count below 1 is a config error, not a serial sweep."""
        pools = _fake_pool(monkeypatch)
        monkeypatch.setattr(cli, "run_case", None)
        monkeypatch.setenv("VQPDE_THREADS", threads)
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", path, "--qubits", "3,4"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "VQPDE_THREADS" in err
        assert pools == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides,qubits,message", [
        ({"problem": {"youngs_modulus": -1}}, "3,4", "youngs_modulus"),
        ({"optimizer": {"restarts": 0}}, "3,4", "restarts"),
        # Finite at n = 3, but 12EI/l^3 overflows at n = 9.
        ({"problem": {"length": 1e-100}}, "3,9", "element stiffness"),
    ])
    def test_sweep_bad_value_exit_two(self, tmp_path, capsys, monkeypatch,
                                      overrides, qubits, message):
        """The whole config, at every qubit count, is checked before any
        directory is made."""
        monkeypatch.setattr(cli, "run_case", None)
        path = write_config(tmp_path, small_config(tmp_path, **overrides))
        assert main(["sweep", "--config", path, "--qubits", qubits]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()

    def test_uncreatable_output_dir_exit_two(self, tmp_path, capsys,
                                             monkeypatch):
        """An output_dir under a regular file fails before the solve, not
        with a traceback after it."""
        def unreachable(*args):
            raise AssertionError("the run reached build_context")

        monkeypatch.setattr(cli, "build_context", unreachable)
        (tmp_path / "file").write_text("")
        cfg = small_config(tmp_path, output_dir=str(tmp_path / "file" / "out"))
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert "output_dir" in err

    @pytest.mark.parametrize("blocked", ["out", "out/n4"])
    def test_sweep_uncreatable_output_dir_exit_two(self, tmp_path, capsys,
                                                   monkeypatch, blocked):
        """Every qubit count's directory is made before the first solve, so
        a blocked n4/ stops the sweep before n = 3 is solved."""
        def unreachable(*args):
            raise AssertionError("the sweep reached build_context")

        monkeypatch.setattr(cli, "build_context", unreachable)
        (tmp_path / blocked).parent.mkdir(exist_ok=True)
        (tmp_path / blocked).write_text("")
        path = write_config(tmp_path, small_config(tmp_path))
        assert main(["sweep", "--config", path, "--qubits", "3,4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        """A result file that cannot be written is one stderr line."""
        (tmp_path / "out" / "result.json").mkdir(parents=True)
        cfg = small_config(tmp_path, optimizer={"restarts": 1, "max_iter": 2})
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert "cannot write outputs" in err

    def test_verify_exit_zero(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_negative_control_exit_three(self, capsys):
        assert main(["verify", "--flip-k2-sign"]) == 3
        assert "FAIL" in capsys.readouterr().out


    def test_python_dash_m(self, tmp_path):
        """``python -m vqpde`` runs the command line without an install."""
        src = str(Path(vqpde.__file__).resolve().parent.parent)
        env = os.environ | {"PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "vqpde", "run", "--config",
             str(tmp_path / "missing.json")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: cannot read config")

def _fake_pool(monkeypatch):
    """Replace the sweep's process pool by a serial one; returns the list of
    ``max_workers`` it was asked for."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return pools


class TestSweep:
    def test_workers_capped_by_job_count(self, tmp_path, monkeypatch):
        pools = _fake_pool(monkeypatch)
        monkeypatch.setenv("VQPDE_THREADS", "64")
        cfg = small_config(tmp_path, optimizer={"restarts": 1, "max_iter": 2})
        results = run_sweep(parse_config(cfg), [3, 4])
        assert pools == [2]
        assert [r["config"]["problem"]["num_qubits"] for r in results] == [3, 4]

    def test_sweep_runs_each_size(self, tmp_path):
        cfg = small_config(tmp_path, optimizer={"restarts": 1, "max_iter": 40})
        results = run_sweep(parse_config(cfg), [3, 4])
        assert len(results) == 2
        assert (tmp_path / "out" / "n3" / "result.json").exists()
        assert (tmp_path / "out" / "n4" / "result.json").exists()
        assert [r["config"]["problem"]["num_qubits"] for r in results] == [3, 4]
        # Term count does not grow with the register.
        assert results[0]["structured_terms"] == results[1]["structured_terms"]

    def test_process_pool_matches_serial(self, tmp_path, monkeypatch):
        """Two real worker processes write both results, each bit for bit
        the serial sweep's."""
        thetas = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("VQPDE_THREADS", threads)
            cfg = small_config(tmp_path, optimizer={"restarts": 1,
                                                    "max_iter": 2},
                               output_dir=str(tmp_path / threads))
            run_sweep(parse_config(cfg), [3, 4])
            thetas[threads] = [json.loads(
                (tmp_path / threads / f"n{n}" / "result.json").read_text()
            )["convergence"]["theta_final"] for n in (3, 4)]
        assert thetas["2"] == thetas["1"]
