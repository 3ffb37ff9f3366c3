"""Command line interface: run/validate/list-scenarios, files, exit codes."""

import json

import numpy as np
import pytest

import decosim
from decosim.cli import main
from decosim.config import (config_hash, config_table, emit_config,
                            parse_config, SCENARIOS)
from decosim.scenarios import run_scenario


def write_config(tmp_path, table, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(table), encoding="utf-8")
    return path


def central_spin_table(tmp_path):
    return {
        "scenario": "central-spin",
        "params": {"couplings": [0.8, 0.6]},
        "grid": {"t_end": 2.0, "n_steps": 40, "sample_every": 4},
        "output": {"path": str(tmp_path / "out.csv")},
    }


def unraveling_table(tmp_path, threshold=None):
    params = {"model": {"kind": "two-level-decay", "gamma": 1.0}}
    if threshold is not None:
        params["threshold"] = threshold
    return {
        "scenario": "unraveling-check",
        "params": params,
        "grid": {"t_end": 2.0, "n_steps": 200, "sample_every": 50},
        "estimator": {"kind": "trajectories", "n_traj": 64, "seed": 9},
        "output": {"path": str(tmp_path / "traj.csv")},
    }


def read_csv(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == ""      # trailing newline
    comments = [l for l in lines if l.startswith("#")]
    header = lines[2].split(",")
    data = np.array([[float(v) for v in l.split(",")]
                     for l in lines[3:-1]])
    return comments, header, data


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 6
    assert [line.split(":")[0] for line in out] == list(SCENARIOS)
    for line in out:
        assert line.split(": ", 1)[1]   # nonempty summary


def test_validate_echoes_resolved_config(tmp_path, capsys):
    table = central_spin_table(tmp_path)
    path = write_config(tmp_path, table)
    assert main(["validate", str(path)]) == 0
    captured = capsys.readouterr()
    cfg = parse_config(json.dumps(table))
    assert captured.out == emit_config(cfg)
    # defaults made explicit in the echo
    echoed = json.loads(captured.out)
    assert echoed["estimator"] == {"kind": "closed-form"}
    assert echoed["grid"]["t_start"] == 0.0
    assert f"sha256 {config_hash(cfg)}" in captured.err
    assert "valid central-spin configuration" in captured.err


def test_run_writes_csv_and_manifest(tmp_path, capsys):
    table = central_spin_table(tmp_path)
    path = write_config(tmp_path, table)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "check initial-coherence: PASS" in out
    assert "check coherence-bounded: PASS" in out
    assert "wrote" in out

    cfg = parse_config(json.dumps(table))
    csv_path = tmp_path / "out.csv"
    comments, header, data = read_csv(csv_path)
    assert comments[0] == (f"# decosim {decosim.__version__} "
                           "scenario central-spin")
    assert comments[1] == f"# config-sha256: {config_hash(cfg)}"
    assert header == ["t", "coherence_re", "coherence_im", "coherence_abs",
                      "gaussian_envelope"]
    # 17 significant digits round-trip the doubles exactly
    reference = run_scenario(cfg).rows
    assert data.shape == reference.shape == (11, 5)
    assert np.array_equal(data, reference)

    manifest = json.loads((tmp_path / "out.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["toolkit"] == "decosim"
    assert manifest["version"] == decosim.__version__
    assert manifest["scenario"] == "central-spin"
    assert manifest["config"] == config_table(cfg)
    assert manifest["config_sha256"] == config_hash(cfg)
    assert manifest["workers"] == 1
    assert manifest["all_passed"] is True
    assert manifest["wall_time_s"] >= 0.0
    assert [c["name"] for c in manifest["checks"]] == [
        "initial-coherence", "coherence-bounded"]
    assert all(c["passed"] for c in manifest["checks"])
    assert manifest["output"] == {"csv": str(csv_path), "rows": 11}
    assert manifest["info"]["n_bath"] == 2


def test_rerun_is_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path, unraveling_table(tmp_path))
    assert main(["run", str(path)]) == 0
    first = (tmp_path / "traj.csv").read_bytes()
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "traj.csv").read_bytes() == first
    capsys.readouterr()


def test_workers_env_changes_nothing_but_manifest(tmp_path, capsys,
                                                  monkeypatch):
    path = write_config(tmp_path, unraveling_table(tmp_path))
    assert main(["run", str(path)]) == 0
    serial = (tmp_path / "traj.csv").read_bytes()
    monkeypatch.setenv("DECOSIM_WORKERS", "2")
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "traj.csv").read_bytes() == serial
    manifest = json.loads((tmp_path / "traj.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["workers"] == 2
    capsys.readouterr()


def test_failing_check_exits_one_but_writes_everything(tmp_path, capsys):
    path = write_config(tmp_path, unraveling_table(tmp_path,
                                                   threshold=1e-9))
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "check unraveling-within-threshold: FAIL" in out
    assert (tmp_path / "traj.csv").exists()
    manifest = json.loads((tmp_path / "traj.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["all_passed"] is False
    assert manifest["checks"][0]["passed"] is False


def test_midrun_failure_writes_failure_manifest(tmp_path, capsys):
    # parses cleanly, but dt = 1 with gamma_strong = 8 trips the jump
    # probability cap once trajectories start
    table = {
        "scenario": "three-level-telegraph",
        "params": {"rabi": 8.0, "gamma_strong": 8.0, "gamma_shelve": 0.05,
                   "gamma_deshelve": 0.1, "bin_width": 5.0},
        "grid": {"t_end": 20.0, "n_steps": 20},
        "estimator": {"kind": "trajectories", "n_traj": 2, "seed": 0},
        "output": {"path": str(tmp_path / "tele.csv")},
    }
    path = write_config(tmp_path, table)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "scenario three-level-telegraph failed" in err
    assert not (tmp_path / "tele.csv").exists()
    manifest = json.loads((tmp_path / "tele.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["all_passed"] is False
    assert manifest["failure"]["type"] == "ConfigurationError"
    assert "jump probability" in manifest["failure"]["message"]
    assert manifest["checks"] == []


def test_unexpected_run_error_writes_failure_manifest(tmp_path, capsys,
                                                      monkeypatch):
    def singular(config, workers):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("decosim.cli.run_scenario", singular)
    path = write_config(tmp_path, central_spin_table(tmp_path))
    assert main(["run", str(path)]) == 1
    assert "LinAlgError: Singular matrix" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["failure"]["type"] == "LinAlgError"
    assert manifest["all_passed"] is False
    assert not (tmp_path / "out.csv").exists()


def test_usage_errors_exit_two(tmp_path, capsys, monkeypatch):
    # missing config file
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    # invalid JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    # unknown scenario
    table = central_spin_table(tmp_path)
    table["scenario"] = "nope"
    assert main(["run", str(write_config(tmp_path, table))]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    # unwritable output directory
    table = central_spin_table(tmp_path)
    table["output"]["path"] = str(tmp_path / "missing" / "out.csv")
    assert main(["validate", str(write_config(tmp_path, table))]) == 2
    assert "does not exist" in capsys.readouterr().err
    # bad worker count from the environment
    monkeypatch.setenv("DECOSIM_WORKERS", "many")
    good = write_config(tmp_path, central_spin_table(tmp_path), "g.json")
    assert main(["run", str(good)]) == 2
    assert "DECOSIM_WORKERS" in capsys.readouterr().err
    monkeypatch.setenv("DECOSIM_WORKERS", "0")
    assert main(["run", str(good)]) == 2
    assert "DECOSIM_WORKERS" in capsys.readouterr().err


def test_argparse_rejects_bad_invocations(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_numbers_the_numerics_cannot_take_exit_two(tmp_path, capsys):
    oscillator = {
        "scenario": "damped-oscillator",
        "params": {"omega": 1.0, "n_fock": 40, "alpha1": 2.0,
                   "alpha2": 7.9e264},
        "grid": {"t_end": 1.0, "n_steps": 10},
        "output": {"path": str(tmp_path / "osc.csv")},
    }
    infinite_grid = central_spin_table(tmp_path)
    infinite_grid["grid"]["t_end"] = float("inf")
    infinite_rate = unraveling_table(tmp_path)
    infinite_rate["params"]["model"]["gamma"] = float("inf")
    for table, message in ((oscillator, "params: OverflowError"),
                           (infinite_grid, "grid.t_end: expected a finite"),
                           (infinite_rate,
                            "params.model.gamma: expected a finite")):
        path = write_config(tmp_path, table)
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert f"configuration error: {message}" in err
    assert not list(tmp_path.glob("*.csv*"))
