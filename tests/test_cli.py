"""Command line interface: run/validate/list-scenarios, files, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import decosim
from decosim import cli, trajectories
from decosim.cli import main
from decosim.config import (config_hash, config_table, emit_config,
                            parse_config, SCENARIOS)
from decosim.scenarios import run_scenario

from cli_cases import CASES, check, minimal_config


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


def test_workers_env_runs_a_pool_of_block_runs(tmp_path, capsys,
                                               monkeypatch):
    table = unraveling_table(tmp_path)
    table["estimator"]["n_traj"] = 2 * trajectories._BLOCK
    path = write_config(tmp_path, table)
    assert main(["run", str(path)]) == 0
    serial = (tmp_path / "traj.csv").read_bytes()
    pools = []

    class Spy(trajectories.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(trajectories, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("DECOSIM_WORKERS", "2")
    assert main(["run", str(path)]) == 0
    assert pools == [2]
    assert (tmp_path / "traj.csv").read_bytes() == serial
    capsys.readouterr()


def test_manifest_reports_the_capped_worker_count(tmp_path, capsys,
                                                  monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a run without trajectories started a pool")

    monkeypatch.setattr(trajectories, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("DECOSIM_WORKERS", "64")
    path = write_config(tmp_path, central_spin_table(tmp_path))
    assert main(["run", str(path)]) == 0
    manifest = json.loads((tmp_path / "out.csv.manifest.json")
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


def test_failed_csv_write_keeps_the_old_files(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, central_spin_table(tmp_path))
    assert main(["run", str(path)]) == 0
    csv_path = tmp_path / "out.csv"
    manifest_path = tmp_path / "out.csv.manifest.json"
    old_csv = csv_path.read_bytes()
    calls = []

    def failing_fmt(x):
        calls.append(x)
        if len(calls) > 5:      # header and a row are already written
            raise OSError("No space left on device")
        return "%.17g" % float(x)

    monkeypatch.setattr("decosim.cli._fmt", failing_fmt)
    capsys.readouterr()
    assert main(["run", str(path)]) == 1
    assert "OSError: No space left on device" in capsys.readouterr().err
    assert len(calls) == 6
    assert csv_path.read_bytes() == old_csv
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "out.csv", "out.csv.manifest.json"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["failure"]["type"] == "OSError"
    assert manifest["all_passed"] is False


def test_failure_after_the_first_block_keeps_the_old_csv(tmp_path, capsys,
                                                        monkeypatch):
    table = central_spin_table(tmp_path)
    table["grid"] = {"t_end": 2.0, "n_steps": 8000}     # 8001 x 5 values
    path = write_config(tmp_path, table)
    assert main(["run", str(path)]) == 0
    csv_path = tmp_path / "out.csv"
    old_csv = csv_path.read_bytes()
    assert old_csv.count(b"\n") - 3 > cli._BLOCK // 5   # more than a block
    blocks, tmp_sizes = [], []
    lines = cli._lines

    def counted_lines(rows):
        for block in lines(rows):
            yield block
            blocks.append(block)        # the file has taken it

    def failing_fmt(x):
        if blocks:
            tmp_sizes.extend(p.stat().st_size for p in tmp_path.glob("*.tmp"))
            raise OSError("No space left on device")
        return "%.17g" % x

    monkeypatch.setattr(cli, "_lines", counted_lines)
    monkeypatch.setattr(cli, "_fmt", failing_fmt)
    capsys.readouterr()
    assert main(["run", str(path)]) == 1
    assert "OSError: No space left on device" in capsys.readouterr().err
    assert len(blocks) == 1 and len(tmp_sizes) == 1 and tmp_sizes[0] > 0
    assert csv_path.read_bytes() == old_csv
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "out.csv", "out.csv.manifest.json"]
    manifest = json.loads((tmp_path / "out.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["failure"]["type"] == "OSError"


SPECIAL = (0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
           1e308, 0.1)


@st.composite
def blocked_tables(draw):
    """A number of values per block and a table whose row count sits at or
    next to a block boundary, filled from a few values that repeat."""
    block = draw(st.integers(1, 12))
    width = draw(st.integers(1, 2 * block + 1))
    step = max(1, block // width)
    n_rows = max(1, draw(st.integers(0, 4)) * step + draw(st.integers(-1, 1)))
    pool = draw(st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=1,
                         max_size=6))
    values = draw(st.lists(st.sampled_from(pool), min_size=n_rows * width,
                           max_size=n_rows * width))
    return block, np.array(values).reshape(n_rows, width)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=blocked_tables())
@example(case=(3, np.array([[0.0, -0.0, 0.0]])))
@example(case=(2, np.array([[-0.0], [0.0], [np.nan], [-np.nan], [0.0]])))
@example(case=(3, np.array([SPECIAL])))
@example(case=(cli._BLOCK, np.resize(SPECIAL, (cli._BLOCK // 3 + 1, 3))))
@example(case=(cli._BLOCK, np.resize(SPECIAL, (2, cli._BLOCK + 1))))
def test_lines_are_the_rows_formatted_one_by_one(case):
    block, rows = case
    want = "".join(",".join(map("%.17g".__mod__, row.tolist())) + "\n"
                   for row in rows).encode()
    width = rows.shape[1]
    for table in (rows, np.asfortranarray(rows)):
        with mock.patch.object(cli, "_BLOCK", block):
            got = list(cli._lines(table))
        assert "".join(got).encode() == want
        # whole rows, at most a block of values unless one row is wider
        assert all(b.endswith("\n") for b in got)
        assert max(b.count("\n") for b in got) * width <= max(block, width)


def test_lines_memory_is_bounded_by_the_block():
    def peak(n_rows):
        rows = np.random.default_rng(1).integers(0, 4096, (n_rows, 3)) / 7
        tracemalloc.start()
        try:
            for _ in cli._lines(rows):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200_000) <= 2 * peak(20_000)


def test_warnings_reach_the_manifest(tmp_path, capsys):
    table = {
        "scenario": "unraveling-check",
        "params": {"model": {"kind": "three-level", "rabi": 2.0,
                             "detuning": 0.0, "gamma_strong": 1.0,
                             "gamma_shelve": 0.3, "gamma_deshelve": 0.1}},
        "grid": {"t_end": 1.0, "n_steps": 100, "sample_every": 50},
        "estimator": {"kind": "trajectories", "n_traj": 50, "seed": 3},
        "output": {"path": str(tmp_path / "warn.csv")},
    }
    path = write_config(tmp_path, table)
    with pytest.warns(UserWarning, match="gamma_shelve is not small"):
        assert main(["run", str(path)]) in (0, 1)      # shown, not only kept
    manifest = json.loads((tmp_path / "warn.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert {"category": "UserWarning",
            "message": "gamma_shelve is not small against gamma_strong; the "
                       "bright/dark separation of the fluorescence record "
                       "degrades"} in manifest["warnings"]

    # the failure manifest lists them too
    table["grid"] = {"t_end": 100.0, "n_steps": 100, "sample_every": 50}
    path = write_config(tmp_path, table)
    with pytest.warns(UserWarning, match="gamma_shelve is not small"):
        assert main(["run", str(path)]) == 1
    manifest = json.loads((tmp_path / "warn.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["failure"]["type"] == "ConfigurationError"
    assert [w["category"] for w in manifest["warnings"]] == ["UserWarning"]


def test_warning_of_the_csv_write_reaches_the_manifest(tmp_path):
    # a fresh process, so that the warning meets stderr, not pytest's record
    path = write_config(tmp_path, central_spin_table(tmp_path))
    code = ("import sys, warnings\n"
            "from decosim import cli\n"
            "fmt, said = cli._fmt, []\n"
            "def warn_once(x):\n"
            "    if not said:\n"
            "        said.append(x)\n"
            "        warnings.warn('formatting the CSV')\n"
            "    return fmt(x)\n"
            "cli._fmt = warn_once\n"
            f"sys.exit(cli.main(['run', {str(path)!r}]))\n")
    src = os.path.dirname(os.path.dirname(decosim.__file__))
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "UserWarning: formatting the CSV" in done.stderr
    manifest = json.loads((tmp_path / "out.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["warnings"] == [{"category": "UserWarning",
                                     "message": "formatting the CSV"}]


def test_clean_run_lists_no_warnings(tmp_path, capsys):
    path = write_config(tmp_path, central_spin_table(tmp_path))
    assert main(["run", str(path)]) == 0
    manifest = json.loads((tmp_path / "out.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["warnings"] == []


def disorder_table(tmp_path, kind, t_end, n_steps):
    dist = ({"kind": "uniform", "low": -1.0, "high": 1.0} if kind == "uniform"
            else {"kind": "gaussian", "mean": 0.0, "sigma": 0.4})
    return {
        "scenario": "disorder",
        "params": {"distribution": dist, "epsilon": [0.0, 1.0],
                   "slopes": [0.0, 1.0], "r": [[0.5, 0.5], [0.5, 0.5]]},
        "grid": {"t_end": t_end, "n_steps": n_steps},
        "output": {"path": str(tmp_path / "dis.csv")},
    }


def test_disorder_manifest_reports_quadrature_headroom(tmp_path, capsys):
    path = write_config(tmp_path, disorder_table(tmp_path, "uniform", 5.0, 50))
    assert main(["run", str(path)]) == 0
    manifest = json.loads((tmp_path / "dis.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    headroom = manifest["headroom"]
    assert headroom["quadrature_abserr_limit"] == 1e-8
    assert 0.0 < headroom["max_quadrature_abserr"] <= 1e-8
    assert "max_quadrature_abserr" not in manifest["info"]

    path = write_config(tmp_path, disorder_table(tmp_path, "gaussian", 5.0, 50))
    assert main(["run", str(path)]) == 0
    manifest = json.loads((tmp_path / "dis.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["headroom"] == {"max_quadrature_abserr": None,
                                    "quadrature_abserr_limit": 1e-8}


def test_uncertified_quadrature_writes_failure_manifest(tmp_path, capsys):
    # one step to t = 1e5: |s| = 1e5 on [-1, 1] cannot be certified
    path = write_config(tmp_path, disorder_table(tmp_path, "uniform", 1e5, 1))
    assert main(["run", str(path)]) == 1
    assert "QuadratureError" in capsys.readouterr().err
    assert not (tmp_path / "dis.csv").exists()
    manifest = json.loads((tmp_path / "dis.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["all_passed"] is False
    assert manifest["failure"]["type"] == "QuadratureError"
    assert manifest["checks"] == []


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs a third of a second on every CLI call
    src = os.path.dirname(os.path.dirname(decosim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, decosim.cli; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"


def _fresh_python(code: str) -> str:
    src = os.path.dirname(os.path.dirname(decosim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True,
                          timeout=120).stdout.strip()


def test_cli_import_leaves_scipy_integrate_out():
    # scipy.integrate and the scipy.optimize it loads cost about 0.2 s and
    # 16 MiB; the disorder quadrature carries its own quad_vec
    code = ("import sys, decosim.cli; print(sorted(sys.modules.keys() & "
            "{'scipy.integrate', 'scipy.optimize'}))")
    assert _fresh_python(code) == "[]"


def test_cli_import_leaves_scipy_sparse_out():
    # the master integrator labels its invariant blocks in numpy; only a
    # scipy whose own scipy.linalg imports scipy.sparse (before scipy's
    # gh-23420) may load it, and then no more of it than scipy.linalg and
    # scipy.special do
    listed = ("; print(sorted(m for m in sys.modules "
              "if m.startswith('scipy.sparse')))")
    got = _fresh_python("import sys, decosim.cli" + listed)
    assert got == _fresh_python("import sys, scipy.linalg, scipy.special"
                                + listed)


def test_disorder_quad_imports_scipy_integrate_when_called():
    # only Lorentzian quadrature calls scipy's quad; quad_vec is decosim's
    code = "\n".join([
        "import sys",
        "from decosim.models.disorder import (Distribution, DisorderSpec,",
        "                                     disorder_gamma)",
        "r = [[0.5, 0.5], [0.5, 0.5]]",
        "for dist in (Distribution.uniform(-1.0, 1.0),",
        "             Distribution.gaussian(0.0, 1.0),",
        "             Distribution.lorentzian(0.0, 1.0)):",
        "    spec = DisorderSpec(dist, (0.0, 0.4), (0.0, 1.0), r)",
        "    disorder_gamma(spec, 0, 1, 1.0, method='quadrature')",
        "    print('scipy.integrate' in sys.modules)"])
    assert _fresh_python(code).split() == ["False", "False", "True"]


def test_damped_oscillator_manifest_reports_fock_headroom(tmp_path, capsys):
    table = {
        "scenario": "damped-oscillator",
        "params": {"omega": 1.0, "gamma": 0.1, "n_thermal": 0.2,
                   "n_fock": 16, "alpha1": 1.0, "alpha2": -1.0},
        "grid": {"t_end": 1.0, "n_steps": 100, "sample_every": 25},
        "output": {"path": str(tmp_path / "osc.csv")},
    }
    assert main(["run", str(write_config(tmp_path, table))]) == 0
    manifest = json.loads((tmp_path / "osc.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    headroom = manifest["headroom"]
    assert headroom["top_fock_population_limit"] == 1e-6
    assert 0.0 < headroom["max_top_fock_population"] <= 1e-6
    assert (headroom["max_top_fock_population"]
            == manifest["info"]["max_top_population"])


def test_truncation_failure_names_the_first_sample_over_the_limit(tmp_path,
                                                                  capsys):
    # the top Fock level first passes 1e-6 at 1.01e-06; later samples
    # reach 1.38e-05, and the run stops at the first
    table = {
        "scenario": "damped-oscillator",
        "params": {"omega": 2.0, "gamma": 0.3, "n_thermal": 1.0,
                   "n_fock": 12, "alpha1": [0.5, 0.3], "alpha2": -0.5},
        "grid": {"t_start": 0.5, "t_end": 3.0, "n_steps": 500,
                 "sample_every": 5},
        "output": {"path": str(tmp_path / "osc.csv")},
    }
    assert main(["run", str(write_config(tmp_path, table))]) == 1
    assert "TruncationError" in capsys.readouterr().err
    assert not (tmp_path / "osc.csv").exists()
    manifest = json.loads((tmp_path / "osc.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["failure"]["type"] == "TruncationError"
    assert "population 1.01e-06 >" in manifest["failure"]["message"]


def test_too_coarse_rk4_grid_names_the_fix(tmp_path, capsys):
    # the smallest damped-oscillator document: at dt = 0.01 RK4's
    # truncation error drives an eigenvalue below -1e-8 at the fourth sample
    table = minimal_config("damped-oscillator")
    table["output"]["path"] = str(tmp_path / "osc.csv")
    assert main(["run", str(write_config(tmp_path, table))]) == 1
    assert "IntegrationError" in capsys.readouterr().err
    assert not (tmp_path / "osc.csv").exists()
    manifest = json.loads((tmp_path / "osc.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["failure"]["type"] == "IntegrationError"
    message = manifest["failure"]["message"]
    assert "matrix 3 of 100: " in message
    assert "raise grid.n_steps" in message
    assert "(t = 0.04" in message


def test_run_into_an_unwritable_directory_exits_two(tmp_path, capsys,
                                                    monkeypatch):
    # root may write anywhere, so the permission answer is stubbed
    real_access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: (
        False if mode == os.W_OK and os.path.samefile(p, tmp_path)
        else real_access(p, mode)))
    path = write_config(tmp_path, central_spin_table(tmp_path))
    assert main(["run", str(path)]) == 2
    assert (f"output.path: directory {tmp_path} is not writable"
            in capsys.readouterr().err)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("target", ["out.csv", "out.csv.manifest.json"])
def test_an_output_path_that_names_a_directory_exits_two(tmp_path, capsys,
                                                         command, target):
    (tmp_path / target).mkdir()
    path = write_config(tmp_path, central_spin_table(tmp_path))
    before = sorted(tmp_path.iterdir())
    assert main([command, str(path)]) == 2
    assert (f"output.path: {tmp_path / target} is a directory"
            in capsys.readouterr().err)
    assert sorted(tmp_path.iterdir()) == before


def test_undefined_statistics_are_null_in_a_strict_json_manifest(tmp_path,
                                                                 capsys):
    # without deshelving, a shelved row stays dark to the end, so no
    # interior dark or bright period occurs and their means are undefined
    table = {
        "scenario": "three-level-telegraph",
        "params": {"rabi": 2.0, "gamma_strong": 1.0, "gamma_shelve": 0.05,
                   "gamma_deshelve": 0.0, "bin_width": 12.5},
        "grid": {"t_end": 50.0, "n_steps": 5000},
        "estimator": {"kind": "trajectories", "n_traj": 10, "seed": 1},
        "output": {"path": str(tmp_path / "dark.csv")},
    }
    assert main(["run", str(write_config(tmp_path, table))]) == 0
    capsys.readouterr()

    def refuse(name):
        raise ValueError(f"manifest holds {name}")

    manifest = json.loads((tmp_path / "dark.csv.manifest.json")
                          .read_text(encoding="utf-8"),
                          parse_constant=refuse)
    info = manifest["info"]
    for key in ("dark_mean", "dark_stderr", "bright_mean", "bright_stderr",
                "expected_dark_mean"):
        assert info[key] is None
    assert info["dark_period_count"] == info["bright_period_count"] == 0
    assert manifest["checks"] == [] and manifest["all_passed"] is True


def test_telegraph_without_a_photon_has_null_dispersion(tmp_path, capsys):
    # shelving at 100 against a strong-transition rate of 1 darkens the
    # only row before its first photon, and nothing deshelves it
    table = {
        "scenario": "three-level-telegraph",
        "params": {"rabi": 2.0, "gamma_strong": 1.0, "gamma_shelve": 100.0,
                   "gamma_deshelve": 0.0, "bin_width": 12.5},
        "grid": {"t_end": 50.0, "n_steps": 50000},
        "estimator": {"kind": "trajectories", "n_traj": 1, "seed": 1},
        "output": {"path": str(tmp_path / "zero.csv")},
    }
    with pytest.warns(UserWarning, match="gamma_shelve is not small"):
        assert main(["run", str(write_config(tmp_path, table))]) == 0
    capsys.readouterr()
    _, header, data = read_csv(tmp_path / "zero.csv")
    assert header[1] == "pooled_count"
    assert data.shape == (4, 3) and not data[:, 1].any()
    manifest = json.loads((tmp_path / "zero.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["info"]["pooled_dispersion_index"] is None
    assert manifest["info"]["pooled_dispersion_p"] is None


@pytest.mark.parametrize("name", CASES)
def test_cli_case(name, tmp_path, capsys, monkeypatch):
    """One case of cli_cases.CASES, through ``main`` in this process."""
    def run(argv, env):
        with monkeypatch.context() as patch:
            for key, value in env.items():
                patch.setenv(key, value)
            code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    check(CASES[name], run, str(tmp_path))
