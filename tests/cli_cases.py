"""The command-line cases: each is one config file, the ``decosim``
commands run on it, and what they must exit with, print and write.

``check(case, run, workdir)`` plays one case in *workdir*, where
``run(argv, env)`` calls decosim and returns ``(exit_code, stdout,
stderr)``.  tests/test_cli.py passes an in-process call of
``decosim.cli.main``.  Run as a script, this file passes the installed
``decosim`` console script and plays every case in a temporary directory.
It imports nothing from decosim, so from outside the checkout only the
installed package answers:

    python path/to/tests/cli_cases.py

A case's files are named after it (``<name>.json``, ``<name>.csv``,
``<name>.csv.manifest.json``).  The files its commands add to *workdir*
must be exactly the ones it writes: both when ``run`` exits 0 or fails a
check, the manifest alone when the run fails, and none when it exits 2.
Every manifest must be strict JSON, without NaN or Infinity.
"""

import copy
import json
import os
import subprocess
import tempfile


def minimal_config(scenario):
    """Smallest valid document per scenario."""
    base = {
        "scenario": scenario,
        "grid": {"t_end": 1.0, "n_steps": 100},
        "output": {"path": "out.csv"},
    }
    if scenario == "central-spin":
        base["params"] = {"couplings": [1.0, 1.0, 1.0, 1.0]}
    elif scenario == "spin-echo":
        base["params"] = {"couplings": [0.5, 0.8], "t_e": 5.0}
    elif scenario == "disorder":
        base["params"] = {
            "distribution": {"kind": "gaussian", "sigma": 0.5},
            "epsilon": [0.0, 1.0],
            "slopes": [0.0, 1.0],
            "r": [[0.5, 0.5], [0.5, 0.5]],
        }
    elif scenario == "three-level-telegraph":
        base["params"] = {"rabi": 8.0, "gamma_strong": 8.0,
                          "gamma_shelve": 0.05, "gamma_deshelve": 0.1,
                          "bin_width": 3.0}
        base["grid"] = {"t_end": 60.0, "n_steps": 24000}
        base["estimator"] = {"kind": "trajectories", "n_traj": 2, "seed": 0}
    elif scenario == "damped-oscillator":
        base["params"] = {"omega": 1.0, "n_fock": 40,
                          "alpha1": 2.0, "alpha2": -2.0}
    elif scenario == "unraveling-check":
        base["params"] = {"model": {"kind": "two-level-decay", "gamma": 1.0}}
        base["estimator"] = {"kind": "trajectories", "n_traj": 100, "seed": 7}
    return base


def over(base, **changes):
    """A copy of the table *base* with *changes* merged in, a nested table
    key by key."""
    out = copy.deepcopy(base)
    for key, value in changes.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = over(out[key], **value)
        out[key] = value
    return out


CASES = {}
BOTH = ("validate", "run")


def row(name, config, code=0, commands=("run",), *, env=None, stderr=(),
        dirs=(), failure=None, warnings=None, rows_of=None, but_t=False):
    """Add the case *name*: each of *commands* exits *code* ("validate"
    exits 0 where ``run`` exits 1), and each that exits non-zero prints
    every string of *stderr* (``{dir}`` is the work directory).  *dirs* are
    made first.  *failure* is the manifest's failure type, then substrings
    of its message; *warnings* is its exact warnings list.  The CSV data
    rows (the lines without ``#``) must equal those of the case *rows_of*,
    apart from the t column if *but_t*."""
    writes = (() if code == 2 else (".manifest.json",) if failure
              else ("", ".manifest.json"))
    CASES[name] = dict(
        name=name, config=config, env=env or {}, stderr=stderr, dirs=dirs,
        exits={c: 0 if c == "validate" and code == 1 else code
               for c in commands},
        failure=failure, warnings=warnings, rows_of=rows_of, but_t=but_t,
        writes={f"{name}.csv{suffix}" for suffix in writes})


SPIN = {"scenario": "central-spin", "params": {"couplings": [1.0, 0.5]},
        "grid": {"t_end": 1.0, "n_steps": 10}}
row("smoke", SPIN)
POOL = {"scenario": "unraveling-check",
        "params": {"model": {"kind": "two-level-decay", "gamma": 1.0}},
        "grid": {"t_end": 1.0, "n_steps": 100},
        "estimator": {"kind": "trajectories", "n_traj": 600, "seed": 7}}
row("pool", POOL, env={"DECOSIM_WORKERS": "1"})
row("pool-2", POOL, env={"DECOSIM_WORKERS": "2"}, rows_of="pool")
# without deshelving, period means are undefined: null in the manifest
DARK = {"scenario": "three-level-telegraph",
        "params": {"rabi": 2.0, "gamma_strong": 1.0, "gamma_shelve": 0.05,
                   "gamma_deshelve": 0.0, "bin_width": 12.5},
        "grid": {"t_end": 50.0, "n_steps": 5000},
        "estimator": {"kind": "trajectories", "n_traj": 10, "seed": 1}}
row("dark", DARK, env={"DECOSIM_WORKERS": "1"})
row("dark-2", DARK, env={"DECOSIM_WORKERS": "2"}, rows_of="dark")
# a cat state at n_fock 40 through the powered block route
row("cat", {"scenario": "damped-oscillator",
            "params": {"omega": 1.0, "gamma": 0.05, "n_thermal": 0.2,
                       "n_fock": 40, "alpha1": 2.0, "alpha2": -2.0},
            "grid": {"t_end": 3.141592653589793, "n_steps": 400,
                     "sample_every": 100}})
ECHO = {"scenario": "spin-echo", "params": {"couplings": [1.0, 0.5],
                                            "t_e": 1.0},
        "grid": {"t_end": 3.0, "n_steps": 30}}
row("echo", ECHO)
# the pulse time counts from t_start
row("late", over(ECHO, grid={"t_start": -1.0, "t_end": 3.0,
                             "n_steps": 40}))
DISORDER = {"scenario": "disorder",
            "params": {"distribution": {"kind": "uniform", "low": -1.0,
                                        "high": 1.0},
                       "epsilon": [0.0, 1.0], "slopes": [0.0, 1.0],
                       "r": [[0.5, 0.5], [0.5, 0.5]]},
            "grid": {"t_end": 2.0, "n_steps": 20}}
row("disorder", DISORDER)
row("mc", over(DISORDER, estimator={"kind": "trajectories", "n_traj": 200,
                                    "seed": 5}))
# the model sees the time since t_start: the same rows as smoke's
row("origin", over(SPIN, grid={"t_start": -1.0, "t_end": 0.0}),
    rows_of="smoke", but_t=True)
# 600 draws fold in blocks of 256
row("mc3", {"scenario": "disorder",
            "params": {"distribution": {"kind": "gaussian", "mean": 0.2,
                                        "sigma": 0.7},
                       "epsilon": [0.0, 1.0, 2.5], "slopes": [0.0, 1.0, 2.0],
                       "r": [[0.5, 0.2, 0.1], [0.2, 0.3, 0.0],
                             [0.1, 0.0, 0.2]]},
            "grid": {"t_end": 2.0, "n_steps": 20},
            "estimator": {"kind": "trajectories", "n_traj": 600,
                          "seed": 5}})
# exp(-inf) = 0 is the exact limit of the envelope and of the Gaussian
# phase average, not an overflow warning
row("late-envelope", over(SPIN, grid={"t_end": 1.3e154}), warnings=[])
row("late-phase", over(minimal_config("disorder"), grid={"t_end": 1e308}),
    warnings=[])

# a propagator that is not finite fails on the jump-probability cap
row("nan", over(DARK, params={"gamma_deshelve": 1e200}), 1,
    failure=("ConfigurationError",))
row("deshelve-nan",
    over(minimal_config("three-level-telegraph"),
         params={"gamma_deshelve": 1e200}), 1, BOTH,
    stderr=("the grid step is too coarse",),
    failure=("ConfigurationError", "jump probability nan"))
# parses, but dt = 1 at gamma_strong 8 trips the cap once the run starts
row("midrun", over(minimal_config("three-level-telegraph"),
                   params={"bin_width": 5.0},
                   grid={"t_end": 20.0, "n_steps": 20}), 1,
    stderr=("scenario three-level-telegraph failed",),
    failure=("ConfigurationError", "jump probability"))

# DECOSIM_WORKERS takes plain ASCII decimal digits only
for name, raw in (("letters", "abc"), ("underscore", "1_0"), ("sign", "+1"),
                  ("spaces", " 1 "), ("arabic", "١")):
    row(f"workers-{name}", POOL, 2, env={"DECOSIM_WORKERS": raw},
        stderr=(f"DECOSIM_WORKERS must be an integer, got {raw!r}",))
row("workers-negative", SPIN, 2, env={"DECOSIM_WORKERS": "-2"},
    stderr=("DECOSIM_WORKERS must be >= 1, got -2",))
row("taken", SPIN, 2, BOTH, dirs=("taken.csv",),
    stderr=("output.path: {dir}/taken.csv is a directory",))
row("taken-manifest", SPIN, 2, BOTH,
    dirs=("taken-manifest.csv.manifest.json",),
    stderr=("output.path: {dir}/taken-manifest.csv.manifest.json is a "
            "directory",))
# numbers the numerics cannot take; each error names its parameter
for name, config, message in (
        ("alphas", over(minimal_config("damped-oscillator"),
                        params={"alpha2": 7.9e264}, grid={"n_steps": 10}),
         "params: OverflowError"),
        # omega N, the Hamiltonian, has an entry past the float range
        ("omega", over(minimal_config("damped-oscillator"),
                       params={"omega": 1e308}, grid={"n_steps": 10}),
         "params: OverflowError: omega: "),
        # the sample series must fit MAX_SERIES_BYTES, checked before omega
        ("fock", over(minimal_config("damped-oscillator"),
                      params={"n_fock": 10**17}),
         "params.n_fock: n_fock is too large"),
        ("fock-400", over(minimal_config("damped-oscillator"),
                          params={"n_fock": 10**400}),
         "params.n_fock: n_fock is too large"),
        ("series", over(minimal_config("damped-oscillator"),
                        grid={"n_steps": 10**7}),
         "grid.sample_every: 10000001 samples of 40 x 40 density matrices "
         "take 238 GiB"),
        # and so must its CSV table, 512 rows of (t, xi, density) a sample,
        # the larger of the two at n_fock 9
        ("table", over(minimal_config("damped-oscillator"),
                       params={"n_fock": 9, "alpha1": 0.3, "alpha2": -0.3},
                       grid={"n_steps": 174_762}),
         "grid.sample_every: 174763 samples of 512 (t, xi, density) rows"),
        # and the block moments an unraveling-check run holds before it
        # folds them: 7,813 blocks of 20,001 samples here, 30 GB
        ("moments", {"scenario": "unraveling-check",
                     "params": {"model": {
                         "kind": "three-level", "rabi": 2.0,
                         "gamma_strong": 1.0, "gamma_shelve": 0.05,
                         "gamma_deshelve": 0.15}},
                     "grid": {"t_end": 100.0, "n_steps": 20_000},
                     "estimator": {"kind": "trajectories",
                                   "n_traj": 2_000_000, "seed": 1}},
         "estimator.n_traj: the block moments of n_traj = 2000000"),
        ("infinite-grid", over(SPIN, grid={"t_end": float("inf")}),
         "grid.t_end: expected a finite"),
        ("infinite-rate",
         over(POOL, params={"model": {"gamma": float("inf")}}),
         "params.model.gamma: expected a finite"),
        ("strong", over(DARK, params={"gamma_strong": 1e211}),
         "params: OverflowError: gamma_strong"),
        # squares that overflow would give NaN envelopes and t_D 0.0
        ("wide", over(SPIN, params={"couplings": [1e300, 1e300]}),
         "params: OverflowError: couplings: "),
        ("wide-echo", over(ECHO, params={"couplings": [1e300, 1e300]}),
         "params: OverflowError: couplings: "),
        # the saturation denominator overflows, each square does not
        ("bright", over(DARK, params={"rabi": 1.3e154, "detuning": 1.3e154}),
         "params: OverflowError: rabi"),
        ("revival", over(ECHO, params={"t_e": 1e308}),
         "params.t_e: echo time 1e+308 is too large"),
        # 2 t_e is finite, but t_start + 2 t_e is not
        ("late-revival", over(ECHO, params={"t_e": 5e307},
                              grid={"t_start": 1e308, "t_end": 1.5e308}),
         "params.t_e: echo time 5e+307 is too large")):
    row(name, config, 2, BOTH, stderr=(f"configuration error: {message}",))


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def _data_rows(path, but_t):
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if "#" not in line]
    return [row.split(",", 1)[1] for row in rows] if but_t else rows


def check(case, run, workdir):
    """Play *case* in *workdir* through *run* and assert its outcome; play
    the row whose data rows it must equal first, unless that ran there."""
    name = case["name"]
    other = case["rows_of"]
    if other and not os.path.exists(os.path.join(workdir, f"{other}.csv")):
        check(CASES[other], run, workdir)
    config = dict(case["config"],
                  output={"path": os.path.join(workdir, f"{name}.csv")})
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    for d in case["dirs"]:
        os.mkdir(os.path.join(workdir, d))
    before = set(os.listdir(workdir))
    for command, code in case["exits"].items():
        got, _, err = run([command, path], case["env"])
        assert got == code, f"{name}: {command} exited {got}:\n{err}"
        for text in case["stderr"] if code else ():
            assert text.format(dir=workdir) in err, f"{name}: {err}"
    new = set(os.listdir(workdir)) - before
    assert new == case["writes"], f"{name} wrote {sorted(new)}"
    for f in new:
        assert os.path.getsize(os.path.join(workdir, f)) > 0, f
    if f"{name}.csv.manifest.json" in new:
        with open(os.path.join(workdir, f"{name}.csv.manifest.json"),
                  encoding="utf-8") as fh:
            body = json.load(fh, parse_constant=_refuse)
        if case["failure"]:
            kind, *texts = case["failure"]
            assert body["failure"]["type"] == kind, body["failure"]
            assert all(t in body["failure"]["message"] for t in texts), texts
            assert body["all_passed"] is False and body["checks"] == []
        if case["warnings"] is not None:
            assert body["warnings"] == case["warnings"], body["warnings"]
    if other:
        assert (_data_rows(os.path.join(workdir, f"{name}.csv"),
                           case["but_t"])
                == _data_rows(os.path.join(workdir, f"{other}.csv"),
                              case["but_t"])), f"{name} rows != {other}'s"


def _installed(argv, env):
    done = subprocess.run(["decosim", *argv], env=dict(os.environ, **env),
                          capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout, done.stderr


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for case in CASES.values():
            check(case, _installed, workdir)
            print(f"ok {case['name']}")
