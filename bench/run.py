"""decosim benchmark: end-to-end ``decosim run`` operations on four
generated scenario configs, plus a traced run for per-layer metrics.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-reference     # refresh bench/reference/

Each operation is one ``decosim run <config>`` in a fresh interpreter
(``bench/op.py``), started one after another (a closed loop with one
client) until ``--seconds`` have passed.  Every operation passes the
correctness gate or counts as failed: exit code 0 with manifest
``all_passed``, CSV bytes identical to the first operation of the run, and
for the deterministic workloads every CSV value within 1e-9 of the table in
``bench/reference``.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics over the run's operations; with ``--trace 1`` the
first operation runs traced and the line reports the per-layer metrics.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

from spans import summarize

BENCH = "bench"
OUT = os.path.join(BENCH, "out")
REFERENCE = os.path.join(BENCH, "reference")
SRC = os.path.join(os.getcwd(), "src")
# Every child process of a run must end by this many seconds after the
# run starts, so a hung operation cannot keep the run past three minutes.
RUN_DEADLINE_S = 150
REFERENCE_ATOL = 1e-9
IMPORTTIME_REPEATS = 3

# Every decosim module, for the <module>.import_s metrics.
MODULES = ("decosim", "decosim.errors", "decosim.hilbert",
           "decosim.coherence", "decosim.evolution", "decosim.trajectories",
           "decosim.models", "decosim.models.central_spin",
           "decosim.models.disorder", "decosim.models.oscillator",
           "decosim.models.three_level", "decosim.config",
           "decosim.scenarios", "decosim.cli")


def _master_fock40(seed: int, tiny: bool) -> dict:
    # dt = 3 pi / 2400 puts the packet crossings at pi/2 and 3pi/2 on
    # samples; tiny keeps d = 40 and dt and cuts the span.
    steps = 400 if tiny else 1200
    return {
        "scenario": "damped-oscillator",
        "params": {"omega": 1.0, "gamma": 0.01, "n_thermal": 0.5,
                   "n_fock": 40, "alpha1": 2.0, "alpha2": -2.0},
        "grid": {"t_end": 3.0 * math.pi * steps / 2400, "n_steps": steps,
                 "sample_every": 200},
    }


def _telegraph_narrow(seed: int, tiny: bool) -> dict:
    # dt = 0.0025 keeps the peak per-step jump probability near 0.06 (cap
    # 0.1).  Dark periods (mean 4) are short against the 50-unit record,
    # so the censoring bias of the interior-period mean stays well inside
    # the scenario's 3 SE check; a 25-unit record leaves too few periods
    # for that check on some seeds.  Already small, so tiny is the same.
    return {
        "scenario": "three-level-telegraph",
        "params": {"rabi": 40.0, "gamma_strong": 30.0, "gamma_shelve": 0.1,
                   "gamma_deshelve": 0.25, "bin_width": 1.0},
        "grid": {"t_end": 50.0, "n_steps": 20000},
        "estimator": {"kind": "trajectories", "n_traj": 60, "seed": seed},
    }


def _unravel_wide_w2(seed: int, tiny: bool) -> dict:
    return {
        "scenario": "unraveling-check",
        "params": {"model": {"kind": "three-level", "rabi": 2.0,
                             "detuning": 0.5, "gamma_strong": 1.0,
                             "gamma_shelve": 0.05, "gamma_deshelve": 0.15}},
        "grid": {"t_end": 10.0, "n_steps": 1000, "sample_every": 20},
        "estimator": {"kind": "trajectories",
                      "n_traj": 2000 if tiny else 6000, "seed": seed},
    }


def _disorder_quadrature(seed: int, tiny: bool) -> dict:
    # Uniform disorder has no closed-form phase, so every off-diagonal
    # entry at every sample goes through scipy.integrate.quad.
    steps = 40 if tiny else 400
    return {
        "scenario": "disorder",
        "params": {"distribution": {"kind": "uniform", "low": -1.0,
                                    "high": 1.0},
                   "epsilon": [0.0, 1.0, 2.5, -0.7],
                   "slopes": [0.0, 1.0, -0.5, 2.0],
                   "r": [[0.25] * 4] * 4},
        "grid": {"t_end": steps / 40.0, "n_steps": steps,
                 "sample_every": 1},
    }


# name -> (config builder, DECOSIM_WORKERS, checked against a committed
# reference table).  Only the stochastic builders use the seed.
WORKLOADS = {
    "master-fock40": (_master_fock40, 1, True),
    "telegraph-narrow": (_telegraph_narrow, 1, False),
    "unravel-wide-w2": (_unravel_wide_w2, 2, False),
    "disorder-quadrature": (_disorder_quadrature, 1, True),
}


def workload_config(name: str, seed: int, tiny: bool, csv_path: str) -> dict:
    config = WORKLOADS[name][0](seed, tiny)
    config["output"] = {"path": csv_path}
    return config


class GateError(Exception):
    """An operation produced no result or a wrong one."""


def op_env(workers: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # One BLAS thread per process, so processes x threads <= 2 CPUs.
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["DECOSIM_WORKERS"] = str(workers)
    return env


def _table(raw: bytes):
    lines = [ln for ln in raw.decode("utf-8").splitlines()
             if not ln.startswith("#")]
    return lines[0], [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _check_reference(raw: bytes, reference_path: str) -> None:
    with gzip.open(reference_path, "rb") as fh:
        ref_header, ref_rows = _table(fh.read())
    header, rows = _table(raw)
    if header != ref_header or len(rows) != len(ref_rows):
        raise GateError("CSV layout differs from the reference table")
    worst = max(abs(a - b) for row, ref in zip(rows, ref_rows)
                for a, b in zip(row, ref))
    if not worst <= REFERENCE_ATOL:
        raise GateError(f"CSV differs from the reference table by {worst:.3g}"
                        f" (tol {REFERENCE_ATOL})")


class Run:
    """One benchmark run: a workload's generated config and its operations."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workers = WORKLOADS[workload][1]
        self.reference = (os.path.join(REFERENCE, f"{workload}.csv.gz")
                          if WORKLOADS[workload][2] and not tiny else None)
        self.dir = os.path.join(OUT, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.csv = os.path.join(self.dir, "out.csv")
        self.config_path = os.path.join(self.dir, "config.json")
        self.config = workload_config(workload, seed, tiny, self.csv)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh, indent=2)
        self.env = op_env(self.workers)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.first_csv = None
        self.ops: list[dict] = []
        self.failures: list[str] = []

    def spawn(self, args, log_name: str) -> int:
        """Run ``python3 *args`` in its own process group with stdout and
        stderr in *log_name*; kill the group at the run's deadline."""
        with open(os.path.join(self.dir, log_name), "wb") as log:
            proc = subprocess.Popen([sys.executable, *args], env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                return proc.wait(timeout=self.deadline - time.monotonic())
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise GateError(f"{args[0]} still running at the "
                                f"{RUN_DEADLINE_S} s run deadline")

    def warm_up(self) -> None:
        """Import once untimed, so byte-compiling the package and filling
        the file cache do not land in the first set-up sample."""
        if self.spawn(["-c", "import decosim.cli"], "warmup.log") != 0:
            raise GateError("cannot import decosim.cli (see warmup.log)")

    def operation(self, traced: bool) -> dict | None:
        """Run and gate one operation; None when it failed."""
        index = len(self.ops) + len(self.failures)
        report = os.path.join(self.dir, f"op{index}.json")
        cmd = [os.path.join(BENCH, "op.py"), self.config_path, report]
        if traced:
            cmd.append(os.path.join(self.dir, "spans.json"))
        for stale in (self.csv, self.csv + ".manifest.json", report):
            if os.path.exists(stale):
                os.remove(stale)
        spawned = time.monotonic()
        try:
            code = self.spawn(cmd, f"op{index}.log")
            op = self._gate(code, report)
        except GateError as e:
            self.failures.append(f"op{index}: {e}")
            print(f"op{index} FAILED: {e}", flush=True)
            return None
        op["setup_s"] = op["ready"] - spawned
        op["traced"] = traced
        self.ops.append(op)
        print(f"op{index}{' traced' if traced else ''}: "
              f"setup_s {op['setup_s']:.4f} run_s {op['run_s']:.4f} "
              f"cpu_s {op['cpu_s']:.4f} "
              f"peak_rss_mib {op['peak_rss_mib']:.1f}", flush=True)
        return op

    def _gate(self, code: int, report: str) -> dict:
        if code != 0 or not os.path.exists(report):
            raise GateError(f"op.py exited {code}")
        with open(report, encoding="utf-8") as fh:
            op = json.load(fh)
        if not op["decosim_file"].startswith(SRC + os.sep):
            raise GateError(f"decosim imported from {op['decosim_file']}")
        if op["exit_code"] != 0:
            raise GateError(f"decosim run exited {op['exit_code']}")
        with open(self.csv + ".manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("all_passed") is not True:
            raise GateError("manifest all_passed is not true")
        if manifest["workers"] != self.workers:
            raise GateError(f"manifest workers {manifest['workers']}")
        with open(self.csv, "rb") as fh:
            raw = fh.read()
        if self.first_csv is None:
            self.first_csv = raw
        elif raw != self.first_csv:
            raise GateError("CSV bytes differ from the run's first operation")
        if self.reference:
            _check_reference(raw, self.reference)
        op["csv_bytes"] = len(raw)
        op["checks"] = [c["name"] for c in manifest["checks"]]
        return op


def end_to_end_metrics(run: Run) -> dict:
    def median(key):
        return statistics.median(o[key] for o in run.ops)

    # The host slows the CPU in phases, so one run's operation times are a
    # mixture of a fast and a slow mode.  Their mean moves smoothly with
    # the slow share, where the median jumps between the modes.
    def mean(key):
        return statistics.fmean(o[key] for o in run.ops)
    attempted = len(run.ops) + len(run.failures)
    return {
        "setup_s": (median("setup_s"), "s"),
        "run_s": (mean("run_s"), "s"),
        "cpu_s": (mean("cpu_s"), "s"),
        "peak_rss_mib": (median("peak_rss_mib"), "MiB"),
        "success_rate": (len(run.ops) / attempted, "ratio"),
    }


def import_times(run: Run) -> dict:
    """Cumulative import seconds per decosim module (median of a few
    ``python -X importtime`` runs)."""
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$")
    log_path = os.path.join(run.dir, "importtime.log")
    for _ in range(IMPORTTIME_REPEATS):
        if run.spawn(["-X", "importtime", "-c", "import decosim.cli"],
                     "importtime.log") != 0:
            raise GateError("importtime run failed (see importtime.log)")
        seen = set()
        with open(log_path, encoding="utf-8") as fh:
            for line in fh:
                m = pattern.match(line)
                # a module reappears when a later import statement names
                # it; its first line is the one that timed its import
                if m and m.group(2) in samples and m.group(2) not in seen:
                    seen.add(m.group(2))
                    samples[m.group(2)].append(int(m.group(1)) * 1e-6)
    missing = [m for m, v in samples.items() if len(v) != IMPORTTIME_REPEATS]
    if missing:
        raise GateError(f"importtime did not report {', '.join(missing)}")
    return {m: statistics.median(v) for m, v in samples.items()}


def per_layer_metrics(run: Run, traced: dict, untraced_run_s: float,
                      imports: dict) -> dict:
    with open(os.path.join(run.dir, "spans.json"), encoding="utf-8") as fh:
        trace = json.load(fh)
    layers = summarize(trace["spans"])
    counters = trace["counters"]

    def stat(name, key):
        return layers.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    run_s = traced["run_s"]
    rk4_steps = counters["evolution.rk4_steps"]
    row_steps = counters["trajectories.row_steps"]
    jumps = counters["trajectories.jumps"]
    workers = counters["trajectories.workers"]
    ensemble_s = stat("trajectories.run_ensemble", "total_s")
    child_cpu = traced["children_cpu_s"]
    m = {
        "trace.run_s": (run_s, "s"),
        "trace.overhead_s": (run_s - untraced_run_s, "s"),
        "evolution.lindblad_rhs.calls": (
            stat("evolution.lindblad_rhs", "calls"), "count"),
        "evolution.lindblad_rhs.self_s": (
            stat("evolution.lindblad_rhs", "self_s"), "s"),
        "evolution.integrate_master.self_s": (
            stat("evolution.integrate_master", "self_s"), "s"),
        "evolution.rk4_step_us": (ratio(
            stat("evolution.integrate_master", "total_s"), rk4_steps) * 1e6,
            "us"),
        "evolution.run_share": (ratio(
            stat("evolution.integrate_master", "total_s"), run_s), "ratio"),
        "trajectories.run_ensemble.self_s": (
            stat("trajectories.run_ensemble", "self_s"), "s"),
        "trajectories.run_ensemble.run_share": (
            ratio(ensemble_s, run_s), "ratio"),
        "trajectories.row_steps": (row_steps, "count"),
        "trajectories.row_step_ns": (ratio(ensemble_s, row_steps) * 1e9,
                                     "ns"),
        "trajectories.jumps": (jumps, "count"),
        "trajectories.jumps_per_row_step": (ratio(jumps, row_steps),
                                            "ratio"),
        "trajectories.pool_child_cpu_s": (child_cpu, "s"),
        "trajectories.pool_efficiency": (
            ratio(child_cpu, workers * ensemble_s) if workers > 1 else 0.0,
            "ratio"),
        "trajectories.aggregate.self_s": (
            stat("trajectories.aggregate", "self_s"), "s"),
        "coherence.trace_distance.calls": (
            stat("coherence.trace_distance", "calls"), "count"),
        "coherence.trace_distance.self_s": (
            stat("coherence.trace_distance", "self_s"), "s"),
        "hilbert.QuantumState.mixed.calls": (
            stat("hilbert.QuantumState.mixed", "calls"), "count"),
        "hilbert.QuantumState.mixed.self_s": (
            stat("hilbert.QuantumState.mixed", "self_s"), "s"),
        "models.disorder.quad.calls": (
            stat("models.disorder.quad", "calls"), "count"),
        "models.disorder.quad.self_s": (
            stat("models.disorder.quad", "self_s"), "s"),
        "models.disorder.quad.run_share": (ratio(
            stat("models.disorder.quad", "total_s"), run_s), "ratio"),
        "models.disorder.integrand_evals": (
            counters["models.disorder.integrand_evals"], "count"),
        "models.oscillator.position_density.self_s": (
            stat("models.oscillator.position_density", "self_s"), "s"),
        "models.three_level.fluorescence_telegraph.self_s": (
            stat("models.three_level.fluorescence_telegraph", "self_s"),
            "s"),
        "config.parse_config.self_s": (
            stat("config.parse_config", "self_s"), "s"),
        "scenarios.run_scenario.self_s": (
            stat("scenarios.run_scenario", "self_s"), "s"),
        "cli.main.self_s": (stat("cli.main", "self_s"), "s"),
        "cli.csv_bytes": (traced["csv_bytes"], "bytes"),
    }
    for module, seconds in imports.items():
        short = module.removeprefix("decosim.")
        m[f"{short}.import_s"] = (seconds, "s")
    return m


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              tiny: bool) -> dict:
    run = Run(workload, seed, tiny)
    run.warm_up()
    start = time.monotonic()
    traced = run.operation(traced=True) if trace else None
    untraced = []
    while not untraced or time.monotonic() - start < seconds:
        op = run.operation(traced=False)
        if op is not None:
            untraced.append(op)
        elif len(run.failures) > 2 * len(untraced) + 2:
            break  # the program is broken; report instead of looping on
    if not untraced or (trace and traced is None):
        raise GateError("every operation failed: " + "; ".join(run.failures))
    if trace:
        imports = import_times(run)
        metrics = per_layer_metrics(
            run, traced, statistics.median(o["run_s"] for o in untraced),
            imports)
    else:
        metrics = end_to_end_metrics(run)
        for key in ("setup_s", "run_s", "cpu_s", "peak_rss_mib"):
            values = sorted(o[key] for o in run.ops)
            print(f"{key}: n {len(values)} min {values[0]:.4f} median "
                  f"{statistics.median(values):.4f} mean "
                  f"{statistics.fmean(values):.4f} max {values[-1]:.4f}")
    attempted = len(run.ops) + len(run.failures)
    print(f"error_rate: {len(run.failures)} / {attempted}")
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "machine": dict(run.ops[0]["machine"], decosim_workers=run.workers),
        "config": run.config,
        "operations": run.ops,
        "failures": run.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }
    path = os.path.join(run.dir,
                        f"result-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"result file: {path}")
    return {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": result["metrics"],
    }


def write_reference() -> None:
    os.makedirs(REFERENCE, exist_ok=True)
    for name, (_, _, checked) in WORKLOADS.items():
        if not checked:
            continue
        run = Run(name, 0, tiny=False)
        run.reference = None
        run.warm_up()
        if run.operation(traced=False) is None:
            raise GateError(f"{name}: {run.failures[0]}")
        path = os.path.join(REFERENCE, f"{name}.csv.gz")
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(run.first_csv)
        print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small grids, for the self-test")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite bench/reference from this checkout")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "decosim", "cli.py")):
        print("error: run from the repository root; src/decosim is missing",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.tiny)
    except GateError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
