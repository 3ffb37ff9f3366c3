"""Self-test of the benchmark at tiny sizes (about two minutes).

Usage, from the repository root::

    python3 bench/selftest.py

Checks that
  * every generated config, full size and tiny, on two seeds, passes
    ``decosim validate``;
  * on every workload, ``bench/run.py --tiny`` reports every metric that
    BENCHMARK.json names for its mode, with the declared unit, and no
    failed operation;
  * a traced operation writes the same CSV bytes as the untraced ones of
    its run (the gate of ``bench/run.py`` enforces this; here the traced
    run must also have at least one untraced operation to compare with).
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

from run import OUT, WORKLOADS, op_env, workload_config

SEEDS = (1, 2)


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_configs_validate() -> None:
    folder = os.path.join(OUT, "selftest")
    os.makedirs(folder, exist_ok=True)
    for name in WORKLOADS:
        env = op_env(WORKLOADS[name][1])
        for tiny in (False, True):
            for seed in SEEDS:
                path = os.path.join(folder, f"{name}-{seed}-{int(tiny)}.json")
                csv = os.path.join(folder, f"{name}.csv")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(workload_config(name, seed, tiny, csv), fh)
                proc = subprocess.run(
                    [sys.executable, "-m", "decosim.cli", "validate", path],
                    env=env, capture_output=True, text=True)
                if proc.returncode != 0:
                    fail(f"decosim validate {path}: {proc.stderr.strip()}")
    print("ok  every generated config passes decosim validate")


def check_metrics(declared: dict) -> None:
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join("bench", "run.py"),
                 "--workload", name, "--seed", str(SEEDS[1]), "--seconds",
                 "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True)
            if proc.returncode != 0:
                fail(f"{name} trace {trace}: exit {proc.returncode}: "
                     f"{proc.stderr.strip()}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                fail(f"{name} trace {trace}: {result['failed']} of "
                     f"{result['attempted']} operations failed")
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared[section]}
            if set(metrics) != set(want):
                fail(f"{name} trace {trace}: metrics differ from "
                     f"BENCHMARK.json: {sorted(set(metrics) ^ set(want))}")
            for key, entry in metrics.items():
                value = entry["value"]
                if entry["unit"] != want[key]:
                    fail(f"{name} {key}: unit {entry['unit']!r}, declared "
                         f"{want[key]!r}")
                if not isinstance(value, (int, float)) or not math.isfinite(
                        value):
                    fail(f"{name} {key}: value {value!r}")
            if trace and result["attempted"] < 2:
                fail(f"{name}: the traced run compared no untraced CSV")
            print(f"ok  {name} trace {trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    check_configs_validate()
    check_metrics(declared)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
