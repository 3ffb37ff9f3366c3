"""Command-line entry point.

Subcommands:

    decosim run <config.json>       execute a scenario, write CSV + manifest
    decosim validate <config.json>  parse and echo the resolved config
    decosim list-scenarios          name and summarize every scenario

Exit codes: 0 when the run completed with every check passing, 1 when the
run completed with failing checks or aborted on any error once it started
(the manifest records the failure), 2 for usage and configuration errors.

The CSV output is comma-separated UTF-8 with LF line endings: two leading
`#` comment lines (toolkit version + scenario, then the config sha256), a
header row, then one row per sample with every float printed to 17
significant digits.  The manifest is written next to the CSV as
`<output>.manifest.json` and echoes the fully resolved configuration, the
toolkit version, wall time, the executed checks with pass/fail, and the
scenario info block.

The environment variable DECOSIM_WORKERS overrides the trajectory worker
count (default 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .config import (
    SCENARIOS,
    ScenarioConfig,
    config_hash,
    config_table,
    emit_config,
    parse_config,
)
from .errors import ConfigurationError
from .scenarios import run_scenario

WORKERS_ENV = "DECOSIM_WORKERS"


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _read_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigurationError(f"cannot read config {path}: {e}") from e
    return parse_config(text)


def _check_output_writable(config: ScenarioConfig):
    parent = os.path.dirname(os.path.abspath(config.output_path)) or "."
    if not os.path.isdir(parent):
        raise ConfigurationError(
            f"output.path: directory {parent} does not exist")
    if not os.access(parent, os.W_OK):
        raise ConfigurationError(
            f"output.path: directory {parent} is not writable")


def _workers() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{WORKERS_ENV} must be an integer, got {raw!r}")
    if workers < 1:
        raise ConfigurationError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return workers


def _write_csv(config: ScenarioConfig, columns, rows) -> None:
    digest = config_hash(config)
    with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# decosim {__version__} scenario {config.scenario}\n")
        fh.write(f"# config-sha256: {digest}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _manifest_path(config: ScenarioConfig) -> str:
    return config.output_path + ".manifest.json"


def _write_manifest(config: ScenarioConfig, payload: dict) -> None:
    body = {
        "toolkit": "decosim",
        "version": __version__,
        "scenario": config.scenario,
        "config": config_table(config),
        "config_sha256": config_hash(config),
    }
    body.update(payload)
    with open(_manifest_path(config), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(body, fh, indent=2)
        fh.write("\n")


def _cmd_run(path: str) -> int:
    config = _read_config(path)
    _check_output_writable(config)
    workers = _workers()
    start = time.perf_counter()
    try:
        result = run_scenario(config, workers=workers)
    except Exception as e:     # any failure of the run leaves a manifest
        wall = time.perf_counter() - start
        _write_manifest(config, {
            "wall_time_s": wall,
            "workers": workers,
            "failure": {"type": type(e).__name__, "message": str(e)},
            "checks": [],
            "all_passed": False,
        })
        print(f"scenario {config.scenario} failed: "
              f"{type(e).__name__}: {e}", file=sys.stderr)
        print(f"manifest: {_manifest_path(config)}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start
    _write_csv(config, result.columns, result.rows)
    _write_manifest(config, {
        "wall_time_s": wall,
        "workers": workers,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in result.checks],
        "all_passed": result.all_passed,
        "info": result.info,
        "output": {"csv": config.output_path, "rows": int(len(result.rows))},
    })
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"check {c.name}: {status} ({c.detail})")
    print(f"wrote {config.output_path} ({len(result.rows)} rows) "
          f"and {_manifest_path(config)} in {wall:.3f} s")
    return 0 if result.all_passed else 1


def _cmd_validate(path: str) -> int:
    config = _read_config(path)
    _check_output_writable(config)
    sys.stdout.write(emit_config(config))
    print(f"valid {config.scenario} configuration "
          f"(sha256 {config_hash(config)})", file=sys.stderr)
    return 0


def _cmd_list_scenarios() -> int:
    for name, entry in SCENARIOS.items():
        print(f"{name}: {entry.summary}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decosim",
        description="open quantum system scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario configuration")
    p_run.add_argument("config", help="path to a JSON configuration")
    p_val = sub.add_parser("validate",
                           help="check a configuration and echo defaults")
    p_val.add_argument("config", help="path to a JSON configuration")
    sub.add_parser("list-scenarios", help="list available scenarios")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args.config)
        if args.command == "validate":
            return _cmd_validate(args.config)
        return _cmd_list_scenarios()
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
