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
toolkit version, the wall time of the run and its CSV write, the executed
checks with pass/fail, the scenario info block, the headroom block (how
close the run came to each numerical limit, such as the largest certified
quadrature error of a disorder run against 1e-8), and the warnings raised
while parsing, running and writing the CSV (category and message; each is
still shown on stderr).  A failure of the run or of the CSV write leaves
the same failure manifest.  It is strict JSON: a statistic the run could
not define is null.  Both files are streamed to a temporary file in the
output directory and then moved into place, so a write that fails leaves
the previous file intact.  The CSV is streamed in blocks of at most 2**14
values, cut in whole rows, and each distinct value of a block is
formatted once.

The environment variable DECOSIM_WORKERS, in ASCII decimal digits, sets the
trajectory worker count (default 1); a run uses at most one worker per CPU,
and the manifest records the request after that cap.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time
import warnings

import numpy as np

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
from .hilbert import as_decimal
from .scenarios import run_scenario
from .trajectories import _capped_workers

WORKERS_ENV = "DECOSIM_WORKERS"


_fmt = "%.17g".__mod__
_BLOCK = 2 ** 14        # values per CSV block, cut in whole rows


def _read_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigurationError(f"cannot read config {path}: {e}") from e
    config = parse_config(text)
    parent = os.path.dirname(os.path.abspath(config.output_path)) or "."
    if not os.path.isdir(parent):
        raise ConfigurationError(
            f"output.path: directory {parent} does not exist")
    if not os.access(parent, os.W_OK):
        raise ConfigurationError(
            f"output.path: directory {parent} is not writable")
    for target in (config.output_path, _manifest_path(config)):
        if os.path.isdir(target):
            raise ConfigurationError(f"output.path: {target} is a directory")
    return config


def _workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    return _capped_workers(as_decimal(raw, WORKERS_ENV, least=1))


def _write_atomic(path: str, chunks) -> None:
    """Stream the strings of *chunks* into a temporary file beside ``path``,
    then move it into place: a failed write leaves the old file as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _lines(rows):
    """The CSV lines of the 2-D float array *rows*, in blocks of at most
    ``_BLOCK`` values (one row if it is wider).  Each distinct value of a
    block is formatted once; values are told apart by their bits, so -0.0
    is never written as 0.0."""
    n_rows, width = rows.shape
    step = max(1, _BLOCK // width)
    line = ",".join(["%s"] * width) + "\n"
    for start in range(0, n_rows, step):
        block = np.asarray(rows[start:start + step], dtype=np.float64)
        bits, inv = np.unique(block.ravel().view(np.uint64),
                              return_inverse=True)
        text = np.array([_fmt(x) for x in bits.view(np.float64).tolist()],
                        dtype=object)
        yield (line * len(block)) % tuple(text[inv].tolist())


def _write_csv(config: ScenarioConfig, columns, rows) -> None:
    head = (f"# decosim {__version__} scenario {config.scenario}\n"
            f"# config-sha256: {config_hash(config)}\n"
            + ",".join(columns) + "\n")
    _write_atomic(config.output_path, itertools.chain([head], _lines(rows)))


def _manifest_path(config: ScenarioConfig) -> str:
    return config.output_path + ".manifest.json"


def _finite(value):
    """*value* with every non-finite float in it, at any depth, as None: a
    statistic that a run could not define is JSON null, not NaN."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _write_manifest(config: ScenarioConfig, payload: dict) -> None:
    body = {
        "toolkit": "decosim",
        "version": __version__,
        "scenario": config.scenario,
        "config": config_table(config),
        "config_sha256": config_hash(config),
        **payload,
    }
    text = json.dumps(_finite(body), indent=2, allow_nan=False)
    _write_atomic(_manifest_path(config), [text, "\n"])


@contextlib.contextmanager
def _recorded_warnings():
    """Record the warnings raised in the block, for the manifest, and still
    show each one on stderr once the block is left."""
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            yield caught
    finally:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def _cmd_run(path: str) -> int:
    failure = None
    with _recorded_warnings() as caught:
        config = _read_config(path)
        workers = _workers()
        start = time.perf_counter()
        try:
            result = run_scenario(config, workers=workers)
            _write_csv(config, result.columns, result.rows)
        except Exception as e:  # a failed run or write leaves a manifest
            failure = e
        wall = time.perf_counter() - start
    payload = {"wall_time_s": wall, "workers": workers}
    if failure is not None:
        payload.update(
            failure={"type": type(failure).__name__, "message": str(failure)},
            checks=[], all_passed=False)
    else:
        payload.update(
            checks=[{"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in result.checks],
            all_passed=result.all_passed, info=result.info,
            headroom=result.headroom,
            output={"csv": config.output_path, "rows": len(result.rows)})
    payload["warnings"] = [{"category": w.category.__name__,
                            "message": str(w.message)} for w in caught]
    _write_manifest(config, payload)
    if failure is not None:
        print(f"scenario {config.scenario} failed: "
              f"{type(failure).__name__}: {failure}", file=sys.stderr)
        print(f"manifest: {_manifest_path(config)}", file=sys.stderr)
        return 1
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"check {c.name}: {status} ({c.detail})")
    print(f"wrote {config.output_path} ({len(result.rows)} rows) "
          f"and {_manifest_path(config)} in {wall:.3f} s")
    return 0 if result.all_passed else 1


def _cmd_validate(path: str) -> int:
    config = _read_config(path)
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
