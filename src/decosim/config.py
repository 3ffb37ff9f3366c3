"""Scenario configuration: JSON parsing, validation, emission, hashing.

A configuration document is a JSON object with the fields

    scenario   one of the names in SCENARIOS
    params     scenario-specific parameter table (see SCENARIOS)
    grid       {"t_start": 0.0, "t_end": ..., "n_steps": ..., "sample_every": 1}
    estimator  {"kind": "closed-form" | "master-equation" |
                "trajectories", "n_traj": ..., "seed": ...}
    output     {"path": ..., "format": "csv"}

Complex values are written as two-element arrays [re, im]; plain numbers
are accepted as purely real.  Every number must be finite.  Every
validation error names the offending field path.  Defaults are resolved at
parse time, so emitting a parsed config reproduces every choice explicitly
and parse(emit(config)) returns an equal config.  Seeds are never
defaulted: any stochastic estimator must state one, in [0, 2**64).

SCENARIOS is the scenario registry: parsing, emission, ``decosim
list-scenarios`` and ``run_scenario`` all read it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from hashlib import sha256
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .evolution import TimeGrid, two_level_decay_model
from .hilbert import QuantumState
from .models.central_spin import CentralSpinParams
from .models.disorder import Distribution, DisorderSpec
from .models.oscillator import DampedOscillatorParams, position_grid
from .models.three_level import (ThreeLevelParams, _telegraph_bins,
                                 ground_state, three_level_model)
from .scenarios import (CLOSED_FORM, MASTER_EQUATION, TRAJECTORIES,
                        EstimatorSpec, ScenarioConfig, run_central_spin,
                        run_damped_oscillator, run_disorder, run_spin_echo,
                        run_telegraph, run_unraveling)
from .trajectories import (_BLOCK, _block_moment_bytes,
                           _sampling_threshold)

DEFAULT_AMPLITUDE = math.sqrt(0.5)
# Bytes that each per-sample array of a run may take: the damped-oscillator
# run's (n_samples, n_fock, n_fock) complex series and its (n_samples, 512,
# 3) float table of CSV rows, and the block moments that an unraveling-check
# run holds before it folds them.  Parsing refuses a config beyond it, so
# no run starts an allocation it cannot hold.
MAX_SERIES_BYTES = 2**31


def _fail(path: str, message: str):
    raise ConfigurationError(f"{path}: {message}")


def _require_table(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(table: dict, allowed, path: str):
    unknown = sorted(set(table) - set(allowed))
    if unknown:
        _fail(f"{path}.{unknown[0]}", "unknown field")


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        x = float(value)
    except OverflowError:       # an integer beyond the float range
        x = math.inf if value > 0 else -math.inf
    if not math.isfinite(x):
        _fail(path, f"expected a finite number, got {x}")
    return x


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return int(value)


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_complex(value, path: str) -> complex:
    if isinstance(value, bool):
        _fail(path, "expected a number or [re, im] pair, got bool")
    if isinstance(value, (int, float)):
        return complex(_as_float(value, path), 0.0)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value)):
        return complex(_as_float(value[0], path), _as_float(value[1], path))
    _fail(path, "expected a number or a [re, im] pair")


def _as_float_tuple(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty array of numbers")
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _as_complex_matrix(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty array of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            _fail(f"{path}[{i}]", "matrix must be square")
        rows.append(tuple(_as_complex(v, f"{path}[{i}][{j}]")
                          for j, v in enumerate(row)))
    return tuple(rows)


def _checked(convert, ok, message: str):
    """Converter that also requires ok(value); ``{}`` in *message* shows
    the value."""
    def checked(value, path: str):
        x = convert(value, path)
        if not ok(x):
            _fail(path, message.format(x))
        return x
    return checked


# ---------------------------------------------------------------------------
# field tables
#
# A field table lists (name, converter) rows for required fields and
# (name, converter, default) rows for optional ones, in key order.  A
# default of None leaves an absent field out for the scenario check to fill.

def _parse_fields(table, fields, path: str) -> dict:
    table = _require_table(table, path)
    _reject_unknown(table, [name for name, *_ in fields], path)
    out = {}
    for name, convert, *default in fields:
        if name in table:
            out[name] = convert(table[name], f"{path}.{name}")
        elif not default:
            _fail(f"{path}.{name}", "missing parameter")
        elif default[0] is not None:
            out[name] = convert(default[0], f"{path}.{name}")
    return out


def _union(noun: str, variants: dict):
    """Converter for a tagged union whose ``kind`` picks its field table."""
    def convert(table, path: str) -> dict:
        table = _require_table(table, path)
        if "kind" not in table:
            _fail(f"{path}.kind", "missing parameter")
        kind = _as_str(table["kind"], f"{path}.kind")
        if kind not in variants:
            _fail(f"{path}.kind", f"unknown {noun} '{kind}' (choose from "
                                  f"{', '.join(variants)})")
        return _parse_fields(table, (("kind", _as_str),) + variants[kind],
                             path)
    return convert


def _construct(path: str, make, *args, **kwargs):
    """Call *make*; a ValueError, or an ArithmeticError such as a float
    overflow in its arithmetic, becomes a ConfigurationError at *path*."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        _fail(path, str(e))
    except ArithmeticError as e:
        _fail(path, f"{type(e).__name__}: {e}")


_POSITIVE = _checked(_as_float, lambda x: x > 0.0, "must be positive")

_GRID_FIELDS = (("t_start", _as_float, 0.0), ("t_end", _as_float),
                ("n_steps", _as_int), ("sample_every", _as_int, 1))

_OUTPUT_FIELDS = (
    ("path", _checked(_as_str, bool, "must be a nonempty path")),
    ("format", _checked(_as_str, lambda f: f == "csv",
                        "unknown format '{}' (only csv)"), "csv"))

# estimator kind -> fields besides the kind; a Philox key word is 64 bits
_ESTIMATORS = {CLOSED_FORM: (), MASTER_EQUATION: (), TRAJECTORIES: (
    ("n_traj", _checked(_as_int, lambda n: n >= 1,
                        "trajectories requires n_traj ≥ 1")),
    ("seed", _checked(
        _checked(_as_int, lambda s: s >= 0, "seed must be ≥ 0"),
        lambda s: s < 2**64, "seed must be < 2**64")))}
ESTIMATOR_KINDS = tuple(_ESTIMATORS)

_CENTRAL_SPIN_FIELDS = (("couplings", _as_float_tuple),
                        ("omega0", _as_float, 0.0),
                        ("c1", _as_complex, DEFAULT_AMPLITUDE),
                        ("c2", _as_complex, DEFAULT_AMPLITUDE))

# shared by the telegraph scenario and the three-level unraveling model
_THREE_LEVEL_FIELDS = (("rabi", _as_float), ("detuning", _as_float, 0.0),
                       ("gamma_strong", _as_float),
                       ("gamma_shelve", _as_float),
                       ("gamma_deshelve", _as_float))

# Distribution(kind, a, b) takes the parameters in field order
_DISTRIBUTIONS = {
    "gaussian": (("mean", _as_float, 0.0), ("sigma", _as_float)),
    "lorentzian": (("center", _as_float, 0.0), ("width", _as_float)),
    "uniform": (("low", _as_float), ("high", _as_float)),
}

# unraveling model kind -> (fields, builder of (LindbladModel, state))
_MODELS = {
    "two-level-decay": (
        (("gamma", _checked(_as_float, lambda g: g >= 0.0, "must be ≥ 0")),),
        lambda kind, gamma: (
            two_level_decay_model(gamma),
            QuantumState.pure(np.array([0.0, 1.0], dtype=np.complex128)))),
    "three-level": (_THREE_LEVEL_FIELDS, lambda kind, **rates: (
        three_level_model(ThreeLevelParams(**rates)), ground_state())),
}


def _central_spin(params: dict) -> CentralSpinParams:
    return CentralSpinParams(params["omega0"], params["couplings"],
                             params["c1"], params["c2"])


def disorder_spec_from_params(params: dict) -> DisorderSpec:
    return DisorderSpec(Distribution(*params["distribution"].values()),
                        params["epsilon"], params["slopes"],
                        np.array(params["r"], dtype=np.complex128))


def _series_bytes(n_samples: int, n_fock: int) -> int:
    return n_samples * n_fock * n_fock * 16


def _as_n_fock(value, path: str) -> int:
    # checked before any arithmetic in the model: every grid has two samples
    n_fock = _as_int(value, path)
    if _series_bytes(2, n_fock) > MAX_SERIES_BYTES:
        _fail(path, "n_fock is too large: two samples of n_fock x n_fock "
              f"density matrices exceed the {MAX_SERIES_BYTES / 2**30:g} GiB "
              "sample budget; lower n_fock")
    return n_fock


def _over_budget(path: str, size: int, what: str, fix: str):
    """(path, message) refusing *what*, of *size* bytes, when it exceeds
    MAX_SERIES_BYTES; the message ends in *fix*.  None when it fits.  The
    size takes the fewest significant digits, at least 3, that tell it
    from the budget."""
    if size > MAX_SERIES_BYTES:
        gib = next(text for text in (f"{size / 2**30:.{digits}g}"
                                     for digits in range(3, 18))
                   if float(text) != MAX_SERIES_BYTES / 2**30)
        return path, (f"{what} take {gib} GiB, beyond the "
                      f"{MAX_SERIES_BYTES / 2**30:g} GiB sample budget; "
                      f"{fix}")


def _check_series(params, model, grid, estimator):
    # the run's (n_samples, n_fock, n_fock) complex series, then its
    # (n_samples, points, 3) float table of (t, xi, density) rows
    n, n_fock = grid.n_samples, params["n_fock"]
    points = position_grid(model).size
    per_series, per_table = _series_bytes(1, n_fock), points * 3 * 8
    return (_over_budget(
                "grid.sample_every", n * per_series,
                f"{n} samples of {n_fock} x {n_fock} density matrices",
                "raise grid.sample_every so that at most "
                f"{MAX_SERIES_BYTES // per_series} samples remain, or lower "
                "params.n_fock")
            or _over_budget(
                "grid.sample_every", n * per_table,
                f"{n} samples of {points} (t, xi, density) rows",
                "raise grid.sample_every so that at most "
                f"{MAX_SERIES_BYTES // per_table} samples remain"))


def _check_disorder(params, spec, grid, estimator):
    if estimator.kind == TRAJECTORIES and estimator.n_traj < 2:
        return ("estimator.n_traj",
                "disorder monte carlo requires n_traj ≥ 2 for error bars")


def _check_echo(params, model, grid, estimator):
    # the runner reports the revival at t_start + 2 t_e
    t_e = params["t_e"]
    if not math.isfinite(grid.t_start + 2.0 * t_e):
        return ("params.t_e", f"echo time {t_e} is too large: the revival "
                "time t_start + 2 t_e overflows the float range")


def _check_telegraph(params, model, grid, estimator):
    # an overflow in the rate arithmetic propagates and is reported at params
    try:
        _telegraph_bins(model, grid, params["bin_width"])
    except ConfigurationError as e:
        return "params.bin_width", str(e)


def _check_unraveling(params, model, grid, estimator):
    # the sampling bound depends on the estimator section
    params.setdefault("threshold", _sampling_threshold(estimator.n_traj))
    # the estimate holds every block's moments before it folds them; this
    # also caps the one block that an engine call takes beyond its budget
    n, n_traj, dim = grid.n_samples, estimator.n_traj, model[1].dim
    per_block = _block_moment_bytes(dim, n)
    most = MAX_SERIES_BYTES // per_block * _BLOCK
    return _over_budget(
        "estimator.n_traj", -(-n_traj // _BLOCK) * per_block,
        f"the block moments of n_traj = {n_traj} ({_BLOCK} trajectories a "
        f"block) over {n} samples of dimension {dim}",
        (f"lower estimator.n_traj to at most {most} or " if most else "")
        + "raise grid.sample_every")


@dataclass(frozen=True)
class Scenario:
    """Registry entry: everything that differs between scenarios."""

    summary: str        # one line for ``decosim list-scenarios``
    estimators: tuple   # allowed estimator kinds, the default first
    fields: tuple       # params field table
    build: Callable     # params -> the model object handed to the runner
    run: Callable       # (ScenarioConfig, workers) -> ScenarioResult
    # (params, model, grid, estimator) -> (path, message) of the first
    # cross-field problem, or None
    check: Callable = lambda params, model, grid, estimator: None


SCENARIOS = {
    "central-spin": Scenario(
        summary=("closed-form dephasing of a central spin: params "
                 "couplings (required), omega0=0, c1=c2=sqrt(1/2)"),
        estimators=(CLOSED_FORM,), fields=_CENTRAL_SPIN_FIELDS,
        build=_central_spin, run=run_central_spin),
    "spin-echo": Scenario(
        summary=("central-spin run with a refocusing pulse: params couplings, "
                 "t_e > 0 (required), omega0=0, c1=c2=sqrt(1/2)"),
        estimators=(CLOSED_FORM,),
        fields=_CENTRAL_SPIN_FIELDS + (
            ("t_e", _checked(_as_float, lambda t: t > 0.0,
                             "echo time must be positive, got {}")),),
        build=_central_spin, run=run_spin_echo, check=_check_echo),
    "disorder": Scenario(
        summary=("static-disorder ensemble average: params distribution, "
                 "epsilon, slopes, r (all required); trajectories estimator "
                 "draws explicit samples"),
        estimators=(CLOSED_FORM, TRAJECTORIES),
        fields=(("distribution", _union("distribution", _DISTRIBUTIONS)),
                ("epsilon", _as_float_tuple), ("slopes", _as_float_tuple),
                ("r", _as_complex_matrix)),
        build=disorder_spec_from_params, run=run_disorder,
        check=_check_disorder),
    "three-level-telegraph": Scenario(
        summary=("fluorescence telegraph of a shelved three-level emitter: "
                 "params rabi, gamma_strong, gamma_shelve, gamma_deshelve, "
                 "bin_width (required), detuning=0, dark_threshold=0; "
                 "needs trajectories"),
        estimators=(TRAJECTORIES,),
        fields=_THREE_LEVEL_FIELDS + (
            ("bin_width", _POSITIVE),
            ("dark_threshold",
             _checked(_as_int, lambda n: n >= 0, "must be ≥ 0"), 0)),
        build=lambda params: ThreeLevelParams(
            *(params[name] for name, *_ in _THREE_LEVEL_FIELDS)),
        run=run_telegraph, check=_check_telegraph),
    "damped-oscillator": Scenario(
        summary=("two-packet interference in a damped oscillator: params "
                 "omega, n_fock, alpha1, alpha2 (required), gamma=0, "
                 "n_thermal=0; master-equation estimator"),
        estimators=(MASTER_EQUATION,),
        fields=(("omega", _as_float), ("gamma", _as_float, 0.0),
                ("n_thermal", _as_float, 0.0), ("n_fock", _as_n_fock),
                ("alpha1", _as_complex), ("alpha2", _as_complex)),
        build=lambda p: DampedOscillatorParams(
            p["omega"], p["gamma"], p["n_thermal"], p["n_fock"],
            (p["alpha1"], p["alpha2"])),
        run=run_damped_oscillator, check=_check_series),
    "unraveling-check": Scenario(
        summary=("trajectory average vs master equation: params model "
                 "(required), threshold=5/sqrt(n_traj); needs trajectories"),
        estimators=(TRAJECTORIES,),
        fields=(("model", _union("model", {
                    kind: fields for kind, (fields, _) in _MODELS.items()})),
                ("threshold", _POSITIVE, None)),
        build=lambda p: _MODELS[p["model"]["kind"]][1](**p["model"]),
        run=run_unraveling, check=_check_unraveling),
}


def _parse_estimator(table, scenario: str, allowed: tuple,
                     path: str) -> EstimatorSpec:
    if table is None:
        if allowed[0] == TRAJECTORIES:
            _fail(path, f"scenario '{scenario}' needs a trajectories "
                        "estimator with explicit n_traj and seed")
        return EstimatorSpec(kind=allowed[0])
    kind = _require_table(table, path).get("kind")
    if kind in ESTIMATOR_KINDS and kind not in allowed:
        _fail(f"{path}.kind",
              f"scenario '{scenario}' does not support estimator '{kind}' "
              f"(allowed: {', '.join(allowed)})")
    return EstimatorSpec(**_union("estimator", _ESTIMATORS)(table, path))


# ---------------------------------------------------------------------------
# public API

def parse_config_table(table) -> ScenarioConfig:
    """Validate a decoded configuration object into a ScenarioConfig."""
    table = _require_table(table, "config")
    missing = [k for k in ("scenario", "params", "grid", "output")
               if k not in table]
    if missing:
        raise ConfigurationError(
            f"missing required fields: {', '.join(missing)}")
    _reject_unknown(table, ("scenario", "params", "grid", "estimator",
                            "output"), "config")
    scenario = _as_str(table["scenario"], "scenario")
    if scenario not in SCENARIOS:
        _fail("scenario", f"unknown scenario '{scenario}' (choose from "
                          f"{', '.join(SCENARIOS)})")
    entry = SCENARIOS[scenario]
    grid = _construct("grid", TimeGrid,
                      **_parse_fields(table["grid"], _GRID_FIELDS, "grid"))
    estimator = _parse_estimator(table.get("estimator"), scenario,
                                 entry.estimators, "estimator")
    params = _parse_fields(table["params"], entry.fields, "params")
    model = _construct("params", entry.build, params)
    problem = _construct("params", entry.check, params, model, grid,
                         estimator)
    if problem:
        _fail(*problem)
    output = _parse_fields(table["output"], _OUTPUT_FIELDS, "output")
    return ScenarioConfig(scenario=scenario, params=params, grid=grid,
                          estimator=estimator, output_path=output["path"],
                          output_format=output["format"], model=model,
                          runner=entry.run)


def parse_config(text: str) -> ScenarioConfig:
    """Parse a JSON configuration document."""
    try:
        table = json.loads(text)
    except ValueError as e:     # also integers past the digit limit
        raise ConfigurationError(
            f"configuration is not valid JSON: {e}") from e
    return parse_config_table(table)


def config_table(config: ScenarioConfig) -> dict:
    """Plain-JSON representation with every default resolved."""
    estimator = config.estimator
    return {
        "scenario": config.scenario,
        # complex values become [re, im] pairs, tuples become arrays
        "params": json.loads(json.dumps(
            config.params, default=lambda z: [z.real, z.imag])),
        "grid": {name: getattr(config.grid, name)
                 for name, *_ in _GRID_FIELDS},
        "estimator": {"kind": estimator.kind} | {
            name: getattr(estimator, name)
            for name, *_ in _ESTIMATORS[estimator.kind]},
        "output": {"path": config.output_path,
                   "format": config.output_format},
    }


def emit_config(config: ScenarioConfig) -> str:
    """Canonical JSON text; parse_config(emit_config(c)) == c."""
    return json.dumps(config_table(config), indent=2, sort_keys=True) + "\n"


def config_hash(config: ScenarioConfig) -> str:
    """sha256 over the compact sorted-key JSON form."""
    compact = json.dumps(config_table(config), sort_keys=True,
                         separators=(",", ":"))
    return sha256(compact.encode("utf-8")).hexdigest()
