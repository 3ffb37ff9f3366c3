"""Configuration documents: parsing, defaults, validation paths, hashing."""

import json
import math
import re

import numpy as np
import pytest

from decosim.config import (MAX_SERIES_BYTES, ScenarioConfig, SCENARIOS,
                            config_hash, config_table,
                            disorder_spec_from_params, emit_config,
                            parse_config, parse_config_table)
from decosim.errors import ConfigurationError

from cli_cases import minimal_config, over


def parse_minimal(scenario) -> ScenarioConfig:
    return parse_config_table(minimal_config(scenario))


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_round_trip_every_scenario(scenario):
    cfg = parse_minimal(scenario)
    text = emit_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert config_table(again) == config_table(cfg)
    assert config_hash(again) == config_hash(cfg)
    # the emitted document decodes as plain JSON and re-emits identically
    assert emit_config(again) == text
    json.loads(text)


def test_defaults_are_resolved():
    cfg = parse_minimal("central-spin")
    assert cfg.estimator.kind == "closed-form"
    assert cfg.grid.t_start == 0.0 and cfg.grid.sample_every == 1
    assert cfg.params["omega0"] == 0.0
    assert cfg.params["c1"] == complex(math.sqrt(0.5), 0.0)
    assert cfg.params["c2"] == complex(math.sqrt(0.5), 0.0)
    assert cfg.output_format == "csv"
    table = config_table(cfg)
    assert table["params"]["c1"] == [math.sqrt(0.5), 0.0]
    assert table["estimator"] == {"kind": "closed-form"}


def test_missing_required_fields_listed_together():
    with pytest.raises(ConfigurationError) as exc:
        parse_config_table({})
    assert str(exc.value) == (
        "missing required fields: scenario, params, grid, output")


def test_unknown_fields_rejected_with_path():
    doc = minimal_config("central-spin")
    doc["extra"] = 1
    with pytest.raises(ConfigurationError, match=r"config\.extra: unknown"):
        parse_config_table(doc)
    doc = minimal_config("central-spin")
    doc["params"]["foo"] = 1
    with pytest.raises(ConfigurationError, match=r"params\.foo: unknown"):
        parse_config_table(doc)


def test_unknown_scenario():
    doc = minimal_config("central-spin")
    doc["scenario"] = "double-slit"
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        parse_config_table(doc)


def test_grid_errors_carry_path():
    doc = minimal_config("central-spin")
    doc["grid"] = {"t_end": 1.0, "n_steps": 10, "sample_every": 3}
    with pytest.raises(ConfigurationError, match="grid: "):
        parse_config_table(doc)
    doc["grid"] = {"t_end": 1.0, "n_steps": True}
    with pytest.raises(ConfigurationError,
                       match=r"grid\.n_steps: expected an integer"):
        parse_config_table(doc)
    doc["grid"] = {"n_steps": 10}
    with pytest.raises(ConfigurationError, match=r"grid\.t_end: missing"):
        parse_config_table(doc)


def test_estimator_rules():
    # scenarios whose natural estimator is stochastic refuse to default it
    doc = minimal_config("three-level-telegraph")
    del doc["estimator"]
    with pytest.raises(ConfigurationError, match="explicit n_traj and seed"):
        parse_config_table(doc)
    # incompatible estimator kind
    doc = minimal_config("central-spin")
    doc["estimator"] = {"kind": "master-equation"}
    with pytest.raises(ConfigurationError, match="does not support"):
        parse_config_table(doc)
    doc["estimator"] = {"kind": "something-else"}
    with pytest.raises(ConfigurationError, match="unknown estimator"):
        parse_config_table(doc)


def test_n_traj_message_is_exact():
    doc = minimal_config("unraveling-check")
    doc["estimator"]["n_traj"] = 0
    with pytest.raises(ConfigurationError) as exc:
        parse_config_table(doc)
    assert "trajectories requires n_traj ≥ 1" in str(exc.value)


def test_seed_is_mandatory_and_nonnegative():
    doc = minimal_config("unraveling-check")
    del doc["estimator"]["seed"]
    with pytest.raises(ConfigurationError, match=r"estimator\.seed: missing"):
        parse_config_table(doc)
    doc = minimal_config("unraveling-check")
    doc["estimator"]["seed"] = -3
    with pytest.raises(ConfigurationError, match="seed must be ≥ 0"):
        parse_config_table(doc)


def test_disorder_monte_carlo_needs_two_samples():
    doc = minimal_config("disorder")
    doc["estimator"] = {"kind": "trajectories", "n_traj": 1, "seed": 0}
    with pytest.raises(ConfigurationError, match="n_traj ≥ 2"):
        parse_config_table(doc)
    doc["estimator"]["n_traj"] = 2
    cfg = parse_config_table(doc)
    assert cfg.estimator.n_traj == 2


def test_disorder_params_round_trip_to_spec():
    cfg = parse_minimal("disorder")
    spec = disorder_spec_from_params(cfg.params)
    assert spec.dim == 2
    assert spec.distribution.kind == "gaussian"
    assert np.array_equal(spec.r, 0.5 * np.ones((2, 2)))


def test_disorder_distribution_field_rules():
    doc = minimal_config("disorder")
    doc["params"]["distribution"] = {"kind": "gaussian"}
    with pytest.raises(ConfigurationError, match=r"distribution\.sigma"):
        parse_config_table(doc)
    doc["params"]["distribution"] = {"kind": "uniform", "low": 0.0}
    with pytest.raises(ConfigurationError, match=r"distribution\.high"):
        parse_config_table(doc)
    doc["params"]["distribution"] = {"kind": "exponential", "mean": 1.0}
    with pytest.raises(ConfigurationError, match="unknown distribution"):
        parse_config_table(doc)
    # family parameters foreign to the chosen kind are rejected
    doc["params"]["distribution"] = {"kind": "gaussian", "sigma": 1.0,
                                     "width": 2.0}
    with pytest.raises(ConfigurationError, match="unknown field"):
        parse_config_table(doc)


def test_disorder_r_matrix_rules():
    doc = minimal_config("disorder")
    doc["params"]["r"] = [[1.0, 0.0]]
    with pytest.raises(ConfigurationError, match="square"):
        parse_config_table(doc)
    doc["params"]["r"] = [[1.0, 0.0], [0.0, 1.0]]    # trace 2
    with pytest.raises(ConfigurationError, match="params: "):
        parse_config_table(doc)
    # complex entries enter as [re, im] pairs
    doc["params"]["r"] = [[0.5, [0.1, 0.2]], [[0.1, -0.2], 0.5]]
    cfg = parse_config_table(doc)
    assert cfg.params["r"][0][1] == complex(0.1, 0.2)


def test_spin_echo_requires_positive_t_e():
    doc = minimal_config("spin-echo")
    doc["params"]["t_e"] = 0.0
    with pytest.raises(ConfigurationError, match=r"t_e"):
        parse_config_table(doc)
    del doc["params"]["t_e"]
    with pytest.raises(ConfigurationError, match=r"params\.t_e: missing"):
        parse_config_table(doc)


def test_central_spin_amplitude_validation():
    doc = minimal_config("central-spin")
    doc["params"]["c1"] = 1.0
    doc["params"]["c2"] = 1.0
    with pytest.raises(ConfigurationError, match="deviates from 1"):
        parse_config_table(doc)
    doc["params"]["c1"] = [0.0, 1.0]     # purely imaginary, c2 defaults
    doc["params"]["c2"] = math.sqrt(0.5)
    doc["params"]["c1"] = [0.0, math.sqrt(0.5)]
    cfg = parse_config_table(doc)
    assert cfg.params["c1"] == complex(0.0, math.sqrt(0.5))


def test_telegraph_bin_width_rules():
    doc = minimal_config("three-level-telegraph")
    doc["params"]["bin_width"] = 0.1     # expected bright count too low
    with pytest.raises(ConfigurationError, match="bright-bin count"):
        parse_config_table(doc)
    doc = minimal_config("three-level-telegraph")
    doc["params"]["bin_width"] = 50.0    # fewer than two bins in the grid
    with pytest.raises(ConfigurationError, match="fewer than two bins"):
        parse_config_table(doc)


def test_oscillator_truncation_checked_at_parse():
    doc = minimal_config("damped-oscillator")
    doc["params"]["n_fock"] = 10
    with pytest.raises(ConfigurationError, match="too small"):
        parse_config_table(doc)


def test_oscillator_sample_series_fits_the_budget_exactly():
    """A series of exactly MAX_SERIES_BYTES parses; one sample more, or an
    n_fock whose two samples exceed it, is refused at the field to change."""
    per_sample = 40 * 40 * 16
    most = MAX_SERIES_BYTES // per_sample
    assert most * per_sample <= MAX_SERIES_BYTES
    doc = minimal_config("damped-oscillator")
    doc["grid"] = {"t_end": 1.0, "n_steps": most - 1}
    assert parse_config_table(doc).grid.n_samples == most
    doc["grid"]["n_steps"] = most
    with pytest.raises(ConfigurationError, match=(
            rf"^grid.sample_every: {most + 1} samples .* at most {most} "
            "samples remain")):
        parse_config_table(doc)
    largest = math.isqrt(MAX_SERIES_BYTES // 32)
    for n_fock, path in ((largest, "grid.sample_every"),
                         (largest + 1, "params.n_fock")):
        doc = minimal_config("damped-oscillator")
        doc["params"]["n_fock"] = n_fock
        with pytest.raises(ConfigurationError, match=f"^{path}: "):
            parse_config_table(doc)


def test_oscillator_csv_table_fits_the_budget_exactly():
    """At n_fock 9 the run's CSV table, 512 rows of three float64 a
    sample, outgrows the series: the most samples whose table fits parse,
    one more is refused at the field to change."""
    most = MAX_SERIES_BYTES // (512 * 3 * 8)
    assert most == 174_762
    doc = over(minimal_config("damped-oscillator"),
               params={"n_fock": 9, "alpha1": 0.3, "alpha2": -0.3},
               grid={"n_steps": most - 1})
    assert parse_config_table(doc).grid.n_samples == most
    doc["grid"]["n_steps"] = most
    with pytest.raises(ConfigurationError, match=(
            rf"^grid.sample_every: {most + 1} samples of 512 \(t, xi, "
            rf"density\) rows take .* at most {most} samples remain$")):
        parse_config_table(doc)


def test_unraveling_block_moments_fit_the_budget_exactly():
    """The moments of the streamed estimate's blocks of 256 trajectories,
    n_samples x d(d+1) x 16 bytes each, must fit MAX_SERIES_BYTES: the
    largest n_traj whose blocks fit parses, one block more is refused, and
    so is a single block beyond the budget."""
    model = {"kind": "three-level", "rabi": 2.0, "gamma_strong": 1.0,
             "gamma_shelve": 0.05, "gamma_deshelve": 0.15}
    per_block = 20_001 * 3 * 4 * 16
    most = MAX_SERIES_BYTES // per_block * 256
    doc = over(minimal_config("unraveling-check"),
               grid={"t_end": 100.0, "n_steps": 20_000},
               estimator={"n_traj": most})
    doc["params"]["model"] = model
    cfg = parse_config_table(doc)
    assert cfg.params["threshold"] == 5.0 / math.sqrt(most)
    doc["estimator"]["n_traj"] = most + 1
    with pytest.raises(ConfigurationError, match=(
            rf"^estimator.n_traj: the block moments of n_traj = {most + 1} "
            rf".* lower estimator.n_traj to at most {most} or raise "
            "grid.sample_every$")):
        parse_config_table(doc)
    doc["estimator"]["n_traj"] = 1
    doc["grid"]["n_steps"] = MAX_SERIES_BYTES // (3 * 4 * 16)
    with pytest.raises(ConfigurationError, match=(
            r"^estimator.n_traj: .* sample budget; raise grid.sample_every$")):
        parse_config_table(doc)


def test_unraveling_threshold_default_and_bounds():
    cfg = parse_minimal("unraveling-check")
    assert cfg.params["threshold"] == pytest.approx(0.5)    # 5/sqrt(100)
    doc = minimal_config("unraveling-check")
    doc["params"]["threshold"] = 0.0
    with pytest.raises(ConfigurationError, match="must be positive"):
        parse_config_table(doc)
    doc = minimal_config("unraveling-check")
    doc["params"]["model"] = {"kind": "random-walk"}
    with pytest.raises(ConfigurationError, match="unknown model"):
        parse_config_table(doc)


def test_unraveling_three_level_model():
    doc = minimal_config("unraveling-check")
    doc["params"]["model"] = {"kind": "three-level", "rabi": 2.0,
                              "gamma_strong": 1.0, "gamma_shelve": 0.05,
                              "gamma_deshelve": 0.15}
    cfg = parse_config_table(doc)
    assert cfg.params["model"]["detuning"] == 0.0
    again = parse_config(emit_config(cfg))
    assert again == cfg


def test_output_rules():
    doc = minimal_config("central-spin")
    doc["output"] = {"path": ""}
    with pytest.raises(ConfigurationError, match="nonempty path"):
        parse_config_table(doc)
    doc["output"] = {"path": "out.dat", "format": "parquet"}
    with pytest.raises(ConfigurationError, match="unknown format"):
        parse_config_table(doc)


def test_hash_tracks_content():
    a = parse_minimal("central-spin")
    doc = minimal_config("central-spin")
    doc["params"]["omega0"] = 0.25
    b = parse_config_table(doc)
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 64
    assert config_hash(a) == config_hash(parse_config(emit_config(a)))


def test_parse_config_rejects_bad_json():
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigurationError):
        parse_config("[1, 2, 3]")       # not an object


def test_non_finite_numbers_rejected():
    doc = minimal_config("central-spin")
    doc["grid"]["t_end"] = float("inf")
    with pytest.raises(ConfigurationError,
                       match=r"grid\.t_end: expected a finite number"):
        parse_config(json.dumps(doc))       # written as Infinity
    doc["grid"]["t_end"] = 10**400          # beyond the float range
    with pytest.raises(ConfigurationError,
                       match=r"grid\.t_end: expected a finite number"):
        parse_config_table(doc)
    doc = minimal_config("damped-oscillator")
    doc["params"]["alpha1"] = [1.0, float("nan")]
    with pytest.raises(ConfigurationError,
                       match=r"params\.alpha1: expected a finite number"):
        parse_config_table(doc)


def test_overflow_in_model_constructors_is_a_configuration_error():
    doc = minimal_config("damped-oscillator")
    doc["params"]["alpha2"] = 7.9e264
    with pytest.raises(ConfigurationError, match="params: OverflowError"):
        parse_config_table(doc)
    for key in ("rabi", "gamma_strong"):
        doc = minimal_config("three-level-telegraph")
        doc["params"][key] = 1e211
        with pytest.raises(ConfigurationError, match="params: OverflowError"):
            parse_config_table(doc)


@pytest.mark.parametrize("scenario, key, name", [
    ("three-level-telegraph", "rabi", "rabi"),
    ("three-level-telegraph", "detuning", "detuning"),
    ("three-level-telegraph", "gamma_strong", "gamma_strong"),
    ("damped-oscillator", "alpha1", "alphas")])
def test_overflow_refusals_name_the_parameter(scenario, key, name):
    doc = minimal_config(scenario)
    doc["params"][key] = 1e200
    with pytest.raises(ConfigurationError,
                       match=f"^params: OverflowError: {name}\\b"):
        parse_config_table(doc)


def test_saturation_denominator_overflow_is_an_overflow_error():
    # rather than a bright-bin count of 0 that blames the bin width
    doc = minimal_config("three-level-telegraph")
    doc["params"]["rabi"] = doc["params"]["detuning"] = 1.3e154
    with pytest.raises(ConfigurationError,
                       match="^params: OverflowError: rabi, detuning and "
                             "gamma_strong: "):
        parse_config_table(doc)


@pytest.mark.parametrize("scenario", ["three-level-telegraph",
                                      "unraveling-check", "disorder"])
def test_seed_must_fit_in_64_bits(scenario):
    doc = minimal_config(scenario)
    doc["estimator"] = {"kind": "trajectories", "n_traj": 2, "seed": 2**70}
    with pytest.raises(ConfigurationError,
                       match=r"estimator\.seed: seed must be < 2\*\*64"):
        parse_config_table(doc)
    doc["estimator"]["seed"] = 2**64 - 1
    assert parse_config_table(doc).estimator.seed == 2**64 - 1


def test_integer_past_the_json_digit_limit_is_a_configuration_error():
    text = json.dumps(minimal_config("central-spin")).replace(
        '"n_steps": 100', '"n_steps": 1' + "0" * 5000)
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        parse_config(text)


def test_grid_span_must_be_finite():
    doc = minimal_config("central-spin")
    doc["grid"].update({"t_start": -1e308, "t_end": 1e308})
    with pytest.raises(ConfigurationError, match="grid: .*must be finite"):
        parse_config_table(doc)


def test_malformed_values_name_their_field():
    cases = [("central-spin", "c1", True,
              r"params\.c1: expected a number or \[re, im\] pair, got bool"),
             ("central-spin", "couplings", [],
              r"params\.couplings: expected a nonempty array of numbers"),
             ("disorder", "r", [],
              r"params\.r: expected a nonempty array of rows"),
             ("disorder", "distribution", {"sigma": 0.5},
              r"params\.distribution\.kind: missing parameter")]
    for scenario, field, value, message in cases:
        doc = minimal_config(scenario)
        doc["params"][field] = value
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            parse_config_table(doc)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_summary_names_every_field(scenario):
    # what `decosim list-scenarios` prints: each field of the table, a
    # defaulted one as "name=", a required one without
    entry = SCENARIOS[scenario]
    for name, _, *default in entry.fields:
        assert re.search(rf"\b{name}\b", entry.summary), name
        assert bool(re.search(rf"\b{name}=", entry.summary)) == bool(default)
