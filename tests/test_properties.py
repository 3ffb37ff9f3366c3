"""Property tests pinning configuration and record serialization behaviour.

Examples are derandomized so every run of the suite checks the same
documents and records.
"""

import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decosim.config import (SCENARIOS, config_hash, emit_config, parse_config,
                            parse_config_table)
import decosim.trajectories as tj
from decosim.errors import ConfigurationError
from decosim.evolution import LindbladModel, TimeGrid
from decosim.hilbert import QuantumState
from decosim.trajectories import (TrajectoryRecord, record_from_text,
                                  record_to_text, run_ensemble, run_trajectory)
from cli_cases import minimal_config

PINNED = settings(derandomize=True, database=None, deadline=None,
                  max_examples=40)

finite = st.floats(-50.0, 50.0, allow_nan=False)
positive = st.floats(0.05, 20.0)
number = st.one_of(finite, st.integers(-50, 50))


def optional(table, key, strategy, draw):
    """Either leave *key* out (the parser fills its default) or draw it."""
    if draw(st.booleans()):
        table[key] = draw(strategy)


@st.composite
def grids(draw, min_span=0.1):
    grid = {"t_end": None, "n_steps": None}
    t_start = draw(finite)
    if draw(st.booleans()):
        grid["t_start"] = t_start
    else:
        t_start = 0.0
    grid["t_end"] = t_start + draw(st.floats(min_span, min_span * 50.0))
    every = draw(st.integers(1, 4))
    grid["n_steps"] = every * draw(st.integers(1, 50))
    if every > 1 or draw(st.booleans()):
        grid["sample_every"] = every
    return grid


def trajectories_estimator(draw, min_traj=1):
    return {"kind": "trajectories",
            "n_traj": draw(st.integers(min_traj, 10_000)),
            "seed": draw(st.integers(0, 2**64 - 1))}


def pair(z):
    return [z.real, z.imag]


@st.composite
def amplitudes(draw):
    theta = draw(st.floats(0.0, math.pi / 2))
    phi1, phi2 = draw(finite), draw(finite)
    return (pair(math.cos(theta) * complex(math.cos(phi1), math.sin(phi1))),
            pair(math.sin(theta) * complex(math.cos(phi2), math.sin(phi2))))


@st.composite
def central_spin_params(draw):
    params = {"couplings": draw(st.lists(number, min_size=1, max_size=5))}
    optional(params, "omega0", number, draw)
    if draw(st.booleans()):
        params["c1"], params["c2"] = draw(amplitudes())
    return params


@st.composite
def central_spin_docs(draw):
    return {"scenario": "central-spin", "params": draw(central_spin_params()),
            "grid": draw(grids())}


@st.composite
def spin_echo_docs(draw):
    params = draw(central_spin_params())
    params["t_e"] = draw(positive)
    return {"scenario": "spin-echo", "params": params, "grid": draw(grids())}


@st.composite
def disorder_docs(draw):
    kind = draw(st.sampled_from(["gaussian", "lorentzian", "uniform"]))
    distribution = {"kind": kind}
    if kind == "gaussian":
        optional(distribution, "mean", number, draw)
        distribution["sigma"] = draw(positive)
    elif kind == "lorentzian":
        optional(distribution, "center", number, draw)
        distribution["width"] = draw(positive)
    else:
        low = draw(finite)
        distribution["low"] = low
        distribution["high"] = low + draw(positive)
    dim = draw(st.integers(2, 3))
    # a pure state |v><v|; the leading entry keeps the norm away from 0
    v = np.array([1.0 + draw(st.floats(0.0, 1.0))]
                 + [complex(draw(finite), draw(finite)) / 50.0
                    for _ in range(dim - 1)], dtype=np.complex128)
    v /= np.linalg.norm(v)
    r = np.outer(v, v.conj())
    doc = {
        "scenario": "disorder",
        "params": {
            "distribution": distribution,
            "epsilon": draw(st.lists(number, min_size=dim, max_size=dim)),
            "slopes": draw(st.lists(number, min_size=dim, max_size=dim)),
            "r": [[pair(complex(z)) for z in row] for row in r],
        },
        "grid": draw(grids()),
    }
    choice = draw(st.sampled_from(["default", "closed-form", "trajectories"]))
    if choice == "closed-form":
        doc["estimator"] = {"kind": "closed-form"}
    elif choice == "trajectories":
        doc["estimator"] = trajectories_estimator(draw, min_traj=2)
    return doc


def three_level_rates(draw, table):
    table["rabi"] = draw(positive)
    optional(table, "detuning", finite, draw)
    table["gamma_strong"] = draw(positive)
    table["gamma_shelve"] = draw(st.floats(0.0, 0.1)) * table["gamma_strong"]
    table["gamma_deshelve"] = draw(st.floats(0.0, 2.0))


@st.composite
def telegraph_docs(draw):
    params = {}
    three_level_rates(draw, params)
    rabi2 = params["rabi"] ** 2
    excited = (rabi2 / 4.0) / (params.get("detuning", 0.0) ** 2 + rabi2 / 2.0
                               + params["gamma_strong"] ** 2 / 4.0)
    # bins wide enough for the bright-count floor of 5, and a grid that
    # spans at least two of them
    params["bin_width"] = (5.0 / (params["gamma_strong"] * excited)
                           * draw(st.floats(1.01, 3.0)))
    optional(params, "dark_threshold", st.integers(0, 5), draw)
    t_end = params["bin_width"] * draw(st.floats(2.01, 10.0))
    return {"scenario": "three-level-telegraph", "params": params,
            "grid": {"t_end": t_end, "n_steps": draw(st.integers(1, 10**6))},
            "estimator": trajectories_estimator(draw)}


@st.composite
def damped_oscillator_docs(draw):
    alpha = st.one_of(st.floats(-1.5, 1.5),
                      st.tuples(st.floats(-1.0, 1.0),
                                st.floats(-1.0, 1.0)).map(list))
    params = {"omega": draw(number), "n_fock": draw(st.integers(40, 60)),
              "alpha1": draw(alpha), "alpha2": draw(alpha)}
    optional(params, "gamma", st.floats(0.0, 2.0), draw)
    optional(params, "n_thermal", st.floats(0.0, 2.0), draw)
    return {"scenario": "damped-oscillator", "params": params,
            "grid": draw(grids())}


@st.composite
def unraveling_docs(draw):
    if draw(st.booleans()):
        model = {"kind": "two-level-decay", "gamma": draw(st.floats(0.0, 5.0))}
    else:
        model = {"kind": "three-level"}
        three_level_rates(draw, model)
    params = {"model": model}
    optional(params, "threshold", positive, draw)
    return {"scenario": "unraveling-check", "params": params,
            "grid": draw(grids()), "estimator": trajectories_estimator(draw)}


VALID_DOCS = {
    "central-spin": central_spin_docs(),
    "spin-echo": spin_echo_docs(),
    "disorder": disorder_docs(),
    "three-level-telegraph": telegraph_docs(),
    "damped-oscillator": damped_oscillator_docs(),
    "unraveling-check": unraveling_docs(),
}


@st.composite
def with_output(draw, docs):
    doc = draw(docs)
    doc["output"] = {"path": draw(st.text(min_size=1, max_size=12))}
    if draw(st.booleans()):
        doc["output"]["format"] = "csv"
    return doc


def test_generators_cover_every_scenario():
    assert set(VALID_DOCS) == set(SCENARIOS)


@pytest.mark.parametrize("scenario", list(VALID_DOCS))
@PINNED
@given(data=st.data())
def test_emit_parse_round_trip(scenario, data):
    config = parse_config_table(data.draw(with_output(VALID_DOCS[scenario])))
    text = emit_config(config)
    again = parse_config(text)
    assert again == config
    assert config_hash(again) == config_hash(config)
    assert emit_config(again) == text


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner,
                                     max_size=4)),
    max_leaves=8)
# Drawn as often as every other JSON value: magnitudes that overflow float
# conversion (integers beyond 2**1024) or the arithmetic of the model
# constructors.
huge_numbers = (st.floats(min_value=1e150) | st.floats(max_value=-1e150)
                | st.integers(min_value=2**1024)
                | st.integers(max_value=-2**1024))


def leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


@pytest.mark.parametrize("scenario", list(SCENARIOS))
@settings(PINNED, max_examples=150)
@given(data=st.data())
def test_any_leaf_replacement_parses_or_raises_configuration_error(
        scenario, data):
    doc = copy.deepcopy(minimal_config(scenario))
    path = data.draw(st.sampled_from(list(leaf_paths(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(json_values | huge_numbers)
    try:
        parse_config_table(doc)
    except ConfigurationError:
        pass


@st.composite
def records(draw):
    every = draw(st.integers(1, 4))
    n_steps = every * draw(st.integers(1, 20))
    t_start = draw(finite)
    grid = TimeGrid(t_start, t_start + draw(st.floats(1e-3, 1e3)), n_steps,
                    every)
    dim = draw(st.integers(1, 4))
    steps = draw(st.lists(st.integers(1, n_steps), unique=True, max_size=6))
    jump_times = [grid.t_start + k * grid.dt for k in sorted(steps)]
    snapshots = []
    for _ in range(grid.n_samples):
        # signed zeros are drawn often: their sign must survive the text
        part = st.sampled_from([0.0, -0.0]) | finite
        v = np.empty(dim, dtype=np.complex128)
        v.real = [1.0 + draw(st.floats(0.0, 1.0))] + draw(
            st.lists(part, min_size=dim - 1, max_size=dim - 1))
        v.imag = draw(st.lists(part, min_size=dim, max_size=dim))
        snapshots.append(v / np.linalg.norm(v))
    return TrajectoryRecord(
        seed=draw(st.integers(0, 2**64 - 1)),
        stream=draw(st.integers(0, 2**31)), dim=dim, grid=grid,
        jump_times=np.array(jump_times, dtype=np.float64),
        jump_channels=np.array(draw(st.lists(
            st.integers(0, 5), min_size=len(steps), max_size=len(steps))),
            dtype=np.int64),
        snapshots=np.array(snapshots))


@PINNED
@given(record=records())
def test_record_text_round_trip_is_exact(record):
    again = record_from_text(record_to_text(record))
    assert (again.seed, again.stream, again.dim, again.grid) == (
        record.seed, record.stream, record.dim, record.grid)
    for name in ("jump_times", "jump_channels", "snapshots"):
        a, b = getattr(again, name), getattr(record, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@st.composite
def jump_ensembles(draw):
    """A small model, start state and grid for the jump engine: d = 2 or 3,
    decay channels between levels with rates that may be zero, at most
    one dephasing channel, and either no Hamiltonian (every decay then
    ends in an absorbing ground state) or a real symmetric one."""
    d = draw(st.sampled_from([2, 3]))
    rate = st.sampled_from([0.0, 0.4, 1.0])
    channels = []
    for hi in range(1, d):
        lower = np.zeros((d, d))
        lower[draw(st.integers(0, hi - 1)), hi] = 1.0
        channels.append((lower, draw(rate)))
    if draw(st.booleans()):
        channels.append((np.diag(np.arange(d, dtype=float)) / d, draw(rate)))
    h = np.zeros((d, d))
    if draw(st.booleans()):
        a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d,
                                   max_size=d * d))).reshape(d, d)
        h = a + a.T
    psi = np.zeros(d)
    psi[draw(st.integers(0, d - 1))] = 1.0
    if draw(st.booleans()):
        psi = psi + np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d,
                                           max_size=d)))
        if np.linalg.norm(psi) < 0.1:
            psi[0] = 1.0
    every = draw(st.sampled_from([1, 3, 64]))
    n_steps = every * draw(st.integers(1, 200 // every + 1))
    # dt <= 0.03 keeps every per-step jump probability below the 0.1 cap
    dt = draw(st.floats(0.005, 0.03))
    grid = TimeGrid(0.0, n_steps * dt, n_steps, sample_every=every)
    state = QuantumState.pure(psi / np.linalg.norm(psi))
    return (LindbladModel(h, channels), state, grid, draw(st.integers(1, 6)),
            draw(st.integers(0, 2**64 - 1)), draw(st.sampled_from([1, 3, 64])))


@settings(PINNED, max_examples=25)
@given(case=jump_ensembles())
def test_every_ensemble_row_equals_its_solo_run(case):
    model, state, grid, n_traj, seed, chunk = case
    with mock.patch.object(tj, "_MAX_CHUNK", chunk):
        batch = run_ensemble(state, model, grid, n_traj, seed)
    for rec in batch:
        solo = run_trajectory(state, model, grid, seed, rec.stream)
        assert np.array_equal(rec.snapshots, solo.snapshots)
        assert np.array_equal(rec.jump_times, solo.jump_times)
        assert np.array_equal(rec.jump_channels, solo.jump_channels)
