"""Quantum-jump engine: randomness contract, reproducibility, statistics."""

import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import kstest

import decosim.trajectories as tj
from decosim.config import parse_config_table
from decosim.errors import (ConfigurationError, DimensionError, DomainError,
                            StateError)
from decosim.evolution import LindbladModel, TimeGrid, two_level_decay_model
from decosim.evolution import (amplitude_damping_kraus, apply_kraus,
                               integrate_master, lindblad_rhs)
from decosim.hilbert import QuantumState
from decosim.models.oscillator import (DampedOscillatorParams,
                                       oscillator_model, superposition_state)
from decosim.models.three_level import (ThreeLevelParams, ground_state,
                                        three_level_model)
from decosim.trajectories import (TrajectoryBatch, TrajectoryRecord, aggregate,
                                  record_from_text, record_to_text,
                                  run_ensemble, run_trajectory,
                                  unraveling_equivalence_report)

from cli_cases import minimal_config
from oracles import continuation_einsum, lindblad_rhs_loops, mcwf_scalar

LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SZ = np.diag([0.5, -0.5]).astype(complex)
SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)


def _driven_decay_model():
    h = 0.9 * SX
    return LindbladModel(h, [(LOWER, 0.8), (SZ, 0.5)])


def _plus_state():
    return QuantumState.pure(np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_engine_matches_scalar_event_oracle():
    """The batched engine must agree with a one-event-at-a-time rerun of the
    documented unraveling: same jump decisions, same channels, same states."""
    model = _driven_decay_model()
    grid = TimeGrid(0.0, 4.0, 400, sample_every=40)
    state = _plus_state()
    h_eff = model.h.astype(complex).copy()
    for op, rate in model.channels:
        h_eff -= 0.5j * rate * (op.conj().T @ op)
    e_step = expm(-1j * grid.dt * h_eff)

    total_jumps = 0
    for stream in range(6):
        rec = run_trajectory(state, model, grid, seed=314, stream=stream)
        snaps, jt, jc = mcwf_scalar(
            state.data, e_step, list(model.channels), grid.t_start, grid.dt,
            grid.n_steps, grid.sample_every, seed=314, stream=stream)
        assert np.array_equal(rec.jump_channels, jc)
        assert np.array_equal(rec.jump_times, jt)
        assert np.allclose(rec.snapshots, snaps, atol=1e-10)
        total_jumps += jt.size
    assert total_jumps >= 5      # the comparison actually exercised jumps


def test_jump_times_lie_on_step_ends():
    model = _driven_decay_model()
    grid = TimeGrid(0.0, 4.0, 400, sample_every=400)
    rec = run_trajectory(_plus_state(), model, grid, seed=99, stream=3)
    assert rec.jump_times.size > 0
    steps = rec.jump_times / grid.dt
    assert np.max(np.abs(steps - np.round(steps))) < 1e-9


def test_reruns_are_bit_identical():
    model = _driven_decay_model()
    grid = TimeGrid(0.0, 2.0, 200, sample_every=20)
    a = run_trajectory(_plus_state(), model, grid, seed=5, stream=2)
    b = run_trajectory(_plus_state(), model, grid, seed=5, stream=2)
    assert np.array_equal(a.snapshots, b.snapshots)
    assert np.array_equal(a.jump_times, b.jump_times)
    c = run_trajectory(_plus_state(), model, grid, seed=6, stream=2)
    assert not np.array_equal(a.snapshots, c.snapshots)


def test_batching_never_changes_results(monkeypatch):
    # identical records whether streams run alone, in small chunks, in one
    # big batch, or split over worker processes
    model = _driven_decay_model()
    grid = TimeGrid(0.0, 2.0, 200, sample_every=20)
    state = _plus_state()
    base = run_ensemble(state, model, grid, n_traj=17, seed=42)
    assert [r.stream for r in base] == list(range(17))

    monkeypatch.setattr(tj, "_MAX_CHUNK", 4)     # 4+4+4+4+1, solo remainder
    small = run_ensemble(state, model, grid, n_traj=17, seed=42)
    monkeypatch.undo()

    for ra, rb in zip(base, small):
        assert ra.stream == rb.stream
        assert np.array_equal(ra.snapshots, rb.snapshots)
        assert np.array_equal(ra.jump_times, rb.jump_times)
        assert np.array_equal(ra.jump_channels, rb.jump_channels)

    for s in (0, 7, 16):
        solo = run_trajectory(state, model, grid, seed=42, stream=s)
        assert np.array_equal(solo.snapshots, base[s].snapshots)
        assert np.array_equal(solo.jump_times, base[s].jump_times)

    split = run_ensemble(state, model, grid, n_traj=17, seed=42, workers=2)
    for ra, rb in zip(base, split):
        assert ra.stream == rb.stream
        assert np.array_equal(ra.snapshots, rb.snapshots)
        assert np.array_equal(ra.jump_times, rb.jump_times)


@pytest.mark.parametrize("case", ["three-level", "oscillator-fock40"])
def test_single_trajectory_equals_its_ensemble_row(case):
    # a row computed alone and the same row inside a batch share every bit
    if case == "three-level":
        model = three_level_model(ThreeLevelParams(2.0, 0.3, 1.0, 0.05, 0.05))
        state = ground_state()
        grid = TimeGrid(0.0, 5.0, 250, sample_every=50)
    else:
        params = DampedOscillatorParams(1.0, 0.2, 0.3, 40, (1.5,))
        model = oscillator_model(params)
        state = superposition_state([1.0], params.alphas, params.n_fock)
        grid = TimeGrid(0.0, 2.0, 100, sample_every=25)
    batch = run_ensemble(state, model, grid, n_traj=9, seed=21)
    assert sum(r.jump_times.size for r in batch) >= 3
    for s in (0, 4, 8):
        solo = run_trajectory(state, model, grid, seed=21, stream=s)
        assert np.array_equal(solo.snapshots, batch[s].snapshots)
        assert np.array_equal(solo.jump_times, batch[s].jump_times)
        assert np.array_equal(solo.jump_channels, batch[s].jump_channels)


def test_record_text_round_trip_is_exact():
    model = _driven_decay_model()
    grid = TimeGrid(0.0, 2.0, 200, sample_every=20)
    rec = run_trajectory(_plus_state(), model, grid, seed=8, stream=1)
    text = record_to_text(rec)
    assert text.startswith("decosim-trajectory-record v1\n")
    assert text.endswith("end\n")
    back = record_from_text(text)
    assert back.seed == rec.seed and back.stream == rec.stream
    assert back.grid == rec.grid
    assert np.array_equal(back.snapshots, rec.snapshots)
    assert np.array_equal(back.jump_times, rec.jump_times)
    assert np.array_equal(back.jump_channels, rec.jump_channels)


def test_record_from_text_rejects_garbage():
    with pytest.raises(ConfigurationError):
        record_from_text("not a record\n")
    model = _driven_decay_model()
    grid = TimeGrid(0.0, 1.0, 100, sample_every=100)
    text = record_to_text(run_trajectory(_plus_state(), model, grid, seed=1))
    with pytest.raises(ConfigurationError):
        record_from_text(text.replace("end", "dne"))
    with pytest.raises(ConfigurationError):
        record_from_text("\n".join(text.split("\n")[:4]))


def test_record_validation():
    grid = TimeGrid(0.0, 1.0, 10, sample_every=10)
    snaps = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(DomainError):
        TrajectoryRecord(seed=0, stream=0, dim=2, grid=grid,
                         jump_times=np.array([0.5, 0.5]),
                         jump_channels=np.array([0, 0]), snapshots=snaps)
    with pytest.raises(DomainError):
        TrajectoryRecord(seed=0, stream=0, dim=2, grid=grid,
                         jump_times=np.array([1.5]),
                         jump_channels=np.array([0]), snapshots=snaps)
    with pytest.raises(DimensionError):
        TrajectoryRecord(seed=0, stream=0, dim=2, grid=grid,
                         jump_times=np.array([0.5]),
                         jump_channels=np.array([0, 1]), snapshots=snaps)
    with pytest.raises(StateError):
        TrajectoryRecord(seed=0, stream=0, dim=2, grid=grid,
                         jump_times=np.empty(0), jump_channels=np.empty(0),
                         snapshots=2.0 * snaps)


def test_record_rejects_nan():
    grid = TimeGrid(0.0, 1.0, 10, sample_every=10)
    snaps = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    nan_snaps = snaps.copy()
    nan_snaps[1, 0] = np.nan
    with pytest.raises(StateError):
        TrajectoryRecord(seed=0, stream=0, dim=2, grid=grid,
                         jump_times=np.empty(0), jump_channels=np.empty(0),
                         snapshots=nan_snaps)
    for times in ([np.nan], [np.nan, 0.7], [0.2, np.nan]):
        with pytest.raises(DomainError):
            TrajectoryRecord(seed=0, stream=0, dim=2, grid=grid,
                             jump_times=np.array(times),
                             jump_channels=np.zeros(len(times), dtype=int),
                             snapshots=snaps)
    lines = record_to_text(TrajectoryRecord(
        seed=0, stream=0, dim=2, grid=grid, jump_times=np.array([0.5]),
        jump_channels=np.array([0]), snapshots=snaps)).split("\n")
    assert lines[6].startswith("0.5 ") and lines[9].startswith("1 ")
    with pytest.raises(DomainError):
        record_from_text("\n".join(lines[:6] + ["nan 0"] + lines[7:]))
    with pytest.raises(StateError):
        record_from_text("\n".join(lines[:9] + ["nan 0 0 0"] + lines[10:]))


def test_record_from_text_rejects_trailing_text():
    model = _driven_decay_model()
    grid = TimeGrid(0.0, 1.0, 100, sample_every=100)
    text = record_to_text(run_trajectory(_plus_state(), model, grid, seed=1))
    with pytest.raises(ConfigurationError,
                       match="malformed trajectory record: trailing text"):
        record_from_text(text + text)
    with pytest.raises(ConfigurationError,
                       match="malformed trajectory record: trailing text"):
        record_from_text(text + "extra\n")
    assert record_from_text(text + "\n\n").stream == 0

@pytest.mark.parametrize("line, bad", [
    (1, "bogus 1"), (2, "stream 0 0"), (3, "xyz 2 9 9"),
    (4, "grid 0 1 10 10 1"), (4, "grid 0 1 10"), (5, "jumps 1 extra"),
    (7, "snapshot 2"), (7, "snapshots")])
def test_record_from_text_checks_each_header_line(line, bad):
    grid = TimeGrid(0.0, 1.0, 10, sample_every=10)
    lines = record_to_text(TrajectoryRecord(
        seed=0, stream=0, dim=2, grid=grid, jump_times=np.array([0.5]),
        jump_channels=np.array([0]),
        snapshots=np.eye(2, dtype=complex)[[0, 0]])).split("\n")
    assert record_from_text("\n".join(lines)).stream == 0
    lines[line] = bad
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"malformed trajectory record: line "
                                       f"{line + 1} {bad!r}")):
        record_from_text("\n".join(lines))


def test_zero_rate_channel_runs_unitary():
    h = 1.3 * SX
    model = LindbladModel(h, [(LOWER, 0.0)])
    grid = TimeGrid(0.0, 2.0, 200, sample_every=50)
    rec = run_trajectory(QuantumState.pure([1.0, 0.0]), model, grid, seed=3)
    assert rec.jump_times.size == 0
    for t, snap in zip(grid.sample_times(), rec.snapshots):
        want = expm(-1j * h * t) @ np.array([1.0, 0.0])
        assert np.max(np.abs(snap - want)) < 1e-10


def test_zero_rate_channel_keeps_the_other_channel_index():
    channels = [(SZ, 0.0), (LOWER, 0.8)]
    model = LindbladModel(0.9 * SX, channels)
    rho = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
    assert np.allclose(lindblad_rhs(model, rho),
                       lindblad_rhs_loops(0.9 * SX, channels, rho),
                       atol=1e-12)
    grid = TimeGrid(0.0, 4.0, 400, sample_every=400)
    records = run_ensemble(_plus_state(), model, grid, n_traj=8, seed=13)
    channels_seen = np.concatenate([r.jump_channels for r in records])
    assert channels_seen.size > 0
    assert np.all(channels_seen == 1)


def test_jump_probability_cap_rejects_coarse_grid():
    model = two_level_decay_model(100.0)
    grid = TimeGrid(0.0, 1.0, 10)     # gamma * dt = 1 per step
    with pytest.raises(ConfigurationError, match="jump probability"):
        run_trajectory(QuantumState.pure([0.0, 1.0]), model, grid, seed=0)


@pytest.mark.filterwarnings("ignore:gamma_shelve is not small")
@pytest.mark.parametrize("rate", ["gamma_strong", "gamma_shelve",
                                  "gamma_deshelve"])
def test_jump_probability_cap_rejects_a_non_finite_propagator(rate):
    """At a rate of 1e200, exp(-i dt H_eff) is not finite and every jump
    probability is NaN: the cap refuses the grid, as it does p > 0.1."""
    rates = {"gamma_strong": 8.0, "gamma_shelve": 0.05,
             "gamma_deshelve": 0.1, rate: 1e200}
    model = three_level_model(ThreeLevelParams(rabi=8.0, detuning=0.0,
                                               **rates))
    grid = TimeGrid(0.0, 1.0, 400)
    with pytest.raises(ConfigurationError, match=r"probability nan .* "
                       r"at t = 0\.0025.* too coarse"):
        run_trajectory(ground_state(), model, grid, seed=0)
    with pytest.raises(ConfigurationError, match="too coarse"):
        run_ensemble(ground_state(), model, grid, n_traj=20, seed=0)


def _engine_generators():
    """name -> -i dt H_eff, the argument of the engine's expm: every
    trajectory minimal_config, the telegraph-narrow and unravel-wide-w2
    benchmark workloads, and a lower triangular H_eff (H_01 = (i/2) K_01
    zeroes H_eff_01) at a small and a large step."""
    models = {}
    for scenario in ("three-level-telegraph", "unraveling-check"):
        cfg = parse_config_table(minimal_config(scenario))
        models[scenario] = (cfg.model[0] if isinstance(cfg.model, tuple)
                            else three_level_model(cfg.model), cfg.grid.dt)
    models["telegraph-narrow"] = (three_level_model(
        ThreeLevelParams(40.0, 0.0, 30.0, 0.1, 0.25)), 50.0 / 20000)
    models["unravel-wide-w2"] = (three_level_model(
        ThreeLevelParams(2.0, 0.5, 1.0, 0.05, 0.15)), 10.0 / 1000)
    jump = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    h = np.array([[0.3, 0.5j], [-0.5j, -0.2]])      # K_01 = 1
    for dt in (0.01, 3.0):
        models[f"triangular-{dt}"] = (LindbladModel(h, [(jump, 1.0)]), dt)
    return {name: -1j * dt * model._h_eff
            for name, (model, dt) in models.items()}


def _relative_difference(got, want):
    return np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)


@pytest.mark.parametrize("name", list(_engine_generators()))
def test_expm_port_matches_scipy_on_the_engine_generators(name):
    a = _engine_generators()[name]
    if name.startswith("triangular"):
        assert a[0, 1] == 0 and a[1, 0] != 0
    assert _relative_difference(tj.expm(a), expm(a)) <= 1e-13


def test_expm_port_matches_scipy_on_random_matrices():
    rng = np.random.default_rng(36)
    for _ in range(200):
        n = rng.integers(2, 9)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a *= 10.0 ** rng.uniform(-4.0, math.log10(30.0)) / np.abs(a).sum(
            axis=0).max()
        assert _relative_difference(tj.expm(a), expm(a)) <= 1e-13


def test_expm_port_is_exact_on_a_diagonal():
    # absorbed rows need E |g> = |g> bit for bit on a diagonal H_eff
    a = np.diag([0.0, -0.37j - 0.2, 1.5 + 2.0j, -1e-3j])
    want = np.diag(np.exp(np.diag(a)))
    assert tj.expm(a).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:gamma_shelve is not small")
@pytest.mark.parametrize("rate", ["gamma_strong", "gamma_shelve",
                                  "gamma_deshelve"])
def test_expm_port_of_an_overflowing_generator_is_nan_without_warning(rate):
    rates = {"gamma_strong": 8.0, "gamma_shelve": 0.05,
             "gamma_deshelve": 0.1, rate: 1e200}
    model = three_level_model(ThreeLevelParams(rabi=8.0, detuning=0.0,
                                               **rates))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = tj.expm(-1j * 0.0025 * model._h_eff)
    assert e.shape == (3, 3) and np.isnan(e).all()


def test_waiting_time_distribution():
    """First-jump times of pure decay follow the exponential law."""
    gamma = 1.0
    model = two_level_decay_model(gamma)
    t_end = 15.0
    grid = TimeGrid(0.0, t_end, 10000, sample_every=10000)
    records = run_ensemble(QuantumState.pure([0.0, 1.0]), model, grid,
                           n_traj=10_000, seed=2024)
    waits = np.array([r.jump_times[0] for r in records if r.jump_times.size])
    assert waits.size > 9_990
    # condition on jumping before t_end (the censored tail is ~3e-7)
    norm = 1.0 - np.exp(-gamma * t_end)
    stat = kstest(waits, lambda t: (1.0 - np.exp(-gamma * t)) / norm).statistic
    assert stat < 0.02


def test_channel_branching_ratio():
    # V configuration: |1> decays to |0> at 1.0 and to |2> at 0.5; channel
    # frequencies must split 2:1
    l_a = np.zeros((3, 3), dtype=complex)
    l_a[0, 1] = 1.0
    l_b = np.zeros((3, 3), dtype=complex)
    l_b[2, 1] = 1.0
    model = LindbladModel(np.zeros((3, 3)), [(l_a, 1.0), (l_b, 0.5)])
    grid = TimeGrid(0.0, 10.0, 2000, sample_every=2000)
    records = run_ensemble(QuantumState.pure([0.0, 1.0, 0.0]), model, grid,
                           n_traj=3000, seed=77)
    counts = np.zeros(2)
    for r in records:
        assert r.jump_times.size == 1     # absorbing final states
        counts[r.jump_channels[0]] += 1
    frac = counts[0] / counts.sum()
    sigma = np.sqrt((2.0 / 3.0) * (1.0 / 3.0) / 3000.0)
    assert abs(frac - 2.0 / 3.0) < 4.0 * sigma


def test_aggregate_is_permutation_invariant():
    model = _driven_decay_model()
    grid = TimeGrid(0.0, 2.0, 200, sample_every=40)
    records = run_ensemble(_plus_state(), model, grid, n_traj=12, seed=9)
    est = aggregate(records)
    rng = np.random.default_rng(0)
    shuffled = list(records)
    rng.shuffle(shuffled)
    est2 = aggregate(shuffled)
    assert est.n_traj == est2.n_traj == 12
    for a, b in zip(est.mean_states, est2.mean_states):
        assert np.array_equal(a.data, b.data)
    assert np.array_equal(est.population_stderr, est2.population_stderr)


def test_aggregate_mean_and_stderr():
    model = two_level_decay_model(1.0)
    grid = TimeGrid(0.0, 1.0, 200, sample_every=200)
    records = run_ensemble(QuantumState.pure([0.0, 1.0]), model, grid,
                           n_traj=400, seed=4)
    est = aggregate(records)
    p_excited = est.mean_states[-1].data[1, 1].real
    se = est.population_stderr[-1, 1]
    assert se > 0.0
    assert abs(p_excited - np.exp(-1.0)) < 4.0 * se + 1e-3

    single = aggregate(records[:1])
    assert np.all(single.population_stderr == 0.0)


def test_aggregate_validation():
    model = two_level_decay_model(1.0)
    g1 = TimeGrid(0.0, 1.0, 100, sample_every=100)
    g2 = TimeGrid(0.0, 2.0, 100, sample_every=100)
    r1 = run_trajectory(QuantumState.pure([0.0, 1.0]), model, g1, seed=0)
    r2 = run_trajectory(QuantumState.pure([0.0, 1.0]), model, g2, seed=0)
    with pytest.raises(DimensionError):
        aggregate([r1, r2])
    with pytest.raises(DimensionError):
        aggregate([])


def test_equivalence_report():
    model = _driven_decay_model()
    grid = TimeGrid(0.0, 3.0, 600, sample_every=60)
    report = unraveling_equivalence_report(_plus_state(), model, grid,
                                           n_traj=400, seed=12)
    assert report.n_traj == 400
    assert report.threshold == pytest.approx(5.0 / np.sqrt(400.0))
    assert report.trace_distances.shape == grid.sample_times().shape
    assert report.trace_distances[0] < 1e-12     # identical initial states
    assert report.passed
    assert report.max_trace_distance <= report.threshold

    tight = unraveling_equivalence_report(_plus_state(), model, grid,
                                          n_traj=50, seed=12, threshold=1e-6)
    assert not tight.passed
    assert tight.flagged.any()
    with pytest.raises(DomainError):
        unraveling_equivalence_report(_plus_state(), model, grid, n_traj=50,
                                      seed=12, threshold=0.0)


def test_equivalence_threshold_checked_before_the_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble ran before the threshold check")

    monkeypatch.setattr(tj, "run_ensemble", no_run)
    grid = TimeGrid(0.0, 1.0, 100)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError, match="threshold"):
            unraveling_equivalence_report(_plus_state(), _driven_decay_model(),
                                          grid, n_traj=50, seed=1,
                                          threshold=bad)


def test_input_validation():
    model = two_level_decay_model(1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    mixed = QuantumState.mixed(np.eye(2) / 2.0)
    with pytest.raises(StateError):
        run_trajectory(mixed, model, grid, seed=0)
    with pytest.raises(DimensionError):
        run_trajectory(QuantumState.pure([1.0, 0.0, 0.0]), model, grid, seed=0)
    good = QuantumState.pure([0.0, 1.0])
    with pytest.raises(ConfigurationError):
        run_trajectory(good, model, grid, seed=-1)
    with pytest.raises(ConfigurationError):
        run_trajectory(good, model, grid, seed=0, stream=-2)
    with pytest.raises(ConfigurationError):
        run_ensemble(good, model, grid, n_traj=0, seed=0)
    with pytest.raises(ConfigurationError):
        run_ensemble(good, model, grid, n_traj=4, seed=0, workers=0)


def test_seed_and_stream_at_or_above_2_64_are_rejected():
    model = two_level_decay_model(1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    good = QuantumState.pure([0.0, 1.0])
    bound = r"must be in \[0, 2\*\*64\)"
    with pytest.raises(ConfigurationError, match="seed " + bound):
        run_trajectory(good, model, grid, seed=2**64)
    with pytest.raises(ConfigurationError, match="stream " + bound):
        run_trajectory(good, model, grid, seed=0, stream=2**64)
    with pytest.raises(ConfigurationError, match="seed " + bound):
        run_ensemble(good, model, grid, n_traj=2, seed=2**64)
    top = run_trajectory(good, model, grid, seed=2**64 - 1, stream=2**64 - 1)
    assert top.seed == 2**64 - 1 and top.stream == 2**64 - 1


def test_record_from_text_rejects_out_of_range_keys():
    grid = TimeGrid(0.0, 1.0, 10, sample_every=10)
    snaps = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    lines = record_to_text(TrajectoryRecord(
        seed=0, stream=0, dim=2, grid=grid, jump_times=np.array([0.5]),
        jump_channels=np.array([0]), snapshots=snaps)).split("\n")
    assert lines[1:3] == ["seed 0", "stream 0"] and lines[6] == "0.5 0"
    bound = r"must be in \[0, 2\*\*64\)"
    with pytest.raises(ConfigurationError, match="seed " + bound):
        record_from_text("\n".join(lines[:1] + ["seed -5"] + lines[2:]))
    with pytest.raises(ConfigurationError, match="stream " + bound):
        record_from_text("\n".join(lines[:2] + [f"stream {2**64}"]
                                   + lines[3:]))
    with pytest.raises(DomainError, match="non-negative"):
        record_from_text("\n".join(lines[:6] + ["0.5 -3"] + lines[7:]))


def test_jump_on_last_step_may_round_past_t_end():
    # t_start + n_steps * dt lands 3.6e-12 past t_end = 31000, more than
    # an absolute 1e-12 but within a few ulps of the grid's magnitude
    grid = TimeGrid(0.0, 31000.0, 30000, sample_every=30000)
    last = 30000 * grid.dt
    assert last > grid.t_end
    snaps = np.tile([1.0 + 0j, 0.0], (grid.n_samples, 1))

    def record(jump_time):
        return TrajectoryRecord(seed=1, stream=0, dim=2, grid=grid,
                                jump_times=[jump_time], jump_channels=[0],
                                snapshots=snaps)

    assert record(last).jump_times[0] == last     # kept as stamped
    with pytest.raises(DomainError):
        record(grid.t_end * (1.0 + 1e-12))


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps inline."""

    seen = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.seen.append(len(tasks))
        return map(fn, tasks)


def test_workers_capped_at_cpu_count(monkeypatch):
    model = _driven_decay_model()
    grid = TimeGrid(0.0, 1.0, 100, sample_every=50)
    serial = run_ensemble(_plus_state(), model, grid, 12, seed=5)
    monkeypatch.setattr(tj.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(tj, "ProcessPoolExecutor", _SerialPool)
    _SerialPool.seen = []
    pooled = run_ensemble(_plus_state(), model, grid, 12, seed=5,
                          workers=1000)
    assert _SerialPool.seen == [3, 3]      # max_workers, stream ranges
    assert [r.stream for r in pooled] == list(range(12))
    for a, b in zip(pooled, serial):
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_channels, b.jump_channels)
        assert np.array_equal(a.snapshots, b.snapshots)


def test_ensemble_pools_whenever_it_has_two_runs(monkeypatch):
    """run_ensemble cuts its streams by the rule of the report, with a unit
    of one stream: three streams on two workers run as two runs."""
    model = _driven_decay_model()
    grid = TimeGrid(0.0, 1.0, 100, sample_every=50)
    serial = run_ensemble(_plus_state(), model, grid, 3, seed=5)
    monkeypatch.setattr(tj.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(tj, "ProcessPoolExecutor", _SerialPool)
    _SerialPool.seen = []
    pooled = run_ensemble(_plus_state(), model, grid, 3, seed=5, workers=2)
    assert _SerialPool.seen == [2, 2]      # max_workers, stream runs
    assert np.array_equal(pooled.streams, serial.streams)
    assert np.array_equal(pooled.snapshots, serial.snapshots)
    assert np.array_equal(pooled.jump_times, serial.jump_times)
    assert np.array_equal(pooled.jump_channels, serial.jump_channels)
    assert np.array_equal(pooled.offsets, serial.offsets)
    _SerialPool.seen = []
    run_ensemble(_plus_state(), model, grid, 1, seed=5, workers=2)
    assert _SerialPool.seen == []


def test_chunk_size_ignores_the_snapshots(monkeypatch):
    """The snapshots are held for every stream whatever the chunk, so they
    do not shrink it: 60 rows sampled on each of 20,000 steps run as one
    chunk, whose first pass sees every row."""
    passes = []
    continuation = tj._continuation

    def spy(psi, stacked):
        passes.append(len(psi))
        return continuation(psi, stacked)

    monkeypatch.setattr(tj, "_continuation", spy)
    model = three_level_model(ThreeLevelParams(2.0, 0.5, 1.0, 0.05, 0.15))
    grid = TimeGrid(0.0, 100.0, 20000, sample_every=1)
    run_ensemble(ground_state(), model, grid, 60, seed=1)
    assert passes[0] == 60

def _oracle_step(model, grid):
    h_eff = model.h.astype(complex).copy()
    for op, rate in model.channels:
        h_eff -= 0.5j * rate * (op.conj().T @ op)
    return expm(-1j * grid.dt * h_eff)


def _oracle_case(case):
    if case == "three-level-telegraph-rates":
        # sample_every = 1 and 1000 steps = 15 look-aheads of 64 plus 40
        model = three_level_model(ThreeLevelParams(40.0, 0.0, 30.0, 2.0, 5.0))
        return model, ground_state(), TimeGrid(0.0, 2.5, 1000, sample_every=1)
    if case == "oscillator-fock40":
        params = DampedOscillatorParams(1.0, 0.2, 0.3, 40, (1.5,))
        state = superposition_state([1.0], params.alphas, params.n_fock)
        return (oscillator_model(params), state,
                TimeGrid(0.0, 3.0, 300, sample_every=30))
    model = LindbladModel(0.9 * SX, [(SZ, 0.0), (LOWER, 0.8)])
    return model, _plus_state(), TimeGrid(0.0, 4.0, 400, sample_every=8)


@pytest.mark.parametrize("case", ["three-level-telegraph-rates",
                                  "oscillator-fock40", "zero-rate-channel"])
def test_engine_matches_scalar_oracle_on_more_models(case):
    model, state, grid = _oracle_case(case)
    e_step = _oracle_step(model, grid)
    channels_seen = set()
    for stream in range(4):
        rec = run_trajectory(state, model, grid, seed=2718, stream=stream)
        snaps, jt, jc = mcwf_scalar(
            state.data, e_step, list(model.channels), grid.t_start, grid.dt,
            grid.n_steps, grid.sample_every, seed=2718, stream=stream)
        assert np.array_equal(rec.jump_times, jt)
        assert np.array_equal(rec.jump_channels, jc)
        assert np.max(np.abs(rec.snapshots - snaps)) < 1e-10
        channels_seen.update(jc.tolist())
    expected = {"three-level-telegraph-rates": {0, 1, 2},
                "oscillator-fock40": {0, 1},
                "zero-rate-channel": {1}}[case]
    assert channels_seen == expected


def _cap_model():
    # driven decay from the ground state: along the no-jump path the
    # per-step jump probability climbs past 0.1 on the 53rd step, and a
    # jump usually comes first and resets the climb
    return LindbladModel(0.1 * SX, [(LOWER, 0.15)])


def _scalar_path(model, grid, seed, stream):
    """Per-step jump probabilities along the scalar oracle's trajectory,
    and the step index of every jump."""
    e_step = _oracle_step(model, grid)
    start = QuantumState.pure([1.0, 0.0])
    snaps, jt, _ = mcwf_scalar(start.data, e_step, list(model.channels),
                               grid.t_start, grid.dt, grid.n_steps, 1,
                               seed=seed, stream=stream)
    phi = snaps[:-1] @ e_step.T
    p_taken = 1.0 - np.einsum("ki,ki->k", phi.conj(), phi).real
    jump_steps = np.rint((jt - grid.t_start) / grid.dt).astype(int)
    return p_taken, jump_steps, snaps


def test_cap_ignores_no_jump_continuation_past_a_jump():
    model = _cap_model()
    grid = TimeGrid(0.0, 200.0, 200, sample_every=1)
    e_step = _oracle_step(model, grid)
    k = tj._LOOKAHEAD
    for stream in range(40):
        p_taken, jump_steps, snaps = _scalar_path(model, grid, 7, stream)
        if p_taken.max() >= tj.JUMP_PROBABILITY_CAP:
            continue
        # the continuation from some post-jump state, over the look-ahead
        # the engine computes there, climbs past the cap
        for s in jump_steps:
            phi = [snaps[s]]
            for _ in range(min(k, grid.n_steps - s)):
                phi.append(e_step @ phi[-1])
            nrm2 = np.array([np.vdot(v, v).real for v in phi])
            if np.max(1.0 - nrm2[1:] / nrm2[:-1]) > tj.JUMP_PROBABILITY_CAP:
                break
        else:
            continue
        break
    else:
        pytest.fail("no stream meets the precondition")
    rec = run_trajectory(QuantumState.pure([1.0, 0.0]), model, grid, seed=7,
                         stream=stream)
    assert np.array_equal(np.rint(rec.jump_times).astype(int), jump_steps)
    assert np.max(np.abs(rec.snapshots - snaps)) < 1e-10


def test_cap_error_names_the_earliest_violating_step():
    model = _cap_model()
    grid = TimeGrid(0.0, 200.0, 200, sample_every=1)
    for stream in range(40):
        p_taken, jump_steps, _ = _scalar_path(model, grid, 11, stream)
        over = np.nonzero(p_taken > tj.JUMP_PROBABILITY_CAP)[0]
        # a jump came first, so the violation sits on the row's own clock
        if over.size and jump_steps.size and jump_steps[0] < over[0]:
            break
    else:
        pytest.fail("no stream meets the precondition")
    step = over[0] + 1
    t_step = grid.t_start + step * grid.dt
    with pytest.raises(ConfigurationError) as err:
        run_trajectory(QuantumState.pure([1.0, 0.0]), model, grid, seed=11,
                       stream=stream)
    assert (f"probability {p_taken[over[0]]:.3e} exceeds" in str(err.value))
    assert f"at t = {t_step:.17g};" in str(err.value)


def test_sampling_never_changes_jumps():
    model = three_level_model(ThreeLevelParams(40.0, 0.0, 30.0, 2.0, 5.0))
    dense = run_ensemble(ground_state(), model,
                         TimeGrid(0.0, 2.5, 1000, sample_every=1), 5, seed=6)
    sparse = run_ensemble(ground_state(), model,
                          TimeGrid(0.0, 2.5, 1000, sample_every=1000), 5,
                          seed=6)
    assert sum(r.jump_times.size for r in dense) > 0
    for a, b in zip(dense, sparse):
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_channels, b.jump_channels)
        assert np.array_equal(a.snapshots[::1000], b.snapshots)


def _batch_fields(**changes):
    """A valid three-row batch: row 0 jumps twice, row 1 never, row 2
    twice, so the jump times drop from 0.9 to 0.2 across rows."""
    fields = dict(seed=0, streams=[4, 5, 6], dim=2,
                  grid=TimeGrid(0.0, 1.0, 10, sample_every=10),
                  snapshots=np.tile([1.0 + 0j, 0.0], (3, 2, 1)),
                  jump_times=[0.3, 0.9, 0.2, 0.5], jump_channels=[0, 1, 0, 0],
                  offsets=[0, 2, 2, 4])
    fields.update(changes)
    return fields


def test_batch_accepts_times_that_drop_across_rows():
    batch = TrajectoryBatch(**_batch_fields())
    assert [r.jump_times.tolist() for r in batch] == [[0.3, 0.9], [], [0.2, 0.5]]
    assert [r.stream for r in batch] == [4, 5, 6]
    assert batch.streams.dtype == np.uint64
    assert batch.jump_channels.dtype == np.int64


def _nan_row(row):
    snaps = np.tile([1.0 + 0j, 0.0], (3, 2, 1))
    snaps[row, 1, 0] = np.nan
    return snaps


@pytest.mark.parametrize("change, error, row", [
    ({"snapshots": _nan_row(2)}, StateError, 2),
    ({"snapshots": np.tile([1.0 + 0j, 0.0], (3, 2, 1)) * [[[1]], [[2]], [[1]]]},
     StateError, 1),
    ({"jump_times": [0.3, np.nan, 0.2, 0.5]}, DomainError, 0),
    ({"jump_times": [0.3, 0.9, 0.5, 0.5]}, DomainError, 2),
    ({"jump_times": [0.3, 0.9, 0.2, 1.5]}, DomainError, 2),
    ({"jump_times": [0.0, 0.9, 0.2, 0.5]}, DomainError, 0),
    ({"jump_channels": [0, 1, 0, -1]}, DomainError, 2),
    ({"streams": [4, -1, 6]}, ConfigurationError, 1),
    ({"streams": [4, 5, 2**64]}, ConfigurationError, 2),
])
def test_batch_rejects_what_a_record_rejects_and_names_the_row(change, error,
                                                                row):
    fields = _batch_fields(**change)
    with pytest.raises(error) as batch_err:
        TrajectoryBatch(**fields)
    a, b = fields["offsets"][row], fields["offsets"][row + 1]
    with pytest.raises(error) as record_err:
        TrajectoryRecord(seed=fields["seed"], stream=fields["streams"][row],
                         dim=2, grid=fields["grid"],
                         jump_times=np.array(fields["jump_times"][a:b]),
                         jump_channels=np.array(fields["jump_channels"][a:b]),
                         snapshots=fields["snapshots"][row])
    assert str(batch_err.value) == f"row {row} of 3: {record_err.value}"


@pytest.mark.parametrize("channels, row", [
    ([0, 1, 0, 1.7], 2), ([0, "1", 0, 0], 0), ([0, 1, True, 0], 2),
    ([0, 1, 0, 2**63], 2), ([0, 2**70, 0, 0], 0),
    (np.array([0.0, 1.0, 0.0, 0.0]), 0),
    (np.array([0, 1, 2**63, 0], dtype=np.uint64), 2)])
def test_batch_refuses_channels_that_are_not_int64_integers(channels, row):
    with pytest.raises(DomainError) as exc:
        TrajectoryBatch(**_batch_fields(jump_channels=channels))
    assert str(exc.value) == (f"row {row} of 3: jump channels must be "
                              "non-negative integers")


@pytest.mark.parametrize("offsets", [
    [0, 2.0, 2, 4], [0, "2", 2, 4], [0, 2, 2, True], [0, 2**63, 2, 4],
    [0, 2, 2**70, 4], np.array([0, 2, 2, 4], dtype=np.float64)])
def test_batch_refuses_offsets_that_are_not_int64_integers(offsets):
    with pytest.raises(DimensionError, match="^offsets must be integers"):
        TrajectoryBatch(**_batch_fields(offsets=offsets))


def test_integer_arrays_of_any_width_are_taken():
    batch = TrajectoryBatch(**_batch_fields(
        jump_channels=np.array([0, 1, 0, 0], dtype=np.uint8),
        offsets=np.array([0, 2, 2, 4], dtype=np.uint64)))
    assert batch.jump_channels.dtype == batch.offsets.dtype == np.int64
    assert batch.offsets.tolist() == [0, 2, 2, 4]


@pytest.mark.parametrize("channel", [2**63, 2**70])
def test_record_text_refuses_a_channel_past_int64(channel):
    lines = _text_lines()
    assert lines[6] == "0.5 0"
    lines[6] = f"0.5 {channel}"
    with pytest.raises(DomainError,
                       match="^jump channels must be non-negative integers$"):
        record_from_text("\n".join(lines))


def test_batch_layout_validation():
    bound = r"must be in \[0, 2\*\*64\)"
    with pytest.raises(ConfigurationError, match="^seed " + bound):
        TrajectoryBatch(**_batch_fields(seed=2**64))
    for change in ({"jump_channels": [0, 1, 0]}, {"offsets": [0, 2, 4]},
                   {"offsets": [0, 3, 2, 4]}, {"offsets": [1, 2, 2, 4]},
                   {"offsets": [0, 2, 2, 3]}, {"streams": [[4, 5, 6]]},
                   {"snapshots": np.tile([1.0 + 0j, 0.0], (2, 2, 1))}):
        with pytest.raises(DimensionError):
            TrajectoryBatch(**_batch_fields(**change))


def test_batch_slices_are_batches_and_items_round_trip_as_text():
    grid = TimeGrid(0.0, 2.0, 200, sample_every=50)
    batch = run_ensemble(_plus_state(), _driven_decay_model(), grid, 7, seed=3)
    assert isinstance(batch, TrajectoryBatch) and len(batch) == 7
    assert sum(r.jump_times.size for r in batch) > 0
    for key in (slice(2, 5), slice(None, None, -2), slice(6, 0, -3),
                slice(4, 4)):
        part = batch[key]
        rows = list(range(7))[key]
        assert isinstance(part, TrajectoryBatch)
        assert part.streams.tolist() == rows
        for rec, s in zip(part, rows):
            assert np.array_equal(rec.snapshots, batch[s].snapshots)
            assert np.array_equal(rec.jump_times, batch[s].jump_times)
            assert np.array_equal(rec.jump_channels, batch[s].jump_channels)
    assert batch[-1].stream == 6
    with pytest.raises(IndexError):
        batch[7]
    for rec in batch:
        back = record_from_text(record_to_text(rec))
        assert (back.seed, back.stream, back.dim, back.grid) == (
            rec.seed, rec.stream, rec.dim, rec.grid)
        for name in ("jump_times", "jump_channels", "snapshots"):
            a, b = getattr(back, name), getattr(rec, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_pickled_worker_batch_is_little_more_than_its_arrays():
    model = three_level_model(ThreeLevelParams(2.0, 0.5, 1.0, 0.05, 0.15))
    grid = TimeGrid(0.0, 10.0, 1000, sample_every=20)
    batch = tj._worker((ground_state().data, model, grid, 5,
                        np.arange(300, dtype=np.uint64)))
    assert batch.jump_times.size > 0
    arrays = sum(a.nbytes for a in (batch.streams, batch.snapshots,
                                    batch.jump_times, batch.jump_channels,
                                    batch.offsets))
    blob = pickle.dumps(batch)
    assert len(blob) <= 1.05 * arrays + 2048
    back = pickle.loads(blob)
    for name in ("streams", "snapshots", "jump_times", "jump_channels",
                 "offsets"):
        assert np.array_equal(getattr(back, name), getattr(batch, name))


def test_refilled_uniform_windows_change_nothing(monkeypatch):
    # telegraph rates: some rows jump more often than a full look-ahead
    # plus one, so even the default window refills
    model = three_level_model(ThreeLevelParams(40.0, 0.0, 30.0, 2.0, 5.0))
    grid = TimeGrid(0.0, 6.25, 2500, sample_every=10)
    base = run_ensemble(ground_state(), model, grid, 6, seed=8)
    assert np.diff(base.offsets).max() > tj._LOOKAHEAD + 1
    monkeypatch.setattr(tj, "_RNG_WINDOW", 70)
    small = run_ensemble(ground_state(), model, grid, 6, seed=8)
    for name in ("streams", "snapshots", "jump_times", "jump_channels",
                 "offsets"):
        assert np.array_equal(getattr(small, name), getattr(base, name))


def test_stream_reads_cover_whole_philox_blocks(monkeypatch):
    # A Philox counter step yields a block of four draws.  Every read must
    # start on a block (the generator's buffer of four is empty) and read
    # whole blocks, so no draw is generated and thrown away, even under a
    # window of 70 uniforms that a row refills on nearly every pass.
    reads = []

    class Counting(np.random.Generator):
        def random(self, size=None, dtype=np.float64, out=None):
            before = self.bit_generator.state["buffer_pos"]
            values = super().random(size, dtype, out)
            reads.append((before, np.size(values),
                          self.bit_generator.state["buffer_pos"]))
            return values

    model = three_level_model(ThreeLevelParams(40.0, 0.0, 30.0, 2.0, 5.0))
    grid = TimeGrid(0.0, 2.5, 1000, sample_every=10)
    base = run_ensemble(ground_state(), model, grid, 6, seed=8)
    monkeypatch.setattr(tj, "_RNG_WINDOW", 70)
    monkeypatch.setattr(np.random, "Generator", Counting)
    small = run_ensemble(ground_state(), model, grid, 6, seed=8)
    monkeypatch.undo()
    assert len(reads) > 6 * grid.n_steps // tj._LOOKAHEAD
    assert [(before, n % 4, after) for before, n, after in reads
            if (before, n % 4, after) != (4, 0, 4)] == []
    for name in ("streams", "snapshots", "jump_times", "jump_channels",
                 "offsets"):
        assert np.array_equal(getattr(small, name), getattr(base, name))


def test_aggregate_rejects_records_of_different_seeds():
    model = two_level_decay_model(1.0)
    grid = TimeGrid(0.0, 1.0, 100, sample_every=100)
    r1 = run_trajectory(QuantumState.pure([0.0, 1.0]), model, grid, seed=0)
    r2 = run_trajectory(QuantumState.pure([0.0, 1.0]), model, grid, seed=1,
                        stream=1)
    with pytest.raises(DimensionError, match="seeds"):
        aggregate([r1, r2])


def _spy_passes(monkeypatch):
    """Record the squared norms of the no-jump continuation of every pass,
    one (rows, horizon + 1) array each."""
    seen = []
    real = tj._sq_norms

    def spy(z):
        nrm2 = real(z)
        if nrm2.shape[1:] == (tj._LOOKAHEAD + 1,):
            seen.append(nrm2)
        return nrm2

    monkeypatch.setattr(tj, "_sq_norms", spy)
    return seen


@pytest.mark.parametrize("sample_every", [1, 5])
def test_absorbed_rows_finish_at_once_and_match_the_oracle(sample_every,
                                                           monkeypatch):
    # pure decay from |e>: after its jump the row sits in |g>, where no
    # step moves or decays it, so the pass after the jump finishes it
    model = two_level_decay_model(1.0)
    grid = TimeGrid(0.0, 20.0, 400, sample_every=sample_every)
    start = QuantumState.pure([0.0, 1.0])
    e_step = _oracle_step(model, grid)
    seen = _spy_passes(monkeypatch)
    checked = 0
    for stream in range(8):
        snaps, jt, jc = mcwf_scalar(
            start.data, e_step, list(model.channels), grid.t_start, grid.dt,
            grid.n_steps, sample_every, seed=17, stream=stream)
        if np.rint(jt[0] / grid.dt) > tj._LOOKAHEAD:
            continue                   # jumped after the first pass
        seen.clear()
        rec = run_trajectory(start, model, grid, seed=17, stream=stream)
        assert len(seen) == 2          # pass with the jump, then one more
        assert np.array_equal(rec.jump_times, jt)
        assert np.array_equal(rec.jump_channels, jc)
        after = grid.sample_times() >= jt[0]
        assert after.sum() > grid.n_samples // 2
        assert np.max(np.abs(rec.snapshots[after] - snaps[after])) < 1e-10
        assert np.max(np.abs(rec.snapshots - snaps)) < 1e-10
        checked += 1
    assert checked >= 4


def test_a_dark_state_whose_phase_turns_is_not_finished_early(monkeypatch):
    # |g> of H = diag(1.1, 0) never decays, so its passes have p = 0 up to
    # rounding, but its phase turns: no pass leaves psi as it was
    model = LindbladModel(np.diag([1.1, 0.0]), [(LOWER, 1.0)])
    grid = TimeGrid(0.0, 20.0, 400, sample_every=1)
    start = QuantumState.pure([1.0, 0.0])
    seen = _spy_passes(monkeypatch)
    rec = run_trajectory(start, model, grid, seed=3)
    assert len(seen) == -(-grid.n_steps // tj._LOOKAHEAD)   # every pass ran
    if not any((1.0 - n[:, 1:] / n[:, :-1]).max() <= 0.0 for n in seen):
        pytest.skip("no pass had p <= 0 on every step with this build")
    snaps, jt, _ = mcwf_scalar(
        start.data, _oracle_step(model, grid), list(model.channels),
        grid.t_start, grid.dt, grid.n_steps, 1, seed=3, stream=0)
    assert jt.size == 0 and rec.jump_times.size == 0
    assert np.max(np.abs(rec.snapshots - snaps)) < 1e-10
    assert abs(rec.snapshots[-1, 0] - rec.snapshots[0, 0]) > 0.1


@pytest.mark.parametrize("case", ["telegraph", "decay"])
def test_worker_rows_match_solo_runs_in_any_stream_order(case, monkeypatch):
    # out-of-order, non-contiguous streams under a window of 70 uniforms,
    # which a row refills on nearly every pass.  Decay rows finish at
    # different passes: stream 3 jumps on step 135, after the others have
    # left, so it refills from a compacted position.
    if case == "telegraph":
        model = three_level_model(ThreeLevelParams(40.0, 0.0, 30.0, 2.0, 5.0))
        start = ground_state()
        grid = TimeGrid(0.0, 2.5, 1000, sample_every=10)
    else:
        model = two_level_decay_model(0.5)
        start = QuantumState.pure([0.0, 1.0])
        grid = TimeGrid(0.0, 20.0, 400, sample_every=10)
    streams = np.array([9, 3, 5, 2], dtype=np.uint64)
    monkeypatch.setattr(tj, "_RNG_WINDOW", 70)
    batch = tj._worker((start.data, model, grid, 31, streams))
    monkeypatch.undo()
    assert batch.streams.tolist() == [9, 3, 5, 2]
    assert batch.jump_times.size > 0
    for rec in batch:
        solo = run_trajectory(start, model, grid, seed=31, stream=rec.stream)
        assert np.array_equal(rec.snapshots, solo.snapshots)
        assert np.array_equal(rec.jump_times, solo.jump_times)
        assert np.array_equal(rec.jump_channels, solo.jump_channels)


@pytest.mark.parametrize("sample_every", [1, 3])
def test_finished_rows_take_their_samples_from_the_pass_columns(
        sample_every, monkeypatch):
    # A propagator that swaps the two levels exactly: p = 0 on every step
    # and psi returns bitwise after the 64 steps of a pass, while the
    # columns in between alternate, so each filled sample must come from
    # the column of its own step.
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    monkeypatch.setattr(tj, "expm", lambda a: swap)
    model = LindbladModel(np.zeros((2, 2)), [(LOWER, 1.0)])
    grid = TimeGrid(0.0, 3.0, 300, sample_every=sample_every)
    start = QuantumState.pure([1.0, 0.0])
    seen = _spy_passes(monkeypatch)
    rec = run_trajectory(start, model, grid, seed=5)
    assert len(seen) == 1
    snaps, jt, _ = mcwf_scalar(start.data, swap, list(model.channels),
                               grid.t_start, grid.dt, grid.n_steps,
                               sample_every, seed=5, stream=0)
    assert jt.size == 0 and rec.jump_times.size == 0
    assert np.array_equal(rec.snapshots, snaps)
    assert not np.array_equal(rec.snapshots[1], rec.snapshots[2])


@pytest.mark.parametrize("sample_every", [64, 128, 160])
def test_absorbed_rows_fill_strides_of_a_look_ahead_or_more(sample_every,
                                                            monkeypatch):
    # strides of at least the 64-step look-ahead: the pass that finishes
    # a decayed row writes every later sample, several passes' worth
    model = two_level_decay_model(1.0)
    grid = TimeGrid(0.0, 32.0, 640, sample_every=sample_every)
    start = QuantumState.pure([0.0, 1.0])
    e_step = _oracle_step(model, grid)
    seen = _spy_passes(monkeypatch)
    checked = 0
    for stream in range(8):
        snaps, jt, jc = mcwf_scalar(
            start.data, e_step, list(model.channels), grid.t_start, grid.dt,
            grid.n_steps, sample_every, seed=23, stream=stream)
        if np.rint(jt[0] / grid.dt) > tj._LOOKAHEAD:
            continue                   # jumped after the first pass
        seen.clear()
        rec = run_trajectory(start, model, grid, seed=23, stream=stream)
        assert len(seen) == 2          # pass with the jump, then one more
        assert np.array_equal(rec.jump_times, jt)
        assert np.array_equal(rec.jump_channels, jc)
        assert np.max(np.abs(rec.snapshots - snaps)) < 1e-10
        checked += 1
    assert checked >= 4


def test_non_integer_keys_and_counts_are_refused_not_truncated():
    model = two_level_decay_model(1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    good = QuantumState.pure([0.0, 1.0])
    with pytest.raises(ConfigurationError,
                       match=r"^seed must be an integer, got 1\.5$"):
        run_trajectory(good, model, grid, seed=1.5, stream=2)
    with pytest.raises(ConfigurationError,
                       match=r"^stream must be an integer, got 2\.7$"):
        run_trajectory(good, model, grid, seed=1, stream=2.7)
    with pytest.raises(ConfigurationError,
                       match=r"^n_traj must be an integer, got 2\.9$"):
        run_ensemble(good, model, grid, n_traj=2.9, seed=7)
    with pytest.raises(ConfigurationError,
                       match="^seed must be an integer, got '7'$"):
        run_ensemble(good, model, grid, n_traj=2, seed="7")
    with pytest.raises(ConfigurationError,
                       match=r"^workers must be an integer, got 2\.0$"):
        run_ensemble(good, model, grid, n_traj=4, seed=7, workers=2.0)
    snaps = np.array([[0.0, 1.0]] * 101, dtype=complex)
    with pytest.raises(ConfigurationError,
                       match=r"^stream must be an integer, got 1\.5$"):
        TrajectoryRecord(seed=0, stream=1.5, dim=2, grid=grid,
                         jump_times=np.empty(0), jump_channels=np.empty(0),
                         snapshots=snaps)
    streams = np.array([4, 5.5, 6], dtype=object)
    with pytest.raises(ConfigurationError,
                       match=r"^row 1 of 3: stream must be an integer, "
                             r"got 5\.5$"):
        TrajectoryBatch(**_batch_fields(streams=streams))
    # numpy integers are integers
    rec = run_trajectory(good, model, grid, seed=np.uint64(1),
                         stream=np.int32(2))
    assert (rec.seed, rec.stream) == (1, 2)
    assert np.array_equal(
        rec.snapshots, run_trajectory(good, model, grid, 1, 2).snapshots)
    batch = run_ensemble(good, model, grid, n_traj=np.int64(3),
                         seed=np.int16(7), workers=np.uint8(1))
    assert batch.streams.tolist() == [0, 1, 2] and batch.seed == 7


def test_cap_check_names_the_earliest_step_over_all_rows():
    # row 0 is first in the array but its violation comes later on the
    # grid; row 2's violation lies past its taken steps and does not count
    grid = TimeGrid(0.0, 200.0, 200)
    p_jump = np.full((3, 8), 0.01)
    p_jump[0, 5], p_jump[1, 2], p_jump[2, 6] = 0.2, 0.3, 0.4
    taken = np.array([8, 3, 4])
    start = np.array([100, 10, 0])
    with pytest.raises(ConfigurationError,
                       match=r"probability 3\.000e-01 exceeds 0\.1 at "
                             r"t = 13;"):
        tj._check_cap(p_jump, taken, start, grid)
    taken[1] = 2        # row 1's violation is now past its taken steps
    with pytest.raises(ConfigurationError,
                       match=r"probability 2\.000e-01 exceeds 0\.1 at "
                             r"t = 106;"):
        tj._check_cap(p_jump, taken, start, grid)
    taken[0] = 5
    tj._check_cap(p_jump, taken, start, grid)     # nothing taken is over


def test_record_from_text_rejects_a_snapshot_line_of_the_wrong_width():
    grid = TimeGrid(0.0, 1.0, 100, sample_every=100)
    text = record_to_text(run_trajectory(_plus_state(), _driven_decay_model(),
                                         grid, seed=1))
    lines = text.split("\n")
    at = lines.index("end") - 1             # the last snapshot line
    lines[at] = " ".join(lines[at].split()[:3])
    with pytest.raises(ConfigurationError,
                       match="snapshot line 1 has 3 fields, expected 4"):
        record_from_text("\n".join(lines))


def test_ensemble_counts_have_a_lower_bound():
    model = two_level_decay_model(1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    good = QuantumState.pure([0.0, 1.0])
    for kwargs, message in (({"n_traj": 0}, "n_traj must be >= 1, got 0"),
                            ({"n_traj": 2, "workers": np.int64(0)},
                             "workers must be >= 1, got 0")):
        with pytest.raises(ConfigurationError) as exc:
            run_ensemble(good, model, grid, seed=1, **kwargs)
        assert str(exc.value) == message


def test_trajectory_state_and_model_dimensions_must_match():
    model = two_level_decay_model(1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    qutrit = QuantumState.pure([0.0, 1.0, 0.0])
    for call in (lambda: run_trajectory(qutrit, model, grid, seed=1),
                 lambda: run_ensemble(qutrit, model, grid, 2, seed=1)):
        with pytest.raises(DimensionError) as exc:
            call()
        assert str(exc.value) == ("state dimension 3 does not match model "
                                  "dimension 2")


def _record_fields(**changes):
    grid = TimeGrid(0.0, 1.0, 10, sample_every=5)
    fields = dict(seed=1, stream=2, dim=2, grid=grid,
                  jump_times=np.array([0.4]), jump_channels=np.array([0]),
                  snapshots=np.tile([0.6 + 0j, 0.8j], (3, 1)))
    fields.update(changes)
    return fields


def test_record_dim_must_be_an_integer():
    with pytest.raises(DimensionError,
                       match=r"^dim must be an integer, got 2\.0$"):
        TrajectoryRecord(**_record_fields(dim=2.0))
    with pytest.raises(DimensionError, match="^dim must be an integer"):
        TrajectoryBatch(**_batch_fields(dim=2.0))


def test_integer_dim_record_survives_the_text_round_trip():
    rec = TrajectoryRecord(**_record_fields(dim=np.int64(2)))
    assert type(rec.dim) is int
    text = record_to_text(rec)
    assert "\ndim 2\n" in text
    back = record_from_text(text)
    assert back.dim == 2 and record_to_text(back) == text
    assert np.array_equal(back.snapshots, rec.snapshots)


def test_unsigned_stream_array_is_taken_as_it_is():
    streams = np.array([2**63, 0, 2**64 - 1], dtype=np.uint64)
    batch = TrajectoryBatch(**_batch_fields(streams=streams))
    assert batch.streams.tolist() == [2**63, 0, 2**64 - 1]
    assert batch[0].stream == 2**63


@pytest.mark.parametrize("streams, message", [
    ([4, 5, 2**64], "row 2 of 3: stream must be in [0, 2**64), got "
                    "18446744073709551616"),
    ([4, True, 6], "row 1 of 3: stream must be an integer, got True"),
    (np.array([4, -1, 6]), "row 1 of 3: stream must be in [0, 2**64), got -1"),
    (np.array([True, False, True]),
     "row 0 of 3: stream must be an integer, got np.True_")])
def test_stream_keys_outside_an_unsigned_array_follow_the_key_rule(streams,
                                                                    message):
    with pytest.raises(ConfigurationError) as exc:
        TrajectoryBatch(**_batch_fields(streams=streams))
    assert str(exc.value) == message


def _text_lines():
    grid = TimeGrid(0.0, 1.0, 10, sample_every=10)
    return record_to_text(TrajectoryRecord(
        seed=0, stream=0, dim=2, grid=grid, jump_times=np.array([0.5]),
        jump_channels=np.array([0]),
        snapshots=np.eye(2, dtype=complex)[[0, 0]])).split("\n")


@pytest.mark.parametrize("line, bad, message", [
    (5, "jumps 1000000000000000", "line 1000000000000007 '' is not "
                                  "'snapshots' and 1 value(s)"),
    (7, "snapshots 1000000000000000", "missing end marker"),
    (3, "dim 1000000000000000", "snapshot line 0 has 4 fields, expected "
                                "2000000000000000"),
    (5, "jumps 0", "line 7 '0.5 0' is not 'snapshots' and 1 value(s)"),
    (5, "jumps 2", "line 9 '1 0 0 0' is not 'snapshots' and 1 value(s)"),
    (7, "snapshots 1", "missing end marker"),
    (7, "snapshots 3", "missing end marker"),
    (5, "jumps -1", "jumps must be >= 0, got -1")])
def test_record_counts_must_match_the_lines_present(line, bad, message):
    # a count is never used to size an array: 10**15 jumps, snapshots or
    # amplitudes would ask for petabytes
    lines = _text_lines()
    lines[line] = bad
    with pytest.raises(ConfigurationError) as exc:
        record_from_text("\n".join(lines))
    assert str(exc.value) == f"malformed trajectory record: {message}"


def test_record_text_bytes_are_pinned():
    rec = TrajectoryRecord(
        seed=3, stream=7, dim=2, grid=TimeGrid(0.0, 1.0, 10, sample_every=10),
        jump_times=np.array([0.1]), jump_channels=np.array([1]),
        snapshots=np.array([[complex(1.0, -0.0), complex(-0.0, 0.0)],
                            [complex(-0.0, 0.6), complex(0.8, -0.0)]]))
    text = ("decosim-trajectory-record v1\nseed 3\nstream 7\ndim 2\n"
            "grid 0 1 10 10\njumps 1\n0.10000000000000001 1\nsnapshots 2\n"
            "1 -0 -0 0\n-0 0.59999999999999998 0.80000000000000004 -0\n"
            "end\n")
    assert record_to_text(rec) == text
    back = record_from_text(text)
    assert np.array_equal(np.signbit(back.snapshots.view(np.float64)),
                          np.signbit(rec.snapshots.view(np.float64)))
    assert record_to_text(back) == text


def test_record_snapshots_need_not_be_contiguous():
    snaps = np.asfortranarray(np.tile([0.6 + 0j, 0.8j], (3, 1)))
    rec = TrajectoryRecord(**_record_fields(snapshots=snaps))
    back = record_from_text(record_to_text(rec))
    assert np.array_equal(back.snapshots, snaps)


@pytest.mark.parametrize("bad", ["1_0", "+10", "١٠"])
@pytest.mark.parametrize("line, field, name", [
    (1, "seed {}", "seed"), (2, "stream {}", "stream"), (3, "dim {}", "dim"),
    (4, "grid 0 1 {} 10", "n_steps"), (4, "grid 0 1 10 {}", "sample_every"),
    (5, "jumps {}", "jumps"), (6, "0.5 {}", "jump channel"),
    (7, "snapshots {}", "snapshots")])
def test_record_integers_are_plain_decimals(line, field, name, bad):
    lines = _text_lines()
    lines[line] = field.format(bad)
    with pytest.raises(ConfigurationError) as exc:
        record_from_text("\n".join(lines))
    assert str(exc.value) == (f"malformed trajectory record: {name} must be "
                              f"an integer, got {bad!r}")


# out-of-order streams 0 .. 16 without stream 11
_SHUFFLED = [16, 3, 9, 0, 14, 5, 12, 1, 7, 15, 2, 10, 6, 13, 4, 8]


@pytest.mark.parametrize("size", [1, 7, 8, 9, 17])
def test_rows_match_solo_runs_at_every_place_in_a_tile(size):
    # A continuation tile holds 8 rows.  Stream 11 takes each place 0 .. 8
    # the batch has, so it runs alone, in a padded tile, in a full one and
    # at the head of the second; every row of every batch is held against
    # its solo run.  No telegraph row finishes early, so places hold.  The
    # detuning matters: one product over the whole batch changes rows here.
    model = three_level_model(ThreeLevelParams(40.0, 3.0, 30.0, 2.0, 5.0))
    start = ground_state()
    grid = TimeGrid(0.0, 2.5, 1000, sample_every=10)
    solo = {}
    for place in range(min(size, 9)):
        streams = _SHUFFLED[:size - 1]
        streams.insert(place, 11)
        batch = tj._worker((start.data, model, grid, 31,
                            np.array(streams, dtype=np.uint64)))
        assert batch.streams.tolist() == streams
        assert batch.jump_times.size > 0
        for rec in batch:
            if rec.stream not in solo:
                solo[rec.stream] = run_trajectory(start, model, grid, seed=31,
                                                  stream=rec.stream)
            want = solo[rec.stream]
            assert np.array_equal(rec.snapshots, want.snapshots)
            assert np.array_equal(rec.jump_times, want.jump_times)
            assert np.array_equal(rec.jump_channels, want.jump_channels)


def test_records_do_not_depend_on_blas_threads():
    # At d = 40 a tile's product is large enough for OpenBLAS to split it
    # over two threads; the record text must not change.
    src = os.path.dirname(os.path.dirname(tj.__file__))
    code = (
        "import sys\n"
        "from decosim.evolution import TimeGrid\n"
        "from decosim.models.oscillator import (DampedOscillatorParams,\n"
        "    oscillator_model, superposition_state)\n"
        "from decosim.trajectories import record_to_text, run_ensemble\n"
        "p = DampedOscillatorParams(1.0, 0.2, 0.3, 40, (1.5,))\n"
        "batch = run_ensemble(superposition_state([1.0], p.alphas, 40),\n"
        "                     oscillator_model(p),\n"
        "                     TimeGrid(0.0, 2.0, 100, sample_every=25),\n"
        "                     n_traj=17, seed=21)\n"
        "sys.stdout.write(''.join(record_to_text(r) for r in batch))\n")
    texts = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        texts.append(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert texts[0].count("decosim-trajectory-record v1") == 17
    assert texts[0] == texts[1]


def _stacked_powers(model, dt):
    """E^0 .. E^K of the model's step as the engine stacks them, and as
    the (K + 1, d, d) array the oracle takes."""
    e = expm(-1j * dt * model._h_eff)
    powers = [np.eye(model.dim, dtype=complex)]
    for _ in range(tj._LOOKAHEAD):
        powers.append(e @ powers[-1])
    powers = np.array(powers)
    stacked = np.ascontiguousarray(powers.transpose(2, 0, 1))
    return stacked.reshape(model.dim, -1), powers


@pytest.mark.parametrize("case", ["telegraph", "decay"])
def test_tiled_continuation_matches_the_einsum_oracle(case, monkeypatch):
    # The tiled BLAS product is the oracle's row-local einsum to rounding,
    # and an engine driven by the oracle makes the same jumps.
    if case == "telegraph":
        model = three_level_model(ThreeLevelParams(40.0, 3.0, 30.0, 2.0, 5.0))
        start = ground_state()
        grid = TimeGrid(0.0, 2.5, 1000, sample_every=10)
    else:
        model = two_level_decay_model(0.5)
        start = QuantumState.pure([0.0, 1.0])
        grid = TimeGrid(0.0, 20.0, 400, sample_every=10)
    stacked, powers = _stacked_powers(model, grid.dt)
    rng = np.random.default_rng(8)
    for n in (1, 7, 8, 9, 17):
        psi = (rng.standard_normal((n, model.dim))
               + 1j * rng.standard_normal((n, model.dim)))
        got = tj._continuation(psi, stacked)
        want = continuation_einsum(powers, psi)
        assert got.shape == want.shape == (n, tj._LOOKAHEAD + 1, model.dim)
        err = np.abs(got - want).max(axis=(1, 2))
        assert np.all(err <= 1e-15 * np.linalg.norm(psi, axis=1))

    batch = run_ensemble(start, model, grid, n_traj=17, seed=12)
    assert batch.jump_times.size > 0
    monkeypatch.setattr(
        tj, "_continuation", lambda psi, stacked: continuation_einsum(
            stacked.reshape(model.dim, -1, model.dim).transpose(1, 2, 0),
            psi))
    reference = run_ensemble(start, model, grid, n_traj=17, seed=12)
    assert np.array_equal(batch.offsets, reference.offsets)
    assert np.array_equal(batch.jump_times, reference.jump_times)
    assert np.array_equal(batch.jump_channels, reference.jump_channels)
    assert np.allclose(batch.snapshots, reference.snapshots, rtol=0,
                       atol=1e-12)


@pytest.mark.parametrize("times", [["0.5"], [True], np.array([0.5, "0.6"],
                                                            dtype=object),
                                   [0.5, True]])
def test_record_refuses_jump_times_that_are_strings_or_bools(times):
    with pytest.raises(DomainError, match=r"^jump times must be numbers, "
                       r"not bools or strings$"):
        TrajectoryRecord(**_record_fields(
            jump_times=times, jump_channels=[0] * len(times)))


def test_record_refuses_string_snapshots():
    with pytest.raises(DomainError, match=r"^snapshots must be numbers"):
        TrajectoryRecord(**_record_fields(
            snapshots=[["0.6", "0.8j"]] * 3))
    with pytest.raises(DomainError, match=r"^snapshots must be numbers"):
        TrajectoryRecord(**_record_fields(snapshots=[[1.0, False]] * 3))


def _near_unit_vectors(rng, n, dim, offset):
    """*n* random vectors whose squared norms are 1 + delta, with delta
    uniform in [-offset, offset]."""
    v = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v * np.sqrt(1.0 + rng.uniform(-offset, offset, (n, 1)))


def test_every_accepted_pure_state_is_accepted_downstream():
    # a vector is judged once by its squared norm, the trace of its
    # projector; a state that QuantumState.pure takes must not be refused
    # as a density matrix by the engines it is handed to
    model = two_level_decay_model(1.0)
    grid = TimeGrid(0.0, 1.0, 10, sample_every=5)
    kraus = amplitude_damping_kraus(0.3)
    accepted = 0
    for seed, v in enumerate(_near_unit_vectors(np.random.default_rng(3),
                                                240, 2, 1.2e-10)):
        try:
            st = QuantumState.pure(v)
        except StateError:
            continue
        accepted += 1
        integrate_master(st, model, grid)
        apply_kraus(st, kraus)
        aggregate(run_ensemble(st, model, grid, n_traj=2, seed=seed))
    assert 150 <= accepted < 240


def test_every_accepted_record_can_be_aggregated():
    grid = TimeGrid(0.0, 1.0, 10, sample_every=5)
    rng = np.random.default_rng(4)
    records = []
    for stream in range(200):
        try:
            records.append(TrajectoryRecord(
                seed=1, stream=stream, dim=2, grid=grid,
                jump_times=np.empty(0), jump_channels=np.empty(0),
                snapshots=_near_unit_vectors(rng, 3, 2, 1.2e-10)))
        except StateError:
            pass
    for rec in records:
        aggregate([rec])
    assert aggregate(records).n_traj == len(records)
    assert 80 <= len(records) < 200


def test_batch_names_the_row_of_a_snapshot_off_the_trace_rule():
    snaps = np.tile([1.0 + 0j, 0.0], (3, 2, 1))
    snaps[1, 1, 0] = math.sqrt(1.0 + 2e-10)
    with pytest.raises(StateError, match=r"^row 1 of 3: snapshots must have "
                       r"squared norm within 1e-10 of 1$"):
        TrajectoryBatch(**_batch_fields(snapshots=snaps))
    snaps[1, 1, 0] = math.sqrt(1.0 - 0.9e-10)
    assert len(TrajectoryBatch(**_batch_fields(snapshots=snaps))) == 3


def _same_estimate(a, b):
    return (a.n_traj == b.n_traj and np.array_equal(a.times, b.times)
            and all(np.array_equal(x.data, y.data)
                    for x, y in zip(a.mean_states, b.mean_states))
            and np.array_equal(a.population_stderr, b.population_stderr))


def test_streamed_estimate_is_one_value(monkeypatch):
    """The report's estimate, reduced in blocks as the ensemble runs, is
    aggregate(run_ensemble(...)) bit for bit, under any worker count, pool
    and chunk size."""
    monkeypatch.setattr(tj, "_BLOCK", 16)    # 70 rows span 5 blocks
    model = _driven_decay_model()
    grid = TimeGrid(0.0, 2.0, 200, sample_every=40)
    args = (_plus_state(), model, grid, 70, 6)
    whole = aggregate(run_ensemble(*args))
    for workers in (1, 2, 3):
        assert _same_estimate(tj._streamed_estimate(*args, workers), whole)
    monkeypatch.setattr(tj.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(tj, "ProcessPoolExecutor", _SerialPool)
    for workers, seen in ((2, [2, 2]), (3, [3, 3])):
        _SerialPool.seen = []
        assert _same_estimate(tj._streamed_estimate(*args, workers), whole)
        assert _SerialPool.seen == seen      # max_workers, block runs
    monkeypatch.setattr(tj, "_CHUNK_BYTES", 1)
    assert _same_estimate(tj._streamed_estimate(*args, 3), whole)


@pytest.mark.parametrize("block", [16, tj._BLOCK])
def test_aggregate_mean_is_close_to_an_exact_sum(monkeypatch, block):
    monkeypatch.setattr(tj, "_BLOCK", block)
    grid = TimeGrid(0.0, 1.0, 4, sample_every=1)
    rng = np.random.default_rng(3)
    snaps = rng.standard_normal((200, 5, 3)) + 1j * rng.standard_normal(
        (200, 5, 3))
    snaps /= np.linalg.norm(snaps, axis=2, keepdims=True)
    batch = TrajectoryBatch(seed=0, streams=np.arange(200), dim=3, grid=grid,
                            snapshots=snaps, jump_times=[], jump_channels=[],
                            offsets=np.zeros(201, dtype=int))
    est = aggregate(batch)
    products = snaps[:, :, :, None] * snaps[:, :, None, :].conj()
    for s, state in enumerate(est.mean_states):
        for i, j in np.ndindex(3, 3):
            terms = products[:, s, i, j]
            exact = complex(math.fsum(terms.real), math.fsum(terms.imag)) / 200
            assert abs(state.data[i, j] - exact) <= 1e-15


def _decay_from_excited():
    return (QuantumState.pure([0.0, 1.0]), two_level_decay_model(1.0))


@pytest.mark.parametrize("case", ["decay", "decay-every-3", "three-level"])
def test_streamed_estimate_matches_with_a_small_ring(case, monkeypatch):
    """With the ring at one look-ahead plus one sample and one block a
    call, rows sit out passes, absorbed rows wait for room and blocks are
    reduced a few columns at a time: the estimate keeps its bits."""
    if case == "three-level":
        start = ground_state()
        model = three_level_model(ThreeLevelParams(2.0, 0.5, 1.0, 0.05, 0.15))
        grid = TimeGrid(0.0, 10.0, 1000, sample_every=1)
    else:
        start, model = _decay_from_excited()
        grid = TimeGrid(0.0, 5.0, 600, sample_every=3 if "3" in case else 1)
    monkeypatch.setattr(tj, "_BLOCK", 16)
    args = (start, model, grid, 40, 3)
    whole = aggregate(run_ensemble(*args))
    assert _same_estimate(tj._streamed_estimate(*args, 1), whole)
    monkeypatch.setattr(tj, "_RING_LOOKAHEADS", 1)
    monkeypatch.setattr(tj, "_CHUNK_BYTES", 1)
    assert tj._plan(model.dim, grid, 16)[1:] == (
        16, tj._LOOKAHEAD // grid.sample_every + 1)
    for workers in (1, 2):
        assert _same_estimate(tj._streamed_estimate(*args, workers), whole)


@pytest.mark.parametrize("config", ["unravel-wide", "20000-samples"])
def test_streamed_engine_calls_stay_within_the_plan(config, monkeypatch):
    """Every engine call of the streamed estimate runs at most the plan's
    rows, two blocks on the unravel-wide benchmark and one at 20,000
    samples, returns block moments and allocates no (rows, n_samples, d)
    array."""
    if config == "unravel-wide":
        grid, n_traj, blocks = TimeGrid(0.0, 10.0, 1000, 20), 1100, 2
    else:
        grid, n_traj, blocks = TimeGrid(0.0, 100.0, 20000, 1), 8, 1
    p = ThreeLevelParams(2.0, 0.5, 1.0, 0.05, 0.15)
    plan = tj._plan(3, grid, tj._BLOCK)
    assert plan[1] == blocks * tj._BLOCK and plan[2] < grid.n_samples
    calls, shapes = [], []
    run_streams, empty = tj._run_streams, np.empty

    def recording_empty(shape, *args, **kwargs):
        shapes.append(tuple(np.atleast_1d(shape)))
        return empty(shape, *args, **kwargs)

    def spy(psi0, table, grid, seed, streams, block=0):
        shapes.clear()
        with monkeypatch.context() as m:
            m.setattr(np, "empty", recording_empty)
            out = run_streams(psi0, table, grid, seed, streams, block)
        calls.append((len(streams), block, shapes[:]))
        return out

    monkeypatch.setattr(tj, "_run_streams", spy)
    tj._streamed_estimate(ground_state(), three_level_model(p), grid, n_traj,
                          1, 1)
    assert sum(rows for rows, _, _ in calls) == n_traj
    for rows, block, seen in calls:
        assert block == tj._BLOCK and rows <= plan[1]
        assert (rows, plan[2], 3) in seen
        assert not [s for s in seen if s[0] == rows and s[1:] == (
            grid.n_samples, 3)]


def test_a_corrupted_streamed_sample_raises_the_batch_error(monkeypatch):
    """A sample off the squared-norm rule fails the streamed estimate with
    the error that the batch of the same rows raises."""
    real = tj._sq_norms

    def corrupt(z):
        nrm2 = real(z)
        if nrm2.shape == (5, tj._LOOKAHEAD + 1) and not seen:
            nrm2[1, 5] *= 1.0 + 1e-6       # row 1, fifth step: a sample
            seen.append(nrm2)
        return nrm2

    monkeypatch.setattr(tj, "_sq_norms", corrupt)
    message = (r"^row 1 of 5: snapshots must have squared norm within 1e-10 "
               r"of 1$")
    start, model = _decay_from_excited()
    grid = TimeGrid(0.0, 2.0, 200, sample_every=1)
    for run in (run_ensemble, tj._streamed_estimate):
        seen = []
        with pytest.raises(StateError, match=message):
            run(start, model, grid, 5, 1, 1)
        assert seen


def test_streamed_estimate_memory_does_not_grow_with_the_samples():
    """20,000 samples of 16 rows take 29 MiB as a snapshot table; the
    streamed estimate keeps a ring of 513 of them a row, and its whole run
    peaks under 16 MiB (9.0 MiB measured; 33.2 MiB with the table)."""
    p = ThreeLevelParams(2.0, 0.5, 1.0, 0.05, 0.15)
    grid = TimeGrid(0.0, 100.0, 20000, sample_every=1)
    tracemalloc.start()
    try:
        est = tj._streamed_estimate(ground_state(), three_level_model(p),
                                    grid, 16, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n_traj == 16 and len(est.mean_states) == grid.n_samples
    assert peak < 16 * 2**20


def test_worker_returns_moments_not_snapshots():
    """A 3,000-row worker of the unravel-wide benchmark returns under 1 MB
    (its snapshot batch pickles to 7.6 MB)."""
    p = ThreeLevelParams(2.0, 0.5, 1.0, 0.05, 0.15)
    grid = TimeGrid(0.0, 10.0, 1000, sample_every=20)
    moments = tj._moments_worker((ground_state().data, three_level_model(p),
                                  grid, 1, 0, 3000, tj._BLOCK))
    assert sum(m[0] for m in moments) == 3000
    assert len(pickle.dumps(moments)) < 1_000_000


def test_equivalence_threshold_checked_before_the_streamed_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble ran before the threshold check")

    monkeypatch.setattr(tj, "_streamed_estimate", no_run)
    grid = TimeGrid(0.0, 1.0, 100)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError, match="threshold"):
            unraveling_equivalence_report(_plus_state(), _driven_decay_model(),
                                          grid, n_traj=50, seed=1,
                                          threshold=bad)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="fork is the start method where the OS has it")
def test_pool_workers_fork_whatever_the_default_start_method():
    """The pool forks its workers under any default, such as forkserver on
    Linux from Python 3.14: a fork skips each worker's import of decosim."""
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("forkserver", force=True)
    try:
        with tj.ProcessPoolExecutor(1) as pool:
            assert pool._mp_context.get_start_method() == "fork"
    finally:
        multiprocessing.set_start_method(default, force=True)
