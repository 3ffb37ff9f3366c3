"""Quantum-jump engine: randomness contract, reproducibility, statistics."""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import kstest

import decosim.trajectories as tj
from decosim.errors import (ConfigurationError, DimensionError, DomainError,
                            StateError)
from decosim.evolution import LindbladModel, TimeGrid, two_level_decay_model
from decosim.evolution import lindblad_rhs
from decosim.hilbert import QuantumState
from decosim.models.oscillator import (DampedOscillatorParams,
                                       oscillator_model, superposition_state)
from decosim.models.three_level import (ThreeLevelParams, ground_state,
                                        three_level_model)
from decosim.trajectories import (TrajectoryRecord, aggregate, record_from_text,
                                  record_to_text, run_ensemble, run_trajectory,
                                  unraveling_equivalence_report)

from oracles import lindblad_rhs_loops, mcwf_scalar

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
