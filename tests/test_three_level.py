"""Driven three-level emitter and its fluorescence telegraph statistics."""

import numpy as np
import pytest

from decosim.errors import ConfigurationError, DomainError
from decosim.evolution import TimeGrid, integrate_master
from decosim.models.three_level import (DESHELVE, SHELVE, STRONG,
                                        TelegraphStats, ThreeLevelParams,
                                        _period_table,
                                        bright_excited_population,
                                        fluorescence_telegraph, ground_state,
                                        poisson_dispersion, three_level_model)


def test_params_validation():
    with pytest.raises(DomainError):
        ThreeLevelParams(1.0, 0.0, 0.0, 0.0, 0.0)      # gamma_strong = 0
    with pytest.raises(DomainError):
        ThreeLevelParams(1.0, 0.0, 1.0, -0.1, 0.0)
    with pytest.raises(DomainError):
        ThreeLevelParams(np.inf, 0.0, 1.0, 0.0, 0.0)
    with pytest.warns(UserWarning):
        ThreeLevelParams(1.0, 0.0, 1.0, 0.5, 0.1)      # shelving not weak


def test_shelving_warning_points_at_the_caller():
    with pytest.warns(UserWarning) as caught:
        ThreeLevelParams(1.0, 0.0, 1.0, 0.5, 0.1)
    assert caught[0].filename == __file__


def test_model_matrices():
    p = ThreeLevelParams(2.0, 0.7, 1.5, 0.05, 0.02)
    model = three_level_model(p)
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = h[1, 0] = 1.0
    h[1, 1] = 0.7
    assert np.array_equal(model.h, h)
    assert len(model.channels) == 3
    ops = [op for op, _ in model.channels]
    rates = [r for _, r in model.channels]
    assert rates == [1.5, 0.05, 0.02]
    want_strong = np.zeros((3, 3), dtype=complex)
    want_strong[0, 1] = 1.0
    want_shelve = np.zeros((3, 3), dtype=complex)
    want_shelve[2, 1] = 1.0
    want_deshelve = np.zeros((3, 3), dtype=complex)
    want_deshelve[0, 2] = 1.0
    assert np.array_equal(ops[STRONG], want_strong)
    assert np.array_equal(ops[SHELVE], want_shelve)
    assert np.array_equal(ops[DESHELVE], want_deshelve)


def test_bright_population_matches_steady_state():
    # with the shelf switched off the g-e manifold relaxes to the
    # saturation value; integrate long and compare
    p = ThreeLevelParams(2.0, 0.5, 1.0, 0.0, 0.0)
    model = three_level_model(p)
    grid = TimeGrid(0.0, 60.0, 6000, sample_every=6000)
    final = integrate_master(ground_state(), model, grid)[-1]
    assert abs(final.data[1, 1].real - bright_excited_population(p)) < 1e-6
    assert abs(final.data[2, 2].real) < 1e-12     # shelf never populated


def test_ground_state_stationary_without_drive():
    p = ThreeLevelParams(0.0, 0.3, 1.0, 0.02, 0.01)
    model = three_level_model(p)
    grid = TimeGrid(0.0, 5.0, 500, sample_every=100)
    states = integrate_master(ground_state(), model, grid)
    for st in states:
        assert abs(st.data[0, 0].real - 1.0) < 1e-12


def test_period_table_run_length_encoding():
    dark = np.array([[0, 0, 1, 1, 1, 0, 1, 0, 0]], dtype=bool)
    traj, kind, start, duration = _period_table(dark, bin_width=2.0,
                                                t_start=10.0)
    # boundary runs (the leading bright pair, trailing bright pair) drop out
    assert traj.tolist() == [0, 0, 0]
    assert kind.tolist() == [True, False, True]
    assert start.tolist() == [14.0, 20.0, 22.0]
    assert duration.tolist() == [6.0, 2.0, 2.0]


def test_period_table_single_run_is_censored():
    # a record that never switches has no interior run at all
    dark = np.zeros((2, 6), dtype=bool)
    traj, kind, start, duration = _period_table(dark, 1.0, 0.0)
    assert traj.size == 0 and duration.size == 0


def test_telegraph_stats_properties():
    counts = np.array([[7, 8, 0, 0, 9, 6],
                       [8, 0, 7, 9, 0, 7]])
    dark = counts <= 0
    traj, kind, start, duration = _period_table(dark, 1.0, 0.0)
    stats = TelegraphStats(
        bin_width=1.0, dark_threshold=0, bin_times=np.arange(6.0),
        counts=counts, dark_bins=dark, period_trajectory=traj,
        period_is_dark=kind, period_start=start, period_duration=duration)
    assert np.array_equal(stats.pooled_counts, counts.sum(axis=0))
    assert stats.dark_fraction == pytest.approx(4.0 / 12.0)
    # interior runs: traj 0 -> dark 2; traj 1 -> dark 1, bright 2, dark 1
    assert sorted(stats.dark_durations.tolist()) == [1.0, 1.0, 2.0]
    assert stats.bright_durations.tolist() == [2.0]
    assert stats.dark_mean == pytest.approx(4.0 / 3.0)
    assert np.isnan(stats.bright_mean)       # lone bright period, no spread


def test_fluorescence_without_shelving_has_no_dark_periods():
    p = ThreeLevelParams(4.0, 0.0, 2.0, 0.0, 0.0)
    grid = TimeGrid(0.0, 40.0, 8000, sample_every=8000)
    stats = fluorescence_telegraph(p, grid, n_traj=5, seed=11, bin_width=10.0)
    assert stats.counts.shape == (5, 4)
    assert not stats.dark_bins.any()
    assert stats.dark_fraction == 0.0
    assert stats.dark_durations.size == 0


def test_fluorescence_validation():
    p = ThreeLevelParams(4.0, 0.0, 2.0, 0.0, 0.0)
    grid = TimeGrid(0.0, 40.0, 8000, sample_every=8000)
    with pytest.raises(ConfigurationError, match="too small"):
        fluorescence_telegraph(p, grid, n_traj=2, seed=0, bin_width=1.0)
    with pytest.raises(ConfigurationError, match="two full bins"):
        fluorescence_telegraph(p, grid, n_traj=2, seed=0, bin_width=30.0)
    with pytest.raises(ConfigurationError):
        fluorescence_telegraph(p, grid, n_traj=2, seed=0, bin_width=10.0,
                               dark_threshold=-1)
    with pytest.raises(ConfigurationError):
        fluorescence_telegraph(p, grid, n_traj=2, seed=0, bin_width=-5.0)


def test_telegraph_dark_periods_track_deshelving_rate():
    p = ThreeLevelParams(8.0, 0.0, 8.0, 0.05, 0.1)
    grid = TimeGrid(0.0, 400.0, 40000, sample_every=40000)
    stats = fluorescence_telegraph(p, grid, n_traj=6, seed=17, bin_width=3.0)
    dark = stats.dark_durations
    assert dark.size > 15
    # pooled dark mean ~ 1/gamma_deshelve = 10
    assert abs(stats.dark_mean - 10.0) < 3.0 * stats.dark_stderr + 1.0
    # bright stretches last ~ 1/(shelving rate) = 1/(p_e * gamma_shelve)
    want_bright = 1.0 / (bright_excited_population(p) * 0.05)
    assert 0.6 * want_bright < stats.bright_mean < 1.4 * want_bright


def test_poisson_dispersion_behavior():
    rng = np.random.default_rng(19)
    index, p = poisson_dispersion(rng.poisson(10.0, size=2000))
    assert 0.9 < index < 1.1
    assert p > 0.01
    # a constant record is wildly under-dispersed
    index0, p0 = poisson_dispersion(np.full(100, 7))
    assert index0 == 0.0
    assert p0 < 1e-6
    # strong over-dispersion is flagged too
    lumpy = np.concatenate([np.full(50, 2), np.full(50, 40)])
    _, p1 = poisson_dispersion(lumpy)
    assert p1 < 1e-6


def test_poisson_dispersion_validation():
    with pytest.raises(DomainError):
        poisson_dispersion([5])
    with pytest.raises(DomainError):
        poisson_dispersion(np.zeros(10))
    with pytest.raises(DomainError):
        poisson_dispersion(np.ones((2, 2)))
