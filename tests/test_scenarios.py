"""End-to-end scenario runs on small configurations."""

import math
import tracemalloc

import numpy as np
import pytest

from decosim import scenarios
from decosim.config import parse_config_table
from decosim.hilbert import QuantumState
from decosim.models import oscillator
from decosim.models.disorder import _gamma_table
from decosim.scenarios import Check, run_scenario

SQ = math.sqrt(0.5)


def run(table, workers=1):
    return run_scenario(parse_config_table(table), workers=workers)


def check_names(result):
    return [c.name for c in result.checks]


def test_check_coerces_numpy_bool():
    c = Check("x", np.bool_(True), "detail")
    assert c.passed is True and isinstance(c.passed, bool)


def test_central_spin_run():
    res = run({
        "scenario": "central-spin",
        "params": {"couplings": [0.8, 0.6], "omega0": 0.0},
        "grid": {"t_end": 2.0, "n_steps": 80, "sample_every": 8},
        "output": {"path": "o.csv"},
    })
    assert res.columns == ("t", "coherence_re", "coherence_im",
                           "coherence_abs", "gaussian_envelope")
    assert res.rows.shape == (11, 5)
    assert res.all_passed
    assert check_names(res) == ["initial-coherence", "coherence-bounded"]
    t = res.rows[:, 0]
    assert np.allclose(t, np.linspace(0.0, 2.0, 11), atol=1e-14)
    # column consistency and the short-time envelope, derived inline
    assert np.allclose(res.rows[:, 3],
                       np.hypot(res.rows[:, 1], res.rows[:, 2]), atol=1e-14)
    envelope = 0.5 * np.exp(-(0.8**2 + 0.6**2) * t**2 / 8.0)
    assert np.allclose(res.rows[:, 4], envelope, atol=1e-12)
    assert res.info["n_bath"] == 2
    assert res.info["t_D"] == pytest.approx(1.0)
    # exact product form at one interior sample
    k = 5
    expected = 0.5 * math.cos(0.8 * t[k] / 2) * math.cos(0.6 * t[k] / 2)
    assert res.rows[k, 1] == pytest.approx(expected, abs=1e-12)


def test_spin_echo_run():
    res = run({
        "scenario": "spin-echo",
        "params": {"couplings": [1.1, 0.4, 0.7], "t_e": 0.8},
        "grid": {"t_end": 1.6, "n_steps": 64, "sample_every": 4},
        "output": {"path": "o.csv"},
    })
    assert res.columns == ("t", "coherence_re", "coherence_im",
                           "coherence_abs")
    assert res.all_passed
    assert check_names(res) == ["initial-coherence", "echo-revival",
                                "coherence-bounded"]
    assert res.info["revival_time"] == pytest.approx(1.6)
    assert res.info["revival_magnitude"] == pytest.approx(0.5, abs=1e-12)
    # the grid ends at 2 t_e, so the last row is the revival itself
    assert res.rows[-1, 3] == pytest.approx(0.5, abs=1e-12)


def test_spin_echo_counts_the_pulse_time_from_t_start():
    c1, c2 = 0.6, 0.8
    res = run({
        "scenario": "spin-echo",
        "params": {"couplings": [1.0, 0.5], "t_e": 1.0, "c1": c1, "c2": c2},
        "grid": {"t_start": -1.0, "t_end": 3.0, "n_steps": 40},
        "output": {"path": "o.csv"},
    })
    assert res.all_passed
    # the t column stays absolute; the revival comes 2 t_e after t_start
    assert res.rows[0, 0] == -1.0
    assert res.info["revival_time"] == pytest.approx(1.0)
    k = int(np.argmin(np.abs(res.rows[:, 0] - 1.0)))
    assert res.rows[k, 0] == pytest.approx(1.0, abs=1e-12)
    assert res.rows[k, 3] == pytest.approx(c1 * c2, abs=1e-12)
    assert res.rows[0, 1] == pytest.approx(c1 * c2, abs=1e-12)


DISORDER_BASE = {
    "scenario": "disorder",
    "params": {
        "distribution": {"kind": "gaussian", "mean": 0.0, "sigma": 0.4},
        "epsilon": [0.0, 1.0, 2.5],
        "slopes": [0.0, 1.0, -0.5],
        "r": [[0.5, [0.25, 0.1], 0.1],
              [[0.25, -0.1], 0.3, 0.05],
              [0.1, 0.05, 0.2]],
    },
    "grid": {"t_end": 3.0, "n_steps": 30, "sample_every": 3},
    "output": {"path": "o.csv"},
}


def test_disorder_closed_form_run():
    res = run(DISORDER_BASE)
    assert res.columns == ("t", "pop_0", "pop_1", "pop_2",
                           "coh_0_1_re", "coh_0_1_im", "coh_0_1_abs",
                           "coh_0_2_re", "coh_0_2_im", "coh_0_2_abs",
                           "coh_1_2_re", "coh_1_2_im", "coh_1_2_abs")
    assert res.rows.shape == (11, 13)
    assert res.all_passed
    assert check_names(res) == ["populations-invariant",
                                "coherences-bounded"]
    assert res.info == {"dim": 3, "method": "closed-form",
                        "distribution": "gaussian"}
    # populations stay at the prepared weights, every sample, bit-equal
    assert np.all(res.rows[:, 1] == 0.5)
    assert np.all(res.rows[:, 2] == 0.3)
    assert np.all(res.rows[:, 3] == 0.2)
    # 0-1 coherence: phase at rate eps_1 - eps_0 = 1, gaussian damping at
    # slope difference 1
    t = res.rows[:, 0]
    expected = (complex(0.25, 0.1) * np.exp(1j * t)
                * np.exp(-(0.4 * t) ** 2 / 2.0))
    assert np.allclose(res.rows[:, 4], expected.real, atol=1e-12)
    assert np.allclose(res.rows[:, 5], expected.imag, atol=1e-12)


def test_disorder_coherence_columns_follow_the_gamma_table_pairs():
    # each (re, im, abs) triple names the pair _gamma_table puts in that
    # place, and holds r_mn gamma_mn(t) for it
    config = parse_config_table(DISORDER_BASE)
    res = run_scenario(config)
    spec = config.model
    gamma, _ = _gamma_table(spec, res.rows[:, 0], "auto")
    m, n = np.triu_indices(3, 1)
    assert res.columns[4:] == tuple(
        f"coh_{i}_{j}_{part}" for i, j in zip(m.tolist(), n.tolist())
        for part in ("re", "im", "abs"))
    entries = spec.r[m, n] * gamma[:, m, n]
    assert np.array_equal(res.rows[:, 4::3], entries.real)
    assert np.array_equal(res.rows[:, 5::3], entries.imag)
    assert np.array_equal(res.rows[:, 6::3], np.abs(entries))


def test_disorder_monte_carlo_run():
    table = {**DISORDER_BASE,
             "estimator": {"kind": "trajectories", "n_traj": 500,
                           "seed": 12}}
    res = run(table)
    assert check_names(res) == ["populations-invariant",
                                "coherences-bounded", "matches-closed-form"]
    assert res.all_passed
    assert res.info["method"] == "monte-carlo"
    assert res.info["samples"] == 500 and res.info["seed"] == 12
    assert 0.0 < res.info["max_closed_form_deviation"] < 0.1
    assert np.all(res.rows[:, 1] == 0.5)    # diagonal untouched by sampling


CENTRAL_SPIN_PAIR = {
    "scenario": "central-spin",
    "params": {"couplings": [1.0, 0.5], "omega0": 0.7},
    "output": {"path": "o.csv"},
}


@pytest.mark.parametrize("table", [
    CENTRAL_SPIN_PAIR, DISORDER_BASE,
    {**DISORDER_BASE, "estimator": {"kind": "trajectories", "n_traj": 500,
                                    "seed": 12}},
], ids=["central-spin", "disorder-closed-form", "disorder-monte-carlo"])
def test_state_is_prepared_at_t_start(table):
    # 40 steps of 0.1 from t_start -1 and from 0; the run from 0 holds the
    # model at k dt.  Apart from t, the first rows are the same bits and
    # every other row agrees to rounding.
    late = run({**table, "grid": {"t_start": -1.0, "t_end": 3.0,
                                  "n_steps": 40}})
    early = run({**table, "grid": {"t_end": 4.0, "n_steps": 40}})
    assert late.all_passed and early.all_passed
    assert check_names(late) == check_names(early)
    assert np.array_equal(late.rows[:, 0], -1.0 + early.rows[:, 0])
    assert np.array_equal(late.rows[0, 1:], early.rows[0, 1:])
    assert np.allclose(late.rows[:, 1:], early.rows[:, 1:], rtol=0.0,
                       atol=1e-12)


def test_central_spin_first_row_is_the_prepared_coherence():
    res = run({**CENTRAL_SPIN_PAIR, "params": {"couplings": [1.0, 0.5],
                                               "c1": 0.6, "c2": 0.8},
               "grid": {"t_start": -1.0, "t_end": 3.0, "n_steps": 40}})
    assert check_names(res)[0] == "initial-coherence" and res.all_passed
    assert res.rows[0, 0] == -1.0
    assert res.rows[0, 1:4].tolist() == [0.6 * 0.8, 0.0, 0.6 * 0.8]
    assert res.rows[0, 4] == 0.6 * 0.8      # the envelope starts there too
    dt = 0.1
    k = np.arange(41)
    coh = 0.48 * np.cos(0.5 * k * dt) * np.cos(0.25 * k * dt)
    assert np.allclose(res.rows[:, 1], coh, rtol=0.0, atol=1e-12)


def test_telegraph_resolvable_dark_periods():
    res = run({
        "scenario": "three-level-telegraph",
        "params": {"rabi": 8.0, "gamma_strong": 8.0, "gamma_shelve": 0.05,
                   "gamma_deshelve": 0.1, "bin_width": 3.0},
        "grid": {"t_end": 400.0, "n_steps": 40000},
        "estimator": {"kind": "trajectories", "n_traj": 6, "seed": 17},
        "output": {"path": "o.csv"},
    })
    assert res.columns == ("t", "pooled_count", "dark_traj_count")
    # 1/gamma_deshelve = 10 covers >= 2 bins, so the period check gates in;
    # it is the only check for this configuration
    assert check_names(res) == ["dark-mean-matches-deshelving"]
    assert res.all_passed
    assert res.rows.shape == (133, 3)
    assert res.info["expected_dark_mean"] == pytest.approx(10.0)
    assert res.info["dark_period_count"] >= 10
    assert res.info["expected_bright_rate"] == pytest.approx(8.0 / 3.0)
    assert 0.0 < res.info["dark_fraction"] < 1.0
    # pooled counts are per-bin sums over trajectories
    assert np.all(res.rows[:, 1] >= res.rows[:, 2] * 0)
    assert np.all(res.rows[:, 2] <= 6)


def test_telegraph_washed_out_uses_dispersion_check():
    res = run({
        "scenario": "three-level-telegraph",
        "params": {"rabi": 4.0, "gamma_strong": 2.0, "gamma_shelve": 0.05,
                   "gamma_deshelve": 6.7, "bin_width": 10.0},
        "grid": {"t_end": 40.0, "n_steps": 4000},
        "estimator": {"kind": "trajectories", "n_traj": 5, "seed": 23},
        "output": {"path": "o.csv"},
    })
    # dark residence 1/6.7 fits inside one bin: no period statistics, the
    # pooled stream must instead look Poissonian
    assert check_names(res) == ["pooled-fluorescence-poisson"]
    assert res.all_passed
    assert res.info["pooled_dispersion_p"] >= 0.01
    assert res.info["expected_dark_mean"] == pytest.approx(1.0 / 6.7)


def test_damped_oscillator_closed_run():
    res = run({
        "scenario": "damped-oscillator",
        "params": {"omega": 1.0, "n_fock": 20, "alpha1": 1.2,
                   "alpha2": -1.2},
        "grid": {"t_end": math.pi / 2, "n_steps": 2000,
                 "sample_every": 500},
        "output": {"path": "o.csv"},
    })
    assert res.columns == ("t", "xi", "density")
    assert check_names(res) == ["trace-conserved", "density-normalized",
                                "truncation-adequate", "merge-visibility"]
    assert res.all_passed
    assert res.info["merge_times_sampled"] == [pytest.approx(math.pi / 2)]
    assert len(res.info["visibilities"]) == 1
    assert res.info["visibilities"][0] >= 0.98
    assert res.info["purity_initial"] == pytest.approx(1.0, abs=1e-12)
    assert res.info["purity_final"] == pytest.approx(1.0, abs=1e-5)
    # long format: every sample time repeats once per grid point
    times = np.unique(res.rows[:, 0])
    assert times.size == 5
    n_x = res.rows.shape[0] // 5
    assert res.rows.shape == (5 * n_x, 3)
    assert np.all(res.rows[:n_x, 0] == 0.0)


def test_damped_oscillator_thermal_run():
    # wider cat so the fringes survive two merge passes under damping
    res = run({
        "scenario": "damped-oscillator",
        "params": {"omega": 1.0, "gamma": 0.01, "n_thermal": 0.3,
                   "n_fock": 40, "alpha1": 2.0, "alpha2": -2.0},
        "grid": {"t_end": 3.0 * math.pi / 2, "n_steps": 3000,
                 "sample_every": 250},
        "output": {"path": "o.csv"},
    })
    assert check_names(res) == ["trace-conserved", "density-normalized",
                                "truncation-adequate",
                                "visibility-decreasing",
                                "occupation-decay-law"]
    assert res.all_passed
    vis = res.info["visibilities"]
    assert len(vis) == 2 and 0.05 < vis[1] < vis[0]
    assert res.info["occupation_final"] < res.info["occupation_initial"]
    assert res.info["purity_final"] < res.info["purity_initial"]


def test_unraveling_two_level_run():
    res = run({
        "scenario": "unraveling-check",
        "params": {"model": {"kind": "two-level-decay", "gamma": 1.0}},
        "grid": {"t_end": 3.0, "n_steps": 300, "sample_every": 30},
        "estimator": {"kind": "trajectories", "n_traj": 400, "seed": 5},
        "output": {"path": "o.csv"},
    })
    assert res.columns == ("t", "trace_distance", "threshold")
    assert check_names(res) == ["unraveling-within-threshold"]
    assert res.all_passed
    assert res.info["threshold"] == pytest.approx(5.0 / math.sqrt(400))
    assert res.info["n_flagged"] == 0
    assert res.info["max_trace_distance"] < 0.25
    assert np.all(res.rows[:, 2] == res.info["threshold"])
    assert res.rows[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_unraveling_failure_reported_not_raised():
    res = run({
        "scenario": "unraveling-check",
        "params": {"model": {"kind": "two-level-decay", "gamma": 1.0},
                   "threshold": 1e-9},
        "grid": {"t_end": 2.0, "n_steps": 200, "sample_every": 40},
        "estimator": {"kind": "trajectories", "n_traj": 50, "seed": 2},
        "output": {"path": "o.csv"},
    })
    assert not res.all_passed
    assert res.checks[0].name == "unraveling-within-threshold"
    assert "threshold" in res.checks[0].detail
    assert res.info["n_flagged"] > 0


def test_disorder_monte_carlo_lorentzian_run():
    table = {**DISORDER_BASE,
             "estimator": {"kind": "trajectories", "n_traj": 500,
                           "seed": 5}}
    table["params"] = {**DISORDER_BASE["params"],
                       "distribution": {"kind": "lorentzian",
                                        "center": 0.2, "width": 0.3}}
    res = run(table)
    assert check_names(res) == ["populations-invariant",
                                "coherences-bounded", "matches-closed-form"]
    assert res.all_passed
    assert res.info["distribution"] == "lorentzian"


def test_telegraph_too_few_dark_periods_fails_the_check():
    res = run({
        "scenario": "three-level-telegraph",
        "params": {"rabi": 8.0, "gamma_strong": 8.0, "gamma_shelve": 0.05,
                   "gamma_deshelve": 0.1, "bin_width": 3.0},
        "grid": {"t_end": 30.0, "n_steps": 3000},
        "estimator": {"kind": "trajectories", "n_traj": 2, "seed": 3},
        "output": {"path": "o.csv"},
    })
    assert check_names(res) == ["dark-mean-matches-deshelving"]
    assert not res.all_passed
    n_dark = res.info["dark_period_count"]
    assert n_dark < 10
    assert res.checks[0].detail.startswith(
        f"only {n_dark} interior dark periods observed")


@pytest.mark.parametrize("scenario, extra", [("central-spin", {}),
                                             ("spin-echo", {"t_e": 0.5})])
def test_zero_couplings_leave_t_d_undefined(scenario, extra):
    res = run({
        "scenario": scenario,
        "params": {"couplings": [0.0, 0.0], **extra},
        "grid": {"t_end": 1.0, "n_steps": 10},
        "output": {"path": "o.csv"},
    })
    assert res.info["t_D"] is None
    assert res.all_passed
    # nothing dephases: |coherence| stays at |c1 c2*| = 1/2
    assert np.allclose(res.rows[:, 3], 0.5, atol=1e-12)


def test_damped_oscillator_merge_times_count_from_t_start():
    # the master-fock40 benchmark model over a 3 pi / 2 span: the packets
    # meet at elapsed times pi/2 and 3 pi/2 wherever the grid starts
    details = set()
    for t0 in (0.0, 1.0, math.pi / 2, -2.0):
        res = run({
            "scenario": "damped-oscillator",
            "params": {"omega": 1.0, "gamma": 0.01, "n_thermal": 0.5,
                       "n_fock": 40, "alpha1": 2.0, "alpha2": -2.0},
            "grid": {"t_start": t0, "t_end": t0 + 1.5 * math.pi,
                     "n_steps": 1200, "sample_every": 200},
            "output": {"path": "o.csv"},
        })
        assert res.all_passed
        assert res.info["merge_times_sampled"] == pytest.approx(
            [t0 + math.pi / 2, t0 + 1.5 * math.pi], abs=1e-12)
        check, = (c for c in res.checks if c.name == "visibility-decreasing")
        details.add(check.detail)
    assert details == {"visibilities at sampled merge times: 0.8362, 0.6185"}


def test_damped_oscillator_density_is_position_density_from_one_table(
        monkeypatch):
    # the master-fock40 benchmark model: seven samples on one position grid
    states, tables = [], []
    integrate, hermite = scenarios.integrate_master, oscillator.hermite_functions

    def recorded(*args):
        out = integrate(*args)
        states.extend(out)
        return out

    def counted(*args):
        tables.append(args)
        return hermite(*args)

    monkeypatch.setattr(scenarios, "integrate_master", recorded)
    for module in (scenarios, oscillator):
        monkeypatch.setattr(module, "hermite_functions", counted,
                            raising=False)
    res = run({
        "scenario": "damped-oscillator",
        "params": {"omega": 1.0, "gamma": 0.01, "n_thermal": 0.5,
                   "n_fock": 40, "alpha1": 2.0, "alpha2": -2.0},
        "grid": {"t_end": 1.5 * math.pi, "n_steps": 1200,
                 "sample_every": 200},
        "output": {"path": "o.csv"},
    })
    assert len(states) == 7 and len(tables) == 1
    density = res.rows[:, 2].reshape(len(states), -1)
    xs = res.rows[:density.shape[1], 1]
    for k, st in enumerate(states):
        assert np.array_equal(density[k], oscillator.position_density(st, xs))


def test_damped_oscillator_copies_each_sample_matrix_once(monkeypatch):
    # the master-fock40 benchmark model, seven samples: the runner reads
    # the stack the integrator validated and copies each sample once, for
    # its truncation check; the initial state and the two purities take
    # the three other copies
    calls = []
    copy = QuantumState.density_matrix

    def counted(self):
        calls.append(self)
        return copy(self)

    monkeypatch.setattr(QuantumState, "density_matrix", counted)
    res = run({
        "scenario": "damped-oscillator",
        "params": {"omega": 1.0, "gamma": 0.01, "n_thermal": 0.5,
                   "n_fock": 40, "alpha1": 2.0, "alpha2": -2.0},
        "grid": {"t_end": 1.5 * math.pi, "n_steps": 1200,
                 "sample_every": 200},
        "output": {"path": "o.csv"},
    })
    n_samples = np.unique(res.rows[:, 0]).size
    assert n_samples == 7
    assert len(calls) <= n_samples + 3


def test_damped_oscillator_reads_its_series_without_copying_samples(
        monkeypatch):
    # 1,201 samples of the master-fock40 model: truncation and occupation
    # are read from the integrated series in one call each, so only the
    # initial state and the two purities copy a matrix
    calls = []
    copy = QuantumState.density_matrix

    def counted(self):
        calls.append(self)
        return copy(self)

    monkeypatch.setattr(QuantumState, "density_matrix", counted)
    res = run({
        "scenario": "damped-oscillator",
        "params": {"omega": 1.0, "gamma": 0.01, "n_thermal": 0.5,
                   "n_fock": 40, "alpha1": 2.0, "alpha2": -2.0},
        "grid": {"t_end": 1.5 * math.pi, "n_steps": 1200,
                 "sample_every": 1},
        "output": {"path": "o.csv"},
    })
    assert np.unique(res.rows[:, 0]).size == 1201
    assert res.all_passed
    assert len(calls) <= 3


def test_damped_oscillator_contracts_densities_in_bounded_blocks(
        monkeypatch):
    # 301 samples go through the position contraction 64 at a time, and
    # the rows at each block edge are still position_density's bits
    states, blocks = [], []
    integrate = scenarios.integrate_master
    contract = scenarios._density_from_table

    def recorded(*args):
        out = integrate(*args)
        states.extend(out)
        return out

    def counted(phi, rho):
        blocks.append(len(rho))
        return contract(phi, rho)

    monkeypatch.setattr(scenarios, "integrate_master", recorded)
    monkeypatch.setattr(scenarios, "_density_from_table", counted)
    res = run({
        "scenario": "damped-oscillator",
        "params": {"omega": 1.0, "gamma": 0.2, "n_thermal": 0.5,
                   "n_fock": 12, "alpha1": [0.5, 0.3], "alpha2": -0.5},
        "grid": {"t_end": 3.0, "n_steps": 300},
        "output": {"path": "o.csv"},
    })
    assert res.all_passed
    assert blocks == [64, 64, 64, 64, 45]
    density = res.rows[:, 2].reshape(len(states), -1)
    xs = res.rows[:density.shape[1], 1]
    for k in (0, 63, 64, 127, 128, 255, 256, 300):
        assert np.array_equal(density[k],
                              oscillator.position_density(states[k], xs))


def test_damped_oscillator_contracts_views_of_the_integrated_series(
        monkeypatch):
    # every block the position contraction reads is a view of the array
    # the integrator validated, so the run stacks no copy of the samples
    series, blocks = [], []
    integrate = scenarios.integrate_master
    contract = scenarios._density_from_table

    def recorded(*args):
        series.append(integrate(*args))
        return series[-1]

    def counted(phi, rho):
        blocks.append(rho)
        return contract(phi, rho)

    monkeypatch.setattr(scenarios, "integrate_master", recorded)
    monkeypatch.setattr(scenarios, "_density_from_table", counted)
    res = run({
        "scenario": "damped-oscillator",
        "params": {"omega": 1.0, "gamma": 0.2, "n_thermal": 0.5,
                   "n_fock": 12, "alpha1": 0.5, "alpha2": -0.5},
        "grid": {"t_end": 2.0, "n_steps": 200},
        "output": {"path": "o.csv"},
    })
    assert res.all_passed
    data = series[0].data
    assert [len(b) for b in blocks] == [64, 64, 64, 9]
    assert all(np.shares_memory(b, data) for b in blocks)


def test_damped_oscillator_builds_one_table_of_rows():
    # n_fock 9, where the (t, xi, density) table of 512 rows a sample is
    # ten times the series: the run's peak is the table and little more
    config = parse_config_table({
        "scenario": "damped-oscillator",
        "params": {"omega": 1.0, "gamma": 0.1, "n_fock": 9,
                   "alpha1": 0.3, "alpha2": -0.3},
        "grid": {"t_end": 10.0, "n_steps": 2000},
        "output": {"path": "o.csv"},
    })
    tracemalloc.start()
    try:
        res = run_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.all_passed
    assert res.rows.shape == (2001 * 512, 3)
    assert peak < 1.5 * res.rows.nbytes
