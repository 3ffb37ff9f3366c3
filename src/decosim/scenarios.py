"""Scenario runners: turn a validated configuration into a result table,
a list of executed consistency checks, and a summary info block.

``decosim.config`` builds a ScenarioConfig from its scenario registry,
which names the runners below; ``run_scenario`` calls the one it carries.

Each runner returns a ScenarioResult whose ``rows`` align with ``columns``
(one CSV row per entry).  Checks carry a name, a pass flag, and a one-line
detail; the CLI copies them into the run manifest and derives its exit
status from them.  Which checks run can depend on the configuration (for
example, telegraph period statistics need resolvable dark periods), and the
manifest lists exactly the checks that ran.  Every scenario prepares its
state at the grid's ``t_start``: models see the time elapsed since then,
and the ``t`` column holds the absolute sample times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coherence import purity
from .evolution import TimeGrid, integrate_master
from .models.central_spin import (
    CentralSpinParams,
    central_spin_coherence,
    decoherence_time,
    gaussian_envelope,
    spin_echo_coherence,
)
from .models.disorder import QUAD_ABS_TOL, disorder_averaged_state
from .models.oscillator import (
    TRUNCATION_TOL,
    _density_from_table,
    check_truncation,
    fringe_visibility,
    hermite_functions,
    mean_occupation,
    merge_times,
    oscillator_model,
    position_grid,
    superposition_state,
)
from .models.three_level import (
    bright_excited_population,
    fluorescence_telegraph,
    poisson_dispersion,
)
from .trajectories import unraveling_equivalence_report

DISPERSION_ALPHA = 0.01
MIN_DARK_PERIODS = 10

CLOSED_FORM = "closed-form"
MASTER_EQUATION = "master-equation"
TRAJECTORIES = "trajectories"


@dataclass(frozen=True)
class EstimatorSpec:
    """How a scenario's expectation values are estimated."""

    kind: str
    n_traj: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated configuration.  ``model`` (the object built from
    ``params``) and ``runner`` are derived, so they skip equality."""

    scenario: str
    params: dict
    grid: TimeGrid
    estimator: EstimatorSpec
    output_path: str
    output_format: str
    model: object = field(compare=False, repr=False)
    runner: Callable = field(compare=False, repr=False)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # numpy bools leak in from array comparisons; manifests are JSON
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class ScenarioResult:
    columns: tuple[str, ...]
    rows: np.ndarray
    checks: tuple[Check, ...]
    info: dict
    # How close the run came to each numerical limit it is held to; the
    # manifest records it, the CSV never does.
    headroom: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _sample_times(grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """The absolute sample times (the t column) and the time since t_start."""
    times = grid.sample_times()
    return times, times - times[0]


def _decoherence_time(p: CentralSpinParams) -> float | None:
    try:
        return decoherence_time(p)
    except ValueError:      # every coupling vanishes
        return None


def _coherence_checks(p: CentralSpinParams, coh: np.ndarray) -> list[Check]:
    dev0 = abs(complex(coh[0]) - p.c1 * np.conj(p.c2))
    return [Check("initial-coherence", dev0 <= 1e-12,
                  f"|coherence(0) - c1 c2*| = {dev0:.3g} (tol 1e-12)")]


def run_central_spin(config: ScenarioConfig, workers: int) -> ScenarioResult:
    p = config.model
    times, elapsed = _sample_times(config.grid)
    coh = central_spin_coherence(p, elapsed)
    env = gaussian_envelope(p, elapsed)
    checks = _coherence_checks(p, coh)
    bound = abs(p.c1 * np.conj(p.c2)) + 1e-12
    worst = float(np.max(np.abs(coh)))
    checks.append(Check("coherence-bounded", worst <= bound,
                        f"max |coherence| = {worst:.12g}, initial "
                        f"{bound - 1e-12:.12g} (tol 1e-12)"))
    rows = np.column_stack([times, coh.real, coh.imag, np.abs(coh), env])
    return ScenarioResult(
        columns=("t", "coherence_re", "coherence_im", "coherence_abs",
                 "gaussian_envelope"),
        rows=rows, checks=tuple(checks),
        info={"t_D": _decoherence_time(p), "n_bath": p.n_bath})


def run_spin_echo(config: ScenarioConfig, workers: int) -> ScenarioResult:
    p = config.model
    t_e = config.params["t_e"]
    times, elapsed = _sample_times(config.grid)
    coh = spin_echo_coherence(p, t_e, elapsed)
    checks = _coherence_checks(p, coh)
    revival = complex(spin_echo_coherence(p, t_e, np.array([2.0 * t_e]))[0])
    target = abs(p.c1 * np.conj(p.c2))
    dev = abs(abs(revival) - target)
    checks.append(Check("echo-revival", dev <= 1e-10,
                        f"| |coherence(2 t_e)| - |c1 c2*| | = {dev:.3g} "
                        "(tol 1e-10)"))
    worst = float(np.max(np.abs(coh)))
    checks.append(Check("coherence-bounded", worst <= target + 1e-12,
                        f"max |coherence| = {worst:.12g} vs initial "
                        f"{target:.12g} (tol 1e-12)"))
    rows = np.column_stack([times, coh.real, coh.imag, np.abs(coh)])
    return ScenarioResult(
        columns=("t", "coherence_re", "coherence_im", "coherence_abs"),
        rows=rows, checks=tuple(checks),
        info={"t_D": _decoherence_time(p), "t_e": t_e,
              "revival_time": float(times[0] + 2.0 * t_e),
              "revival_magnitude": abs(revival), "n_bath": p.n_bath})


def run_disorder(config: ScenarioConfig, workers: int) -> ScenarioResult:
    spec = config.model
    times, elapsed = _sample_times(config.grid)
    est = config.estimator
    monte_carlo = est.kind == TRAJECTORIES
    avg = closed = disorder_averaged_state(spec, elapsed, method="closed-form")
    if monte_carlo:
        avg = disorder_averaged_state(spec, elapsed, method="monte-carlo",
                                      samples=est.n_traj, seed=est.seed)
    d = spec.dim
    mats = avg.states.data  # (n_t, d, d)
    pops = np.diagonal(mats, axis1=1, axis2=2)
    # coherences in _gamma_table's pair order, (re, im, abs) per pair
    m, n = np.triu_indices(d, 1)
    coh = mats[:, m, n]
    parts = np.stack([coh.real, coh.imag, np.abs(coh)], axis=2)
    rows = np.column_stack([times, pops.real, parts.reshape(times.size, -1)])
    columns = ("t", *(f"pop_{k}" for k in range(d)),
               *(f"coh_{i}_{j}_{part}" for i, j in zip(m, n)
                 for part in ("re", "im", "abs")))
    checks = []

    diag_dev = float(np.max(np.abs(pops - np.diagonal(spec.r))))
    checks.append(Check(
        "populations-invariant", diag_dev == 0.0,
        f"max |rho_mm(t) - r_mm| = {diag_dev:.3g} (bit equality required)"))

    off = ~np.eye(d, dtype=bool)
    excess = float(np.max(np.abs(mats[:, off]) - np.abs(spec.r[off])))
    checks.append(Check(
        "coherences-bounded", excess <= 1e-10,
        f"max |rho_mn(t)| - |r_mn| = {excess:.3g} (tol 1e-10)"))

    info = {"dim": d, "method": avg.method,
            "distribution": config.params["distribution"]["kind"]}
    if monte_carlo:
        dev = np.abs(mats - closed.states.data)
        # per-entry CLT bound on the sampled mean phase, scaled by |r_mn|
        bound = (4.0 * np.abs(spec.r)[None, :, :]
                 * (avg.stderr_real + avg.stderr_imag) + 1e-12)
        worst = float(np.max(dev - bound))
        checks.append(Check(
            "matches-closed-form", worst <= 0.0,
            f"max (|rho_mc - rho_cf| - 4 SE bound) = {worst:.3g}"))
        info["samples"] = avg.samples
        info["seed"] = avg.seed
        info["max_closed_form_deviation"] = float(np.max(dev))
    headroom = {"max_quadrature_abserr": closed.max_quadrature_abserr,
                "quadrature_abserr_limit": QUAD_ABS_TOL}
    return ScenarioResult(columns=columns, rows=rows, checks=tuple(checks),
                          info=info, headroom=headroom)


def run_telegraph(config: ScenarioConfig, workers: int) -> ScenarioResult:
    pr = config.params
    p = config.model
    est = config.estimator
    stats = fluorescence_telegraph(p, config.grid, est.n_traj, est.seed,
                                   pr["bin_width"],
                                   dark_threshold=pr["dark_threshold"],
                                   workers=workers)
    pooled = stats.pooled_counts
    dark_traj = stats.dark_bins.sum(axis=0)
    rows = np.column_stack([stats.bin_times, pooled.astype(np.float64),
                            dark_traj.astype(np.float64)])

    # a record without a photon has no dispersion; NaN is null in the manifest
    index, p_value = (poisson_dispersion(pooled) if pooled.any()
                      else (np.nan, np.nan))
    n_dark = int(stats.dark_durations.size)
    expected_dark = (1.0 / p.gamma_deshelve if p.gamma_deshelve > 0.0
                     else None)
    checks = []
    resolvable = (p.gamma_deshelve > 0.0
                  and expected_dark >= 2.0 * stats.bin_width)
    if resolvable:
        if n_dark >= MIN_DARK_PERIODS and stats.dark_stderr > 0.0:
            dev = abs(stats.dark_mean - expected_dark)
            checks.append(Check(
                "dark-mean-matches-deshelving",
                dev <= 3.0 * stats.dark_stderr,
                f"pooled mean {stats.dark_mean:.6g} vs 1/gamma_deshelve "
                f"{expected_dark:.6g}; |dev| = {dev:.3g}, 3 SE = "
                f"{3.0 * stats.dark_stderr:.3g}, {n_dark} periods"))
        else:
            checks.append(Check(
                "dark-mean-matches-deshelving", False,
                f"only {n_dark} interior dark periods observed; need at "
                f"least {MIN_DARK_PERIODS} (run longer or add "
                "trajectories)"))
    washed_out = (p.gamma_deshelve > 0.0
                  and expected_dark <= stats.bin_width)
    if washed_out:
        checks.append(Check(
            "pooled-fluorescence-poisson", p_value >= DISPERSION_ALPHA,
            f"dispersion index {index:.4f}, two-sided p = {p_value:.4g} "
            f"(level {DISPERSION_ALPHA})"))

    info = {
        "n_traj": est.n_traj,
        "bin_width": stats.bin_width,
        "n_bins": int(pooled.size),
        "dark_threshold": stats.dark_threshold,
        "expected_bright_rate": p.gamma_strong
        * bright_excited_population(p),
        "dark_period_count": n_dark,
        "bright_period_count": int(stats.bright_durations.size),
        "dark_mean": stats.dark_mean,
        "dark_stderr": stats.dark_stderr,
        "bright_mean": stats.bright_mean,
        "bright_stderr": stats.bright_stderr,
        "dark_fraction": stats.dark_fraction,
        "expected_dark_mean": expected_dark,
        "pooled_dispersion_index": index,
        "pooled_dispersion_p": p_value,
    }
    return ScenarioResult(columns=("t", "pooled_count", "dark_traj_count"),
                          rows=rows, checks=tuple(checks), info=info)


def run_damped_oscillator(config: ScenarioConfig,
                          workers: int) -> ScenarioResult:
    p = config.model
    psi0 = superposition_state([1.0, 1.0], p.alphas, p.n_fock)
    states = integrate_master(psi0, oscillator_model(p), config.grid)
    times, elapsed = _sample_times(config.grid)
    xs = position_grid(p)
    phi = hermite_functions(xs, p.n_fock)

    top = check_truncation(states)  # raises when inadequate
    rho = states.data
    traces = np.trace(rho, axis1=1, axis2=2).real
    occupations = mean_occupation(states)
    # the CSV's (t, xi, density) rows, 64 samples a slab: that bounds the
    # (samples, grid, n_fock) product, and each slab's norms read the slab
    table = np.empty((times.size, xs.size, 3))
    table[:, :, 0] = times[:, None]
    table[:, :, 1] = xs
    densities = table[:, :, 2]
    norms = np.empty(times.size)
    for lo in range(0, len(rho), 64):
        slab = densities[lo:lo + 64]
        slab[:] = _density_from_table(phi, rho[lo:lo + 64])
        norms[lo:lo + 64] = np.trapezoid(slab, xs, axis=1)

    checks = []
    trace_dev = float(np.max(np.abs(traces - 1.0)))
    checks.append(Check("trace-conserved", trace_dev <= 1e-6,
                        f"max |tr rho - 1| = {trace_dev:.3g} (tol 1e-6)"))
    norm_dev = float(np.max(np.abs(norms - 1.0)))
    checks.append(Check("density-normalized", norm_dev <= 1e-4,
                        f"max |integral - 1| = {norm_dev:.3g} (tol 1e-4)"))
    checks.append(Check("truncation-adequate", True,
                        f"max top-level population = {top:.3g} (tol 1e-6)"))

    merges = merge_times(p, elapsed[-1]) if p.omega != 0.0 else []
    merge_samples, vis = [], []
    for m in merges:
        i = int(np.argmin(np.abs(elapsed - m)))
        if abs(elapsed[i] - m) <= 1e-9 * max(1.0, m):
            merge_samples.append(float(times[i]))
            vis.append(fringe_visibility(xs, densities[i]))
    if p.gamma == 0.0 and vis:
        low = min(vis)
        checks.append(Check(
            "merge-visibility", low >= 0.98,
            f"min visibility over {len(vis)} sampled merge times = "
            f"{low:.4f} (needs >= 0.98)"))
    if p.gamma > 0.0 and len(vis) >= 2:
        drops = np.diff(vis)
        checks.append(Check(
            "visibility-decreasing", bool(np.all(drops < 0.0)),
            f"visibilities at sampled merge times: "
            f"{', '.join(f'{v:.4f}' for v in vis)}"))
    if p.gamma > 0.0:
        analytic = (p.n_thermal + (occupations[0] - p.n_thermal)
                    * np.exp(-p.gamma * elapsed))
        occ_dev = float(np.max(np.abs(occupations - analytic)))
        tol = 1e-6 * max(1.0, occupations[0])
        checks.append(Check(
            "occupation-decay-law", occ_dev <= tol,
            f"max |<n>(t) - relaxation law| = {occ_dev:.3g} "
            f"(tol {tol:.3g})"))

    info = {
        "n_fock": p.n_fock,
        "merge_times_sampled": merge_samples,
        "visibilities": [float(v) for v in vis],
        "purity_initial": purity(states[0]),
        "purity_final": purity(states[-1]),
        "occupation_initial": float(occupations[0]),
        "occupation_final": float(occupations[-1]),
        "max_top_population": top,
    }
    headroom = {"max_top_fock_population": top,
                "top_fock_population_limit": TRUNCATION_TOL}
    return ScenarioResult(columns=("t", "xi", "density"),
                          rows=table.reshape(-1, 3), checks=tuple(checks),
                          info=info, headroom=headroom)


def run_unraveling(config: ScenarioConfig, workers: int) -> ScenarioResult:
    model, state = config.model
    est = config.estimator
    threshold = config.params["threshold"]
    report = unraveling_equivalence_report(state, model, config.grid,
                                           est.n_traj, est.seed,
                                           workers=workers,
                                           threshold=threshold)
    rows = np.column_stack([report.times, report.trace_distances,
                            np.full(report.times.size, threshold)])
    checks = [Check(
        "unraveling-within-threshold", report.passed,
        f"max trace distance {report.max_trace_distance:.6g} vs threshold "
        f"{threshold:.6g} over {report.times.size} samples")]
    info = {
        "model": config.params["model"]["kind"],
        "n_traj": est.n_traj,
        "threshold": threshold,
        "max_trace_distance": report.max_trace_distance,
        "n_flagged": int(np.count_nonzero(report.flagged)),
    }
    return ScenarioResult(columns=("t", "trace_distance", "threshold"),
                          rows=rows, checks=tuple(checks), info=info)


def run_scenario(config: ScenarioConfig, workers: int = 1) -> ScenarioResult:
    """Execute a validated configuration and collect its outputs."""
    return config.runner(config, workers)
