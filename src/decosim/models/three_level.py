"""Driven three-level system with a metastable shelf: fluorescence telegraph.

Levels are ordered |g>, |e>, |s|.  A resonant or detuned drive couples
g <-> e while three decay channels act:

    index 0 (strong):    |g><e| at gamma_strong   -- the fluorescence line
    index 1 (shelve):    |s><e| at gamma_shelve   -- rare capture into |s>
    index 2 (de-shelve): |g><s| at gamma_deshelve -- return to the ground state

In the rotating frame H = (rabi/2)(|g><e| + |e><g|) + detuning |e><e|.
While shelved, the strong channel is silent, so a photon-count record of
channel-0 jumps switches between bright and dark periods; the dark-period
length is exponential with mean 1/gamma_deshelve.  ``fluorescence_telegraph``
bins the counts and extracts those periods; ``poisson_dispersion`` tests a
pooled count record against Poisson statistics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from ..errors import ConfigurationError, DomainError
from ..evolution import LindbladModel, TimeGrid
from ..hilbert import QuantumState
from ..trajectories import TrajectoryRecord, run_ensemble

STRONG, SHELVE, DESHELVE = 0, 1, 2
# Minimum expected bright-bin count for telegraph classification.
MIN_EXPECTED_BRIGHT_COUNT = 5.0


@dataclass(frozen=True)
class ThreeLevelParams:
    """Drive and decay rates; gamma_shelve is expected to be far below
    gamma_strong (a UserWarning is issued above 10% of it)."""

    rabi: float
    detuning: float
    gamma_strong: float
    gamma_shelve: float
    gamma_deshelve: float

    def __post_init__(self):
        for name in ("rabi", "detuning", "gamma_strong", "gamma_shelve",
                     "gamma_deshelve"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.gamma_strong <= 0.0:
            raise DomainError(
                f"gamma_strong must be positive, got {self.gamma_strong}")
        if self.gamma_shelve < 0.0 or self.gamma_deshelve < 0.0:
            raise DomainError("decay rates must be >= 0")
        if self.gamma_shelve > 0.1 * self.gamma_strong:
            warnings.warn(
                "gamma_shelve is not small against gamma_strong; the "
                "bright/dark separation of the fluorescence record degrades",
                UserWarning, stacklevel=3)


def three_level_model(params: ThreeLevelParams) -> LindbladModel:
    """Lindblad model in the fixed channel order (strong, shelve, de-shelve)."""
    h = np.zeros((3, 3), dtype=np.complex128)
    h[0, 1] = h[1, 0] = 0.5 * params.rabi
    h[1, 1] = params.detuning
    strong = np.zeros((3, 3), dtype=np.complex128)
    strong[0, 1] = 1.0
    shelve = np.zeros((3, 3), dtype=np.complex128)
    shelve[2, 1] = 1.0
    deshelve = np.zeros((3, 3), dtype=np.complex128)
    deshelve[0, 2] = 1.0
    return LindbladModel(h, [(strong, params.gamma_strong),
                             (shelve, params.gamma_shelve),
                             (deshelve, params.gamma_deshelve)])


def ground_state() -> QuantumState:
    return QuantumState.pure(np.array([1.0, 0.0, 0.0], dtype=np.complex128))


def bright_excited_population(params: ThreeLevelParams) -> float:
    """Steady-state excited population of the driven g-e manifold with the
    shelf turned off (saturation formula)."""
    om2 = params.rabi ** 2
    return (om2 / 4.0) / (params.detuning ** 2 + om2 / 2.0
                          + params.gamma_strong ** 2 / 4.0)


@dataclass(frozen=True)
class TelegraphStats:
    """Binned fluorescence record and bright/dark period statistics.

    ``counts[i, b]`` is the strong-channel photon count of trajectory i in
    bin b; a bin is dark when its count is <= ``dark_threshold``.  Period
    tables pool all trajectories, excluding runs touching a record boundary
    (their true length is censored).  Durations are in time units
    (bins * bin_width); means/stderrs are NaN when fewer than two periods
    of the kind exist.
    """

    bin_width: float
    dark_threshold: int
    bin_times: np.ndarray
    counts: np.ndarray
    dark_bins: np.ndarray
    period_trajectory: np.ndarray
    period_is_dark: np.ndarray
    period_start: np.ndarray
    period_duration: np.ndarray

    @property
    def pooled_counts(self) -> np.ndarray:
        """Per-bin counts summed over trajectories (the ensemble record)."""
        return self.counts.sum(axis=0)

    @property
    def dark_durations(self) -> np.ndarray:
        return self.period_duration[self.period_is_dark]

    @property
    def bright_durations(self) -> np.ndarray:
        return self.period_duration[~self.period_is_dark]

    @property
    def dark_fraction(self) -> float:
        return float(self.dark_bins.mean())

    def _mean_stderr(self, values: np.ndarray) -> tuple[float, float]:
        if values.size < 2:
            return (float("nan"), float("nan"))
        return (float(values.mean()),
                float(values.std(ddof=1) / np.sqrt(values.size)))

    @property
    def dark_mean(self) -> float:
        return self._mean_stderr(self.dark_durations)[0]

    @property
    def dark_stderr(self) -> float:
        return self._mean_stderr(self.dark_durations)[1]

    @property
    def bright_mean(self) -> float:
        return self._mean_stderr(self.bright_durations)[0]

    @property
    def bright_stderr(self) -> float:
        return self._mean_stderr(self.bright_durations)[1]


def _period_table(dark: np.ndarray, bin_width: float, t_start: float,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run-length encode each trajectory's dark/bright bin classification,
    dropping the boundary-censored first and last runs."""
    trajs, kinds, starts, durations = [], [], [], []
    n_traj, n_bins = dark.shape
    for i in range(n_traj):
        row = dark[i]
        edges = np.flatnonzero(np.diff(row)) + 1
        bounds = np.concatenate([[0], edges, [n_bins]])
        # interior runs only: run j spans bounds[j]..bounds[j+1]
        for j in range(1, len(bounds) - 2):
            lo, hi = bounds[j], bounds[j + 1]
            trajs.append(i)
            kinds.append(bool(row[lo]))
            starts.append(t_start + lo * bin_width)
            durations.append((hi - lo) * bin_width)
    return (np.array(trajs, dtype=np.int64),
            np.array(kinds, dtype=bool),
            np.array(starts, dtype=np.float64),
            np.array(durations, dtype=np.float64))


def _telegraph_bins(params: ThreeLevelParams, grid: TimeGrid,
                    bin_width: float, dark_threshold: int) -> int:
    """Check the binning rules of ``fluorescence_telegraph`` and return the
    number of full bins; a violation raises ConfigurationError."""
    if dark_threshold < 0:
        raise ConfigurationError(
            f"dark_threshold must be >= 0, got {dark_threshold}")
    if not bin_width > 0.0:
        raise ConfigurationError(f"bin_width must be positive, got {bin_width}")
    expected = (params.gamma_strong * bright_excited_population(params)
                * bin_width)
    if expected < MIN_EXPECTED_BRIGHT_COUNT:
        raise ConfigurationError(
            f"bin_width {bin_width} is too small: expected bright-bin count "
            f"{expected:.3g} is below {MIN_EXPECTED_BRIGHT_COUNT}; widen the "
            "bins")
    n_bins = int(np.floor((grid.t_end - grid.t_start) / bin_width + 1e-9))
    if n_bins < 2:
        raise ConfigurationError(
            f"the grid spans fewer than two bins of width {bin_width}; it "
            "must span at least two full bins")
    return n_bins


def fluorescence_telegraph(params: ThreeLevelParams, grid: TimeGrid,
                           n_traj: int, seed: int, bin_width: float,
                           dark_threshold: int = 0,
                           workers: int = 1) -> TelegraphStats:
    """Simulate trajectories from |g> and bin the strong-channel emissions.

    ``bin_width`` must be large enough that a bright bin is clearly
    non-empty: the expected bright-bin count
    gamma_strong * (bright excited population) * bin_width must be >= 5,
    else ConfigurationError.  Bins cover [t_start, t_start + n_bins *
    bin_width]; a partial trailing bin is discarded.
    """
    dark_threshold = int(dark_threshold)
    bin_width = float(bin_width)
    n_bins = _telegraph_bins(params, grid, bin_width, dark_threshold)

    records = run_ensemble(ground_state(), three_level_model(params), grid,
                           n_traj, seed, workers=workers)
    edges = grid.t_start + bin_width * np.arange(n_bins + 1)
    counts = np.zeros((len(records), n_bins), dtype=np.int64)
    for i, rec in enumerate(records):
        emissions = rec.jump_times[rec.jump_channels == STRONG]
        counts[i], _ = np.histogram(emissions, bins=edges)
    dark = counts <= dark_threshold
    traj, kind, start, duration = _period_table(dark, bin_width, grid.t_start)
    return TelegraphStats(
        bin_width=bin_width, dark_threshold=dark_threshold,
        bin_times=edges[:-1], counts=counts, dark_bins=dark,
        period_trajectory=traj, period_is_dark=kind, period_start=start,
        period_duration=duration)


def poisson_dispersion(counts) -> tuple[float, float]:
    """Dispersion test of a count record against Poisson at matched mean.

    Returns (dispersion index, two-sided p-value) using the chi-square
    distribution of (n-1) * variance / mean.
    """
    k = np.asarray(counts, dtype=np.float64)
    if k.ndim != 1 or k.size < 2:
        raise DomainError("need a 1-D record with at least two bins")
    mean = k.mean()
    if mean <= 0.0:
        raise DomainError("dispersion test needs a positive mean count")
    n = k.size
    stat = (n - 1) * k.var(ddof=1) / mean
    cdf = chi2.cdf(stat, df=n - 1)
    p = 2.0 * min(cdf, 1.0 - cdf)
    return float(stat / (n - 1)), float(min(1.0, p))
