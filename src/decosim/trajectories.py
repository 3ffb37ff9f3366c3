"""Stochastic quantum-jump (Monte Carlo wave function) trajectories.

Unraveling
----------
The engine realizes the photodetection unraveling of the master equation:
between jumps the normalized state drifts under the non-hermitian effective
Hamiltonian

    H_eff = H - (i/2) sum_j gamma_j L_j^dag L_j,

applied per step through the exact exponential E = exp(-i H_eff dt), taken
from the folded form that the master-equation engine also reads.  Each
step performs the norm-decay jump test: with p = 1 - ||E psi||^2 (psi the
normalized pre-step state), a jump fires when the step's uniform draw is
below p.  On a jump, channel j is selected with probability proportional to
gamma_j ||L_j psi||^2 and the state collapses to L_j psi renormalized; the
jump is recorded at the end time of the step.  Otherwise the state becomes
E psi renormalized.  The splitting is first order in dt; the per-step jump
probability must stay at or below 0.1 on every step a trajectory takes, or
the run aborts with ConfigurationError naming the earliest such step
(choose a finer grid).

The steps are not taken one at a time but in the waiting-time form of the
method.  The powers E^0 .. E^K (K = 64) are computed once per run.  From
its current state psi, each trajectory computes the no-jump continuation
E^k psi for the next min(K, steps left) steps in one product; since the
continuation is unnormalized, the per-step probabilities are ratios of
consecutive norms, p_k = 1 - ||E^k psi||^2 / ||E^(k-1) psi||^2.  The first
step whose uniform draw falls below its p_k is the next jump: the
trajectory takes the steps up to it, collapses from its pre-jump state and
starts again from there; without a jump it takes all the computed steps.
Each trajectory thus advances on its own clock from event to event.  The
continuation past a trajectory's next jump is never taken, so its
probabilities are not held against the 0.1 cap.  Mathematically this is
the step-by-step recursion above; E^k psi and repeated renormalization
differ at rounding level only, so a jump decision can differ only where a
draw ties its probability to within rounding.

Randomness contract
-------------------
Each trajectory owns an independent counter-based stream: numpy Philox keyed
by the pair (seed, stream index).  Uniform variates are consumed in event
order: one draw per time step for the jump test, immediately followed by one
additional draw for channel selection whenever that step fired a jump (no
draw is consumed for the channel when the total jump weight is zero, a
degenerate case treated as no-jump).  Reruns with the same (seed, stream)
produce bit-for-bit identical records.  Trajectories are independent given
distinct (seed, stream) pairs and may run in parallel; aggregation sorts
records by (seed, stream) so results never depend on completion order.

Batch independence
------------------
Trajectories advance in batches, one event per trajectory per pass, but
every product with a power of E or a jump operator is row-local
(``einsum`` over one row's own amplitudes, with the same summation order
at any batch size), and so is every norm.  A BLAS matrix product would not
be: it sends a one-row batch and a many-row batch to different kernels.
The other rows of a batch decide neither which steps a row takes nor
which draws it reads.  So a trajectory's record is bit-identical whether
it runs alone, inside a chunk of any size, or on any worker.

Record text format (version 1)
------------------------------
``record_to_text`` emits, in order, one line each of::

    decosim-trajectory-record v1
    seed <int>
    stream <int>
    dim <int>
    grid <t_start> <t_end> <n_steps> <sample_every>
    jumps <n_jumps>
    <time> <channel>            (n_jumps lines, time ascending)
    snapshots <n_samples>
    <re im re im ...>           (n_samples lines, 2*dim floats each)
    end                         (nothing but whitespace may follow)

Floats are written with 17 significant digits, so the round trip through
``record_from_text`` is exact.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import expm

from .coherence import trace_distance
from .errors import (ConfigurationError, DimensionError, DomainError,
                     StateError)
from .evolution import LindbladModel, TimeGrid, integrate_master
from .hilbert import QuantumState

__all__ = ["EnsembleEstimate", "EquivalenceReport", "TrajectoryRecord",
           "aggregate", "record_from_text", "record_to_text", "run_ensemble",
           "run_trajectory", "unraveling_equivalence_report"]

# Per-step jump probability above which the grid is rejected as too coarse.
JUMP_PROBABILITY_CAP = 0.1
# Uniform-variate window per trajectory stream (refilled as consumed).
_RNG_WINDOW = 8192
# Steps a row looks ahead per pass: the engine precomputes E^1 .. E^64.
_LOOKAHEAD = 64
_CHUNK_BYTES = 48_000_000
_MAX_CHUNK = 4096


def _check_key(name: str, value) -> None:
    """Seeds and stream indices key Philox as unsigned 64-bit words."""
    if not 0 <= int(value) < 2**64:
        raise ConfigurationError(f"{name} must be in [0, 2**64), got {value}")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One stochastic trajectory: jump history plus sampled states.

    ``snapshots[s]`` is the normalized state vector at sample instant s of
    the grid (initial state included).  ``jump_times``/``jump_channels``
    list every jump in time order; times lie in (t_start, t_end] and are
    strictly increasing (at most one jump per step).
    """

    seed: int
    stream: int
    dim: int
    grid: TimeGrid
    jump_times: np.ndarray
    jump_channels: np.ndarray
    snapshots: np.ndarray

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=np.float64)
        jc = np.asarray(self.jump_channels, dtype=np.int64)
        sn = np.asarray(self.snapshots, dtype=np.complex128)
        if jt.shape != jc.shape or jt.ndim != 1:
            raise DimensionError("jump times/channels must be matching 1-D arrays")
        _check_key("seed", self.seed)
        _check_key("stream", self.stream)
        if jc.size and jc.min() < 0:
            raise DomainError("jump channels must be non-negative")
        # t_start + n_steps * dt may round a few ulps past t_end
        slack = 8.0 * np.spacing(max(abs(self.grid.t_start),
                                     abs(self.grid.t_end)))
        # each bound is written so that a NaN fails it
        if jt.size and not (np.all(np.diff(jt) > 0.0)
                            and jt[0] > self.grid.t_start
                            and jt[-1] <= self.grid.t_end + slack):
            raise DomainError("jump times must be strictly increasing within "
                              "(t_start, t_end]")
        if sn.shape != (self.grid.n_samples, self.dim):
            raise DimensionError(
                f"snapshots shape {sn.shape} does not match "
                f"({self.grid.n_samples}, {self.dim})")
        norms = np.sqrt(np.einsum("sd,sd->s", sn.real, sn.real)
                        + np.einsum("sd,sd->s", sn.imag, sn.imag))
        # a NaN norm fails <=
        if not np.max(np.abs(norms - 1.0)) <= 1e-8:
            raise StateError("snapshots must be normalized within 1e-8")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "jump_channels", jc)
        object.__setattr__(self, "snapshots", sn)


def _sq_norms(z: np.ndarray) -> np.ndarray:
    """Squared norms over the last axis of a C-contiguous complex array,
    each reduced over its own amplitudes alone."""
    x = z.view(np.float64)
    return np.einsum("...x,...x->...", x, x)


def _run_streams(psi0: np.ndarray, model: LindbladModel, grid: TimeGrid,
                 seed: int, streams: Sequence[int]) -> list[TrajectoryRecord]:
    """Advance all requested streams over the grid, each row to its own
    next event per pass (consumes each stream's uniforms in the documented
    order)."""
    dim = psi0.shape[0]
    n_steps = grid.n_steps
    sample_every = grid.sample_every
    horizon = min(_LOOKAHEAD, n_steps)
    e = expm(-1j * grid.dt * model._h_eff)
    powers = np.empty((horizon + 1, dim, dim), dtype=np.complex128)
    powers[0] = np.eye(dim)
    for k in range(horizon):
        powers[k + 1] = np.einsum("ij,jk->ik", e, powers[k])
    ahead = np.arange(horizon)  # column j: the (j+1)-th step ahead
    channel_index = np.array([c for c, _ in model._jumps], dtype=np.int64)
    ops = np.array([l for _, l in model._jumps], dtype=np.complex128)
    ops = ops.reshape(len(channel_index), dim, dim)
    n_ch = channel_index.size

    streams = [int(s) for s in streams]
    records: list[TrajectoryRecord] = []
    # at least 66 columns: a full look-ahead of jump tests plus a channel draw
    window = min(_RNG_WINDOW, 2 * n_steps + 64)
    # Chunk so uniform buffers, snapshots and the per-pass look-ahead
    # temporaries stay within a modest footprint.
    per_traj = (window * 8 + grid.n_samples * dim * 16
                + (horizon + 1) * (dim * 16 + 64))
    chunk_size = max(1, min(_MAX_CHUNK, _CHUNK_BYTES // per_traj))

    for lo in range(0, len(streams), chunk_size):
        chunk = streams[lo:lo + chunk_size]
        b = len(chunk)
        gens = [np.random.Generator(
            np.random.Philox(key=np.array([seed, s], dtype=np.uint64)))
            for s in chunk]
        block = np.empty((b, window), dtype=np.float64)
        for i in range(b):
            block[i] = gens[i].random(window)
        lookahead = sliding_window_view(block, horizon, axis=1)
        offset = np.zeros(b, dtype=np.int64)  # next unconsumed column per row

        psi = np.tile(psi0, (b, 1))
        snaps = np.empty((b, grid.n_samples, dim), dtype=np.complex128)
        snaps[:, 0, :] = psi
        done = np.zeros(b, dtype=np.int64)  # steps taken per row
        jump_times = [[] for _ in range(b)]
        jump_channels = [[] for _ in range(b)]
        active = np.arange(b)

        while active.size:
            # Guarantee a full look-ahead plus a channel draw for every row.
            for i in active[offset[active] > window - horizon - 1]:
                off = int(offset[i])
                block[i, :window - off] = block[i, off:]
                block[i, window - off:] = gens[i].random(off)
                offset[i] = 0

            start = done[active]
            # no-jump continuation E^j psi for j = 0 .. horizon
            phi = np.einsum("kij,bj->bki", powers, psi[active])
            nrm2 = _sq_norms(phi)
            with np.errstate(divide="ignore", invalid="ignore"):
                p_jump = 1.0 - nrm2[:, 1:] / nrm2[:, :-1]
            inside = ahead < (n_steps - start)[:, None]
            fired = (lookahead[active, offset[active]] < p_jump) & inside
            hit = fired.any(axis=1)
            taken = np.where(hit, fired.argmax(axis=1) + 1, inside.sum(axis=1))
            took = ahead < taken[:, None]
            at = start[:, None] + ahead + 1  # grid step each column ends on

            over = took & (p_jump > JUMP_PROBABILITY_CAP)
            if over.any():
                r, j = np.nonzero(over)
                first = np.argmin(at[r, j])
                r, j = r[first], j[first]
                t_over = grid.t_start + int(at[r, j]) * grid.dt
                raise ConfigurationError(
                    f"per-step jump probability {p_jump[r, j]:.3e} exceeds "
                    f"{JUMP_PROBABILITY_CAP} at t = {t_over:.17g}; "
                    "the grid step is too coarse")

            offset[active] += taken
            done[active] += taken
            r, j = np.nonzero(took & (at % sample_every == 0))
            snaps[active[r], at[r, j] // sample_every] = (
                phi[r, j + 1] / np.sqrt(nrm2[r, j + 1])[:, None])
            rows = np.arange(active.size)
            psi[active] = phi[rows, taken] / np.sqrt(nrm2[rows, taken])[:, None]

            # Fired rows collapse from their normalized pre-step state; one
            # with zero total weight keeps its no-jump state.
            hr = np.nonzero(hit)[0]
            pre = (phi[hr, taken[hr] - 1]
                   / np.sqrt(nrm2[hr, taken[hr] - 1])[:, None])
            v = np.einsum("cij,bj->bci", ops, pre)
            weights = _sq_norms(v)
            total = weights.sum(axis=1)
            live = total > 0.0
            if live.any():
                li = active[hr[live]]
                target = block[li, offset[li]] * total[live]
                offset[li] += 1
                cum = np.cumsum(weights[live], axis=1)
                choice = np.minimum(np.sum(cum < target[:, None], axis=1),
                                    n_ch - 1)
                pick = np.nonzero(live)[0], choice
                psi[li] = v[pick] / np.sqrt(weights[pick])[:, None]
                step = done[li]
                sampled = step % sample_every == 0
                snaps[li[sampled], step[sampled] // sample_every] = (
                    psi[li[sampled]])
                for row, k, c in zip(li.tolist(), step.tolist(),
                                     channel_index[choice].tolist()):
                    jump_times[row].append(grid.t_start + k * grid.dt)
                    jump_channels[row].append(c)

            active = active[done[active] < n_steps]

        for i, s in enumerate(chunk):
            records.append(TrajectoryRecord(
                seed=seed, stream=s, dim=dim, grid=grid,
                jump_times=np.array(jump_times[i], dtype=np.float64),
                jump_channels=np.array(jump_channels[i], dtype=np.int64),
                snapshots=snaps[i]))
    return records


def _check_trajectory_inputs(state: QuantumState, model: LindbladModel,
                             seed: int) -> np.ndarray:
    if state.kind != "pure":
        raise StateError("trajectory evolution starts from a pure state")
    if state.dim != model.dim:
        raise DimensionError(
            f"state dimension {state.dim} does not match model dimension "
            f"{model.dim}")
    _check_key("seed", seed)
    return state.data


def run_trajectory(state: QuantumState, model: LindbladModel, grid: TimeGrid,
                   seed: int, stream: int = 0) -> TrajectoryRecord:
    """Run the single trajectory keyed by (seed, stream)."""
    psi0 = _check_trajectory_inputs(state, model, seed)
    _check_key("stream", stream)
    return _run_streams(psi0, model, grid, int(seed), [int(stream)])[0]


def _worker(args) -> list[TrajectoryRecord]:
    psi0, model, grid, seed, streams = args
    return _run_streams(psi0, model, grid, seed, streams)


def run_ensemble(state: QuantumState, model: LindbladModel, grid: TimeGrid,
                 n_traj: int, seed: int, workers: int = 1,
                 ) -> list[TrajectoryRecord]:
    """Run trajectories for streams 0 .. n_traj-1 under one base seed.

    ``workers > 1`` distributes contiguous stream ranges over processes,
    at most one per CPU; records are returned in stream order either way,
    so the result is independent of scheduling.
    """
    psi0 = _check_trajectory_inputs(state, model, seed)
    n_traj = int(n_traj)
    if n_traj < 1:
        raise ConfigurationError(f"n_traj must be >= 1, got {n_traj}")
    workers = int(workers)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    streams = list(range(n_traj))
    if workers == 1 or n_traj < 2 * workers:
        return _run_streams(psi0, model, grid, int(seed), streams)

    bounds = np.linspace(0, n_traj, workers + 1).astype(int)
    tasks = [(psi0, model, grid, int(seed), streams[a:b])
             for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    out: list[TrajectoryRecord] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_worker, tasks):
            out.extend(part)
    return out


@dataclass(frozen=True)
class EnsembleEstimate:
    """Trajectory-averaged state series with sampling uncertainty.

    ``mean_states[s]`` averages the snapshot projectors of all records at
    sample s; ``population_stderr[s, d]`` is the standard error of the
    population of basis state d at that sample (zero for a single record).
    """

    n_traj: int
    times: np.ndarray
    mean_states: tuple[QuantumState, ...]
    population_stderr: np.ndarray


def aggregate(records: Sequence[TrajectoryRecord]) -> EnsembleEstimate:
    """Average an ensemble of records.

    The reduction sorts by (seed, stream) first, so the estimate is
    bit-identical under any permutation of the input list.
    """
    if len(records) == 0:
        raise DimensionError("cannot aggregate an empty record list")
    first = records[0]
    for r in records:
        if r.dim != first.dim or r.grid != first.grid:
            raise DimensionError(
                "records mix different grids or dimensions; aggregation "
                "requires a homogeneous ensemble")
    ordered = sorted(records, key=lambda r: (r.seed, r.stream))
    snaps = np.stack([r.snapshots for r in ordered])  # (n, S, d)
    n = snaps.shape[0]
    mean_rho = np.einsum("nsd,nse->sde", snaps, snaps.conj()) / n
    pops = snaps.real ** 2 + snaps.imag ** 2  # (n, S, d)
    if n > 1:
        stderr = pops.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        stderr = np.zeros(pops.shape[1:])
    states = tuple(QuantumState.mixed(mean_rho[s])
                   for s in range(mean_rho.shape[0]))
    return EnsembleEstimate(
        n_traj=n, times=first.grid.sample_times(), mean_states=states,
        population_stderr=stderr)


@dataclass(frozen=True)
class EquivalenceReport:
    """Trajectory-average vs master-equation comparison on one grid.

    Samples whose trace distance exceeds ``threshold`` (5 / sqrt(n_traj))
    are flagged; ``passed`` is True when nothing is flagged.
    """

    n_traj: int
    times: np.ndarray
    trace_distances: np.ndarray
    threshold: float
    flagged: np.ndarray

    @property
    def max_trace_distance(self) -> float:
        return float(np.max(self.trace_distances))

    @property
    def passed(self) -> bool:
        return not bool(np.any(self.flagged))


def unraveling_equivalence_report(
        state: QuantumState, model: LindbladModel, grid: TimeGrid,
        n_traj: int, seed: int, workers: int = 1,
        threshold: float | None = None) -> EquivalenceReport:
    """Run an ensemble and the master equation on identical inputs and
    compare them sample by sample in trace distance.  ``threshold``
    defaults to the sampling bound 5 / sqrt(n_traj)."""
    if threshold is not None and not threshold > 0.0:
        raise DomainError(f"threshold must be positive, got {threshold}")
    records = run_ensemble(state, model, grid, n_traj, seed, workers=workers)
    estimate = aggregate(records)
    reference = integrate_master(QuantumState.mixed(state.density_matrix()),
                                 model, grid)
    dists = np.array([
        trace_distance(est.data, ref.data)
        for est, ref in zip(estimate.mean_states, reference)])
    if threshold is None:
        threshold = 5.0 / np.sqrt(n_traj)
    return EquivalenceReport(
        n_traj=int(n_traj), times=grid.sample_times(), trace_distances=dists,
        threshold=float(threshold), flagged=dists > threshold)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def record_to_text(record: TrajectoryRecord) -> str:
    """Serialize to the line-oriented text format documented above."""
    g = record.grid
    lines = [
        "decosim-trajectory-record v1",
        f"seed {record.seed}",
        f"stream {record.stream}",
        f"dim {record.dim}",
        f"grid {_fmt(g.t_start)} {_fmt(g.t_end)} {g.n_steps} {g.sample_every}",
        f"jumps {record.jump_times.size}",
    ]
    for t, c in zip(record.jump_times, record.jump_channels):
        lines.append(f"{_fmt(t)} {int(c)}")
    lines.append(f"snapshots {record.snapshots.shape[0]}")
    for row in record.snapshots:
        parts = []
        for z in row:
            parts.append(_fmt(z.real))
            parts.append(_fmt(z.imag))
        lines.append(" ".join(parts))
    lines.append("end")
    return "\n".join(lines) + "\n"


def record_from_text(text: str) -> TrajectoryRecord:
    """Parse the text format back into a record (exact round trip)."""
    lines = text.strip().split("\n")
    try:
        if lines[0] != "decosim-trajectory-record v1":
            raise ValueError(f"unrecognized header {lines[0]!r}")
        seed = int(lines[1].split()[1])
        stream = int(lines[2].split()[1])
        dim = int(lines[3].split()[1])
        gparts = lines[4].split()[1:]
        grid = TimeGrid(float(gparts[0]), float(gparts[1]),
                        int(gparts[2]), int(gparts[3]))
        n_jumps = int(lines[5].split()[1])
        pos = 6
        jt = np.empty(n_jumps, dtype=np.float64)
        jc = np.empty(n_jumps, dtype=np.int64)
        for i in range(n_jumps):
            a, b = lines[pos + i].split()
            jt[i] = float(a)
            jc[i] = int(b)
        pos += n_jumps
        n_samples = int(lines[pos].split()[1])
        pos += 1
        snaps = np.empty((n_samples, dim), dtype=np.complex128)
        for i in range(n_samples):
            vals = [float(x) for x in lines[pos + i].split()]
            if len(vals) != 2 * dim:
                raise ValueError(f"snapshot line {i} has {len(vals)} fields, "
                                 f"expected {2 * dim}")
            # reinterpreting (re, im) pairs keeps the sign of zero parts
            snaps[i] = np.array(vals).view(np.complex128)
        if lines[pos + n_samples] != "end":
            raise ValueError("missing end marker")
        if len(lines) > pos + n_samples + 1:
            raise ValueError("trailing text after end marker")
    except (IndexError, ValueError) as exc:
        raise ConfigurationError(
            f"malformed trajectory record: {exc}") from exc
    return TrajectoryRecord(seed=seed, stream=stream, dim=dim, grid=grid,
                            jump_times=jt, jump_channels=jc, snapshots=snaps)
