"""Stochastic quantum-jump (Monte Carlo wave function) trajectories.

Unraveling
----------
The engine realizes the photodetection unraveling of the master equation:
between jumps the normalized state drifts under the non-hermitian effective
Hamiltonian

    H_eff = H - (i/2) sum_j gamma_j L_j^dag L_j,

applied per step through the exact exponential E = exp(-i H_eff dt).  Each
step performs the norm-decay jump test: with p = 1 - ||E psi||^2 (psi the
normalized pre-step state), a jump fires when the step's uniform draw is
below p.  On a jump, channel j is selected with probability proportional to
gamma_j ||L_j psi||^2 and the state collapses to L_j psi renormalized; the
jump is recorded at the end time of the step.  Otherwise the state becomes
E psi renormalized.  The splitting is first order in dt; the per-step jump
probability must stay at or below 0.1 or the run aborts with
ConfigurationError (choose a finer grid).

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
    end

Floats are written with 17 significant digits, so the round trip through
``record_from_text`` is exact.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .coherence import trace_distance
from .errors import (ConfigurationError, DimensionError, DomainError,
                     StateError)
from .evolution import LindbladModel, TimeGrid, integrate_master
from .hilbert import QuantumState

# Per-step jump probability above which the grid is rejected as too coarse.
JUMP_PROBABILITY_CAP = 0.1
# Uniform-variate window per trajectory stream (refilled as consumed).
_RNG_WINDOW = 8192
_CHUNK_BYTES = 48_000_000
_MAX_CHUNK = 4096


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
        # t_start + n_steps * dt may round a few ulps past t_end
        slack = 8.0 * np.spacing(max(abs(self.grid.t_start),
                                     abs(self.grid.t_end)))
        if jt.size and (np.any(np.diff(jt) <= 0.0)
                        or jt[0] <= self.grid.t_start
                        or jt[-1] > self.grid.t_end + slack):
            raise DomainError("jump times must be strictly increasing within "
                              "(t_start, t_end]")
        if sn.shape != (self.grid.n_samples, self.dim):
            raise DimensionError(
                f"snapshots shape {sn.shape} does not match "
                f"({self.grid.n_samples}, {self.dim})")
        norms = np.sqrt(np.einsum("sd,sd->s", sn.real, sn.real)
                        + np.einsum("sd,sd->s", sn.imag, sn.imag))
        if np.max(np.abs(norms - 1.0)) > 1e-8:
            raise StateError("snapshots must be normalized within 1e-8")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "jump_channels", jc)
        object.__setattr__(self, "snapshots", sn)


def _effective_propagator(model: LindbladModel, dt: float) -> np.ndarray:
    h_eff = model.h.astype(np.complex128, copy=True)
    for op, rate in model.channels:
        if rate != 0.0:
            h_eff -= 0.5j * rate * (op.conj().T @ op)
    return expm(-1j * dt * h_eff)


def _run_streams(psi0: np.ndarray, model: LindbladModel, grid: TimeGrid,
                 seed: int, streams: Sequence[int]) -> list[TrajectoryRecord]:
    """Advance all requested streams over the grid (vectorized across
    trajectories; consumes each stream's uniforms in the documented order)."""
    dim = psi0.shape[0]
    n_steps = grid.n_steps
    dt = grid.dt
    sample_every = grid.sample_every
    e_t = np.ascontiguousarray(_effective_propagator(model, dt).T)
    channels = [(np.ascontiguousarray(op.T), float(rate))
                for op, rate in model.channels]
    n_ch = len(channels)

    streams = [int(s) for s in streams]
    records: list[TrajectoryRecord] = []
    window = max(2, min(_RNG_WINDOW, 2 * n_steps + 64))
    # Chunk so uniform buffers and snapshots stay within a modest footprint.
    per_traj = window * 8 + grid.n_samples * dim * 16 + 64
    chunk_size = max(1, min(_MAX_CHUNK, _CHUNK_BYTES // per_traj))

    for lo in range(0, len(streams), chunk_size):
        chunk = streams[lo:lo + chunk_size]
        # A 1-row batch would hit a different BLAS kernel than the same row
        # inside a larger batch, breaking bit-level reproducibility across
        # batchings; duplicating the stream keeps every matmul on the
        # multi-row path (the twin consumes identical draws and is dropped).
        solo = len(chunk) == 1
        if solo:
            chunk = [chunk[0], chunk[0]]
        b = len(chunk)
        gens = [np.random.Generator(
            np.random.Philox(key=np.array([seed, s], dtype=np.uint64)))
            for s in chunk]
        block = np.empty((b, window), dtype=np.float64)
        for i in range(b):
            block[i] = gens[i].random(window)
        offset = np.zeros(b, dtype=np.int64)  # next unconsumed column per row

        psi = np.tile(psi0, (b, 1))
        snaps = np.empty((b, grid.n_samples, dim), dtype=np.complex128)
        snaps[:, 0, :] = psi
        jump_times = [[] for _ in range(b)]
        jump_channels = [[] for _ in range(b)]
        rows = np.arange(b)

        for k in range(n_steps):
            # Guarantee two variates are available for every row.
            short = np.nonzero(offset > window - 2)[0]
            for i in short:
                off = int(offset[i])
                block[i, :window - off] = block[i, off:]
                block[i, window - off:] = gens[i].random(off)
                offset[i] = 0

            phi = psi @ e_t
            nrm2 = (np.einsum("ij,ij->i", phi.real, phi.real)
                    + np.einsum("ij,ij->i", phi.imag, phi.imag))
            p_jump = 1.0 - nrm2
            t_next = grid.t_start + (k + 1) * dt
            if np.max(p_jump) > JUMP_PROBABILITY_CAP:
                raise ConfigurationError(
                    f"per-step jump probability {np.max(p_jump):.3e} exceeds "
                    f"{JUMP_PROBABILITY_CAP} at t = {t_next:.17g}; "
                    "the grid step is too coarse")
            u = block[rows, offset]
            offset += 1
            fired = u < p_jump
            psi_next = phi / np.sqrt(nrm2)[:, None]

            if fired.any():
                idx = np.nonzero(fired)[0]
                m = idx.size
                weights = np.empty((m, n_ch), dtype=np.float64)
                collapsed = []
                for c, (l_t, rate) in enumerate(channels):
                    v = psi[idx] @ l_t
                    weights[:, c] = rate * (
                        np.einsum("ij,ij->i", v.real, v.real)
                        + np.einsum("ij,ij->i", v.imag, v.imag))
                    collapsed.append(v)
                total = weights.sum(axis=1)
                live = total > 0.0
                if live.any():
                    li = idx[live]
                    u2 = block[li, offset[li]]
                    offset[li] += 1
                    cum = np.cumsum(weights[live], axis=1)
                    r = u2 * total[live]
                    choice = np.sum(cum < r[:, None], axis=1)
                    choice = np.minimum(choice, n_ch - 1)
                    for c in range(n_ch):
                        sel = choice == c
                        if not sel.any():
                            continue
                        v = collapsed[c][live][sel]
                        norms = np.sqrt(
                            np.einsum("ij,ij->i", v.real, v.real)
                            + np.einsum("ij,ij->i", v.imag, v.imag))
                        psi_next[li[sel]] = v / norms[:, None]
                    for row, c in zip(li, choice):
                        jump_times[row].append(t_next)
                        jump_channels[row].append(int(c))

            psi = psi_next
            if (k + 1) % sample_every == 0:
                snaps[:, (k + 1) // sample_every, :] = psi

        for i, s in enumerate(chunk):
            if solo and i:
                break
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
    if int(seed) < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    return state.data


def run_trajectory(state: QuantumState, model: LindbladModel, grid: TimeGrid,
                   seed: int, stream: int = 0) -> TrajectoryRecord:
    """Run the single trajectory keyed by (seed, stream)."""
    psi0 = _check_trajectory_inputs(state, model, seed)
    if int(stream) < 0:
        raise ConfigurationError(f"stream must be >= 0, got {stream}")
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
    out.sort(key=lambda r: r.stream)
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
    records = run_ensemble(state, model, grid, n_traj, seed, workers=workers)
    estimate = aggregate(records)
    reference = integrate_master(QuantumState.mixed(state.density_matrix()),
                                 model, grid)
    dists = np.array([
        trace_distance(est.data, ref.data)
        for est, ref in zip(estimate.mean_states, reference)])
    if threshold is None:
        threshold = 5.0 / np.sqrt(n_traj)
    elif not threshold > 0.0:
        raise DomainError(f"threshold must be positive, got {threshold}")
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
    except (IndexError, ValueError) as exc:
        raise ConfigurationError(
            f"malformed trajectory record: {exc}") from exc
    return TrajectoryRecord(seed=seed, stream=stream, dim=dim, grid=grid,
                            jump_times=jt, jump_channels=jc, snapshots=snaps)
