"""Stochastic quantum-jump (Monte Carlo wave function) trajectories.

Unraveling
----------
The engine realizes the photodetection unraveling of the master equation:
between jumps the normalized state drifts under the non-hermitian effective
Hamiltonian

    H_eff = H - (i/2) sum_j gamma_j L_j^dag L_j,

applied per step through the exact exponential E = exp(-i H_eff dt), taken
from the folded form that the master-equation engine also reads.  E comes
from ``expm``, a numpy port of the scaling-and-squaring algorithm that
scipy.linalg.expm runs (Al-Mohy & Higham 2009), so the engine does not
load scipy.linalg; a diagonal H_eff gives a diagonal E exactly.  Each
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

A pass holds only the unfinished rows of a chunk, compacted: each row's
chunk position, state, next unread uniform and steps taken; a row leaves
on the pass it finishes.  A row's window of uniforms starts empty, so the
refill at the head of a pass also fills it first.  A pass keeps its
states in one table, the continuation and its squared norms: a fired row
writes its jump L_j psi and squared norm over the column of its jump
step, once the jump test and the cap have read it.  One normalizing
gather then reads every state the pass keeps: a row's next psi from the
column of its last step and, by one writer, the sample at each step s in
(start, done] from column (s - start - 1) mod K + 1.  A row whose pass had
p <= 0 on every step and left psi bitwise unchanged is absorbed: every
later pass would repeat it exactly and no draw could fire, so it leaves
and keeps that pass's columns 1 .. K, from which the same rule gives each
of its later samples.  A row whose state changes, even by a phase only,
keeps running.

Each row writes sample s into column s mod R of its ring.  For
``run_ensemble`` R = n_samples: the ring is the row's snapshots.  The
streamed estimate holds _RING_LOOKAHEADS look-aheads of samples plus one
(see ``_plan``).  A block of rows (see "Ensemble reduction") reduces the
samples that all its rows have written, which frees their columns, when
one of its rows would otherwise sit out a pass and when its chunk ends;
absorbed rows write their later samples just before.  A row whose pass
could write into a column its block has not reduced sits that pass out.
The slowest row of a block always has room, and a row's bits do not
depend on which rows share its pass ("Batch independence"), so R changes
no record.

Randomness contract
-------------------
Each trajectory owns an independent counter-based stream: numpy Philox keyed
by the pair (seed, stream index).  Uniform variates are consumed in event
order: one draw per time step for the jump test, immediately followed by one
additional draw for channel selection whenever that step fired a jump (no
draw is consumed for the channel when the total jump weight is zero, a
degenerate case treated as no-jump).  The engine reads the streams through
one Philox generator in whole blocks of four draws (one counter step):
each fill of row s's window re-keys it to (seed, s), sets its counter past
the blocks the row has read and reads whole blocks, so a row reads the
same draws as a Philox of its own and no draw is discarded.  Reruns with the
same (seed, stream) give bit-for-bit identical records.  Trajectories are
independent given distinct (seed, stream) pairs and may run in parallel;
aggregation sorts by (seed, stream), so no result depends on completion.

Batch independence
------------------
Trajectories advance in batches, one event per trajectory per pass.  The
continuation is one BLAS product of the rows with the stacked powers
E^0 .. E^K, taken over tiles of _TILE = 8 rows, the last padded with zero
rows.  A BLAS library picks its kernel from the shape of a product, so
one product over the whole batch would send a one-row batch and a
many-row batch to different kernels and round a row differently.  Every
tile has the same shape, whatever the batch size, so a row's
continuation has the same bits at any place in any tile, and under one
or several BLAS threads.  The jump-operator products (``einsum`` over one
row's own amplitudes) and every norm are row-local.  The other rows of a
batch decide neither which steps a row takes nor which draws it reads.
So a trajectory's record is bit-identical whether it runs alone, inside
a chunk of any size, or on any worker.  The bits do depend on the numpy
and BLAS build and on the CPU kernel it picks at run time: on another
build or CPU a state may differ in its last digit, and a jump only where
a draw ties its probability to within rounding.

Result layout
-------------
An ensemble comes back as one ``TrajectoryBatch``, a struct of arrays: the
seed, a ``streams`` array, ``snapshots`` of shape (n, n_samples, dim), and
every row's jumps in flat ``jump_times``/``jump_channels`` arrays, row i
owning the slice ``offsets[i]:offsets[i + 1]``.  The engine collects the
jumps as one array per pass and validates the batch once, with vectorised
checks that apply the ``TrajectoryRecord`` rules to every row.  Both
ensembles cut streams 0 .. n-1 into at most min(workers, units) runs of
whole units, in order, and pool only two or more runs.  ``run_ensemble``'s
unit is one stream: its workers return batches, joined in stream order, so
the pool moves a few arrays instead of one object per trajectory.  The
batch is a sequence: an item is a ``TrajectoryRecord`` view of its row
(not checked again) and a slice is a batch, so code written for a list of
records keeps working.  The streamed estimate's engine calls return block
moments instead of a batch; they hold each sample to the batch's
squared-norm rule as they reduce it, and raise the batch's error naming
the same row.

Ensemble reduction
------------------
An estimate is reduced in fixed blocks of _BLOCK = 256 rows of the
stream-sorted ensemble.  A block's moments (``_moments``) are its count
and the mean and M2 (sum of squared deviations) of its populations, plus
the sum of its projectors psi psi^dag per sample (one ``einsum``).  The
blocks are folded left to right in block order with the pairwise update
of Chan, Golub & LeVeque (Am. Stat. 37, 242, 1983; ``_chan``), so the
estimate's bits depend on the ensemble and _BLOCK only, never on workers
or chunks.  The disorder Monte Carlo (``models.disorder``) is the rule's
other user: it folds its draws' phases the same way, _BLOCK draws a block.
``aggregate`` applies this reduction to the rows it is given.  The
unraveling report runs it as the ensemble runs, one block a unit: each
process takes a run of whole blocks, builds the propagator table once and
runs engine calls of the whole blocks that ``_plan`` fits in _CHUNK_BYTES
(two on the unravel-wide benchmark).  A call reduces each block a column
range at a time, as its rows pass the samples in their rings, and returns
only the moments.  A sample's moments are reduced over its own column
alone, so their bits are those of one reduction of the whole block.  The
pool moves O(blocks * S * d^2) bytes, a call holds R samples a row rather
than S, and the estimate equals ``aggregate(run_ensemble(...))`` bit for
bit.

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

Floats carry 17 significant digits and integers are ASCII digits after
an optional "-", so ``record_from_text`` reads them back exactly.  It
reads each block from the lines present: a count that does not match its
lines is an error, never the size of an array.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import operator
import os
from collections.abc import Sequence
from concurrent import futures
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coherence import trace_distance
from .errors import (ConfigurationError, DimensionError, DomainError,
                     StateError)
from .evolution import LindbladModel, TimeGrid, integrate_master
from .hilbert import (QuantumState, StateSeries, as_decimal, as_integer,
                      as_key, as_number_array, as_real, check_dims,
                      is_normalized)

__all__ = ["EnsembleEstimate", "EquivalenceReport", "TrajectoryBatch",
           "TrajectoryRecord", "aggregate", "record_from_text",
           "record_to_text", "run_ensemble", "run_trajectory",
           "unraveling_equivalence_report"]

# Per-step jump probability above which the grid is rejected as too coarse.
JUMP_PROBABILITY_CAP = 0.1
# Uniform-variate window per trajectory stream (refilled as consumed).
_RNG_WINDOW = 8192
# Steps a row looks ahead per pass: the engine precomputes E^1 .. E^64.
# A pass ends on a renormalisation of psi, so another value moves those
# points and changes the bits of every record: it stays 64.
_LOOKAHEAD = 64
# Rows per BLAS call of the continuation.  The kernel a BLAS product runs
# depends on the shape of its operands, so every call takes a whole tile
# (the last padded with zero rows): a row's bits then depend on neither
# the batch size nor its place in the tile.  8 keeps the padding small: a
# one-row run pays for 8 rows, 6.4 us a call against 3.7 us for a
# row-local einsum at d = 3 (one OpenBLAS thread on an x86-64 Xeon), and
# a 64-row tile was no faster on a 60-row telegraph batch.
_TILE = 8
# Bytes a chunk of rows may hold besides the samples run_ensemble returns
# (see ``_plan``): 12 MB gives the unravel-wide benchmark's streamed
# estimate calls of two blocks.
_CHUNK_BYTES = 12_000_000
_MAX_CHUNK = 4096
# Look-aheads of samples a streamed row's ring holds (see ``_plan``).  8
# adds no pass at 20,000 samples of the three-level model, where 2 took
# 1.5 times the passes.
_RING_LOOKAHEADS = 8
# Rows per reduction block (see "Ensemble reduction").  Workers take whole
# blocks, and 256 splits 6,000 rows over two as 3,072 + 2,928.
_BLOCK = 256


@dataclass(frozen=True)
class TrajectoryRecord:
    """One stochastic trajectory: jump history plus sampled states.

    ``snapshots[s]`` is the normalized state vector at sample instant s of
    the grid (initial state included): its squared norm lies within 1e-10
    of 1, the trace bound of a density matrix, so the mean of the
    projectors has a trace that ``aggregate`` accepts.
    ``jump_times``/``jump_channels`` list every jump in time order; times
    lie in (t_start, t_end] and are strictly increasing (at most one jump
    per step).
    """

    seed: int
    stream: int
    dim: int
    grid: TimeGrid
    jump_times: np.ndarray
    jump_channels: np.ndarray
    snapshots: np.ndarray

    def __post_init__(self):
        one = TrajectoryBatch(
            seed=self.seed, streams=[self.stream], dim=self.dim,
            grid=self.grid, snapshots=as_number_array(
                self.snapshots, "snapshots", np.complex128)[None],
            jump_times=self.jump_times, jump_channels=self.jump_channels,
            offsets=[0, np.size(self.jump_times)])
        object.__setattr__(self, "dim", one.dim)
        object.__setattr__(self, "jump_times", one.jump_times)
        object.__setattr__(self, "jump_channels", one.jump_channels)
        object.__setattr__(self, "snapshots", one.snapshots[0])


def _as_int64(values) -> np.ndarray:
    """*values* as an int64 array in which each entry that is not an
    integer by the rule of ``as_integer`` (a bool, a float or a string is
    not) or lies outside int64 reads negative, which the callers' checks
    refuse; an unsigned entry past int64 wraps to a negative one."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    arr = np.asarray(values, dtype=object)

    def entry(value) -> int:
        try:
            n = as_integer(value, "")
        except DimensionError:
            return -1
        return n if -2**63 <= n < 2**63 else -1
    return np.array([entry(v) for v in arr.flat],
                    dtype=np.int64).reshape(arr.shape)


def _unchecked(cls, **fields):
    """An instance of a frozen class from fields already known valid."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class TrajectoryBatch(Sequence):
    """An ensemble of trajectories under one seed, as one set of arrays.

    Row i is stream ``streams[i]``: its snapshots are ``snapshots[i]``
    (shape (n_samples, dim)) and its jumps are ``jump_times[a:b]`` and
    ``jump_channels[a:b]`` with ``a, b = offsets[i], offsets[i + 1]``.
    Every row obeys the rules of :class:`TrajectoryRecord` (each
    snapshot's squared norm within 1e-10 of 1), checked once over the
    whole batch; a failure in a batch of more than one names the first bad
    row.  The batch is a sequence: items are record views of
    its rows and slices are batches.
    """

    seed: int
    streams: np.ndarray
    dim: int
    grid: TimeGrid
    snapshots: np.ndarray
    jump_times: np.ndarray
    jump_channels: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        jt = as_number_array(self.jump_times, "jump times", np.float64)
        jc = _as_int64(self.jump_channels)
        sn = as_number_array(self.snapshots, "snapshots", np.complex128)
        off = _as_int64(self.offsets)
        if jt.shape != jc.shape or jt.ndim != 1:
            raise DimensionError("jump times/channels must be matching 1-D arrays")
        if np.ndim(self.streams) != 1:
            raise DimensionError("streams must be a 1-D array")
        n = len(self.streams)
        if (off.shape != (n + 1,) or off[0] != 0 or off[-1] != jt.size
                or np.any(np.diff(off) < 0)):
            raise DimensionError(
                "offsets must be integers that rise from 0 to the jump "
                "count, one entry per row plus one")

        def where(row: int) -> str:
            return _row_label(row, n)

        def row_of(jump: int) -> int:
            return int(np.searchsorted(off, jump, side="right")) - 1

        seed = as_key(self.seed, "seed")
        dim = as_integer(self.dim, "dim")
        # an unsigned array holds valid keys by its type
        keys = np.asarray(self.streams)
        if keys.dtype.kind != "u":
            keys = np.array([as_key(k, f"{where(i)}stream")
                             for i, k in enumerate(self.streams)],
                            dtype=np.uint64)
        if jc.size and jc.min() < 0:
            raise DomainError(f"{where(row_of(np.argmax(jc < 0)))}jump "
                              "channels must be non-negative integers")
        # t_start + n_steps * dt may round a few ulps past t_end
        g = self.grid
        slack = 8.0 * np.spacing(max(abs(g.t_start), abs(g.t_end)))
        # each bound is written so that a NaN fails it; times only rise
        # within a row, and may drop where the next row starts
        rising = np.ones(jt.size, dtype=bool)
        rising[1:] = jt[1:] > jt[:-1]
        rising[off[:-1][off[:-1] < jt.size]] = True
        bad = ~(rising & (jt > g.t_start) & (jt <= g.t_end + slack))
        if bad.any():
            raise DomainError(
                f"{where(row_of(np.argmax(bad)))}jump times must be strictly "
                "increasing within (t_start, t_end]")
        if sn.shape != (n, g.n_samples, dim):
            raise DimensionError(
                f"snapshots shape {sn.shape} does not match "
                f"({n}, {g.n_samples}, {dim})")
        bad = _off_norm_rows(sn)
        if bad.any():
            raise _off_norm_error(int(np.argmax(bad)), n)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "streams", keys.astype(np.uint64))
        object.__setattr__(self, "snapshots", sn)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "jump_channels", jc)
        object.__setattr__(self, "offsets", off)

    def __len__(self) -> int:
        return self.streams.size

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._take(np.arange(len(self))[key])
        i = operator.index(key)
        if not -len(self) <= i < len(self):
            raise IndexError(f"row {i} out of range for {len(self)} rows")
        i %= len(self)
        a, b = self.offsets[i], self.offsets[i + 1]
        return _unchecked(
            TrajectoryRecord, seed=self.seed, stream=int(self.streams[i]),
            dim=self.dim, grid=self.grid, jump_times=self.jump_times[a:b],
            jump_channels=self.jump_channels[a:b],
            snapshots=self.snapshots[i])

    def _take(self, rows: np.ndarray) -> "TrajectoryBatch":
        """The batch of the given rows, in that order."""
        lo = self.offsets[rows]
        counts = self.offsets[rows + 1] - lo
        offsets = _offsets(counts)
        flat = _runs(lo, counts)[1]
        return _unchecked(
            TrajectoryBatch, seed=self.seed, streams=self.streams[rows],
            dim=self.dim, grid=self.grid, snapshots=self.snapshots[rows],
            jump_times=self.jump_times[flat],
            jump_channels=self.jump_channels[flat], offsets=offsets)


def _row_label(row: int, n: int) -> str:
    """The prefix that names one row of a batch of more than one."""
    return f"row {row} of {n}: " if n > 1 else ""


def _off_norm_rows(snaps: np.ndarray) -> np.ndarray:
    """Which rows of (n, S, d) snapshots hold a sample whose squared norm
    is not within 1e-10 of 1, the trace rule of a density matrix."""
    return ~is_normalized(_sq_norms(np.ascontiguousarray(snaps))).all(axis=1)


def _off_norm_error(row: int, n: int) -> StateError:
    """The error that names the first row of n whose samples
    ``_off_norm_rows`` refuses."""
    return StateError(f"{_row_label(row, n)}snapshots must have squared "
                      "norm within 1e-10 of 1")


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Row offsets into flat jump arrays: 0 and the running sums of the
    per-row jump counts."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _sq_norms(z: np.ndarray) -> np.ndarray:
    """Squared norms over the last axis of a C-contiguous complex array,
    each reduced over its own amplitudes alone."""
    x = z.view(np.float64)
    return np.einsum("...x,...x->...", x, x)


def _runs(first: np.ndarray, count: np.ndarray):
    """Owner i and value of every entry of the runs first[i], first[i] + 1,
    ..., first[i] + count[i] - 1, concatenated in order."""
    owner = np.repeat(np.arange(count.size), count)
    starts = np.cumsum(count) - count
    return owner, first[owner] + np.arange(owner.size) - starts[owner]


def _continuation(psi: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """The rows' no-jump continuations E^k psi, shape (rows, K + 1, d), as
    the product ``psi @ stacked`` taken over tiles of _TILE rows, the last
    padded with zero rows, so BLAS sees one shape at any batch size."""
    n, dim = psi.shape
    tiles = -(-n // _TILE)
    padded = np.zeros((tiles * _TILE, dim), dtype=np.complex128)
    padded[:n] = psi
    phi = np.matmul(padded.reshape(tiles, _TILE, dim), stacked)
    return phi.reshape(tiles * _TILE, -1, dim)[:n]


def _check_cap(p_jump: np.ndarray, taken: np.ndarray, start: np.ndarray,
               grid: TimeGrid) -> None:
    """Raise on the earliest grid step, over all rows, that a row took with
    a jump probability above the cap or NaN; columns past a row's taken steps
    (the continuation past its jump) are not held against the cap."""
    took = np.arange(p_jump.shape[1]) < taken[:, None]
    over = took & ~(p_jump <= JUMP_PROBABILITY_CAP)
    if over.any():
        r, j = np.nonzero(over)
        first = np.argmin(start[r] + j)
        r, j = r[first], j[first]
        t_over = grid.t_start + int(start[r] + j + 1) * grid.dt
        raise ConfigurationError(
            f"per-step jump probability {p_jump[r, j]:.3e} exceeds "
            f"{JUMP_PROBABILITY_CAP} at t = {t_over:.17g}; "
            "the grid step is too coarse")


# theta_m of Al-Mohy & Higham (2009) in double precision: the largest
# 1-norm at which the Pade approximant r_m of degree m is accurate to unit
# roundoff (4.25 for m = 13 as in scipy's expm, which scales to it).
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 4.25}


def _norm1(a):
    return np.abs(a).sum(axis=0).max()


def _ell(a, m: int) -> int:
    """Squarings to add so that the backward error of r_m at *a* stays at
    unit roundoff 2^-53: the bound ||c_m |a|^(2m+1)||_1 / ||a||_1, with
    c_m = (m!)^2 / ((2m)! (2m+1)!) the leading error coefficient."""
    v, abs_t = np.ones(a.shape[0]), np.abs(a).T
    for _ in range(2 * m + 1):
        v = abs_t @ v
    if not v.max():
        return 0
    alpha = v.max() * math.factorial(m) ** 2 / (
        _norm1(a) * math.factorial(2 * m) * math.factorial(2 * m + 1))
    return max(math.ceil(math.log2(alpha * 2.0 ** 53) / (2 * m)), 0)


def expm(a):
    """exp(a) of a square matrix by the scaling-and-squaring algorithm of
    Al-Mohy & Higham (SIAM J. Matrix Anal. Appl. 31, 970 (2009)), as
    ``scipy.linalg.expm`` runs it, with exact 1-norms.

    A diagonal *a* gives diag(exp(diag(a))) exactly, so a state that E
    leaves unchanged stays bitwise fixed.  Otherwise the degree m of the
    Pade approximant r_m = (V + U) / (V - U) and the scaling 2^-s come
    from the norms ||a^2k||^(1/2k) and ``_ell``; r_m(2^-s a) is squared s
    times.  When a power of *a* up to a^10 overflows, the result is all
    NaN and no warning is emitted.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if not a[~np.eye(n, dtype=bool)].any():
        return np.diag(np.exp(np.diag(a)))
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        a8 = a4 @ a4
        d4, d6, d8, d10 = (_norm1(p) ** (1 / k) for k, p in
                           ((4, a4), (6, a6), (8, a8), (10, a4 @ a6)))
    if not np.isfinite([d4, d6, d8, d10]).all():
        return np.full_like(a, np.nan)
    ident, s = np.eye(n, dtype=a.dtype), 0
    for m, eta in ((3, max(d4, d6)), (5, max(d4, d6)), (7, max(d6, d8)),
                   (9, max(d6, d8))):
        if eta < _PADE_THETA[m] and _ell(a, m) == 0:
            break
    else:
        m, eta = 13, min(max(d6, d8), max(d8, d10))
        if eta:
            s = max(math.ceil(math.log2(eta / _PADE_THETA[m])), 0)
        s += _ell(a * 2.0 ** -s, m)
        a, a2, a4, a6 = (p * 2.0 ** (-k * s) for k, p in
                         ((1, a), (2, a2), (4, a4), (6, a6)))
    # b_j = (2m - j)! / (j! (m - j)!), the numerator coefficients of r_m
    b = [math.factorial(2 * m - j)
         / (math.factorial(j) * math.factorial(m - j)) for j in range(m + 1)]
    if m == 13:
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6
                 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6
             + b[4] * a4 + b[2] * a2 + b[0] * ident)
    else:
        evens = [ident, a2, a4, a6, a8][m // 2::-1]
        u = a @ sum(b[j] * p for j, p in zip(range(m, 0, -2), evens))
        v = sum(b[j] * p for j, p in zip(range(m - 1, -1, -2), evens))
    x = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        x = x @ x
    return x


def _propagators(model: LindbladModel, grid: TimeGrid):
    """What every engine call of a run reads: the powers E^0 .. E^K side by
    side (column k * dim + i holds row i of E^k, so psi @ stacked lists
    E^k psi), and each jump channel's index and operator."""
    dim = model.dim
    horizon = min(_LOOKAHEAD, grid.n_steps)
    e = expm(-1j * grid.dt * model._h_eff)
    powers = np.empty((horizon + 1, dim, dim), dtype=np.complex128)
    powers[0] = np.eye(dim)
    for k in range(horizon):
        powers[k + 1] = np.einsum("ij,jk->ik", e, powers[k])
    stacked = np.ascontiguousarray(powers.transpose(2, 0, 1))
    channel_index = np.array([c for c, _ in model._jumps], dtype=np.int64)
    ops = np.array([l for _, l in model._jumps], dtype=np.complex128)
    return (stacked.reshape(dim, (horizon + 1) * dim), channel_index,
            ops.reshape(len(channel_index), dim, dim))


def _plan(dim: int, grid: TimeGrid, block: int = 0) -> tuple[int, int, int]:
    """The sizes of an engine call: the uniforms a row's window holds, the
    rows a chunk runs, and R, the sample columns each row holds.

    Each row's window and look-ahead temporaries count against
    _CHUNK_BYTES.  For ``run_ensemble`` (``block`` 0) R is n_samples: the
    batch it returns holds every sample.  A streamed call runs whole
    blocks of ``block`` rows, at least one, and each row also counts its
    share of its block's moments and its ring: R is _RING_LOOKAHEADS
    look-aheads of samples plus one, at most n_samples, so the slowest row
    of a block always has room for a pass.
    """
    horizon = min(_LOOKAHEAD, grid.n_steps)
    # A row draws one uniform per step plus one per jump.  A pass reads a
    # full look-ahead of jump tests plus one channel draw past the row's
    # offset, so only a row with more than horizon + 1 jumps refills; its
    # offset then falls below 4, and its window holds >= horizon + 4 draws.
    window = -(-min(_RNG_WINDOW, grid.n_steps + 2 * horizon + 1) // 4) * 4
    per_row = window * 8 + (horizon + 1) * (dim * 16 + 64)
    n = grid.n_samples
    if not block:
        return window, max(1, min(_MAX_CHUNK, _CHUNK_BYTES // per_row)), n
    per_row += -(-_block_moment_bytes(dim, n) // block)
    ring = min(n, _RING_LOOKAHEADS * horizon // grid.sample_every + 1)
    rows = min(_MAX_CHUNK, _CHUNK_BYTES // (per_row + ring * dim * 16))
    return window, block * max(1, rows // block), ring


def _run_streams(psi0: np.ndarray, table, grid: TimeGrid, seed: int,
                 streams: Sequence[int], block: int = 0):
    """Advance all requested streams over the grid, each row to its own
    next event per pass (consumes each stream's uniforms in the documented
    order); *table* is ``_propagators(model, grid)``.  Returns the batch of
    the rows or, given a ``block``, the moments of each run of ``block``
    rows in order, reduced as the rows pass their samples."""
    stacked, channel_index, ops = table
    dim = psi0.shape[0]
    n_steps, every, n_samples = grid.n_steps, grid.sample_every, grid.n_samples
    horizon = min(_LOOKAHEAD, n_steps)
    ahead = np.arange(horizon)  # column j: the (j+1)-th step ahead
    n_ch = channel_index.size
    window, chunk_size, cols = _plan(dim, grid, block)

    streams = np.asarray(streams, dtype=np.uint64)
    # One Philox serves every row: set to key (seed, s) at counter n it
    # yields stream s's uniforms from block n on.  Writing the counter word
    # is the advance by n blocks, without the cost of a call to advance().
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    uniforms = np.random.Generator(bits)
    fresh = bits.state
    key, counter = fresh["state"]["key"], fresh["state"]["counter"]

    def read(stream, blocks: int, out: np.ndarray) -> None:
        """Fill ``out`` with the stream's uniforms from block ``blocks`` on."""
        key[1], counter[0] = stream, blocks
        bits.state = fresh
        uniforms.random(out=out)

    snapshots = None if block else np.empty((streams.size, n_samples, dim),
                                            dtype=np.complex128)
    moments = []
    off_norm = streams.size     # first row with a sample off the norm rule
    # one array each per pass: batch row, grid step and channel of its jumps
    none = np.empty(0, dtype=np.int64)
    jump_rows, jump_steps, jump_channels = [none], [none], [none]

    def unit(r, col):
        """Rows ``r`` of this pass's table at ``col``, normalized."""
        return phi[r, col] / np.sqrt(nrm2[r, col])[:, None]

    def samples(first, count, start):
        """Owner, ring column and look-ahead column less one of the samples
        first .. first + count - 1 of rows whose pass began at ``start``."""
        r, idx = _runs(first, count)
        return r, idx % cols, (idx * every - start[r] - 1) % horizon

    def reduce():
        """Write the absorbed rows' samples as far as the slowest running
        row of their block and the ring allow, and reduce every block's
        samples that all its rows have written."""
        nonlocal kept, off_norm
        have = np.full(b, n_samples)
        have[row] = done // every + 1
        upto = np.minimum(np.minimum.reduceat(have, firsts), base + cols)
        k_row, k_start, k_have, states = kept
        target = np.maximum(k_have, upto[k_row // size])
        r, at, col = samples(k_have, target - k_have, k_start)
        ring[k_row[r], at] = states[r, col]
        kept = k_row, k_start, target, states
        for k in (upto > base).nonzero()[0] if block else ():
            s = np.arange(base[k], upto[k])
            part = ring[firsts[k]:firsts[k] + size, s % cols]
            bad = _off_norm_rows(part)
            if bad.any():
                off_norm = min(off_norm, int(lo + firsts[k] + bad.argmax()))
            _, mean[k, s], m2[k, s], rho[k, s] = _sample_moments(part)
        base[:] = upto

    for lo in range(0, streams.size, chunk_size):
        chunk = streams[lo:lo + chunk_size]
        b = len(chunk)
        uniform = np.empty((b, window), dtype=np.float64)
        drawn = np.zeros(b, dtype=np.int64)  # blocks read per row
        lookahead = sliding_window_view(uniform, horizon, axis=1)
        # Row r writes sample s into column s mod R of its ring, once its
        # block has reduced sample s - R; R = n_samples for the batch.
        ring = (np.empty((b, cols, dim), dtype=np.complex128) if block
                else snapshots[lo:lo + b])
        ring[:, 0, :] = psi0
        size = block or b
        firsts = np.arange(0, b, size)
        base = np.zeros(firsts.size, dtype=np.int64)  # samples reduced
        if block:
            mean, m2 = (np.empty((firsts.size, n_samples, dim))
                        for _ in range(2))
            rho = np.empty((firsts.size, n_samples, dim, dim),
                           dtype=np.complex128)
        # Absorbed rows: chunk row, the step their last pass began, samples
        # written, and that pass's states at columns 1 .. horizon.
        kept = none, none, none, np.empty((0, horizon, dim),
                                          dtype=np.complex128)

        # The unfinished rows only, compacted: chunk row, state, next
        # unread column of the row's window (none yet), and steps taken.
        row = np.arange(b)
        psi = np.tile(psi0, (b, 1))
        offset = np.full(b, window, dtype=np.int64)
        done = np.zeros(b, dtype=np.int64)
        while row.size:
            held = None
            if cols < n_samples:
                # a row whose pass could write past its ring sits it out
                last = np.minimum(done + horizon, n_steps) // every
                go = last < base[row // size] + cols
                if not go.all():
                    reduce()
                    go = last < base[row // size] + cols
                    if not go.all():
                        held = row[~go], psi[~go], offset[~go], done[~go]
                        row, psi, offset, done = (row[go], psi[go],
                                                  offset[go], done[go])
            rows = np.arange(row.size)
            # Guarantee a full look-ahead plus a channel draw for every row.
            if offset.max() > window - horizon - 1:
                for i in (offset > window - horizon - 1).nonzero()[0]:
                    r, used = row[i], int(offset[i]) // 4 * 4
                    uniform[r, :window - used] = uniform[r, used:]
                    read(chunk[r], int(drawn[r]), uniform[r, window - used:])
                    drawn[r] += used // 4
                    offset[i] -= used

            # no-jump continuation E^j psi for j = 0 .. horizon
            phi = _continuation(psi, stacked)
            nrm2 = _sq_norms(phi)
            with np.errstate(divide="ignore", invalid="ignore"):
                p_jump = 1.0 - nrm2[:, 1:] / nrm2[:, :-1]
            fired = lookahead[row, offset] < p_jump
            steps = horizon
            if done.max() > n_steps - horizon:
                steps = np.minimum(n_steps - done, horizon)
                fired &= ahead < steps[:, None]
            k = fired.argmax(axis=1)
            hit = fired[rows, k]
            taken = np.where(hit, k + 1, steps)

            # A NaN (E not finite) fails the cap like a probability above
            # it; the exact check runs only when some probability fails.
            pmax = np.fmax.reduce(p_jump, axis=1)
            if not pmax.max() <= JUMP_PROBABILITY_CAP:
                _check_cap(p_jump, taken, done, grid)

            start = done
            done = start + taken
            offset += taken
            # A fired row collapses from its pre-step state into the column
            # of its jump step; zero total weight is no jump.
            hr = hit.nonzero()[0]
            if hr.size:
                v = np.einsum("cij,bj->bci", ops, unit(hr, taken[hr] - 1))
                weights = _sq_norms(v)
                total = weights.sum(axis=1)
                if not total.min() > 0.0:
                    live = total > 0.0
                    hr, v, weights, total = (hr[live], v[live], weights[live],
                                             total[live])
                r = row[hr]
                o = offset[hr]
                target = uniform[r, o] * total
                offset[hr] = o + 1
                cum = weights.cumsum(axis=1)
                choice = np.minimum((cum < target[:, None]).sum(axis=1),
                                    n_ch - 1)
                pick = np.arange(hr.size), choice
                col = taken[hr]
                phi[hr, col], nrm2[hr, col] = v[pick], weights[pick]
                jump_rows.append(lo + r)
                jump_steps.append(done[hr])
                jump_channels.append(channel_index[choice])

            # every row's state after its last step, jumped or not
            psi_next = unit(rows, taken)
            # samples at the sample steps in (start, done]
            first = start // every
            count = done // every - first
            if count.any():
                r, at, col = samples(first + 1, count, start)
                ring[row[r], at] = unit(r, col + 1)
            # A row whose pass had p <= 0 throughout and left psi bitwise
            # as it was would repeat that pass to the end, never jumping:
            # it finishes now (a pass short of horizon steps is its last),
            # and its later samples repeat this pass's columns.
            if pmax.min() <= 0.0:
                a = (pmax <= 0.0).nonzero()[0]
                same = psi_next[a].view(np.uint64) == psi[a].view(np.uint64)
                a = a[same.all(axis=1)]
                if a.size:
                    kept = [np.concatenate(pair) for pair in zip(kept, (
                        row[a], start[a], done[a] // every + 1,
                        phi[a, 1:] / np.sqrt(nrm2[a, 1:])[:, :, None]))]
                    done[a] = n_steps
            psi = psi_next

            # rows leave on the pass they finish
            if done.max() == n_steps:
                keep = done < n_steps
                row, psi, offset, done = (row[keep], psi[keep], offset[keep],
                                          done[keep])
            if held is not None:
                row, psi, offset, done = (np.concatenate(pair) for pair in
                                          zip((row, psi, offset, done), held))
        while base.min() < n_samples:
            reduce()
        if block:
            moments += zip(np.diff(np.append(firsts, b)).tolist(), mean, m2,
                           rho)

    if off_norm < streams.size:
        raise _off_norm_error(off_norm, streams.size)
    if block:
        return moments
    owner = np.concatenate(jump_rows)
    # a row's jumps were appended in time order, one per pass
    order = np.argsort(owner, kind="stable")
    steps = np.concatenate(jump_steps)[order]
    return TrajectoryBatch(
        seed=seed, streams=streams, dim=dim, grid=grid, snapshots=snapshots,
        jump_times=grid.t_start + steps * grid.dt,
        jump_channels=np.concatenate(jump_channels)[order],
        offsets=_offsets(np.bincount(owner, minlength=streams.size)))


def run_trajectory(state: QuantumState, model: LindbladModel, grid: TimeGrid,
                   seed: int, stream: int = 0) -> TrajectoryRecord:
    """Run the single trajectory keyed by (seed, stream)."""
    psi0, seed, _, _ = _ensemble_inputs(state, model, seed, 1, 1)
    stream = as_key(stream, "stream")
    return _run_streams(psi0, _propagators(model, grid), grid, seed,
                        [stream])[0]


def _capped_workers(workers: int) -> int:
    """The processes a run of ``workers`` uses: at most one per CPU."""
    return min(workers, os.cpu_count() or 1)


def _worker(args) -> TrajectoryBatch:
    psi0, model, grid, seed, streams = args
    return _run_streams(psi0, _propagators(model, grid), grid, seed, streams)


def _concat(parts: Sequence[TrajectoryBatch]) -> TrajectoryBatch:
    """The rows of batches that share seed, dim and grid, in order."""
    first = parts[0]
    if len(parts) == 1:
        return first
    return _unchecked(
        TrajectoryBatch, seed=first.seed,
        streams=np.concatenate([p.streams for p in parts]), dim=first.dim,
        grid=first.grid,
        snapshots=np.concatenate([p.snapshots for p in parts]),
        jump_times=np.concatenate([p.jump_times for p in parts]),
        jump_channels=np.concatenate([p.jump_channels for p in parts]),
        offsets=_offsets(np.concatenate([np.diff(p.offsets)
                                         for p in parts])))


def _ensemble_inputs(state, model, seed, n_traj, workers):
    """The checked start vector, seed, ensemble size and capped workers."""
    if state.kind != "pure":
        raise StateError("trajectory evolution starts from a pure state")
    check_dims(state.dim, model.dim, "state", "model")
    seed = as_key(seed, "seed")
    n_traj = as_integer(n_traj, "n_traj", ConfigurationError, least=1)
    workers = _capped_workers(
        as_integer(workers, "workers", ConfigurationError, least=1))
    return state.data, seed, n_traj, workers


class ProcessPoolExecutor(futures.ProcessPoolExecutor):
    """The pool of ``_map_runs``: its workers fork where the platform can,
    which costs a fraction of starting each by importing decosim anew (the
    forkserver default on Linux from Python 3.14, and spawn)."""

    def __init__(self, max_workers):
        fork = "fork" in multiprocessing.get_all_start_methods()
        super().__init__(max_workers, mp_context=(
            multiprocessing.get_context("fork") if fork else None))


def _map_runs(fn, task, n_traj: int, unit: int, workers: int) -> list:
    """``fn(task(lo, hi))`` for each run of streams lo .. hi-1 when streams
    0 .. n_traj-1 are cut into at most min(workers, units) runs of whole
    units of ``unit`` streams, in order; more than one run in a pool."""
    units = -(-n_traj // unit)
    runs = min(workers, units)
    bounds = [min(i * units // runs * unit, n_traj) for i in range(runs + 1)]
    tasks = [task(a, b) for a, b in zip(bounds, bounds[1:])]
    if runs == 1:
        return [fn(tasks[0])]
    with ProcessPoolExecutor(max_workers=runs) as pool:
        return list(pool.map(fn, tasks))


def run_ensemble(state: QuantumState, model: LindbladModel, grid: TimeGrid,
                 n_traj: int, seed: int, workers: int = 1,
                 ) -> TrajectoryBatch:
    """Run trajectories for streams 0 .. n_traj-1 under one base seed.

    The streams run by the split of "Result layout", one stream a unit,
    at most one process per CPU; the batch holds its rows in stream order
    either way, so the result is independent of scheduling.
    """
    psi0, seed, n_traj, workers = _ensemble_inputs(state, model, seed,
                                                   n_traj, workers)
    return _concat(_map_runs(_worker, lambda a, b: (
        psi0, model, grid, seed, np.arange(a, b, dtype=np.uint64)),
        n_traj, 1, workers))


@dataclass(frozen=True)
class EnsembleEstimate:
    """Trajectory-averaged state series with sampling uncertainty.

    ``mean_states`` is a ``StateSeries``: ``mean_states.data[s]`` averages
    the snapshot projectors of all records at sample s, and
    ``mean_states[s]`` is that state.  ``population_stderr[s, d]`` is the
    standard error of the population of basis state d at that sample (zero
    for a single record).
    """

    n_traj: int
    times: np.ndarray
    mean_states: StateSeries
    population_stderr: np.ndarray


def aggregate(records: Sequence[TrajectoryRecord]) -> EnsembleEstimate:
    """Average an ensemble: a batch, or records of one seed, dim and grid.

    The reduction sorts by stream first, so the estimate is bit-identical
    under any permutation of the input; it then reduces in blocks (see
    "Ensemble reduction").
    """
    if len(records) == 0:
        raise DimensionError("cannot aggregate an empty record list")
    if isinstance(records, TrajectoryBatch):
        streams, snaps = records.streams, records.snapshots
    else:
        first = records[0]
        key = (first.seed, first.dim, first.grid)
        if any((r.seed, r.dim, r.grid) != key for r in records):
            raise DimensionError(
                "records mix different seeds, grids or dimensions; "
                "aggregation requires a homogeneous ensemble")
        streams = np.array([r.stream for r in records], dtype=np.uint64)
        snaps = np.stack([r.snapshots for r in records])
    snaps = snaps[np.argsort(streams, kind="stable")]
    return _fold((_sample_moments(snaps[a:a + _BLOCK])
                  for a in range(0, len(snaps), _BLOCK)), records[0].grid)


def _moments(rows: np.ndarray):
    """The count, mean and M2 (sum of squared deviations) of each column."""
    mean = rows.mean(axis=0)
    return len(rows), mean, ((rows - mean) ** 2).sum(axis=0)


def _chan(a, b):
    """Blocks a and b joined (Chan, Golub & LeVeque); further sums add."""
    (n, mean, m2, *sums), (n_b, mean_b, m2_b, *sums_b) = a, b
    delta = mean_b - mean
    total = n + n_b
    return (total, mean + delta * (n_b / total),
            m2 + m2_b + delta ** 2 * (n * n_b / total),
            *map(operator.add, sums, sums_b))


def _sample_moments(rows: np.ndarray):
    """The count of (n, S, d) snapshots, the mean and M2 of their
    populations (S, d), and the sum of their projectors per sample
    (S, d, d); each sample's entries are reduced over its own column."""
    return (*_moments(rows.real ** 2 + rows.imag ** 2),
            np.einsum("nsd,nse->sde", rows, rows.conj()))


def _fold(moments, grid: TimeGrid) -> EnsembleEstimate:
    """The estimate of block moments folded left to right, in block order."""
    n, mean, m2, rho = functools.reduce(_chan, moments)
    return EnsembleEstimate(
        n_traj=n, times=grid.sample_times(),
        mean_states=QuantumState._mixed_stack(rho / n),
        population_stderr=np.sqrt(m2 / max(n - 1, 1)) / math.sqrt(n))


def _moments_worker(args) -> list[tuple]:
    """The block moments of streams lo .. hi-1, in engine calls of the rows
    that ``_plan`` gives, all from one propagator table."""
    psi0, model, grid, seed, lo, hi, block = args
    table = _propagators(model, grid)
    step = _plan(psi0.size, grid, block)[1]
    return [m for a in range(lo, hi, step) for m in _run_streams(
        psi0, table, grid, seed,
        np.arange(a, min(a + step, hi), dtype=np.uint64), block)]


def _block_moment_bytes(dim: int, n_samples: int) -> int:
    """Bytes of one block's moments: per sample, the mean and M2 of dim
    populations and dim^2 projector sums.  The streamed estimate holds
    every block's before it folds them."""
    return n_samples * dim * (dim + 1) * 16


def _streamed_estimate(state: QuantumState, model: LindbladModel,
                       grid: TimeGrid, n_traj: int, seed: int,
                       workers: int) -> EnsembleEstimate:
    """``aggregate(run_ensemble(...))`` bit for bit, reduced as it runs:
    each process takes a contiguous run of whole blocks and returns their
    moments, never the snapshots."""
    psi0, seed, n_traj, workers = _ensemble_inputs(state, model, seed,
                                                   n_traj, workers)
    parts = _map_runs(_moments_worker, lambda a, b: (
        psi0, model, grid, seed, a, b, _BLOCK), n_traj, _BLOCK, workers)
    return _fold([m for part in parts for m in part], grid)


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


def _sampling_threshold(n_traj: int) -> float:
    """The sampling bound 5 / sqrt(n_traj) on an ensemble's trace distance."""
    return 5.0 / math.sqrt(n_traj)


def unraveling_equivalence_report(
        state: QuantumState, model: LindbladModel, grid: TimeGrid,
        n_traj: int, seed: int, workers: int = 1,
        threshold: float | None = None) -> EquivalenceReport:
    """Run an ensemble and the master equation on identical inputs and
    compare them sample by sample in trace distance.  ``threshold``
    defaults to the sampling bound 5 / sqrt(n_traj)."""
    if threshold is not None:
        threshold = as_real(threshold, "threshold")
        if not threshold > 0.0:
            raise DomainError(f"threshold must be positive, got {threshold}")
    estimate = _streamed_estimate(state, model, grid, n_traj, seed, workers)
    reference = integrate_master(state, model, grid)
    dists = trace_distance(estimate.mean_states.data, reference.data)
    if threshold is None:
        threshold = _sampling_threshold(estimate.n_traj)
    return EquivalenceReport(
        n_traj=estimate.n_traj, times=estimate.times, trace_distances=dists,
        threshold=threshold, flagged=dists > threshold)


def record_to_text(record: TrajectoryRecord) -> str:
    """Serialize to the line-oriented text format documented above."""
    g = record.grid
    # the float view of a snapshot row interleaves its re and im parts
    row = " ".join(["%.17g"] * (2 * record.dim))
    lines = [
        "decosim-trajectory-record v1",
        f"seed {record.seed}",
        f"stream {record.stream}",
        f"dim {record.dim}",
        f"grid {g.t_start:.17g} {g.t_end:.17g} {g.n_steps} {g.sample_every}",
        f"jumps {record.jump_times.size}",
        *("%.17g %d" % jump
          for jump in zip(record.jump_times, record.jump_channels)),
        f"snapshots {record.snapshots.shape[0]}",
        *(row % tuple(values) for values in
          np.ascontiguousarray(record.snapshots).view(np.float64)),
        "end",
    ]
    return "\n".join(lines) + "\n"


def record_from_text(text: str) -> TrajectoryRecord:
    """Parse the text format back into a record (exact round trip)."""
    lines = text.strip().split("\n")

    def header(i: int, key: str, count: int = 1) -> list[str]:
        line = lines[i] if i < len(lines) else ""
        fields = line.split()
        if fields[:1] != [key] or len(fields) != count + 1:
            raise ValueError(f"line {i + 1} {line!r} is not {key!r} "
                             f"and {count} value(s)")
        return fields[1:]
    try:
        if lines[0] != "decosim-trajectory-record v1":
            raise ValueError(f"unrecognized header {lines[0]!r}")
        seed, stream, dim = (as_decimal(header(i, key)[0], key) for i, key
                             in enumerate(("seed", "stream", "dim"), 1))
        t0, t1, n_steps, every = header(4, "grid", 4)
        grid = TimeGrid(float(t0), float(t1), as_decimal(n_steps, "n_steps"),
                        as_decimal(every, "sample_every"))
        pos = 6 + as_decimal(header(5, "jumps")[0], "jumps", least=0)
        end = pos + 1 + as_decimal(header(pos, "snapshots")[0], "snapshots",
                                   least=0)
        if lines[end:end + 1] != ["end"]:
            raise ValueError("missing end marker")
        if len(lines) > end + 1:
            raise ValueError("trailing text after end marker")
        jumps = [(float(t), as_decimal(c, "jump channel"))
                 for t, c in map(str.split, lines[6:pos])]
        snaps = [[float(x) for x in line.split()]
                 for line in lines[pos + 1:end]]
        for i, vals in enumerate(snaps):
            if len(vals) != 2 * dim:
                raise ValueError(f"snapshot line {i} has {len(vals)} fields, "
                                 f"expected {2 * dim}")
    except (IndexError, ValueError) as exc:
        raise ConfigurationError(
            f"malformed trajectory record: {exc}") from exc
    # reinterpreting (re, im) pairs keeps the sign of zero parts
    return TrajectoryRecord(seed=seed, stream=stream, dim=dim, grid=grid,
                            jump_times=[t for t, _ in jumps],
                            jump_channels=[c for _, c in jumps],
                            snapshots=np.array(snaps).view(np.complex128))
