"""Deterministic evolution engines.

Three ways to push a state forward in time:

* ``evolve_unitary`` -- closed-system evolution under a hermitian generator,
  via the exact spectral propagator.
* ``apply_kraus`` -- a completely positive map given by a Kraus operator set
  (completeness enforced to 1e-8).
* ``integrate_master`` -- the Markovian master equation

      d rho / dt = -i [H, rho]
                   + sum_j gamma_j (L_j rho L_j^dag
                                    - 1/2 {L_j^dag L_j, rho})

  integrated with a fixed-step classical 4th-order Runge-Kutta scheme.  The
  step is fixed (no adaptivity) so that runs are exactly reproducible;
  accuracy is controlled by the grid alone.

  The generator is linear and time-independent, so one RK4 step is exactly
  T = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, applied on both routes in
  one Horner form, x <- rho + (h/c) L x for c = 4, 3, 2, 1.
  ``integrate_master`` allocates one (n_samples, d, d) array, the initial
  state in row 0, and a route fills the later rows in place up to t_end.
  The block route builds T_b by that recursion for each block of rho's
  entries that L leaves invariant (the connected components of its
  sparsity graph; 79 bands for the damped oscillator at n_fock = 40) and
  moves the block from sample to sample by T_b^sample_every, writing the
  partner of each transpose pair of blocks as the conjugate, so paired
  entries come out exactly hermitian.  A model with a block above
  MAX_POWERED_BLOCK entries, such as a dense d = 40 model, applies the
  recursion to rho itself, four ``lindblad_rhs`` calls per step.  The two
  routes agree to rounding, with RK4's truncation error and stability
  limit.  The initial state is checked alone before the run, and the later
  rows once, as one stack (hermiticity, trace, positivity); the array
  comes back as a ``StateSeries``.  An IntegrationError names the first
  bad sample by its ``time`` and by the stack's "matrix i of n: " message
  prefix, i counting from the second sample, and ends by naming the fix:
  the step dt is too coarse for fixed-step RK4 here, so raise
  grid.n_steps.  So an unstable grid runs to the end on either route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coherence import basis_change
from .errors import (DimensionError, DomainError, IntegrationError,
                     ModelError, StateError)
from .hilbert import (QuantumState, StateSeries, as_integer, as_matrix,
                      as_real, check_dims, expm_hermitian_prop, is_hermitian)

__all__ = ["KrausSet", "LindbladModel", "TimeGrid", "amplitude_damping_kraus",
           "apply_kraus", "evolve_unitary", "integrate_master", "lindblad_rhs",
           "phase_damping_kraus", "two_level_decay_model"]

# Completeness tolerance for Kraus sets: || sum E^dag E - I ||_max
ATOL_KRAUS = 1e-8


@dataclass(frozen=True)
class KrausSet:
    """Operator-sum representation of a quantum channel.

    ``operators`` are square matrices E_k of one common dimension satisfying
    sum_k E_k^dag E_k = I within 1e-8 (checked; violations raise ModelError).
    """

    operators: tuple[np.ndarray, ...]

    def __init__(self, operators: Sequence):
        ops = tuple(as_matrix(op, square=True) for op in operators)
        if len(ops) == 0:
            raise ModelError("a Kraus set needs at least one operator")
        dim = ops[0].shape[0]
        if any(op.shape[0] != dim for op in ops):
            raise DimensionError("Kraus operators differ in dimension")
        total = sum(op.conj().T @ op for op in ops)
        defect = np.max(np.abs(total - np.eye(dim)))
        if defect > ATOL_KRAUS:
            raise ModelError(
                f"Kraus completeness defect {defect:.3e} exceeds 1e-8")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def apply_kraus(state: QuantumState, kraus: KrausSet) -> QuantumState:
    """rho -> sum_k E_k rho E_k^dag.  Returns a mixed state."""
    check_dims(state.dim, kraus.dim, "state", "Kraus")
    rho = state.density_matrix()
    out = np.zeros_like(rho)
    for op in kraus.operators:
        out += op @ rho @ op.conj().T
    return QuantumState.mixed(out)


def amplitude_damping_kraus(p: float) -> KrausSet:
    """Two-level amplitude damping with decay probability p in [0, 1]:
    E0 = diag(1, sqrt(1-p)), E1 = sqrt(p) |0><1|."""
    p = as_real(p, "decay probability", ModelError)
    if not 0.0 <= p <= 1.0:
        raise ModelError(f"decay probability must lie in [0, 1], got {p}")
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=np.complex128)
    e1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=np.complex128)
    return KrausSet((e0, e1))


def phase_damping_kraus(p: float) -> KrausSet:
    """Two-level pure dephasing with phase-flip probability p in [0, 1]."""
    p = as_real(p, "dephasing probability", ModelError)
    if not 0.0 <= p <= 1.0:
        raise ModelError(f"dephasing probability must lie in [0, 1], got {p}")
    e0 = np.sqrt(1.0 - p) * np.eye(2, dtype=np.complex128)
    e1 = np.sqrt(p) * np.diag([1.0, -1.0]).astype(np.complex128)
    return KrausSet((e0, e1))


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus dissipation channels.

    ``h`` must be hermitian within 1e-10.  ``channels`` is a sequence of
    (operator, rate) pairs with rates >= 0; operators are square and share
    the Hamiltonian's dimension.  Rates are kept separate from operators in
    the public data.

    The constructor also folds the model once into the private form that
    both engines read: the effective Hamiltonian
    H_eff = H - (i/2) sum_j rate_j L_j^dag L_j and the live jump operators
    sqrt(rate_j) L_j, each paired with its channel index j.  Zero-rate
    channels are dropped from the folded form.
    """

    h: np.ndarray
    channels: tuple[tuple[np.ndarray, float], ...]

    def __init__(self, h, channels: Sequence = ()):
        h = as_matrix(h, square=True)
        if not is_hermitian(h):
            raise ModelError("Hamiltonian is not hermitian within 1e-10")
        chans = []
        for entry in channels:
            op, rate = entry
            op = as_matrix(op, square=True)
            rate = as_real(rate, "channel rate", ModelError)
            check_dims(op.shape[0], h.shape[0], "channel", "Hamiltonian")
            if rate < 0.0:
                raise ModelError(f"channel rate must be >= 0, got {rate}")
            chans.append((op, rate))
        jumps = tuple((j, np.sqrt(rate) * op)
                      for j, (op, rate) in enumerate(chans) if rate > 0.0)
        h_eff = h - 0.5j * sum(l.conj().T @ l for _, l in jumps)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "channels", tuple(chans))
        object.__setattr__(self, "_h_eff", h_eff)
        object.__setattr__(self, "_jumps", jumps)

    @property
    def dim(self) -> int:
        return self.h.shape[0]


def two_level_decay_model(gamma: float) -> LindbladModel:
    """Spontaneous decay |1> -> |0> at rate gamma, no Hamiltonian."""
    h = np.zeros((2, 2), dtype=np.complex128)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    return LindbladModel(h, [(lower, gamma)])


def lindblad_rhs(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation at state rho, in the folded
    form -i (H_eff rho - rho H_eff^dag) + sum_j L~_j rho L~_j^dag."""
    h_eff = model._h_eff
    out = -1j * (h_eff @ rho - rho @ h_eff.conj().T)
    for _, l in model._jumps:
        out += l @ rho @ l.conj().T
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid with a sampling stride.

    The integrator takes ``n_steps`` equal steps from ``t_start`` to
    ``t_end`` and records the state every ``sample_every`` steps (both
    endpoints included), so ``sample_every`` must divide ``n_steps``.
    """

    t_start: float
    t_end: float
    n_steps: int
    sample_every: int = 1

    def __post_init__(self):
        for name in ("t_start", "t_end"):
            object.__setattr__(self, name, as_real(getattr(self, name), name,
                                                   DimensionError))
        for name in ("n_steps", "sample_every"):
            object.__setattr__(self, name, as_integer(getattr(self, name),
                                                      name, least=1))
        if not self.t_end > self.t_start:
            raise DimensionError(
                f"t_end ({self.t_end}) must exceed t_start ({self.t_start})")
        if not np.isfinite(self.t_end - self.t_start):
            raise DimensionError("grid span t_end - t_start must be finite")
        if self.n_steps % self.sample_every != 0:
            raise DimensionError(
                f"sample_every ({self.sample_every}) must divide n_steps "
                f"({self.n_steps})")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def n_samples(self) -> int:
        return self.n_steps // self.sample_every + 1

    def sample_times(self) -> np.ndarray:
        k = np.arange(0, self.n_steps + 1, self.sample_every)
        return self.t_start + k * self.dt


def evolve_unitary(state: QuantumState, h, t: float) -> QuantumState:
    """Closed-system evolution by exp(-i h t); pure stays pure."""
    h = as_matrix(h, square=True)
    check_dims(h.shape[0], state.dim, "generator", "state")
    return basis_change(state, expm_hermitian_prop(h, t))


def _component_labels(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Label each of n nodes by the smallest node of its connected component
    in the undirected graph with edges (a[k], b[k]).

    Root hooking and pointer jumping (Shiloach & Vishkin, J. Algorithms 3,
    57 (1982)): each node points at a node no larger than itself, and the
    roots point at themselves.  Each round hooks every root that an edge
    joins to a smaller root onto the smallest such root, then jumps every
    label to its root.  A root that neither hooks nor is hooked in one
    round has only larger neighbouring roots, which all hook onto smaller
    ones, so it hooks in the next round; the roots of a component at least
    halve every two rounds, which bounds the rounds by about 2 log2(n).
    """
    labels = np.arange(n)
    while True:
        ra, rb = labels[a], labels[b]
        split = ra != rb
        if not split.any():
            return labels
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(labels, np.maximum(ra, rb), np.minimum(ra, rb))
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]


def _invariant_blocks(model: LindbladModel) -> list[np.ndarray]:
    """Split the generator into the blocks it leaves invariant.

    The entries of rho are the nodes i*d + j of the generator's sparsity
    graph; each block is one connected component, which
    ``_component_labels`` labels.  A jump term couples (i, j) to (k, l)
    whenever L_ik and L_jl are both nonzero, which would take up to d^4
    edges.  Routing it through the entries of rho L^dag as extra nodes
    keeps the edge count at 2 d nnz(L): rho_kl feeds (rho L^dag)_kj when
    L_jl != 0, which feeds (L rho L^dag)_ij when L_ik != 0.  An extra node
    is wired only when it has neighbours on both sides, so it joins exactly
    the entries the jump term couples.

    Returns one (m, n) array of flat indices per block size n, each row one
    block, rows ordered by their smallest index and indices ascending
    within a row.
    """
    d = model.dim
    r = np.arange(d)
    hi, hk = np.nonzero(model._h_eff)
    # For each H_eff[p, q] != 0, H_eff rho couples row p to row q in every
    # column, and rho H_eff^dag column p to column q in every row (the
    # diagonal adds only self-loops).
    a = [(hi[:, None] * d + r).ravel(), (r[:, None] * d + hi).ravel()]
    b = [(hk[:, None] * d + r).ravel(), (r[:, None] * d + hk).ravel()]
    for c, (_, l) in enumerate(model._jumps):
        base = (c + 1) * d * d
        li, lk = np.nonzero(l)
        rows, cols = np.unique(li), np.unique(lk)
        a += [(li[:, None] * d + rows).ravel(),
              (base + cols[:, None] * d + li).ravel()]
        b += [(base + lk[:, None] * d + rows).ravel(),
              (cols[:, None] * d + lk).ravel()]
    n_nodes = d * d * (1 + len(model._jumps))
    # the extra nodes come after the entries of rho, so each entry's label
    # is the smallest entry of its block
    labels = _component_labels(np.concatenate(a), np.concatenate(b),
                               n_nodes)[:d * d]
    size = np.bincount(labels)[labels]
    order = np.lexsort((labels, size))
    return [order[size[order] == n].reshape(-1, n) for n in np.unique(size)]


# Largest invariant block that integrate_master raises to a power; a model
# with a larger block keeps the step-by-step RK4 loop.  Forming a block's
# RK4 map and its power costs about (4 + 2 log2 sample_every) n^3
# multiply-adds for n entries, against O(d^3) per RK4 step for the whole
# model.  Measured on one core, a dense block of 256 (d = 16) takes 35-60 ms,
# as long as about 500 RK4 steps, so past that size the loop wins on short
# grids; a dense d = 40 model, one block of 1,600, would take about ten
# seconds by the n^3 rule before the first sample.
MAX_POWERED_BLOCK = 256


def _powered_samples(model: LindbladModel, groups: list[np.ndarray],
                     out: np.ndarray, grid: TimeGrid) -> None:
    """Fill rows 1... of the (n_samples, d, d) array *out* from the state
    in its row 0.

    Each block's RK4 map T_b is built by the Horner recursion
    T <- I + (hL_b / c) T for c = 4, 3, 2, 1, and moves the block from
    sample to sample as T_b^sample_every: one batched matvec per block
    size.  The sizes are done one after another, so only one size's
    powers are held at a time.

    The generator preserves hermiticity, L(rho^dag) = L(rho)^dag, so the
    transpose of a block's entries is again a block, moved by the
    conjugate map.  Only one block of each transpose pair is powered, and
    its partner is written as the conjugate, so the entries of paired
    blocks come out exactly hermitian.
    """
    d = model.dim
    h_eff, h_conj = model._h_eff, model._h_eff.conj()
    jumps = [(l, l.conj()) for _, l in model._jumps]
    flat = out.reshape(grid.n_samples, d * d)
    for idx in groups:
        # the transpose of a block is a block of the same size; keep the
        # one of each pair with the smaller first index, and self-paired ones
        tidx = idx % d * d + idx // d
        keep = idx[:, 0] <= tidx.min(axis=1)
        idx, tidx = idx[keep], tidx[keep]
        i, j = np.divmod(idx, d)
        ri, ci = i[:, :, None], i[:, None, :]
        rj, cj = j[:, :, None], j[:, None, :]
        gen = (-1j * h_eff[ri, ci] * (rj == cj)
               + 1j * (ri == ci) * h_conj[rj, cj])
        for l, l_conj in jumps:
            gen += l[ri, ci] * l_conj[rj, cj]
        step = grid.dt * gen
        eye = np.eye(idx.shape[1])
        t = eye + step / 4.0
        for c in (3.0, 2.0, 1.0):
            t = eye + (step @ t) / c
        power = np.linalg.matrix_power(t, grid.sample_every)
        x = np.empty((grid.n_samples, *idx.shape, 1), dtype=np.complex128)
        x[0, :, :, 0] = flat[0, idx]
        for k in range(grid.n_samples - 1):
            np.matmul(power, x[k], out=x[k + 1])
        # a self-paired block is written last, so it keeps its own values
        flat[1:, tidx] = x[1:, :, :, 0].conj()
        flat[1:, idx] = x[1:, :, :, 0]


def _rk4_samples(model: LindbladModel, out: np.ndarray,
                 grid: TimeGrid) -> None:
    """Fill rows 1... of *out* from its row 0, stepping rho by the Horner
    form of T, four ``lindblad_rhs`` calls per step."""
    rho = out[0]
    for k in range(1, grid.n_steps + 1):
        x = rho
        for c in (4.0, 3.0, 2.0, 1.0):
            x = rho + (grid.dt / c) * lindblad_rhs(model, x)
        rho = x
        if k % grid.sample_every == 0:
            out[k // grid.sample_every] = rho


def integrate_master(state: QuantumState, model: LindbladModel,
                     grid: TimeGrid) -> StateSeries:
    """Integrate the master equation over *grid*.

    Returns the series of validated states at every sample instant, the
    initial density matrix, as given, in row 0.  If a sampled matrix fails
    state validation the run aborts with IntegrationError carrying the
    time of the first bad sample.
    """
    check_dims(state.dim, model.dim, "state", "model")
    rho = state.density_matrix()
    QuantumState.mixed(rho)  # the initial state, checked alone before the run
    samples = np.empty((grid.n_samples, *rho.shape), dtype=np.complex128)
    samples[0] = rho
    groups = _invariant_blocks(model)
    if max(idx.shape[1] for idx in groups) <= MAX_POWERED_BLOCK:
        _powered_samples(model, groups, samples, grid)
    else:
        _rk4_samples(model, samples, grid)
    try:
        QuantumState._mixed_stack(samples[1:])
    except (DomainError, StateError) as exc:
        raise IntegrationError(
            f"integration produced an invalid state: {exc}; the step dt = "
            f"{grid.dt:.6g} is too coarse for fixed-step RK4 here: raise "
            "grid.n_steps", time=grid.sample_times()[1 + exc.index]) from exc
    return StateSeries(QuantumState._TOKEN, samples)
