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
  accuracy is controlled by the grid alone.  State validity (hermiticity,
  trace, positivity) is checked at sample points only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DimensionError, IntegrationError, ModelError)
from .hilbert import (ATOL_HERMITIAN, QuantumState, as_matrix,
                      expm_hermitian_prop)

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
    if state.dim != kraus.dim:
        raise DimensionError(
            f"state dimension {state.dim} does not match Kraus dimension "
            f"{kraus.dim}")
    rho = state.density_matrix()
    out = np.zeros_like(rho)
    for op in kraus.operators:
        out += op @ rho @ op.conj().T
    return QuantumState.mixed(out)


def amplitude_damping_kraus(p: float) -> KrausSet:
    """Two-level amplitude damping with decay probability p in [0, 1]:
    E0 = diag(1, sqrt(1-p)), E1 = sqrt(p) |0><1|."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ModelError(f"decay probability must lie in [0, 1], got {p}")
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=np.complex128)
    e1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=np.complex128)
    return KrausSet((e0, e1))


def phase_damping_kraus(p: float) -> KrausSet:
    """Two-level pure dephasing with phase-flip probability p in [0, 1]."""
    p = float(p)
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
        if np.max(np.abs(h - h.conj().T)) > ATOL_HERMITIAN:
            raise ModelError("Hamiltonian is not hermitian within 1e-10")
        chans = []
        for entry in channels:
            op, rate = entry
            op = as_matrix(op, square=True)
            rate = float(rate)
            if op.shape[0] != h.shape[0]:
                raise DimensionError(
                    f"channel dimension {op.shape[0]} does not match "
                    f"Hamiltonian dimension {h.shape[0]}")
            if not np.isfinite(rate) or rate < 0.0:
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
    if gamma < 0.0:
        raise ModelError(f"decay rate must be >= 0, got {gamma}")
    h = np.zeros((2, 2), dtype=np.complex128)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    return LindbladModel(h, [(lower, float(gamma))])


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
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "sample_every", int(self.sample_every))
        if not self.t_end > self.t_start:
            raise DimensionError(
                f"t_end ({self.t_end}) must exceed t_start ({self.t_start})")
        if not np.isfinite(self.t_end - self.t_start):
            raise DimensionError("grid span t_end - t_start must be finite")
        if self.n_steps < 1:
            raise DimensionError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.sample_every < 1:
            raise DimensionError(
                f"sample_every must be >= 1, got {self.sample_every}")
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
    if h.shape[0] != state.dim:
        raise DimensionError(
            f"generator dimension {h.shape[0]} does not match state "
            f"dimension {state.dim}")
    u = expm_hermitian_prop(h, t)
    if state.kind == "pure":
        return QuantumState.pure(u @ state.data)
    return QuantumState.mixed(u @ state.data @ u.conj().T)


def integrate_master(state: QuantumState, model: LindbladModel,
                     grid: TimeGrid) -> list[QuantumState]:
    """Integrate the master equation over *grid*.

    Returns the validated state at each sample instant (initial state
    included).  If a sampled matrix fails state validation the run aborts
    with IntegrationError carrying the sample time.
    """
    if state.dim != model.dim:
        raise DimensionError(
            f"state dimension {state.dim} does not match model dimension "
            f"{model.dim}")
    rho = state.density_matrix()
    dt = grid.dt
    sample_times = grid.sample_times()
    out = [QuantumState.mixed(rho)]

    for k in range(grid.n_steps):
        k1 = lindblad_rhs(model, rho)
        k2 = lindblad_rhs(model, rho + 0.5 * dt * k1)
        k3 = lindblad_rhs(model, rho + 0.5 * dt * k2)
        k4 = lindblad_rhs(model, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % grid.sample_every == 0:
            t = sample_times[(k + 1) // grid.sample_every]
            try:
                out.append(QuantumState.mixed(rho))
            except Exception as exc:
                raise IntegrationError(
                    f"integration produced an invalid state: {exc}",
                    time=t) from exc
    return out
