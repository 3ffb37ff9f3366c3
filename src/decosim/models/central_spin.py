"""Central spin dephasing by a bath of spin-1/2 moments.

A central spin-1/2 couples longitudinally to M bath spins,

    H = (w0/2) S_z + sum_k A_k  S_z (x) S_z^(k),

with S_z = diag(+1/2, -1/2) everywhere and hbar = 1.  The bath starts
maximally mixed.  All terms commute, so the central-spin populations are
frozen and the coherence dephases with the exactly summable bath average

    coherence(t) = c1 conj(c2) exp(-i w0 t / 2) prod_k cos(A_k t / 2),

the closed form evaluated by :func:`central_spin_coherence` in O(M) per time.

A spin-echo sequence applies a pi rotation about x to the central spin at
t_e.  The pulse swaps c1 and c2, so for t > t_e the coherence is the same
closed form with c1 <-> c2 at tau = t - 2 t_e: the accumulated bath phases
unwind and the coherence magnitude revives fully at 2 t_e.  The tests hold
both closed forms against full evolution of the 2^(M+1)-dimensional
register.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError, DomainError
from ..hilbert import as_complex, as_finite_array, as_real, is_normalized

__all__ = ["CentralSpinParams", "central_spin_coherence", "decoherence_time",
           "gaussian_envelope", "spin_echo_coherence"]


@dataclass(frozen=True)
class CentralSpinParams:
    """Splitting w0, bath couplings A_k, and the initial central-spin
    amplitudes c1, c2 (|c1|^2 + |c2|^2 = 1 within 1e-10).  Couplings whose
    sum of squares overflows the float range raise OverflowError."""

    omega0: float
    couplings: tuple[float, ...]
    c1: complex
    c2: complex

    def __init__(self, omega0: float, couplings, c1: complex, c2: complex):
        omega0 = as_real(omega0, "omega0")
        couplings = tuple(as_real(a, "couplings") for a in couplings)
        if len(couplings) < 1:
            raise DimensionError("at least one bath coupling is required")
        with np.errstate(over="ignore"):
            squared_sum = float(np.sum(np.square(couplings)))
        if not np.isfinite(squared_sum):
            raise OverflowError(
                "couplings: sum_k A_k^2 overflows the float range (largest "
                f"|A_k| = {max(map(abs, couplings)):.3g}); measure the "
                "couplings and times in another unit")
        c1, c2 = as_complex(c1, "c1"), as_complex(c2, "c2")
        norm2 = abs(c1) ** 2 + abs(c2) ** 2
        if not is_normalized(norm2):
            raise DomainError(
                f"|c1|^2 + |c2|^2 = {norm2:.17g} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "omega0", omega0)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "_squared_sum", squared_sum)

    @property
    def n_bath(self) -> int:
        return len(self.couplings)


def decoherence_time(params: CentralSpinParams) -> float:
    """t_D = (sum_k A_k^2)^(-1/2); undefined when every coupling is zero."""
    s = params._squared_sum
    if s == 0.0:
        raise DomainError(
            "decoherence time is undefined when all couplings vanish")
    return float(1.0 / np.sqrt(s))


def gaussian_envelope(params: CentralSpinParams, times) -> np.ndarray:
    """Short-time magnitude law |c1 c2| exp(-t^2 / (8 t_D^2)); constant when
    every coupling vanishes."""
    t = as_finite_array(times, "times")
    amp = abs(params.c1 * np.conj(params.c2))
    # a late t overflows the exponent to -inf, whose exp is the exact 0
    with np.errstate(over="ignore"):
        return amp * np.exp(-params._squared_sum * t * t / 8.0)


def central_spin_coherence(params: CentralSpinParams, times) -> np.ndarray:
    """Closed-form off-diagonal element <up| rho_S(t) |down>."""
    t = as_finite_array(times, "times")
    return _dephased(params.c1 * np.conj(params.c2), params, t)


def _dephased(amp: complex, params: CentralSpinParams,
              t: np.ndarray) -> np.ndarray:
    """amp exp(-i w0 t / 2) prod_k cos(A_k t / 2)."""
    out = amp * np.exp(-0.5j * params.omega0 * t)
    for a in params.couplings:
        out = out * np.cos(0.5 * a * t)
    return out


def spin_echo_coherence(params: CentralSpinParams, t_e: float,
                        times) -> np.ndarray:
    """Coherence under free evolution to t_e, a pi pulse about x, then free
    evolution onward.  For t <= t_e this matches the free closed form; for
    t > t_e the bath factors rewind as cos(A_k (t - 2 t_e) / 2), giving full
    magnitude revival at exactly t = 2 t_e."""
    t_e = as_real(t_e, "t_e")
    if not t_e > 0.0:
        raise DomainError(f"pulse time must be positive, got {t_e}")
    t = as_finite_array(times, "times")
    if np.any(t < 0.0):
        raise DomainError("times must be >= 0")
    late = t > t_e
    amp = np.where(late, params.c2 * np.conj(params.c1),
                   params.c1 * np.conj(params.c2))
    return _dephased(amp, params, np.where(late, t - 2.0 * t_e, t))[()]
