"""Static-disorder ensemble averages for non-interacting level systems.

Each ensemble member evolves unitarily under a diagonal Hamiltonian whose
levels depend on a random variable w through affine maps

    e_n(w) = epsilon_n + g_n * w ,          w ~ f .

Populations are untouched member by member; the ensemble average multiplies
each off-diagonal entry of the initial matrix r by the dephasing factor

    gamma_mn(t) = Integral f(w) exp(-i [e_m(w) - e_n(w)] t) dw ,

which is the distribution's characteristic function evaluated at the
gap-slope difference times t (with the static-gap phase in front).  Gaussian
and Lorentzian disorder admit closed forms (Gaussian and exponential decay
of |gamma|); other distributions are integrated by adaptive quadrature to
1e-8 absolute.  gamma_mm is exactly 1 for every distribution and time, so
populations are preserved bit for bit.

The whole table gamma_mn(t_k) is built at once.  For finite support
(uniform, and Gaussian on +-12 sigma) the quadrature is one vector-valued
adaptive integral of f(w) [cos(s w), sin(s w)] over every distinct |s| of
the table (``quad_vec`` below, a port of the path through scipy's
quad_vec that decosim takes: the QUADPACK global adaptive scheme), in
blocks of at most _BLOCK_SIZE values, certified in the max norm over the
block.  The subdivision follows the hardest entry of its block, so a value
can differ at rounding level with the block it was integrated in (for
instance, between a one-time table and a full grid); reruns of the same
grid are bit-identical.  Lorentzian quadrature, which only
``method="quadrature"`` reaches, uses a Fourier-weight rule per |s|
(scipy's quad, imported on its first call).
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from ..errors import (ConfigurationError, DimensionError, DomainError,
                      QuadratureError)
from ..hilbert import (QuantumState, StateSeries, as_finite_array,
                       as_integer, as_key, as_matrix, as_real)
from ..trajectories import _BLOCK, _chan, _moments

__all__ = ["Distribution", "DisorderAverage", "DisorderSpec",
           "disorder_averaged_state", "disorder_gamma"]

GAUSSIAN = "gaussian"
LORENTZIAN = "lorentzian"
UNIFORM = "uniform"
_KINDS = (GAUSSIAN, LORENTZIAN, UNIFORM)

# Quadrature must certify at least this absolute accuracy.
QUAD_ABS_TOL = 1e-8
_QUAD_TARGET = 1e-10
# Distinct |s| values per vector integral.  With at most 500 subintervals,
# each caching one integral of 2 * _BLOCK_SIZE floats, this bounds the
# quadrature's memory at a few MiB whatever the grid.
_BLOCK_SIZE = 1024


@dataclass(frozen=True)
class Distribution:
    """Disorder distribution for the scalar variable w.

    ``kind`` selects the family; ``a``/``b`` mean (mean, sigma) for
    ``gaussian``, (center, half-width) for ``lorentzian``, and (low, high)
    for ``uniform``.
    """

    kind: str
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_real(self.a, "a"))
        object.__setattr__(self, "b", as_real(self.b, "b"))
        if self.kind not in _KINDS:
            raise DomainError(
                f"unknown distribution kind {self.kind!r}; expected one of "
                f"{_KINDS}")
        if self.kind in (GAUSSIAN, LORENTZIAN) and not self.b > 0.0:
            raise DomainError(f"{self.kind} width must be positive, got {self.b}")
        if self.kind == UNIFORM and not self.b > self.a:
            raise DomainError(
                f"uniform bounds must satisfy low < high, got [{self.a}, {self.b}]")

    @classmethod
    def gaussian(cls, mean: float, sigma: float) -> "Distribution":
        return cls(GAUSSIAN, mean, sigma)

    @classmethod
    def lorentzian(cls, center: float, width: float) -> "Distribution":
        return cls(LORENTZIAN, center, width)

    @classmethod
    def uniform(cls, low: float, high: float) -> "Distribution":
        return cls(UNIFORM, low, high)

    def pdf(self, w):
        w = np.asarray(w, dtype=np.float64)
        if self.kind == GAUSSIAN:
            z = (w - self.a) / self.b
            return np.exp(-0.5 * z * z) / (self.b * np.sqrt(2.0 * np.pi))
        if self.kind == LORENTZIAN:
            return (self.b / np.pi) / ((w - self.a) ** 2 + self.b ** 2)
        inside = (w >= self.a) & (w <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == GAUSSIAN:
            return rng.normal(self.a, self.b, size=n)
        if self.kind == LORENTZIAN:
            return self.a + self.b * rng.standard_cauchy(size=n)
        return rng.uniform(self.a, self.b, size=n)

    def closed_form_phase(self, s):
        """E[exp(-i s w)] where a closed form exists, else None.

        A scalar ``s`` gives a complex, an array gives a complex array.
        """
        if self.kind == GAUSSIAN:
            value = np.exp(-1j * self.a * s) * np.exp(-0.5 * (self.b * s) ** 2)
        elif self.kind == LORENTZIAN:
            value = np.exp(-1j * self.a * s) * np.exp(-self.b * np.abs(s))
        else:
            return None
        return complex(value) if np.ndim(value) == 0 else value


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call.

    Only Lorentzian quadrature uses it; importing scipy.integrate costs
    about 0.2 s and 16 MiB, which no CLI run should pay.
    """
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


# Gauss-Kronrod 21-point rule on [-1, 1] in scipy's quad_vec order: nodes
# from 1 down to -1 and their Kronrod weights, both mirrored about the
# center node 0, and the 10-point Gauss weights of the odd-indexed nodes.
_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_KRONROD = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_GAUSS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
_GK21_NODES = _NODES + (0.0,) + tuple(-x for x in reversed(_NODES))
_GK21_WEIGHTS = _KRONROD + _KRONROD[-2::-1]
_G10_WEIGHTS = _GAUSS + _GAUSS[::-1]
# Panels split per round, at most (quad_vec's parallel_count).
_SPLITS_PER_ROUND = 128
_QUAD_STATUS = ("Target precision reached.",
                "Target precision not reached.",
                "Target precision could not be reached due to rounding error.",
                "Non-finite values encountered.")


def _max_norm(x) -> float:
    return float(np.amax(abs(x)))


def _gk21(a: float, b: float, f):
    """GK21 panel on [a, b]: integral, error estimate and rounding-error
    bound, the latter two in the max norm, by QUADPACK's estimate."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = [f(c + h * x) for x in _GK21_NODES]
    s_k = s_k_abs = s_g = s_k_dabs = 0.0
    for v, ff in zip(_GK21_WEIGHTS, fv):
        s_k += v * ff
        s_k_abs += v * abs(ff)
    for w, ff in zip(_G10_WEIGHTS, fv[1::2]):
        s_g += w * ff
    y0 = s_k / 2.0
    for v, ff in zip(_GK21_WEIGHTS, fv):
        s_k_dabs += v * abs(ff - y0)
    err = _max_norm((s_k - s_g) * h)
    dabs = _max_norm(s_k_dabs * h)
    if dabs != 0 and err != 0:
        err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
    round_err = _max_norm(50 * sys.float_info.epsilon * h * s_k_abs)
    if round_err > sys.float_info.min:
        err = max(err, round_err)
    return h * s_k, err, round_err


def quad_vec(f, a, b, *, epsabs, epsrel, norm, limit, full_output):
    """scipy.integrate.quad_vec on the path decosim takes, bit for bit.

    That path is a finite [a, b], GK21 panels, ``norm="max"``, one worker
    and ``full_output=True``; other arguments raise ValueError.  Each round
    splits in half the panels of largest error, at most 128 of them and
    no more than the error above tol / 8 needs, in quad_vec's arithmetic
    order.  Returns the integral, the error estimate (panel errors plus
    rounding bound) and an info object with quad_vec's ``status`` (0
    converged, 1 ``limit`` panels reached, 2 rounding error, 3 not
    finite) and ``message``.  Keeping the port in decosim keeps the import
    of scipy.integrate out of every run; the tests hold it to scipy's.
    """
    a, b = float(a), float(b)
    if norm != "max" or full_output is not True:
        raise ValueError("only norm='max' with full_output=True is ported")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"invalid integration bounds a={a}, b={b}")
    total, total_err, round_err = _gk21(a, b, f)
    panels = {(a, b): total.copy()}    # each live panel's integral
    heap = [(-total_err, a, b)]
    status = 1
    while heap and len(heap) < limit:
        tol = max(epsabs, epsrel * _max_norm(total))
        split, err_sum = [], 0
        for j in range(_SPLITS_PER_ROUND):
            if not heap or (j > 0 and err_sum > total_err - tol / 8):
                break
            neg_err, lo, hi = heapq.heappop(heap)
            split.append((-neg_err, lo, hi, panels.pop((lo, hi), None)))
            err_sum += -neg_err
        for old_err, lo, hi, old in split:
            mid = 0.5 * (lo + hi)
            left, left_err, left_round = _gk21(lo, mid, f)
            right, right_err, right_round = _gk21(mid, hi, f)
            if old is None:     # halves of a zero-width panel share a key
                old = _gk21(lo, hi, f)[0]
            total += left + right - old
            total_err += left_err + right_err - old_err
            round_err += left_round + right_round
            for x1, x2, ig, err in ((lo, mid, left, left_err),
                                    (mid, hi, right, right_err)):
                panels[(x1, x2)] = ig
                heapq.heappush(heap, (-err, x1, x2))
        if len(heap) >= 2:
            tol = max(epsabs, epsrel * _max_norm(total))
            if total_err < tol / 8:
                status = 0
                break
            if total_err < round_err:
                status = 2
                break
        if not (math.isfinite(total_err) and math.isfinite(round_err)):
            status = 3
            break
    info = SimpleNamespace(status=status, message=_QUAD_STATUS[status])
    return total, total_err + round_err, info


def _quadrature_phases(dist: Distribution, s: np.ndarray):
    """E[exp(-i s w)] at every entry of ``s`` by adaptive quadrature.

    Returns the phases (shape of ``s``) and the largest certified absolute
    error, or None when every entry is s == 0 (exactly 1, no quadrature).
    The cosine part is even and the sine part odd in s, so each distinct
    |s| is integrated once.
    """
    phase = np.ones(s.shape, dtype=np.complex128)
    live = s != 0.0
    mags, where = np.unique(np.abs(s[live]), return_inverse=True)
    if mags.size == 0:
        return phase, None
    if dist.kind == LORENTZIAN:
        # Heavy tails with oscillation: Fourier-weight quadrature on the
        # symmetric half-line around the center, one |s| at a time.
        even = np.empty(mags.size)
        abserr = 0.0
        for k, x in enumerate(mags):
            half = quad(lambda u: dist.pdf(dist.a + u), 0.0, np.inf,
                        weight="cos", wvar=x, epsabs=_QUAD_TARGET,
                        limit=400, full_output=1)
            even[k], err = 2.0 * half[0], 2.0 * half[1]
            if len(half) > 3 or err > QUAD_ABS_TOL:
                raise QuadratureError(
                    "Fourier quadrature did not converge for the Lorentzian "
                    "dephasing factor", abserr=err)
            abserr = max(abserr, err)
        phase[live] = np.exp(-1j * s[live] * dist.a) * even[where]
        return phase, abserr
    if dist.kind == GAUSSIAN:
        lo, hi = dist.a - 12.0 * dist.b, dist.a + 12.0 * dist.b
    else:
        lo, hi = dist.a, dist.b
    cos_part = np.empty(mags.size)
    sin_part = np.empty(mags.size)
    abserr = 0.0
    for start in range(0, mags.size, _BLOCK_SIZE):
        block = mags[start:start + _BLOCK_SIZE]

        def integrand(w, block=block):
            sw = block * w
            return dist.pdf(w) * np.concatenate((np.cos(sw), np.sin(sw)))

        value, err, info = quad_vec(integrand, lo, hi, epsabs=_QUAD_TARGET,
                                    epsrel=0.0, norm="max", limit=500,
                                    full_output=True)
        if info.status != 0 or err > QUAD_ABS_TOL:
            raise QuadratureError(
                "adaptive quadrature did not converge for the dephasing "
                f"factor ({info.message})", abserr=err)
        cos_part[start:start + block.size] = value[:block.size]
        sin_part[start:start + block.size] = value[block.size:]
        abserr = max(abserr, err)
    phase[live] = cos_part[where] - 1j * (np.sign(s[live]) * sin_part[where])
    return phase, abserr


@dataclass(frozen=True)
class DisorderSpec:
    """Distribution, affine level maps, and the initial matrix r.

    ``epsilon[n]`` and ``slopes[n]`` define level n as epsilon_n + g_n * w;
    ``r`` must be a valid density matrix (hermitian, unit trace, positive
    within tolerance).
    """

    distribution: Distribution
    epsilon: tuple[float, ...]
    slopes: tuple[float, ...]
    r: np.ndarray

    def __init__(self, distribution: Distribution, epsilon: Sequence[float],
                 slopes: Sequence[float], r):
        if not isinstance(distribution, Distribution):
            raise DomainError("distribution must be a Distribution instance")
        epsilon = tuple(as_real(x, "epsilon") for x in epsilon)
        slopes = tuple(as_real(x, "slopes") for x in slopes)
        if len(epsilon) != len(slopes):
            raise DimensionError(
                f"epsilon ({len(epsilon)}) and slopes ({len(slopes)}) "
                "must have equal length")
        r = as_matrix(r, square=True)
        if r.shape[0] != len(epsilon):
            raise DimensionError(
                f"r dimension {r.shape[0]} does not match level count "
                f"{len(epsilon)}")
        QuantumState.mixed(r)  # validation only; rejects invalid r
        object.__setattr__(self, "distribution", distribution)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "r", r)

    @property
    def dim(self) -> int:
        return len(self.epsilon)


def disorder_gamma(spec: DisorderSpec, m: int, n: int, t: float,
                   method: str = "auto") -> complex:
    """Dephasing factor gamma_mn(t).

    ``method="auto"`` takes the closed form where one exists and quadrature
    otherwise; ``method="quadrature"`` forces the integration route (the
    independent cross-check of the closed forms).  Returns exactly 1 for
    m == n.  The value is read from the gamma table of the single time t.
    """
    d = spec.dim
    m, n = as_integer(m, "m"), as_integer(n, "n")
    if not (0 <= m < d and 0 <= n < d):
        raise DimensionError(f"level indices ({m}, {n}) out of range for dim {d}")
    if method not in ("auto", "quadrature"):
        raise DomainError(f"unknown method {method!r}")
    if m == n:
        return 1.0 + 0.0j
    return complex(_gamma_table(spec, [as_real(t, "t")], method)[0][0, m, n])


def _gamma_table(spec: DisorderSpec, times, method: str):
    """Every gamma_mn(t) at once: the (n_t, d, d) table and the largest
    certified quadrature error (None when no quadrature ran).

    Each off-diagonal pair is computed above the diagonal and mirrored as
    its conjugate; the diagonal is exactly 1.
    """
    t = as_finite_array(times, "times").reshape(-1)
    m, n = np.triu_indices(spec.dim, 1)
    eps = np.asarray(spec.epsilon)
    slo = np.asarray(spec.slopes)
    s = np.outer(t, slo[m] - slo[n])
    phase = spec.distribution.closed_form_phase(s) if method == "auto" else None
    abserr = None
    if phase is None:
        phase, abserr = _quadrature_phases(spec.distribution, s)
    upper = np.exp(-1j * np.outer(t, eps[m] - eps[n])) * phase
    gamma = _pair_table(upper, spec.dim, 1.0)
    size = np.abs(upper)
    if size.max(initial=0.0) > 1.0 + 1e-10:
        k, p = np.unravel_index(np.argmax(size), size.shape)
        raise QuadratureError(
            f"|gamma_{m[p]}{n[p]}(t={t[k]:.17g})| = {size[k, p]:.17g} "
            "exceeds 1", abserr=float(size[k, p]) - 1.0)
    return gamma, abserr


def _pair_table(upper: np.ndarray, dim: int, diagonal: float) -> np.ndarray:
    """The (..., d, d) tables of pair values ``upper`` (..., d(d-1)/2 in
    np.triu_indices order), mirrored as conjugates, ``diagonal`` between."""
    table = np.full((*upper.shape[:-1], dim, dim), diagonal, upper.dtype)
    m, n = np.triu_indices(dim, 1)
    table[..., m, n], table[..., n, m] = upper, upper.conj()
    return table


@dataclass(frozen=True)
class DisorderAverage:
    """Ensemble-averaged state series.

    ``states`` is a ``StateSeries``: ``states.data`` is the validated
    (n_t, d, d) array of averaged matrices, one per entry of ``times``,
    and ``states[k]`` is the state at ``times[k]``.  For the Monte Carlo
    route, ``stderr_real``/``stderr_imag`` hold the per-entry standard
    errors of the averaged matrix (zero on the diagonal, where every
    member is identical); they are None for the closed form.
    ``max_quadrature_abserr`` is the largest certified quadrature error
    behind the closed-form states, None when no quadrature ran.
    """

    method: str
    times: np.ndarray
    states: StateSeries
    samples: Optional[int] = None
    seed: Optional[int] = None
    stderr_real: Optional[np.ndarray] = None
    stderr_imag: Optional[np.ndarray] = None
    max_quadrature_abserr: Optional[float] = None


def disorder_averaged_state(spec: DisorderSpec, times,
                            method: str = "closed-form",
                            samples: Optional[int] = None,
                            seed: Optional[int] = None) -> DisorderAverage:
    """Ensemble-averaged density matrix at each requested time.

    ``method="closed-form"`` multiplies r entrywise by the gamma matrix;
    ``method="monte-carlo"`` averages the pairs' phases over ``samples``
    draws of w (``seed`` mandatory) in blocks of _BLOCK = 256, folded in
    draw order as a trajectory ensemble is ("Ensemble reduction" in
    ``trajectories``).  Both leave the populations r's diagonal exactly.
    """
    t = np.atleast_1d(as_finite_array(times, "times"))
    if method == "closed-form":
        gamma, abserr = _gamma_table(spec, t, "auto")
        states = QuantumState._mixed_stack(spec.r * gamma)
        return DisorderAverage(method=method, times=t, states=states,
                               max_quadrature_abserr=abserr)
    if method != "monte-carlo":
        raise ConfigurationError(f"unknown method {method!r}")
    if samples is None:
        raise ConfigurationError("monte-carlo requires samples >= 2")
    samples = as_integer(samples, "samples", ConfigurationError, least=2)
    if seed is None:
        raise ConfigurationError("monte-carlo requires an explicit seed")
    seed = as_key(seed, "seed")
    draws = spec.distribution.sample(np.random.default_rng(seed), samples)

    m, n = np.triu_indices(spec.dim, 1)
    slope_gap = np.asarray(spec.slopes)[m] - np.asarray(spec.slopes)[n]
    mean, m2 = np.empty((2, t.size, 2 * m.size))
    for i, ti in enumerate(t):
        # the pairs' member phases as (re, im) floats, one block at a time
        _, mean[i], m2[i] = functools.reduce(_chan, (
            _moments(np.exp(-1j * (slope_gap * draws[a:a + _BLOCK, None])
                            * ti).view(np.float64))
            for a in range(0, samples, _BLOCK)))
    se = np.sqrt(m2 / (samples - 1)) / math.sqrt(samples)
    eps = np.asarray(spec.epsilon)
    upper = np.exp(-1j * np.outer(t, eps[m] - eps[n])) * mean.view(complex)
    rho = spec.r * _pair_table(upper, spec.dim, 1.0)
    return DisorderAverage(method=method, times=t, samples=samples,
                           seed=seed, states=QuantumState._mixed_stack(rho),
                           stderr_real=_pair_table(se[:, ::2], spec.dim, 0.0),
                           stderr_imag=_pair_table(se[:, 1::2], spec.dim, 0.0))
