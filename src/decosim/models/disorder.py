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
the table (scipy's quad_vec, the QUADPACK global adaptive scheme), in
blocks of at most _BLOCK_SIZE values, certified in the max norm over the
block.  The subdivision follows the hardest entry of its block, so a value
can differ at rounding level with the block it was integrated in (for
instance, between a one-time table and a full grid); reruns of the same
grid are bit-identical.  Lorentzian quadrature, which only
``method="quadrature"`` reaches, uses a Fourier-weight rule per |s|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad, quad_vec

from ..errors import (ConfigurationError, DimensionError, DomainError,
                      QuadratureError)
from ..hilbert import (QuantumState, as_finite_array, as_integer, as_key,
                       as_matrix, as_real)

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
    gamma = np.ones((t.size, spec.dim, spec.dim), dtype=np.complex128)
    gamma[:, m, n] = upper
    gamma[:, n, m] = upper.conj()
    size = np.abs(upper)
    if size.max(initial=0.0) > 1.0 + 1e-10:
        k, p = np.unravel_index(np.argmax(size), size.shape)
        raise QuadratureError(
            f"|gamma_{m[p]}{n[p]}(t={t[k]:.17g})| = {size[k, p]:.17g} "
            "exceeds 1", abserr=float(size[k, p]) - 1.0)
    return gamma, abserr


@dataclass(frozen=True)
class DisorderAverage:
    """Ensemble-averaged state series.

    For the Monte Carlo route, ``stderr_real``/``stderr_imag`` hold the
    per-entry standard errors of the averaged matrix (zero on the diagonal,
    where every member is identical); they are None for the closed form.
    ``max_quadrature_abserr`` is the largest certified quadrature error
    behind the closed-form states, None when no quadrature ran.
    """

    method: str
    times: np.ndarray
    states: tuple[QuantumState, ...]
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
    ``method="monte-carlo"`` averages explicit phase evolutions over
    ``samples`` draws of w (``seed`` mandatory).  Both routes leave the
    populations bit-identical to the diagonal of r.
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
    rng = np.random.default_rng(seed)
    draws = spec.distribution.sample(rng, samples)

    eps = np.asarray(spec.epsilon)
    slo = np.asarray(spec.slopes)
    static_gap = eps[:, None] - eps[None, :]
    slope_gap = slo[:, None] - slo[None, :]

    rho = np.empty((t.size, spec.dim, spec.dim), dtype=np.complex128)
    se_re = np.empty((t.size, spec.dim, spec.dim))
    se_im = np.empty_like(se_re)
    root = np.sqrt(samples)
    for i, ti in enumerate(t):
        # (samples, d, d) member phases; diagonal is exactly 1 everywhere.
        phases = np.exp(-1j * (slope_gap[None, :, :] * draws[:, None, None]) * ti)
        mean_phase = phases.mean(axis=0)
        se_re[i] = phases.real.std(axis=0, ddof=1) / root
        se_im[i] = phases.imag.std(axis=0, ddof=1) / root
        rho[i] = spec.r * (np.exp(-1j * static_gap * ti) * mean_phase)
    return DisorderAverage(method=method, times=t,
                           states=QuantumState._mixed_stack(rho),
                           samples=samples, seed=seed,
                           stderr_real=se_re, stderr_imag=se_im)
