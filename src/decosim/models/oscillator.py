"""Damped harmonic oscillator and coherent-state superpositions.

H = omega * a^dag a with thermal damping channels (a at rate
gamma*(n_thermal+1), a^dag at rate gamma*n_thermal).  States live in a
truncated Fock space; the truncation must hold at least 8*(max|alpha|^2+1)
levels so that coherent components with |alpha| up to the declared maximum
keep their occupation tail below round-off relevance.

Position here means the dimensionless quadrature xi with <xi> = sqrt(2)
Re(alpha) for a coherent state, so the ground-state density has unit
Gaussian width.  A two-component superposition along the real axis
oscillates; at odd quarter-period multiples both components sit at xi = 0
and the position density shows interference fringes whose visibility decays
with damping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, DomainError, TruncationError
from ..evolution import LindbladModel
from ..hilbert import (QuantumState, as_complex, as_finite_array, as_integer,
                       as_real)

__all__ = ["DampedOscillatorParams", "check_truncation", "coherent_vector",
           "destroy", "fringe_visibility", "hermite_functions",
           "mean_occupation", "merge_times", "number_operator",
           "oscillator_model", "position_density", "position_grid",
           "superposition_state"]

TRUNCATION_TOL = 1e-6
FOCK_LEVELS_PER_UNIT = 8.0


@dataclass(frozen=True)
class DampedOscillatorParams:
    """Oscillator frequency/damping and the coherent amplitudes the run
    intends to use (they size the Fock truncation and position grid)."""

    omega: float
    gamma: float
    n_thermal: float
    n_fock: int
    alphas: tuple

    def __post_init__(self):
        for name in ("omega", "gamma", "n_thermal"):
            value = as_real(getattr(self, name), name)
            if name != "omega" and value < 0.0:     # rates and occupations
                raise DomainError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n_fock",
                           as_integer(self.n_fock, "n_fock", DomainError))
        if not np.isfinite(abs(self.omega) * (self.n_fock - 1)):
            raise OverflowError(
                "omega: |omega| (n_fock - 1), the largest entry of H, "
                f"overflows the float range at omega = {self.omega:.3g}; "
                "measure the frequency in another unit")
        object.__setattr__(self, "alphas",
                           tuple(as_complex(a, "alphas") for a in self.alphas))
        if not self.alphas:
            raise DomainError("at least one coherent amplitude is required")
        if not np.isfinite(self.alphas).all():
            raise DomainError("coherent amplitudes must be finite")
        try:
            needed = int(np.ceil(
                FOCK_LEVELS_PER_UNIT * (self.max_alpha ** 2 + 1.0)))
        except OverflowError as exc:
            raise OverflowError(
                "alphas: the Fock levels needed for max |alpha|, "
                f"{FOCK_LEVELS_PER_UNIT:g} (|alpha|^2 + 1), overflow the "
                "float range; use smaller coherent amplitudes") from exc
        if self.n_fock < needed:
            raise ConfigurationError(
                f"n_fock={self.n_fock} is too small for max |alpha| "
                f"{self.max_alpha:.3g}; need at least {needed}")

    @property
    def max_alpha(self) -> float:
        return max(abs(a) for a in self.alphas)


def destroy(n_fock: int) -> np.ndarray:
    """Annihilation operator on an n_fock-level truncation."""
    n_fock = as_integer(n_fock, "n_fock", DomainError, least=2)
    return np.diag(np.sqrt(np.arange(1.0, n_fock)), 1).astype(np.complex128)


def number_operator(n_fock: int) -> np.ndarray:
    n_fock = as_integer(n_fock, "n_fock", DomainError, least=1)
    return np.diag(np.arange(n_fock, dtype=np.float64)).astype(np.complex128)


def coherent_vector(alpha: complex, n_fock: int) -> np.ndarray:
    """Truncated coherent-state amplitudes, renormalized to unit norm.

    Built by the cumulative recurrence c_n = c_{n-1} * alpha / sqrt(n)
    starting from exp(-|alpha|^2 / 2); no factorials are formed.
    """
    alpha = as_complex(alpha, "alpha")
    if not np.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    n_fock = as_integer(n_fock, "n_fock", DomainError, least=1)
    c = np.empty(n_fock, dtype=np.complex128)
    c[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_fock):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    return c / np.linalg.norm(c)


def superposition_state(amplitudes, alphas, n_fock: int) -> QuantumState:
    """Normalized sum of coherent components sum_k amplitudes[k] |alphas[k]>."""
    amplitudes = [as_complex(a, "amplitudes") for a in amplitudes]
    alphas = [as_complex(a, "alphas") for a in alphas]
    if len(amplitudes) != len(alphas) or not alphas:
        raise DomainError("amplitudes and alphas must pair up, nonempty")
    psi = sum(c * coherent_vector(a, n_fock)
              for c, a in zip(amplitudes, alphas))
    nrm = np.linalg.norm(psi)
    if nrm < 1e-12:
        raise DomainError("the requested superposition has zero norm")
    return QuantumState.pure(psi / nrm)


def oscillator_model(params: DampedOscillatorParams) -> LindbladModel:
    """H = omega n with thermal channels; both channels are always present
    (rates may be zero) so channel indices stay stable."""
    a = destroy(params.n_fock)
    h = params.omega * number_operator(params.n_fock)
    down = params.gamma * (params.n_thermal + 1.0)
    up = params.gamma * params.n_thermal
    return LindbladModel(h, [(a, down), (a.conj().T, up)])


def position_grid(params: DampedOscillatorParams) -> np.ndarray:
    """512-point quadrature grid wide enough for every declared component:
    the peaks sit within sqrt(2)*max|alpha| and carry unit Gaussian width."""
    half = np.sqrt(2.0) * params.max_alpha + 5.0
    return np.linspace(-half, half, 512)


def hermite_functions(xs: np.ndarray, n_max: int) -> np.ndarray:
    """Orthonormal Hermite functions phi_0..phi_{n_max-1} on xs, shape
    (len(xs), n_max).  Uses the normalized recurrence
    phi_{n+1} = sqrt(2/(n+1)) xi phi_n - sqrt(n/(n+1)) phi_{n-1},
    which stays bounded where the raw Hermite polynomials overflow.
    """
    xs = as_finite_array(xs, "xs")
    if xs.ndim != 1:
        raise DomainError("xs must be a 1-D grid")
    n_max = as_integer(n_max, "n_max", DomainError, least=1)
    phi = np.empty((xs.size, n_max), dtype=np.float64)
    phi[:, 0] = np.pi ** -0.25 * np.exp(-0.5 * xs ** 2)
    if n_max > 1:
        phi[:, 1] = np.sqrt(2.0) * xs * phi[:, 0]
    for n in range(1, n_max - 1):
        phi[:, n + 1] = (np.sqrt(2.0 / (n + 1)) * xs * phi[:, n]
                         - np.sqrt(n / (n + 1.0)) * phi[:, n - 1])
    return phi


def position_density(state: QuantumState, xs: np.ndarray) -> np.ndarray:
    """Quadrature probability density <xi|rho|xi> on the grid."""
    rho = state.density_matrix()
    return _density_from_table(hermite_functions(xs, rho.shape[0]), rho)


def _density_from_table(phi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """<xi|rho|xi> for a matrix rho, or one row per matrix of a stack, from
    the Hermite table phi of ``hermite_functions``, built once per grid."""
    # phi is real, so each term's real part is phi_xm Re(rho_mn) phi_xn
    return np.einsum("...xn,xn->...x", phi @ rho.real, phi)


def fringe_visibility(xs: np.ndarray, density: np.ndarray,
                      half_window: float = 1.0) -> float:
    """Interference contrast (max - min) / (max + min) over |xi| <=
    half_window, where min is taken over interior local minima only.

    A density without oscillatory structure in the window (a single
    packet, however placed) has no interior local minimum and scores 0;
    fringes from overlapping components score near 1 when their nodes
    reach zero and less as decoherence fills them in.
    """
    xs = as_finite_array(xs, "xs")
    density = as_finite_array(density, "density")
    if xs.shape != density.shape or xs.ndim != 1:
        raise DomainError("xs and density must be matching 1-D arrays")
    sel = np.abs(xs) <= as_real(half_window, "half_window")
    if sel.sum() < 3:
        raise DomainError("fewer than three grid points in the window")
    v = density[sel]
    interior = (v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])
    if not interior.any():
        return 0.0
    hi = float(v.max())
    lo = float(v[1:-1][interior].min())
    if hi + lo <= 0.0:
        raise DomainError("density is not positive inside the window")
    return (hi - lo) / (hi + lo)


def merge_times(params: DampedOscillatorParams, t_end: float) -> np.ndarray:
    """Elapsed times up to t_end where counter-rotating real-axis parts
    meet at xi = 0: odd multiples of the quarter period pi/(2 omega)."""
    if params.omega == 0.0:
        raise DomainError("merge times need a nonzero frequency")
    t_end = as_real(t_end, "t_end")
    quarter = np.pi / (2.0 * abs(params.omega))
    if t_end < quarter:
        return np.empty(0, dtype=np.float64)
    k_max = int(np.floor((t_end / quarter - 1.0) / 2.0 + 1e-9))
    return quarter * (2.0 * np.arange(k_max + 1) + 1.0)


def check_truncation(states) -> float:
    """Top Fock population of a state, or the largest of a StateSeries;
    raises TruncationError above TRUNCATION_TOL, naming the first sample."""
    tops = (states.density_matrix()[None] if isinstance(states, QuantumState)
            else states.data)[:, -1, -1].real
    i = int(np.argmax(tops > TRUNCATION_TOL))
    if tops[i] > TRUNCATION_TOL:
        where = f"sample {i} of {len(tops)}: " if len(tops) > 1 else ""
        raise TruncationError(
            f"{where}top Fock level holds population {tops[i]:.3g} > "
            f"{TRUNCATION_TOL:.3g}; "
            "the truncation is too small for this evolution")
    return float(tops.max())


def mean_occupation(states):
    """<n> of a state, or one value per sample of a StateSeries."""
    single = isinstance(states, QuantumState)
    rho = states.density_matrix()[None] if single else states.data
    occ = (np.diagonal(rho, axis1=1, axis2=2).real
           * np.arange(rho.shape[1])).sum(axis=1)
    return float(occ[0]) if single else occ
