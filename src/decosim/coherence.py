"""Coherence bookkeeping on density matrices.

Operations that read off or transform the information content of a state:
purity, population/coherence splitting in a chosen basis, basis rotations,
projective measurement probabilities, statistical mixtures, and the trace
distance used to compare two states.  A basis is specified by a unitary
matrix whose columns are the basis vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError, StateError
from .hilbert import (QuantumState, as_finite_array, as_matrix, as_real,
                      as_vector, check_dims, is_normalized, is_unitary)

__all__ = ["MixtureSpec", "basis_change", "measurement_probability", "mix",
           "populations_coherences", "purity", "trace_distance"]


def purity(state: QuantumState) -> float:
    """tr(rho^2).  Bounded by 1/dim from below (maximally mixed) and 1 from
    above (pure states)."""
    rho = state.density_matrix()
    # For hermitian rho, tr(rho^2) equals the squared Frobenius norm.
    return float(np.vdot(rho, rho).real)


def validate_basis(basis, dim: int) -> np.ndarray:
    b = as_matrix(basis, square=True)
    check_dims(b.shape[0], dim, "basis", "state")
    if not is_unitary(b):
        raise DomainError("basis matrix is not unitary within 1e-10")
    return b


def populations_coherences(
        state: QuantumState, basis=None) -> tuple[np.ndarray, np.ndarray]:
    """Split rho into populations and coherences in the given basis.

    Returns (populations, coherences): the real diagonal of B^dag rho B and
    the same matrix with the diagonal zeroed.  ``basis=None`` means the
    computational basis.
    """
    rho = state.density_matrix()
    if basis is not None:
        b = validate_basis(basis, state.dim)
        rho = b.conj().T @ rho @ b
    populations = rho.diagonal().real.copy()
    coherences = rho.copy()
    np.fill_diagonal(coherences, 0.0)
    return populations, coherences


def basis_change(state: QuantumState, u) -> QuantumState:
    """Apply the unitary change of frame rho -> u rho u^dag (or psi -> u psi
    for pure states).  Rejects non-unitary u."""
    uu = validate_basis(u, state.dim)
    if state.kind == "pure":
        return QuantumState.pure(uu @ state.data)
    return QuantumState.mixed(uu @ state.data @ uu.conj().T)


def measurement_probability(state: QuantumState, phi) -> float:
    """Probability <phi|rho|phi> of finding the state along the normalized
    vector phi: its squared norm must lie within 1e-10 of 1, the trace
    bound of a density matrix, as for a pure state."""
    v = as_vector(phi)
    check_dims(v.shape[0], state.dim, "projector", "state")
    if not is_normalized(np.vdot(v, v).real):
        raise DomainError("measurement vector must have squared norm within "
                          "1e-10 of 1")
    if state.kind == "pure":
        amp = np.vdot(v, state.data)
        return float((amp * amp.conjugate()).real)
    return float(np.vdot(v, state.data @ v).real)


@dataclass(frozen=True)
class MixtureSpec:
    """A statistical mixture: pure states |psi_k> entering with classical
    weights f_k >= 0 summing to 1 within 1e-10."""

    weights: tuple[float, ...]
    states: tuple[QuantumState, ...]

    def __init__(self, weights: Sequence[float], states: Sequence[QuantumState]):
        w = tuple(as_real(x, "weights") for x in weights)
        s = tuple(states)
        if len(w) != len(s) or len(w) == 0:
            raise DimensionError(
                "weights and states must be equally sized and non-empty")
        if any(x < 0.0 for x in w):
            raise DomainError("mixture weights must be non-negative")
        if not is_normalized(sum(w)):
            raise DomainError(
                f"mixture weights sum to {sum(w):.17g}, not 1 within 1e-10")
        if any(st.kind != "pure" for st in s):
            raise StateError("mixture components must be pure states")
        dims = {st.dim for st in s}
        if len(dims) != 1:
            raise DimensionError(f"mixture components differ in dimension: {dims}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", s)


def mix(spec: MixtureSpec) -> QuantumState:
    """Density matrix of the statistical mixture sum_k f_k |psi_k><psi_k|."""
    dim = spec.states[0].dim
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for f, st in zip(spec.weights, spec.states):
        rho += f * np.outer(st.data, st.data.conj())
    return QuantumState.mixed(rho)


def trace_distance(rho_a, rho_b):
    """(1/2) ||a - b||_1 for two density matrices (hermitian inputs), or
    one value per pair of rows for two (n, d, d) stacks of them."""
    a, b = (as_finite_array(m, "matrix", np.complex128,
                            3 if np.ndim(m) == 3 else 2, square=True)
            for m in (rho_a, rho_b))
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    if np.max(np.abs(diff - diff.conj().mT)) > 1e-8:
        raise DomainError("trace distance requires hermitian inputs")
    # Hermitize to kill rounding-level asymmetry before the eigensolve.
    diff = 0.5 * (diff + diff.conj().mT)
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)
    return dist if dist.ndim else float(dist)
