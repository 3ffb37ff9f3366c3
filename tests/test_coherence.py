"""Purity, population/coherence splits, measurements, mixtures."""

import numpy as np
import pytest

from decosim.coherence import (MixtureSpec, basis_change, measurement_probability,
                               mix, populations_coherences, purity,
                               trace_distance, validate_basis)
from decosim.errors import DimensionError, DomainError, StateError
from decosim.hilbert import QuantumState


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_density(rng, d):
    a = _random_complex(rng, d, d)
    rho = a @ a.conj().T
    return rho / rho.trace()


def _random_pure(rng, d):
    v = _random_complex(rng, d)
    return QuantumState.pure(v / np.linalg.norm(v))


def _random_unitary(rng, d):
    q, r = np.linalg.qr(_random_complex(rng, d, d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_purity_extremes():
    rng = np.random.default_rng(21)
    for d in (2, 3, 7):
        assert abs(purity(_random_pure(rng, d)) - 1.0) < 1e-12
        assert abs(purity(QuantumState.mixed(np.eye(d) / d)) - 1.0 / d) < 1e-14


def test_purity_bounds_sweep():
    # random mixed states stay inside [1/d, 1] up to validation tolerance
    rng = np.random.default_rng(22)
    for d in (2, 3, 5, 9):
        for _ in range(200):
            p = purity(QuantumState.mixed(_random_density(rng, d)))
            assert 1.0 / d - 1e-10 <= p <= 1.0 + 1e-10


def test_purity_of_mixture_below_components():
    rng = np.random.default_rng(23)
    a = _random_pure(rng, 3)
    b = _random_pure(rng, 3)
    mixed = mix(MixtureSpec([0.5, 0.5], [a, b]))
    assert purity(mixed) < 1.0


def test_populations_coherences_reconstruction():
    rng = np.random.default_rng(24)
    rho = _random_density(rng, 4)
    st = QuantumState.mixed(rho)
    pops, coh = populations_coherences(st)
    assert pops.dtype == np.float64
    assert np.all(np.abs(np.diagonal(coh)) == 0.0)
    assert np.allclose(np.diag(pops) + coh, rho, atol=1e-12)
    assert abs(pops.sum() - 1.0) < 1e-10


def test_populations_coherences_in_eigenbasis():
    rng = np.random.default_rng(25)
    rho = _random_density(rng, 4)
    w, v = np.linalg.eigh(rho)
    pops, coh = populations_coherences(QuantumState.mixed(rho), basis=v)
    assert np.allclose(np.sort(pops), w, atol=1e-10)
    assert np.max(np.abs(coh)) < 1e-10


def test_basis_validation():
    with pytest.raises(DomainError):
        validate_basis(2.0 * np.eye(2), 2)
    with pytest.raises(DimensionError):
        validate_basis(np.eye(3), 2)


def test_basis_change_round_trip():
    rng = np.random.default_rng(26)
    u = _random_unitary(rng, 3)
    st = _random_pure(rng, 3)
    there = basis_change(st, u)
    assert there.kind == "pure"
    back = basis_change(there, u.conj().T)
    assert np.allclose(back.data, st.data, atol=1e-10)
    mixed = QuantumState.mixed(_random_density(rng, 3))
    rotated = basis_change(mixed, u)
    assert abs(purity(rotated) - purity(mixed)) < 1e-12


def test_measurement_probability_pure_and_mixed():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    st = QuantumState.pure(plus)
    assert abs(measurement_probability(st, plus) - 1.0) < 1e-12
    assert abs(measurement_probability(st, minus)) < 1e-12
    mixed = QuantumState.mixed(np.eye(2) / 2.0)
    assert abs(measurement_probability(mixed, plus) - 0.5) < 1e-12


def test_measurement_probability_validation():
    st = QuantumState.pure([1.0, 0.0])
    with pytest.raises(DomainError):
        measurement_probability(st, [1.0, 1.0])    # not normalized
    with pytest.raises(DimensionError):
        measurement_probability(st, [1.0, 0.0, 0.0])


def test_mixture_destroys_interference():
    # the equal classical mixture of |0> and |1> shows no fringe contrast
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    spec = MixtureSpec([0.5, 0.5], [QuantumState.pure([1.0, 0.0]),
                                    QuantumState.pure([0.0, 1.0])])
    rho = mix(spec)
    assert abs(measurement_probability(rho, plus) - 0.5) < 1e-12
    assert abs(measurement_probability(rho, minus) - 0.5) < 1e-12


def test_mixture_validation():
    a = QuantumState.pure([1.0, 0.0])
    b = QuantumState.pure([0.0, 1.0])
    with pytest.raises(DomainError):
        MixtureSpec([0.6, 0.6], [a, b])
    with pytest.raises(DomainError):
        MixtureSpec([-0.5, 1.5], [a, b])
    with pytest.raises(DimensionError):
        MixtureSpec([1.0], [a, b])
    with pytest.raises(DimensionError):
        MixtureSpec([], [])
    with pytest.raises(StateError):
        MixtureSpec([1.0], [QuantumState.mixed(np.eye(2) / 2.0)])
    c = QuantumState.pure([1.0, 0.0, 0.0])
    with pytest.raises(DimensionError):
        MixtureSpec([0.5, 0.5], [a, c])


def test_mix_matches_manual_sum():
    rng = np.random.default_rng(27)
    states = [_random_pure(rng, 3) for _ in range(3)]
    weights = [0.2, 0.3, 0.5]
    rho = mix(MixtureSpec(weights, states)).data
    manual = sum(w * np.outer(s.data, s.data.conj())
                 for w, s in zip(weights, states))
    assert np.allclose(rho, manual, atol=1e-14)


def test_trace_distance_properties():
    rng = np.random.default_rng(28)
    a = _random_density(rng, 4)
    b = _random_density(rng, 4)
    assert trace_distance(a, a) < 1e-14
    d_ab = trace_distance(a, b)
    assert abs(d_ab - trace_distance(b, a)) < 1e-14
    assert 0.0 <= d_ab <= 1.0 + 1e-12
    # orthogonal pure states sit at the far end
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(p0, p1) - 1.0) < 1e-14


def test_trace_distance_two_level_closed_form():
    # for qubits 2 T(a, b) equals the Bloch-vector distance
    rho_a = 0.5 * np.array([[1.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
    rho_b = 0.5 * np.array([[0.9, -0.3j], [0.3j, 1.1]])
    diff = rho_a - rho_b
    want = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)))
    assert abs(trace_distance(rho_a, rho_b) - want) < 1e-14


def test_trace_distance_validation():
    with pytest.raises(DimensionError):
        trace_distance(np.eye(2), np.eye(3))
    with pytest.raises(DomainError):
        trace_distance(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2) / 2.0)


def test_trace_distance_reads_stacks_and_keeps_the_matrix_errors():
    rng = np.random.default_rng(29)
    a = np.array([_random_density(rng, 4) for _ in range(5)])
    b = np.array([_random_density(rng, 4) for _ in range(5)])
    dists = trace_distance(a, b)
    assert dists.shape == (5,)
    assert np.array_equal(dists, [trace_distance(x, y) for x, y in zip(a, b)])
    assert isinstance(trace_distance(a[0], b[0]), float)
    with pytest.raises(DimensionError, match=r"shape mismatch: \(5, 4, 4\) "
                       r"vs \(4, 4, 4\)"):
        trace_distance(a, b[1:])
    skew = b.copy()
    skew[3, 0, 1] += 1e-3
    with pytest.raises(DomainError, match="requires hermitian inputs"):
        trace_distance(a, skew)
    # a matrix is refused with the words it always had
    cases = [
        ((np.eye(2), np.eye(3)), DimensionError,
         r"shape mismatch: \(2, 2\) vs \(3, 3\)"),
        ((np.ones((2, 3)), np.ones((2, 3))), DimensionError,
         r"expected a square matrix, got shape \(2, 3\)"),
        ((np.ones(2), np.ones(2)), DimensionError,
         "expected a 2-D matrix, got ndim=1"),
        ((np.ones((1, 2, 2, 2)), np.ones((1, 2, 2, 2))), DimensionError,
         "expected a 2-D matrix, got ndim=4"),
        ((np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2)), DomainError,
         "matrix entries must be finite"),
        (([[True, False], [False, True]], np.eye(2)), DomainError,
         "matrix must be numbers, not bools or strings"),
        ((np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2) / 2.0), DomainError,
         "trace distance requires hermitian inputs"),
    ]
    for args, error, text in cases:
        with pytest.raises(error, match=f"^{text}$"):
            trace_distance(*args)


def test_mixture_weights_must_be_finite_numbers():
    a = QuantumState.pure([1.0, 0.0])
    b = QuantumState.pure([0.0, 1.0])
    # a NaN weight makes the sum NaN, which no tolerance test may pass
    with pytest.raises(DomainError,
                       match="^weights must be a finite number, got nan$"):
        MixtureSpec([np.nan, 1.0], [a, b])
    with pytest.raises(DomainError, match="^weights must be a finite number, got '0.5'$"):
        MixtureSpec([0.5, "0.5"], [a, b])


def test_basis_and_projector_mismatches_name_both_dimensions():
    qubit = QuantumState.pure([1.0, 0.0])
    with pytest.raises(DimensionError) as exc:
        validate_basis(np.eye(3), 2)
    assert str(exc.value) == ("basis dimension 3 does not match state "
                              "dimension 2")
    with pytest.raises(DimensionError) as exc:
        measurement_probability(qubit, [1.0, 0.0, 0.0])
    assert str(exc.value) == ("projector dimension 3 does not match state "
                              "dimension 2")
