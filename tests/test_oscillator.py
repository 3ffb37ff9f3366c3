"""Damped oscillator: Fock-space operators, quadrature densities, fringes."""

import math
import warnings

import numpy as np
import pytest

from decosim.errors import ConfigurationError, DomainError, TruncationError
from decosim.evolution import TimeGrid, integrate_master
from decosim.hilbert import QuantumState
from decosim.models.oscillator import (DampedOscillatorParams, check_truncation,
                                       coherent_vector, destroy,
                                       fringe_visibility, hermite_functions,
                                       mean_occupation, merge_times,
                                       number_operator, oscillator_model,
                                       position_density, position_grid,
                                       superposition_state)

from oracles import (coherent_wavefunction, hermite_phi,
                     superposition_position_density)


def _cat_params(alpha=2.0, gamma=0.0, n_thermal=0.0, n_fock=40):
    return DampedOscillatorParams(omega=1.0, gamma=gamma,
                                  n_thermal=n_thermal, n_fock=n_fock,
                                  alphas=(alpha, -alpha))


def test_params_validation():
    # |alpha| = 2 needs ceil(8 * (4 + 1)) = 40 levels
    _cat_params(n_fock=40)
    with pytest.raises(ConfigurationError):
        _cat_params(n_fock=39)
    with pytest.raises(DomainError):
        DampedOscillatorParams(1.0, -0.1, 0.0, 20, (1.0,))
    with pytest.raises(DomainError):
        DampedOscillatorParams(1.0, 0.1, -0.5, 20, (1.0,))
    with pytest.raises(DomainError):
        DampedOscillatorParams(1.0, 0.0, 0.0, 20, ())


@pytest.mark.parametrize("alpha", [1e200, 1e154, 1.5e308 + 1.5e308j])
def test_amplitude_overflow_names_alphas(alpha):
    # |alpha|^2, 8 (|alpha|^2 + 1) and |alpha| itself each overflow once
    with pytest.raises(OverflowError,
                       match="^alphas: .* overflow the float range; use "
                             "smaller coherent amplitudes$"):
        DampedOscillatorParams(1.0, 0.0, 0.0, 40, (2.0, alpha))


@pytest.mark.parametrize("call, message", [
    (lambda: DampedOscillatorParams(1.0, 0.0, 0.0, 40.7, (1.0,)),
     "n_fock must be an integer, got 40.7"),
    (lambda: destroy(3.5), "n_fock must be an integer, got 3.5"),
    (lambda: number_operator(3.5), "n_fock must be an integer, got 3.5"),
    (lambda: coherent_vector(1.0, 40.5), "n_fock must be an integer, got 40.5"),
    (lambda: superposition_state([1.0], [1.0], 40.5),
     "n_fock must be an integer, got 40.5"),
    (lambda: hermite_functions(np.linspace(-1.0, 1.0, 5), 3.5),
     "n_max must be an integer, got 3.5")],
    ids=["params", "destroy", "number_operator", "coherent_vector",
         "superposition_state", "hermite_functions"])
def test_fock_sizes_must_be_integers(call, message):
    # a float size is refused, not truncated (or rounded up by numpy)
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: number_operator(-1), "n_fock must be >= 1, got -1"),
    (lambda: number_operator(0), "n_fock must be >= 1, got 0"),
    (lambda: coherent_vector(1.0, 0), "n_fock must be >= 1, got 0"),
    (lambda: superposition_state([1.0], [1.0], 0),
     "n_fock must be >= 1, got 0")],
    ids=["number_operator-negative", "number_operator-zero",
         "coherent_vector", "superposition_state"])
def test_fock_sizes_below_one_are_refused(call, message):
    # an empty truncation is refused, not returned as a 0 x 0 operator or
    # left to fail on an index
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
    assert number_operator(1).shape == (1, 1)
    assert coherent_vector(1.0, 1).tolist() == [1.0]


@pytest.mark.parametrize("call, message", [
    (lambda: DampedOscillatorParams(1, 0, 0, 40, ("2", "-2")),
     "alphas must be a number, got '2'"),
    (lambda: DampedOscillatorParams(1, 0, 0, 40, (True,)),
     "alphas must be a number, got True"),
    (lambda: superposition_state(["1"], [0.5], 20),
     "amplitudes must be a number, got '1'"),
    (lambda: superposition_state([1.0], ["0.5"], 20),
     "alphas must be a number, got '0.5'"),
    (lambda: coherent_vector("1", 4), "alpha must be a number, got '1'"),
    (lambda: coherent_vector(np.nan, 4), "alpha must be finite, got (nan+0j)"),
    (lambda: coherent_vector(complex(0.0, np.inf), 4),
     "alpha must be finite, got infj")],
    ids=["params-string", "params-bool", "amplitude-string", "alpha-string",
         "coherent-string", "coherent-nan", "coherent-inf"])
def test_complex_parameters_must_be_numbers(call, message):
    # a string is refused, not parsed by complex(); a NaN alpha is refused,
    # not turned into NaN amplitudes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc:
            call()
    assert str(exc.value) == message


def test_fock_sizes_take_numpy_integers():
    assert destroy(np.int64(3)).shape == (3, 3)
    assert DampedOscillatorParams(1.0, 0.0, 0.0, np.int32(20),
                                  (1.0,)).n_fock == 20


def test_shape_and_value_rules():
    with pytest.raises(DomainError, match="amplitudes must be finite"):
        DampedOscillatorParams(1.0, 0.0, 0.0, 20, (complex(np.nan, 1.0),))
    with pytest.raises(DomainError, match="must pair up"):
        superposition_state([1.0], [1.0, -1.0], 20)
    with pytest.raises(DomainError, match="1-D grid"):
        hermite_functions(np.zeros((2, 2)), 3)


def test_ladder_operators():
    a = destroy(6)
    n = number_operator(6)
    assert np.allclose(a.conj().T @ a, n, atol=1e-14)
    # canonical commutator holds below the truncation edge
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(comm[:5, :5], np.eye(5), atol=1e-14)
    assert a[0, 1] == 1.0 and a[1, 2] == pytest.approx(np.sqrt(2.0))


def test_coherent_vector_poisson_weights():
    alpha = 1.3 + 0.4j
    v = coherent_vector(alpha, 40)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    n = np.arange(40)
    want = np.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * n) / [
        float(math.factorial(k)) for k in n]
    assert np.allclose(np.abs(v) ** 2, want, atol=1e-12)


def test_coherent_state_is_ladder_eigenvector():
    alpha = 0.9
    v = coherent_vector(alpha, 40)
    residual = destroy(40) @ v - alpha * v
    assert np.max(np.abs(residual[:-1])) < 1e-12


def test_mean_occupation():
    v = coherent_vector(1.5, 40)
    st = QuantumState.pure(v)
    assert mean_occupation(st) == pytest.approx(2.25, abs=1e-8)
    fock3 = np.zeros(40)
    fock3[3] = 1.0
    assert mean_occupation(QuantumState.pure(fock3)) == pytest.approx(3.0)


def test_superposition_state_normalized():
    st = superposition_state([1.0, 1.0], [2.0, -2.0], 40)
    assert st.kind == "pure"
    assert abs(np.linalg.norm(st.data) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        superposition_state([1.0, -1.0], [0.5, 0.5], 40)   # cancels exactly


def test_hermite_functions_match_closed_forms():
    xs = np.linspace(-4.0, 4.0, 200)
    phi = hermite_functions(xs, 4)
    for n in range(4):
        assert np.allclose(phi[:, n], hermite_phi(n, xs), atol=1e-12)


def test_hermite_orthonormality():
    xs = np.linspace(-12.0, 12.0, 4001)
    phi = hermite_functions(xs, 25)
    gram = np.trapezoid(phi[:, :, None] * phi[:, None, :], xs, axis=0)
    assert np.max(np.abs(gram - np.eye(25))) < 1e-6


def test_position_density_of_coherent_state():
    params = _cat_params()
    xs = position_grid(params)
    for alpha in (0.0, 1.1, -2.0, 0.7 + 0.5j):
        st = QuantumState.pure(coherent_vector(alpha, 40))
        got = position_density(st, xs)
        want = np.abs(coherent_wavefunction(alpha, xs)) ** 2
        assert np.max(np.abs(got - want)) < 1e-8
        assert abs(np.trapezoid(got, xs) - 1.0) < 1e-6


def test_position_density_of_cat_state():
    st = superposition_state([1.0, 1.0], [2.0, -2.0], 40)
    params = _cat_params()
    xs = position_grid(params)
    got = position_density(st, xs)
    want = superposition_position_density([1.0, 1.0], [2.0, -2.0], xs)
    assert np.max(np.abs(got - want)) < 1e-8


def test_fringe_visibility_extremes():
    params = _cat_params()
    xs = position_grid(params)
    # one displaced packet: no interior minimum, zero visibility
    lone = position_density(QuantumState.pure(coherent_vector(2.0, 40)), xs)
    assert fringe_visibility(xs, lone) == 0.0
    # phase-space-rotated cat at the meeting instant: deep fringes
    st = superposition_state([1.0, 1.0], [2.0j, -2.0j], 40)
    fringed = position_density(st, xs)
    assert fringe_visibility(xs, fringed) > 0.98
    # a classical 50/50 mixture of the same packets shows no fringes
    rho = 0.5 * (np.outer(coherent_vector(2.0j, 40),
                          coherent_vector(2.0j, 40).conj())
                 + np.outer(coherent_vector(-2.0j, 40),
                            coherent_vector(-2.0j, 40).conj()))
    smooth = position_density(QuantumState.mixed(rho), xs)
    assert fringe_visibility(xs, smooth) < 0.05


def test_fringe_visibility_validation():
    xs = np.linspace(-5.0, 5.0, 101)
    with pytest.raises(DomainError):
        fringe_visibility(xs, np.ones(100))
    with pytest.raises(DomainError):
        fringe_visibility(np.array([0.0, 10.0, 20.0]), np.ones(3),
                          half_window=1.0)


def test_fringe_visibility_refuses_a_density_that_is_not_positive():
    with pytest.raises(DomainError, match="not positive"):
        fringe_visibility(np.linspace(-5.0, 5.0, 101), np.zeros(101))


def test_merge_times_quarter_periods():
    params = _cat_params()
    got = merge_times(params, 5.0 * np.pi)
    want = np.pi / 2.0 * np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    assert np.allclose(got, want, atol=1e-12)
    assert merge_times(params, 1.0).size == 0
    still = DampedOscillatorParams(0.0, 0.0, 0.0, 40, (2.0,))
    with pytest.raises(DomainError):
        merge_times(still, 10.0)


def test_check_truncation():
    ok = QuantumState.pure(coherent_vector(2.0, 40))
    assert check_truncation(ok) < 1e-6
    top_heavy = np.zeros(40)
    top_heavy[-1] = 1.0
    with pytest.raises(TruncationError):
        check_truncation(QuantumState.pure(top_heavy))


def test_series_reads_equal_the_per_state_values():
    # one call on the whole integrated series gives each state's bits
    params = DampedOscillatorParams(1.0, 0.3, 0.4, 12, (0.7, -0.7))
    st = superposition_state([1.0, 1.0], params.alphas, params.n_fock)
    grid = TimeGrid(0.0, 2.0, 400, sample_every=20)
    states = integrate_master(st, oscillator_model(params), grid)
    assert check_truncation(states) == max(map(check_truncation, states))
    occupations = mean_occupation(states)
    assert occupations.shape == (grid.n_samples,)
    assert np.array_equal(occupations,
                          [mean_occupation(s) for s in states])


def test_check_truncation_names_the_first_sample_over_the_limit():
    tops = [1e-9, 1e-7, 2e-6, 5e-6]
    stack = np.zeros((len(tops), 12, 12), dtype=complex)
    for k, top in enumerate(tops):
        stack[k, 0, 0] = 1.0 - top
        stack[k, -1, -1] = top
    states = QuantumState._mixed_stack(stack)
    assert check_truncation(states[:2]) == 1e-7
    with pytest.raises(TruncationError, match=r"^sample 2 of 4: top Fock "
                       r"level holds population 2e-06 > 1e-06;"):
        check_truncation(states)
    # a single state, or a series of one, is not named
    with pytest.raises(TruncationError, match=r"^top Fock level holds "
                       r"population 5e-06"):
        check_truncation(states[3:])


def test_model_channels():
    params = _cat_params(gamma=0.2, n_thermal=0.5)
    model = oscillator_model(params)
    assert np.allclose(model.h, np.diag(np.arange(40.0)), atol=1e-14)
    (op_down, r_down), (op_up, r_up) = model.channels
    assert np.array_equal(op_down, destroy(40))
    assert np.array_equal(op_up, destroy(40).conj().T)
    assert r_down == pytest.approx(0.2 * 1.5)
    assert r_up == pytest.approx(0.2 * 0.5)


def test_coherent_state_rotates_under_free_evolution():
    # a short closed-system integration keeps the packet coherent: the
    # density at t matches the analytic density of alpha exp(-i omega t)
    params = DampedOscillatorParams(1.0, 0.0, 0.0, 24, (1.2,))
    model = oscillator_model(params)
    st = QuantumState.pure(coherent_vector(1.2, 24))
    t_end = 0.7
    grid = TimeGrid(0.0, t_end, 2800, sample_every=2800)
    out = integrate_master(st, model, grid)[-1]
    assert abs(np.vdot(out.data, out.data).real - 1.0) < 1e-8   # stays pure
    xs = position_grid(params)
    got = position_density(out, xs)
    want = np.abs(coherent_wavefunction(1.2 * np.exp(-1j * t_end), xs)) ** 2
    assert np.max(np.abs(got - want)) < 1e-6


def test_thermal_damping_relaxes_occupation():
    params = DampedOscillatorParams(1.0, 0.5, 0.4, 24, (1.2,))
    model = oscillator_model(params)
    st = QuantumState.pure(coherent_vector(1.2, 24))
    grid = TimeGrid(0.0, 12.0, 6000, sample_every=1500)
    states = integrate_master(st, model, grid)
    n0 = 1.2 ** 2
    for st_t, t in zip(states, grid.sample_times()):
        want = 0.4 + (n0 - 0.4) * np.exp(-0.5 * t)
        assert abs(mean_occupation(st_t) - want) < 1e-5


def test_position_density_of_a_mixed_state_matches_the_double_sum():
    # full rank with complex coherences: sum_mn phi_m(x) rho_mn phi_n(x)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    assert np.linalg.eigvalsh(rho).min() > 1e-3
    assert np.abs(rho.imag[np.triu_indices(4, 1)]).min() > 1e-3
    xs = np.linspace(-5.0, 5.0, 201)
    want = np.zeros(xs.size)
    for m in range(4):
        for n in range(4):
            want += (hermite_phi(m, xs) * rho[m, n] * hermite_phi(n, xs)).real
    got = position_density(QuantumState.mixed(rho), xs)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("call, message", [
    (lambda: destroy(1), "n_fock must be >= 2, got 1"),
    (lambda: destroy(np.int64(0)), "n_fock must be >= 2, got 0"),
    (lambda: hermite_functions(np.linspace(-1.0, 1.0, 5), 0),
     "n_max must be >= 1, got 0")])
def test_fock_counts_have_a_lower_bound(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("t_end", ["3", True, np.nan, np.inf, 1j])
def test_merge_times_refuses_a_non_real_end(t_end):
    with pytest.raises(DomainError,
                       match="^t_end must be a finite number, got "):
        merge_times(_cat_params(), t_end)


@pytest.mark.parametrize("half_window", ["1", True, np.nan, None])
def test_fringe_visibility_refuses_a_non_real_window(half_window):
    xs = np.linspace(-5.0, 5.0, 101)
    with pytest.raises(DomainError,
                       match="^half_window must be a finite number, got "):
        fringe_visibility(xs, np.ones(101), half_window=half_window)
