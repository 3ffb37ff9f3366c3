"""Linear-algebra layer: products, partial traces, propagators, states."""

import math
import re
import sys
import warnings

import numpy as np
import pytest

from decosim import hilbert
from decosim.coherence import measurement_probability
from decosim.errors import (ConfigurationError, DimensionError, DomainError,
                            StateError)
from decosim.evolution import TimeGrid
from decosim.hilbert import (QuantumState, TensorFactorization, as_complex,
                             as_integer, as_key, as_matrix, as_number_array,
                             as_real, as_vector, check_dims, dagger,
                             eig_hermitian, expm_hermitian_prop, is_hermitian, is_unitary,
                             kron, matmul, partial_trace)
from decosim.models import (CentralSpinParams, DisorderSpec, Distribution,
                            central_spin_coherence, disorder_averaged_state,
                            fringe_visibility, gaussian_envelope,
                            hermite_functions, poisson_dispersion,
                            position_density, spin_echo_coherence)

from oracles import expm_series, kron_loops, matmul_loops, partial_trace_loops


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_density(rng, d):
    a = _random_complex(rng, d, d)
    rho = a @ a.conj().T
    return rho / rho.trace()


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for n, k, m in [(2, 2, 2), (3, 4, 2), (5, 5, 5), (1, 7, 3)]:
        a = _random_complex(rng, n, k)
        b = _random_complex(rng, k, m)
        assert np.allclose(matmul(a, b), matmul_loops(a, b),
                           rtol=1e-12, atol=1e-12)


def test_matmul_rejects_inner_mismatch():
    with pytest.raises(DimensionError):
        matmul(np.eye(2), np.eye(3))


def test_dagger_and_kron():
    rng = np.random.default_rng(12)
    a = _random_complex(rng, 3, 3)
    b = _random_complex(rng, 2, 2)
    assert np.array_equal(dagger(a), a.conj().T)
    assert np.allclose(kron(a, b), kron_loops(a, b), atol=1e-12)
    # mixed-product property
    c = _random_complex(rng, 3, 3)
    d = _random_complex(rng, 2, 2)
    lhs = matmul(kron(a, b), kron(c, d))
    rhs = kron(matmul(a, c), matmul(b, d))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_as_matrix_validation():
    with pytest.raises(DimensionError):
        as_matrix([1.0, 2.0])
    with pytest.raises(DimensionError):
        as_matrix(np.ones((2, 3)), square=True)
    with pytest.raises(DomainError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        as_vector([np.inf, 0.0])


def test_as_vector_refuses_a_matrix():
    with pytest.raises(DimensionError, match="expected a 1-D vector"):
        as_vector([[1.0, 0.0]])


def test_as_integer_takes_integers_and_refuses_the_rest():
    for value in (7, np.int64(7), np.uint8(7)):
        n = as_integer(value, "n")
        assert n == 7 and type(n) is int
    for value in (7.0, 7.5, np.float64(7.0), "7", None):
        with pytest.raises(DimensionError,
                           match=f"^n must be an integer, got "
                                 f"{re.escape(repr(value))}$"):
            as_integer(value, "n")
    with pytest.raises(ConfigurationError, match="^seed must be an integer"):
        as_integer(1.7, "seed", ConfigurationError)


def test_as_real_takes_finite_numbers_and_refuses_the_rest():
    for value in (2, 2.5, np.float32(0.5), np.int64(3), 10**300):
        x = as_real(value, "x")
        assert x == float(value) and type(x) is float
    for value in ("0.5", None, 1j, np.complex128(1.0), [1.0],
                  np.nan, -np.inf):
        with pytest.raises(DomainError,
                           match=f"^x must be a finite number, got "
                                 f"{re.escape(repr(value))}$"):
            as_real(value, "x")
    with pytest.raises(DimensionError, match="^t_end must be a finite"):
        as_real(np.inf, "t_end", DimensionError)
    with pytest.raises(OverflowError):      # as float() does
        as_real(10**400, "x")


def test_scalar_helpers_refuse_a_bool():
    # True is an int to Python, but no count, seed or parameter is a bool
    for convert, kind in ((as_integer, "an integer"),
                          (as_real, "a finite number"),
                          (as_complex, "a number")):
        for value in (True, False):
            with pytest.raises(DomainError,
                               match=f"^x must be {kind}, got {value}$"):
                convert(value, "x", DomainError)
    with pytest.raises(DimensionError, match="^t_end must be a finite"):
        TimeGrid(0.0, True, True)


def test_as_complex_takes_numbers_and_refuses_the_rest():
    for value in (2, 2.5, 1j, np.complex64(1 + 2j), np.float32(0.5),
                  np.int64(3)):
        z = as_complex(value, "z")
        assert z == complex(value) and type(z) is complex
    # finiteness is the caller's check, as the norm test of c1, c2 is
    assert math.isnan(as_complex(np.nan, "z").real)
    for value in ("1", "1+2j", None, [1.0], np.array([1.0])):
        with pytest.raises(DomainError,
                           match=f"^z must be a number, got "
                                 f"{re.escape(repr(value))}$"):
            as_complex(value, "z")


@pytest.mark.parametrize("value", [0, 2**64 - 1, np.uint64(2**64 - 1)])
def test_as_key_takes_the_philox_key_range(value):
    assert as_key(value, "seed") == int(value)


@pytest.mark.parametrize("value, message", [
    (-1, "seed must be in [0, 2**64), got -1"),
    (2**64, "seed must be in [0, 2**64), got 18446744073709551616"),
    (1.0, "seed must be an integer, got 1.0"),
    (True, "seed must be an integer, got True")])
def test_as_key_refuses_what_philox_cannot_key(value, message):
    with pytest.raises(ConfigurationError) as exc:
        as_key(value, "seed")
    assert str(exc.value) == message


def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(13)
    dims = (2, 3, 2)
    rho = _random_density(rng, 12)
    for keep in ([0], [1], [2], [0, 2], [1, 2], [0, 1, 2]):
        got = partial_trace(rho, dims, keep)
        want = partial_trace_loops(rho, dims, keep)
        assert np.allclose(got, want, atol=1e-12)
        assert abs(got.trace() - rho.trace()) < 1e-12


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(14)
    rho_a = _random_density(rng, 2)
    rho_b = _random_density(rng, 3)
    joint = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(joint, (2, 3), [0]), rho_a, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 3), [1]), rho_b, atol=1e-12)


def test_partial_trace_validation():
    rho = np.eye(4) / 4.0
    with pytest.raises(DimensionError):
        partial_trace(rho, (2, 3), [0])        # 2*3 != 4
    with pytest.raises(DimensionError):
        partial_trace(rho, (2, 2), [2])        # index out of range
    with pytest.raises(DimensionError):
        partial_trace(rho, (2, 2), [])         # nothing kept
    with pytest.raises(DimensionError):
        TensorFactorization([])
    with pytest.raises(DimensionError):
        TensorFactorization([2, 0])


@pytest.mark.parametrize("call, message", [
    (lambda: TensorFactorization([2.5, 2]),
     "factor_dims must be an integer, got 2.5"),
    (lambda: partial_trace(np.eye(4) / 4.0, [2, 2], keep=[0.9]),
     "keep must be an integer, got 0.9")],
    ids=["factorization", "partial_trace"])
def test_factor_helpers_refuse_non_integer_indices(call, message):
    # a float dimension or index is refused, not truncated to its floor
    with pytest.raises(DimensionError) as exc:
        call()
    assert str(exc.value) == message


def test_factor_helpers_take_numpy_integers():
    assert TensorFactorization([np.int64(2), 3]).factor_dims == (2, 3)
    assert np.allclose(partial_trace(np.eye(4) / 4.0, [2, 2],
                                     keep=[np.uint8(1)]), np.eye(2) / 2.0)


def test_partial_trace_up_to_numpy_axis_limit():
    # one row and one column axis per factor: 32 factors fill numpy's 64
    rho = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
    for n_trivial in (13, 31):
        dims = (1,) * n_trivial + (2,)
        assert np.array_equal(partial_trace(rho, dims, [n_trivial]), rho)
        assert np.array_equal(partial_trace(rho, dims, range(n_trivial + 1)),
                              rho)
        assert np.allclose(partial_trace(rho, dims, [0]), [[1.0]])
    with pytest.raises(DimensionError, match="too many tensor factors"):
        partial_trace(rho, (1,) * 32 + (2,), [32])


def test_eig_hermitian_reconstructs():
    rng = np.random.default_rng(15)
    a = _random_complex(rng, 6, 6)
    h = a + a.conj().T
    w, v = eig_hermitian(h)
    assert np.all(np.diff(w) >= 0.0)
    assert np.allclose((v * w) @ v.conj().T, h, atol=1e-10)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(DomainError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_propagator_matches_series_oracle():
    rng = np.random.default_rng(16)
    a = _random_complex(rng, 5, 5)
    h = a + a.conj().T
    for t in (0.0, 0.37, 2.5, -1.1):
        u = expm_hermitian_prop(h, t)
        assert is_unitary(u)
        assert np.allclose(u, expm_series(-1j * h * t), atol=1e-10)


def test_hermitian_unitary_predicates():
    assert is_hermitian(np.diag([1.0, 2.0]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert is_unitary(np.eye(3))
    assert not is_unitary(2.0 * np.eye(3))


def test_pure_state_validation():
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    st = QuantumState.pure(v)
    assert st.kind == "pure" and st.dim == 2
    with pytest.raises(StateError):
        QuantumState.pure([1.0, 1.0])          # unnormalized
    with pytest.raises(StateError):
        QuantumState.pure([1.0])               # dim < 2
    with pytest.raises(DomainError):
        QuantumState.pure([np.nan, 0.0])
    with pytest.raises(TypeError):
        QuantumState(object(), "pure", v)      # ctor is factory-only


def test_state_repr_names_kind_and_dim():
    assert repr(QuantumState.pure([0.0, 1.0])) == \
        "QuantumState(kind='pure', dim=2)"
    assert repr(QuantumState.mixed(np.eye(3) / 3.0)) == \
        "QuantumState(kind='mixed', dim=3)"


def test_state_series_ctor_is_factory_only():
    with pytest.raises(TypeError, match="comes from the engines"):
        hilbert.StateSeries(object(), np.eye(2)[None] / 2.0)


def test_is_normalized_is_the_trace_rule():
    assert hilbert.is_normalized(1.0 + 0.9e-10)
    assert hilbert.is_normalized(complex(1.0 - 5e-11, 0.0))
    assert hilbert.is_normalized(np.trace(np.eye(2) / 2.0 + 0j))
    assert not hilbert.is_normalized(1.0 + 2e-10)
    assert not hilbert.is_normalized(complex(1.0, 2e-10))
    assert not hilbert.is_normalized(math.nan)
    assert not hilbert.is_normalized(complex(math.nan, 0.0))
    assert hilbert.is_normalized(np.array([1.0, math.nan, 0.9])).tolist() == [
        True, False, False]
    assert "is_normalized" not in hilbert.__all__


def test_unit_vectors_follow_the_trace_rule():
    # squared norm 1 + 1.5e-10: the norm is within 1e-10 of 1, the trace of
    # the projector is not, so the vector is refused wherever it enters
    v = np.array([math.sqrt(1.0 + 1.5e-10), 0.0])
    with pytest.raises(StateError, match="squared norm 1.00000000015"):
        QuantumState.pure(v)
    with pytest.raises(StateError, match="trace 1.00000000015"):
        QuantumState.mixed(np.outer(v, v))
    with pytest.raises(DomainError, match="squared norm within 1e-10 of 1"):
        measurement_probability(QuantumState.pure([1.0, 0.0]), v)
    w = np.array([math.sqrt(1.0 - 0.9e-10), 0.0])
    assert QuantumState.pure(w).dim == 2
    assert QuantumState.mixed(np.outer(w, w)).dim == 2
    up = QuantumState.pure([1.0, 0.0])
    assert measurement_probability(up, w) == w[0] ** 2


def test_mixed_state_validation():
    ok = QuantumState.mixed(np.eye(2) / 2.0)
    assert ok.kind == "mixed" and ok.dim == 2
    with pytest.raises(StateError):
        QuantumState.mixed(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not hermitian
    with pytest.raises(StateError):
        QuantumState.mixed(np.eye(2))                           # trace 2
    neg = np.diag([1.1, -0.1])
    with pytest.raises(StateError):
        QuantumState.mixed(neg)                                 # eigenvalue -0.1
    # a tiny negative eigenvalue is tolerated and left untouched
    tiny = np.diag([1.0 + 1e-9, -1e-9])
    st = QuantumState.mixed(tiny)
    assert st.data[1, 1].real == -1e-9


def test_density_matrix_forms():
    v = np.array([0.6, 0.8j])
    st = QuantumState.pure(v)
    assert np.allclose(st.density_matrix(), np.outer(v, v.conj()), atol=1e-15)
    m = QuantumState.mixed(np.eye(2) / 2.0)
    rho = m.density_matrix()
    rho[0, 0] = 99.0        # the returned matrix is a copy
    assert m.data[0, 0] == 0.5


def test_pure_state_data_is_copied():
    v = np.array([1.0 + 0.0j, 0.0])
    st = QuantumState.pure(v)
    v[0] = 0.0
    assert st.data[0] == 1.0


def test_mixed_state_data_is_copied():
    # the stack check keeps arrays its callers hand over; mixed copies
    rho = np.diag([0.75 + 0.0j, 0.25])
    st = QuantumState.mixed(rho)
    rho[0, 0] = 0.0
    rho[0, 1] = 0.5
    assert st.data.tolist() == [[0.75, 0.0], [0.0, 0.25]]


def test_mixed_stack_matches_one_by_one_and_names_the_first_bad_matrix():
    good = np.stack([np.eye(3) / 3.0, np.diag([0.5, 0.25, 0.25])])
    states = QuantumState._mixed_stack(good)
    assert [s.data.tolist() for s in states] == [m.tolist() for m in good]
    good[0, 0, 0] = 9.0         # the states keep their own copy
    assert states[0].data[0, 0] == 1.0 / 3.0

    bad = np.stack([np.eye(2) / 2.0, np.eye(2), np.eye(2), np.diag([1.1, -0.1])])
    with pytest.raises(StateError, match="^matrix 1 of 4: density matrix trace 2"):
        QuantumState._mixed_stack(bad)
    bad[1:3] = np.eye(2) / 2.0
    with pytest.raises(StateError, match="^matrix 3 of 4: .* eigenvalue -1.000e-01"):
        QuantumState._mixed_stack(bad)
    bad[2, 0, 1] = np.inf
    with pytest.raises(DomainError, match="^matrix 2 of 4: matrix entries"):
        QuantumState._mixed_stack(bad)
    # a stack of one reports as QuantumState.mixed always has
    with pytest.raises(StateError, match="^density matrix not hermitian"):
        QuantumState.mixed(np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(DimensionError, match="got ndim=1"):
        QuantumState.mixed([0.5, 0.5])
    with pytest.raises(DimensionError, match="square"):
        QuantumState.mixed(np.ones((2, 3)) / 2.0)


def test_mixed_stack_names_the_first_bad_matrix_whatever_check_it_fails():
    bad = np.stack([np.diag([1.1, -0.1]), np.eye(2)])
    with pytest.raises(StateError,
                       match="^matrix 0 of 2: .* eigenvalue") as exc:
        QuantumState._mixed_stack(bad)
    assert exc.value.index == 0
    # a non-finite matrix after a bad one does not hide it
    bad = np.stack([np.eye(2) / 2.0, np.diag([1.1, -0.1]),
                    np.full((2, 2), np.nan)])
    with pytest.raises(StateError, match="^matrix 1 of 3: .* eigenvalue"):
        QuantumState._mixed_stack(bad)
    # the later checks never see the non-finite entries, so nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^matrix entries") as exc:
            QuantumState.mixed(np.diag([np.inf, 0.0]))
    assert exc.value.index == 0


@pytest.mark.parametrize("slab_bytes", [1, 2 * 64, 3 * 64, 1 << 20])
def test_mixed_stack_slabs_change_nothing(slab_bytes, monkeypatch):
    monkeypatch.setattr(hilbert, "STACK_SLAB_BYTES", slab_bytes)
    good = np.stack([np.eye(2) / 2.0, np.diag([0.25, 0.75])] * 3)
    states = QuantumState._mixed_stack(good)
    assert [s.data.tolist() for s in states] == [m.tolist() for m in good]
    cases = [(3, np.diag([0.2, 0.2]), StateError, "trace 0.4"),
             (4, np.array([[0.5, 1.0], [0.0, 0.5]]), StateError,
              "not hermitian"),
             (5, np.diag([np.inf, 0.0]), DomainError, "must be finite")]
    for i, matrix, kind, text in cases:
        bad = good.copy()
        bad[i] = matrix
        bad[i + 1:] = np.nan
        with pytest.raises(kind, match=f"^matrix {i} of 6: .*{text}") as exc:
            QuantumState._mixed_stack(bad)
        assert exc.value.index == i


def test_as_integer_refuses_a_count_below_its_bound():
    assert as_integer(2, "n", least=2) == 2
    assert as_integer(np.int64(0), "n", DomainError, least=0) == 0
    with pytest.raises(DomainError) as exc:
        as_integer(np.int64(1), "n_fock", DomainError, least=2)
    assert str(exc.value) == "n_fock must be >= 2, got 1"
    with pytest.raises(DimensionError) as exc:
        as_integer(-3, "n", least=-2)
    assert str(exc.value) == "n must be >= -2, got -3"
    # the type rule comes first, and without a bound any int passes
    with pytest.raises(DimensionError, match="^n must be an integer, got 0.5$"):
        as_integer(0.5, "n", least=1)
    assert as_integer(-10**30, "n") == -10**30


def test_check_dims_names_both_dimensions():
    check_dims(3, 3, "state", "model")
    with pytest.raises(DimensionError) as exc:
        check_dims(2, 4, "basis", "state")
    assert str(exc.value) == "basis dimension 2 does not match state dimension 4"


def test_factorization_refuses_a_factor_below_one():
    with pytest.raises(DimensionError) as exc:
        TensorFactorization([2, 0, 3])
    assert str(exc.value) == "factor_dims must be >= 1, got 0"
    assert TensorFactorization([1, 2]).total_dim == 2


def test_mixed_stack_refuses_one_dimensional_states():
    with pytest.raises(StateError,
                       match="^state dimension must be at least 2$"):
        QuantumState._mixed_stack(np.ones((3, 1, 1)))


def test_as_decimal_reads_plain_decimal_digits_only():
    assert hilbert.as_decimal("12", "n") == 12
    assert hilbert.as_decimal("-3", "n") == -3
    assert hilbert.as_decimal("007", "n") == 7
    for text in ("1_0", "+1", " 1", "1 ", "١", "²", "1.0", "0x1", "", "-",
                 "--1", "-+1"):
        with pytest.raises(ConfigurationError) as exc:
            hilbert.as_decimal(text, "n")
        assert str(exc.value) == f"n must be an integer, got {text!r}"
    with pytest.raises(DomainError, match="^n must be >= 1, got 0$"):
        hilbert.as_decimal("0", "n", DomainError, least=1)


def test_as_decimal_past_the_int_digit_limit_is_refused_not_raised():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts any number of digits")
    with pytest.raises(ConfigurationError, match="^n must be an integer"):
        hilbert.as_decimal("9" * (limit + 1), "n")


@pytest.mark.parametrize("vector", [
    ["1", "0"], [b"1", b"0"], np.array(["1", "0"]), [True, False],
    np.array([1, True], dtype=object), [1.0, False]])
def test_pure_state_refuses_strings_and_bools(vector):
    with pytest.raises(DomainError, match=r"^vector must be numbers, not "
                       r"bools or strings$"):
        QuantumState.pure(vector)


def test_mixed_state_does_not_share_the_caller_array():
    rho = np.diag([0.25, 0.75]).astype(complex)
    state = QuantumState.mixed(rho)
    rho[0, 0] = 1.0
    assert state.data[0, 0] == 0.25


def test_mixed_state_refuses_a_string_matrix():
    with pytest.raises(DomainError, match=r"^matrix must be numbers"):
        QuantumState.mixed([["0.5", "0"], ["0", "0.5"]])
    # numpy alone would cast a bool among numbers to a number
    with pytest.raises(DomainError, match=r"^matrix must be numbers"):
        QuantumState.mixed([[1.0, 0.0], [0.0, False]])
    with pytest.raises(DomainError, match=r"^matrix must be numbers"):
        QuantumState._mixed_stack(np.array([[[0.5, 0], [0, "0.5"]]],
                                           dtype=object))


def test_number_arrays_take_numbers_of_any_kind():
    mixed = np.array([1, 2.5, 1j, np.float32(2)], dtype=object)
    assert as_number_array(mixed, "x", np.complex128).tolist() == [
        1, 2.5, 1j, 2]
    ints = np.arange(3)
    assert as_number_array(ints, "x", np.float64).dtype == np.float64
    same = np.zeros(2, dtype=np.complex128)
    assert as_number_array(same, "x", np.complex128) is same
    with pytest.raises(DomainError, match=r"^rho must be numbers"):
        as_number_array([np.True_], "rho", np.complex128)


_SPIN = CentralSpinParams(1.0, (0.8, 0.6), 0.6, 0.8)
_DISORDER = DisorderSpec(Distribution.gaussian(0.0, 1.0), (0.0, 1.0),
                         (0.0, 1.0), np.full((2, 2), 0.5))
_GRID = list(np.linspace(-2.0, 2.0, 41))
_FRINGES = list(1.0 + np.cos(4.0 * np.array(_GRID)))

# (name of the array argument, call with that argument, a valid value)
_MODEL_ARRAYS = {
    "gaussian_envelope": (
        "times", lambda a: gaussian_envelope(_SPIN, a), [0.5, 1.0, 1.5]),
    "central_spin_coherence": (
        "times", lambda a: central_spin_coherence(_SPIN, a), [0.5, 1.0, 1.5]),
    "spin_echo_coherence": (
        "times", lambda a: spin_echo_coherence(_SPIN, 1.0, a),
        [0.5, 1.0, 1.5]),
    "disorder_averaged_state": (
        "times", lambda a: disorder_averaged_state(_DISORDER, a),
        [0.5, 1.0, 1.5]),
    "hermite_functions": ("xs", lambda a: hermite_functions(a, 4), _GRID),
    "position_density": (
        "xs", lambda a: position_density(QuantumState.pure([1, 0, 0, 0]), a),
        _GRID),
    "fringe_visibility(xs)": (
        "xs", lambda a: fringe_visibility(a, _FRINGES), _GRID),
    "fringe_visibility(density)": (
        "density", lambda a: fringe_visibility(_GRID, a), _FRINGES),
    "poisson_dispersion": (
        "counts", poisson_dispersion, [3.0, 5.0, 4.0, 6.0]),
}


@pytest.mark.parametrize("bad", ["1", True, math.nan, math.inf],
                         ids=["string", "bool", "nan", "inf"])
@pytest.mark.parametrize("case", list(_MODEL_ARRAYS))
def test_model_arrays_refuse_what_is_not_a_finite_number(case, bad):
    """Every array a model function takes passes as_finite_array: an entry
    that is a string, a bool or not finite is refused by the argument's
    name, not parsed, cast or carried into the result."""
    name, call, good = _MODEL_ARRAYS[case]
    call(good)
    with pytest.raises(ValueError, match=rf"^{name} (must be numbers|"
                       r"entries must be finite)"):
        call(good[:1] + [bad] + good[2:])


@pytest.mark.parametrize("form", [list, np.array], ids=["list", "ndarray"])
@pytest.mark.parametrize("case", list(_MODEL_ARRAYS))
def test_model_arrays_refuse_complex_entries(case, form):
    """A complex entry in an array of real numbers is refused by the
    argument's name: an ndarray is not cast with its imaginary part
    dropped, and a list does not end in a bare TypeError from float()."""
    name, call, good = _MODEL_ARRAYS[case]
    with pytest.raises(DomainError, match=rf"^{name} must be real numbers$"):
        call(form(good[:1] + [1.0 + 2.0j] + good[2:]))
