"""Central-spin dephasing: closed form against brute-force evolution."""

import cmath

import numpy as np
import pytest

from decosim.errors import DimensionError, DomainError
from decosim.models.central_spin import (CentralSpinParams,
                                         central_spin_coherence,
                                         decoherence_time, gaussian_envelope,
                                         spin_echo_coherence)

from oracles import central_spin_brute

HALF = np.sqrt(0.5)


def _params(rng, m, omega0=None):
    w0 = rng.uniform(-2.0, 2.0) if omega0 is None else omega0
    couplings = rng.uniform(0.1, 1.5, size=m)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return CentralSpinParams(w0, couplings, HALF, HALF * phase)


def test_params_validation():
    with pytest.raises(DomainError):
        CentralSpinParams(1.0, [1.0], 1.0, 1.0)      # amplitudes unnormalized
    with pytest.raises(DimensionError):
        CentralSpinParams(1.0, [], HALF, HALF)
    with pytest.raises(DomainError):
        CentralSpinParams(np.inf, [1.0], HALF, HALF)
    with pytest.raises(DomainError):
        CentralSpinParams(1.0, [np.nan], HALF, HALF)
    p = CentralSpinParams(0.0, [0.3, 0.4], HALF, HALF)
    assert p.n_bath == 2


@pytest.mark.parametrize("couplings", [[1e300, 1e300], [1e154, 1e154]])
def test_couplings_whose_squared_sum_overflows_are_refused(couplings):
    # an infinite sum would make t_D 0 and the envelope NaN at t = 0
    with pytest.raises(OverflowError,
                       match=r"^couplings: sum_k A_k\^2 overflows the float "
                             r"range \(largest \|A_k\| = 1e\+(300|154)\)"):
        CentralSpinParams(0.0, couplings, HALF, HALF)


def test_couplings_inside_the_float_range_keep_their_bits():
    # the refusal is at the overflow itself: a sum near 1e300 still runs
    couplings = [0.8, 0.6, 1e150, 0.1]
    p = CentralSpinParams(0.0, couplings, HALF, HALF)
    s = float(np.sum(np.square(couplings)))
    assert decoherence_time(p) == float(1.0 / np.sqrt(s))
    t = np.linspace(0.0, 2e-150, 7)
    assert np.array_equal(gaussian_envelope(p, t),
                          abs(p.c1 * np.conj(p.c2)) * np.exp(-s * t * t / 8.0))


def test_frozen_coherence_value():
    # omega0 = 2, one coupling A = 1, c1 = c2 = sqrt(1/2), t = 0.7:
    # coherence = 0.5 exp(-0.7i) cos(0.35)
    p = CentralSpinParams(2.0, [1.0], HALF, HALF)
    got = complex(central_spin_coherence(p, 0.7))
    want = 0.5 * cmath.exp(-0.7j) * np.cos(0.35)
    assert abs(got - want) < 1e-15
    assert abs(got.real - 0.3592359401847765) < 1e-12
    assert abs(got.imag - (-0.302580258262367)) < 1e-12


def test_decoherence_time_values():
    p = CentralSpinParams(0.0, [0.8, 0.6], HALF, HALF)
    assert decoherence_time(p) == pytest.approx(1.0, abs=1e-15)
    p4 = CentralSpinParams(0.0, [1.0] * 4, HALF, HALF)
    assert decoherence_time(p4) == pytest.approx(0.5, abs=1e-15)
    zero = CentralSpinParams(0.0, [0.0, 0.0], HALF, HALF)
    with pytest.raises(DomainError):
        decoherence_time(zero)


def test_closed_form_matches_reference():
    rng = np.random.default_rng(41)
    times = np.linspace(0.0, 6.0, 25)
    for m in (1, 2, 3, 4):
        p = _params(rng, m)
        closed = central_spin_coherence(p, times)
        brute = central_spin_brute(p, times)
        assert np.max(np.abs(closed - brute)) < 1e-12


def test_coherence_magnitude_never_grows_past_initial():
    rng = np.random.default_rng(42)
    times = np.linspace(0.0, 20.0, 400)
    for _ in range(10):
        p = _params(rng, int(rng.integers(1, 8)))
        mag = np.abs(central_spin_coherence(p, times))
        amp = abs(p.c1 * np.conj(p.c2))
        assert mag[0] == pytest.approx(amp, abs=1e-14)
        assert np.all(mag <= amp + 1e-12)


def test_gaussian_envelope_band_at_decoherence_time():
    # at t = t_D the exact magnitude sits in a narrow band around the
    # envelope value exp(-1/8) ~ 0.8825 once the bath has many spins
    rng = np.random.default_rng(43)
    for _ in range(30):
        m = int(rng.integers(20, 60))
        p = _params(rng, m)
        t_d = decoherence_time(p)
        amp = abs(p.c1 * np.conj(p.c2))
        ratio = abs(central_spin_coherence(p, t_d)) / amp
        assert 0.87 <= ratio <= 0.89
        env = gaussian_envelope(p, t_d)
        assert env == pytest.approx(amp * np.exp(-0.125), abs=1e-12)


def test_envelope_tracks_short_time_decay():
    rng = np.random.default_rng(44)
    p = _params(rng, 40)
    t_d = decoherence_time(p)
    ts = np.linspace(0.0, 0.5 * t_d, 50)
    exact = np.abs(central_spin_coherence(p, ts))
    env = gaussian_envelope(p, ts)
    assert np.max(np.abs(exact - env)) < 1e-3 * env[0]


def test_echo_revives_at_twice_pulse_time():
    rng = np.random.default_rng(45)
    for _ in range(10):
        p = _params(rng, int(rng.integers(2, 12)))
        t_e = 10.0 * decoherence_time(p)
        mag = abs(spin_echo_coherence(p, t_e, 2.0 * t_e))
        assert mag == pytest.approx(abs(p.c1 * np.conj(p.c2)), abs=1e-14)


def test_echo_matches_free_evolution_before_pulse():
    rng = np.random.default_rng(46)
    p = _params(rng, 5)
    t_e = 2.0
    ts = np.linspace(0.0, t_e, 20)
    assert np.allclose(spin_echo_coherence(p, t_e, ts),
                       central_spin_coherence(p, ts), atol=1e-14)


def test_echo_closed_form_matches_reference():
    rng = np.random.default_rng(47)
    t_e = 1.3
    times = np.linspace(0.0, 4.0 * t_e, 33)
    for m in (1, 2, 4):
        p = _params(rng, m)
        closed = spin_echo_coherence(p, t_e, times)
        brute = central_spin_brute(p, times, t_e)
        assert np.max(np.abs(closed - brute)) < 1e-12


def test_echo_validation():
    p = CentralSpinParams(1.0, [1.0], HALF, HALF)
    with pytest.raises(DomainError):
        spin_echo_coherence(p, 0.0, [1.0])
    with pytest.raises(DomainError):
        spin_echo_coherence(p, 1.0, [-0.5])


def test_params_refuse_a_string():
    # "0.5" is a string, not a number: refused, not parsed
    with pytest.raises(DomainError,
                       match="^omega0 must be a finite number, got '0.5'$"):
        CentralSpinParams("0.5", [1.0], HALF, HALF)
    with pytest.raises(DomainError,
                       match="^couplings must be a finite number, got '2'$"):
        CentralSpinParams(0.0, [1.0, "2"], HALF, HALF)


def test_params_refuse_a_nan_amplitude():
    # a NaN amplitude makes the norm NaN, which fails the norm test
    with pytest.raises(DomainError, match=r"^\|c1\|\^2 \+ \|c2\|\^2 = nan"):
        CentralSpinParams(0.0, [1.0], np.nan, HALF)


@pytest.mark.parametrize("c1, c2, message", [
    ("1", 0.0, "c1 must be a number, got '1'"),
    (1.0, "0", "c2 must be a number, got '0'"),
    (True, 0.0, "c1 must be a number, got True")],
    ids=["c1-string", "c2-string", "c1-bool"])
def test_params_refuse_a_non_number_amplitude(c1, c2, message):
    # complex("1") parses a string and complex(True) is 1: both are refused
    with pytest.raises(DomainError) as exc:
        CentralSpinParams(0.0, [1.0], c1, c2)
    assert str(exc.value) == message


def test_echo_time_must_be_a_finite_number():
    with pytest.raises(DomainError, match="^t_e must be a finite number"):
        spin_echo_coherence(CentralSpinParams(0.0, [1.0], HALF, HALF),
                            np.nan, [1.0])


def test_spin_echo_keeps_the_shape_of_its_times():
    params = CentralSpinParams(0.7, [0.8, 0.3], 0.6, 0.8j)
    t = np.array([[0.0, 1.0], [2.0, 4.0]])
    out = spin_echo_coherence(params, 2.0, t)
    assert out.shape == (2, 2) and out.dtype == np.complex128
    for ti, value in zip(t.ravel(), out.ravel()):
        one = spin_echo_coherence(params, 2.0, ti)
        assert type(one) is np.complex128 and one == value
    # the pulse instant is still free evolution; 2 t_e is the full revival
    assert out[1, 0] == central_spin_coherence(params, 2.0)
    assert out[1, 1] == 0.8j * np.conj(0.6) * np.exp(-0.5j * 0.7 * 0.0)
