"""Static-disorder dephasing: closed forms, quadrature, Monte Carlo."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec

from decosim.errors import (ConfigurationError, DimensionError, DomainError,
                            QuadratureError, StateError)
from decosim.models import disorder
from decosim.models.disorder import (Distribution, DisorderSpec, _gamma_table,
                                     disorder_averaged_state, disorder_gamma)

from oracles import (disorder_monte_carlo_full, gaussian_char,
                     lorentzian_char, uniform_char)


def _qubit_spec(dist, slopes=(0.0, 1.0), epsilon=(0.0, 0.4)):
    r = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    return DisorderSpec(dist, epsilon, slopes, r)


def test_distribution_validation():
    with pytest.raises(DomainError):
        Distribution("triangular", 0.0, 1.0)
    with pytest.raises(DomainError):
        Distribution.gaussian(0.0, 0.0)
    with pytest.raises(DomainError):
        Distribution.lorentzian(0.0, -1.0)
    with pytest.raises(DomainError):
        Distribution.uniform(2.0, 1.0)
    with pytest.raises(DomainError):
        Distribution.gaussian(np.nan, 1.0)


def test_pdf_normalization():
    for dist, lo, hi in [
            (Distribution.gaussian(0.3, 0.8), -12.0, 12.0),
            (Distribution.lorentzian(-0.2, 0.5), -4000.0, 4000.0),
            (Distribution.uniform(-1.0, 2.5), -1.0, 2.5)]:
        total = quad(dist.pdf, lo, hi, limit=400)[0]
        assert total == pytest.approx(1.0, abs=1e-4)


def test_closed_form_phases_match_oracles():
    g = Distribution.gaussian(0.3, 0.8)
    l = Distribution.lorentzian(-0.2, 0.5)
    u = Distribution.uniform(-1.0, 2.0)
    for s in (-2.0, -0.3, 0.0, 0.7, 5.0):
        assert g.closed_form_phase(s) == pytest.approx(
            gaussian_char(0.3, 0.8, s), abs=1e-14)
        assert l.closed_form_phase(s) == pytest.approx(
            lorentzian_char(-0.2, 0.5, s), abs=1e-14)
    assert u.closed_form_phase(1.0) is None


def test_uniform_quadrature_matches_sinc_oracle():
    spec = _qubit_spec(Distribution.uniform(-1.3, 2.1), epsilon=(0.0, 0.0))
    for t in (0.1, 0.9, 3.7, 12.0):
        got = disorder_gamma(spec, 0, 1, t)
        want = uniform_char(-1.3, 2.1, -t)    # gap slope is -1 here
        assert abs(got - want) < 1e-8


def test_diagonal_gamma_is_exactly_one():
    spec = _qubit_spec(Distribution.gaussian(0.0, 1.0))
    for t in (0.0, 0.5, 100.0):
        assert disorder_gamma(spec, 0, 0, t) == 1.0 + 0.0j
        assert disorder_gamma(spec, 1, 1, t) == 1.0 + 0.0j


def test_gamma_hermitian_symmetry():
    spec = _qubit_spec(Distribution.gaussian(0.4, 0.9))
    for t in (0.3, 1.7):
        a = disorder_gamma(spec, 0, 1, t)
        b = disorder_gamma(spec, 1, 0, t)
        assert abs(a - np.conj(b)) < 1e-14


def test_closed_forms_against_quadrature():
    # dual route down to |gamma| ~ 1e-4
    sigma, w = 0.8, 0.35
    g_spec = _qubit_spec(Distribution.gaussian(0.0, sigma))
    l_spec = _qubit_spec(Distribution.lorentzian(0.0, w))
    t_gauss = np.sqrt(2.0 * np.log(1e4)) / sigma
    t_lor = np.log(1e4) / w
    for t in np.linspace(0.05, t_gauss, 12):
        auto = disorder_gamma(g_spec, 0, 1, t, method="auto")
        quadr = disorder_gamma(g_spec, 0, 1, t, method="quadrature")
        assert abs(auto) == pytest.approx(np.exp(-0.5 * (sigma * t) ** 2),
                                          abs=1e-12)
        assert abs(auto - quadr) < 1e-8
    for t in np.linspace(0.05, t_lor, 12):
        auto = disorder_gamma(l_spec, 0, 1, t, method="auto")
        quadr = disorder_gamma(l_spec, 0, 1, t, method="quadrature")
        assert abs(auto) == pytest.approx(np.exp(-w * t), abs=1e-12)
        assert abs(auto - quadr) < 1e-8


def test_gamma_index_and_method_validation():
    spec = _qubit_spec(Distribution.gaussian(0.0, 1.0))
    with pytest.raises(DimensionError):
        disorder_gamma(spec, 0, 2, 1.0)
    with pytest.raises(DomainError):
        disorder_gamma(spec, 0, 1, 1.0, method="series")


def test_spec_validation():
    dist = Distribution.gaussian(0.0, 1.0)
    with pytest.raises(DimensionError):
        DisorderSpec(dist, (0.0, 1.0), (0.0,), np.eye(2) / 2.0)
    with pytest.raises(DimensionError):
        DisorderSpec(dist, (0.0, 1.0), (0.0, 1.0), np.eye(3) / 3.0)
    with pytest.raises(StateError):
        DisorderSpec(dist, (0.0, 1.0), (0.0, 1.0), np.eye(2))  # trace 2
    with pytest.raises(DomainError):
        DisorderSpec("gaussian", (0.0,), (0.0,), np.eye(2) / 2.0)


def test_closed_form_average_structure():
    sigma = 0.6
    spec = _qubit_spec(Distribution.gaussian(0.0, sigma), epsilon=(0.0, 1.1))
    times = np.array([0.0, 0.8, 2.5])
    avg = disorder_averaged_state(spec, times)
    assert avg.method == "closed-form"
    assert avg.stderr_real is None
    for st, t in zip(avg.states, times):
        rho = st.data
        # populations are preserved bit for bit
        assert rho[0, 0] == spec.r[0, 0]
        assert rho[1, 1] == spec.r[1, 1]
        want = spec.r[0, 1] * np.exp(1j * 1.1 * t) * np.exp(
            -0.5 * (sigma * t) ** 2)
        assert abs(rho[0, 1] - want) < 1e-12


def test_monte_carlo_matches_closed_form():
    spec = _qubit_spec(Distribution.gaussian(0.2, 0.7))
    times = np.linspace(0.0, 3.0, 7)
    mc = disorder_averaged_state(spec, times, method="monte-carlo",
                                 samples=10_000, seed=321)
    cf = disorder_averaged_state(spec, times)
    assert mc.samples == 10_000 and mc.seed == 321
    for i, (a, b) in enumerate(zip(mc.states, cf.states)):
        # diagonal is exact, off-diagonal within sampling error
        assert a.data[0, 0] == b.data[0, 0]
        assert a.data[1, 1] == b.data[1, 1]
        dev = abs(a.data[0, 1] - b.data[0, 1])
        se = mc.stderr_real[i, 0, 1] + mc.stderr_imag[i, 0, 1]
        assert dev < 4.0 * abs(spec.r[0, 1]) * se + 1e-12
        assert dev < 0.02
    assert np.all(mc.stderr_real[:, 0, 0] == 0.0)
    assert np.all(mc.stderr_imag[:, 1, 1] == 0.0)


def test_monte_carlo_three_level():
    dist = Distribution.uniform(-0.5, 0.5)
    r = np.array([[0.5, 0.2, 0.1j],
                  [0.2, 0.3, 0.0],
                  [-0.1j, 0.0, 0.2]], dtype=complex)
    spec = DisorderSpec(dist, (0.0, 1.0, 2.5), (0.0, 1.0, 2.0), r)
    times = np.array([0.0, 1.5])
    mc = disorder_averaged_state(spec, times, method="monte-carlo",
                                 samples=20_000, seed=5)
    cf = disorder_averaged_state(spec, times)
    for a, b in zip(mc.states, cf.states):
        assert np.array_equal(np.diagonal(a.data), np.diagonal(b.data))
        assert np.max(np.abs(a.data - b.data)) < 0.02


def test_average_method_validation():
    spec = _qubit_spec(Distribution.gaussian(0.0, 1.0))
    with pytest.raises(ConfigurationError):
        disorder_averaged_state(spec, [1.0], method="exact")
    with pytest.raises(ConfigurationError):
        disorder_averaged_state(spec, [1.0], method="monte-carlo", samples=1,
                                seed=0)
    with pytest.raises(ConfigurationError):
        disorder_averaged_state(spec, [1.0], method="monte-carlo",
                                samples=100)


# The vectorised gamma table.  WORKLOAD_SPEC is the disorder-quadrature
# benchmark workload: d = 4, uniform on [-1, 1], 401 times, |s| up to 25.
WORKLOAD_SPEC = DisorderSpec(Distribution.uniform(-1.0, 1.0),
                             (0.0, 1.0, 2.5, -0.7), (0.0, 1.0, -0.5, 2.0),
                             np.full((4, 4), 0.25))
WORKLOAD_TIMES = np.linspace(0.0, 10.0, 401)


def test_gamma_table_matches_sinc_oracle_on_workload():
    gamma, abserr = _gamma_table(WORKLOAD_SPEC, WORKLOAD_TIMES, "auto")
    assert gamma.shape == (401, 4, 4)
    assert 0.0 < abserr <= 1e-8
    eps, slo = WORKLOAD_SPEC.epsilon, WORKLOAD_SPEC.slopes
    for k, t in enumerate(WORKLOAD_TIMES):
        for m in range(4):
            assert gamma[k, m, m] == 1.0
            for n in range(4):
                if m != n:
                    want = (np.exp(-1j * (eps[m] - eps[n]) * t)
                            * uniform_char(-1.0, 1.0, (slo[m] - slo[n]) * t))
                    assert abs(gamma[k, m, n] - want) < 1e-9


def test_gamma_table_is_exactly_one_where_s_is_zero():
    spec = DisorderSpec(Distribution.uniform(-1.0, 2.0), (0.0, 0.5, 1.0),
                        (0.3, 0.3, 1.0), np.eye(3) / 3.0)
    gamma, _ = _gamma_table(spec, [0.0, 1.5], "auto")
    assert np.all(gamma[0] == 1.0)                  # t = 0
    assert gamma[1, 0, 1] == np.exp(-1j * -0.5 * 1.5)   # equal slopes
    assert np.all(np.diagonal(gamma, axis1=1, axis2=2) == 1.0)
    assert _gamma_table(spec, [0.0], "auto")[1] is None  # no quadrature ran


def test_uncertified_quadrature_raises():
    # |s| = 1e5 on [-1, 1] needs far more than 500 subintervals
    spec = _qubit_spec(Distribution.uniform(-1.0, 1.0))
    with pytest.raises(QuadratureError) as info:
        disorder_gamma(spec, 0, 1, 1e5)
    assert info.value.abserr > 1e-8


def test_block_size_never_changes_table_beyond_rounding(monkeypatch):
    one_block, _ = _gamma_table(WORKLOAD_SPEC, WORKLOAD_TIMES, "auto")
    monkeypatch.setattr(disorder, "_BLOCK_SIZE", 7)
    blocks_of_7, abserr = _gamma_table(WORKLOAD_SPEC, WORKLOAD_TIMES, "auto")
    assert abserr <= 1e-8
    assert np.max(np.abs(blocks_of_7 - one_block)) < 1e-12


def test_headroom_is_the_largest_block_error(monkeypatch):
    errors = []

    def recording_quad_vec(*args, **kwargs):
        out = quad_vec(*args, **kwargs)
        errors.append(out[1])
        return out

    monkeypatch.setattr(disorder, "quad_vec", recording_quad_vec)
    monkeypatch.setattr(disorder, "_BLOCK_SIZE", 100)
    _, abserr = _gamma_table(WORKLOAD_SPEC, WORKLOAD_TIMES, "auto")
    assert len(errors) > 1 and len(set(errors)) > 1
    assert abserr == max(errors)


# stop -> (largest |s|, epsabs, limit, the status scipy's quad_vec gives)
PORT_STOPS = {"converged": (25.0, 1e-10, 500, 0),
              "limit": (1e3, 1e-10, 50, 1),
              "rounding": (25.0, 1e-20, 500, 2)}


@pytest.mark.parametrize("dist", [Distribution.uniform(-1.3, 2.1),
                                  Distribution.gaussian(0.3, 0.8)],
                         ids=["uniform", "gaussian"])
@pytest.mark.parametrize("size", [1, 7, 1024])
@pytest.mark.parametrize("stop", sorted(PORT_STOPS))
def test_quad_vec_port_equals_scipy_bit_for_bit(dist, size, stop):
    # the integrand of _quadrature_phases on one block of distinct |s|
    top, epsabs, limit, status = PORT_STOPS[stop]
    block = np.linspace(top / size, top, size)

    def integrand(w):
        sw = block * w
        return dist.pdf(w) * np.concatenate((np.cos(sw), np.sin(sw)))

    lo, hi = ((dist.a, dist.b) if dist.kind == "uniform"
              else (dist.a - 12.0 * dist.b, dist.a + 12.0 * dist.b))
    kwargs = dict(epsabs=epsabs, epsrel=0.0, norm="max", limit=limit,
                  full_output=True)
    want, want_err, want_info = quad_vec(integrand, lo, hi, **kwargs)
    got, got_err, got_info = disorder.quad_vec(integrand, lo, hi, **kwargs)
    assert want_info.status == status
    assert got.tobytes() == want.tobytes()
    assert got_err == want_err
    assert (got_info.status, got_info.message) == (want_info.status,
                                                   want_info.message)


def test_quad_vec_port_stops_on_non_finite_values_as_scipy_does():
    def integrand(w):
        return np.array([np.inf if w > 0.9 else 1.0, 2.0])

    kwargs = dict(epsabs=1e-10, epsrel=0.0, norm="max", limit=500,
                  full_output=True)
    with np.errstate(invalid="ignore"):
        want, want_err, want_info = quad_vec(integrand, 0.0, 1.0, **kwargs)
        got, got_err, got_info = disorder.quad_vec(integrand, 0.0, 1.0,
                                                   **kwargs)
    assert want_info.status == 3
    assert got.tobytes() == want.tobytes()
    assert np.float64(got_err).tobytes() == np.float64(want_err).tobytes()
    assert (got_info.status, got_info.message) == (want_info.status,
                                                   want_info.message)


@pytest.mark.parametrize("b, norm", [(np.inf, "max"), (1.0, "2")])
def test_quad_vec_port_refuses_what_it_does_not_carry(b, norm):
    # an infinite interval and the 2-norm take other paths in scipy
    with pytest.raises(ValueError):
        disorder.quad_vec(lambda w: np.array([w, 1.0]), 0.0, b, epsabs=1e-10,
                          epsrel=0.0, norm=norm, limit=500, full_output=True)


@pytest.mark.parametrize("dist", [Distribution.gaussian(0.3, 0.8),
                                  Distribution.lorentzian(-0.2, 0.5),
                                  Distribution.uniform(-1.3, 2.1)],
                         ids=["gaussian", "lorentzian", "uniform"])
@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_disorder_gamma_reads_the_table(dist, method):
    r = np.diag([0.5, 0.3, 0.2]).astype(complex)
    spec = DisorderSpec(dist, (0.0, 1.0, 2.5), (0.0, 1.0, -0.5), r)
    times = np.linspace(0.0, 4.0, 9)
    gamma, _ = _gamma_table(spec, times, method)
    for k, t in enumerate(times):
        for m in range(3):
            for n in range(3):
                got = disorder_gamma(spec, m, n, t, method=method)
                assert abs(got - gamma[k, m, n]) < 1e-14


def test_closed_form_average_reports_quadrature_headroom():
    uniform = disorder_averaged_state(WORKLOAD_SPEC, WORKLOAD_TIMES[:41])
    assert 0.0 < uniform.max_quadrature_abserr <= 1e-8
    gauss = disorder_averaged_state(
        _qubit_spec(Distribution.gaussian(0.0, 1.0)), [0.0, 1.0])
    assert gauss.max_quadrature_abserr is None


def test_gamma_above_one_raises(monkeypatch):
    monkeypatch.setattr(Distribution, "closed_form_phase",
                        lambda self, s: np.full(np.shape(s), 1.5))
    spec = _qubit_spec(Distribution.gaussian(0.0, 1.0))
    with pytest.raises(QuadratureError, match="exceeds 1") as info:
        _gamma_table(spec, [0.0, 1.0], "auto")
    assert info.value.abserr == pytest.approx(0.5)


@pytest.mark.parametrize("samples, seed, message", [
    (100.9, 1, "samples must be an integer, got 100.9"),
    (100, 1.7, "seed must be an integer, got 1.7")])
def test_monte_carlo_counts_must_be_integers(samples, seed, message):
    # a float count or seed is refused, not truncated: seed=1.7 would run
    # the states of seed 1
    spec = _qubit_spec(Distribution.gaussian(0.0, 1.0))
    with pytest.raises(ConfigurationError) as exc:
        disorder_averaged_state(spec, [1.0], method="monte-carlo",
                                samples=samples, seed=seed)
    assert str(exc.value) == message


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_monte_carlo_seed_must_be_a_philox_key(seed):
    # the trajectory engine's seed rule: numpy took 2**70 and failed on -1
    spec = _qubit_spec(Distribution.gaussian(0.0, 1.0))
    with pytest.raises(ConfigurationError) as exc:
        disorder_averaged_state(spec, [1.0], method="monte-carlo",
                                samples=100, seed=seed)
    assert str(exc.value) == f"seed must be in [0, 2**64), got {seed}"


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_monte_carlo_seed_takes_both_ends_of_the_key_range(seed):
    spec = _qubit_spec(Distribution.gaussian(0.0, 1.0))
    avg = disorder_averaged_state(spec, [1.0], method="monte-carlo",
                                  samples=100, seed=seed)
    assert avg.seed == seed


def test_monte_carlo_counts_take_numpy_integers():
    spec = _qubit_spec(Distribution.gaussian(0.0, 1.0))
    avg = disorder_averaged_state(spec, [1.0], method="monte-carlo",
                                  samples=np.int64(100), seed=np.uint8(1))
    assert (avg.samples, avg.seed) == (100, 1)
    assert type(avg.samples) is int and type(avg.seed) is int


def test_gamma_level_indices_must_be_integers():
    spec = _qubit_spec(Distribution.gaussian(0.0, 1.0))
    with pytest.raises(DimensionError,
                       match=r"^m must be an integer, got 0\.5$"):
        disorder_gamma(spec, 0.5, 1, 1.0)
    assert disorder_gamma(spec, np.int64(0), np.uint8(1), 1.0) == \
        disorder_gamma(spec, 0, 1, 1.0)


def test_unconverged_lorentzian_quadrature_raises(monkeypatch):
    # QUADPACK's full output carries a fourth item when it gives up
    monkeypatch.setattr(disorder, "quad",
                        lambda *args, **kwargs: (0.4, 1e-12, {}, "limit"))
    spec = _qubit_spec(Distribution.lorentzian(0.0, 1.0))
    with pytest.raises(QuadratureError, match="Lorentzian") as info:
        disorder_gamma(spec, 0, 1, 1.0, method="quadrature")
    assert info.value.abserr == 2e-12


@pytest.mark.parametrize("samples, message", [
    (None, "monte-carlo requires samples >= 2"),
    (1, "samples must be >= 2, got 1"),
    (np.int64(-5), "samples must be >= 2, got -5")])
def test_monte_carlo_samples_have_a_lower_bound(samples, message):
    spec = _qubit_spec(Distribution.gaussian(0.0, 1.0))
    with pytest.raises(ConfigurationError) as exc:
        disorder_averaged_state(spec, [1.0], method="monte-carlo",
                                samples=samples, seed=0)
    assert str(exc.value) == message


_DISTRIBUTIONS = [Distribution.gaussian(0.2, 0.7),
                  Distribution.lorentzian(-0.1, 0.4),
                  Distribution.uniform(-0.5, 1.0)]


def _level_spec(dist, d, seed=0):
    """A d-level spec with distinct gaps and a full-rank, exactly hermitian
    complex r."""
    a = np.random.default_rng(seed).standard_normal((2, d, d))
    r = (a[0] + 1j * a[1]) @ (a[0] + 1j * a[1]).conj().T
    r = (r + r.conj().T) / (2.0 * np.trace(r).real)
    return DisorderSpec(dist, np.linspace(0.0, 1.3, d),
                        np.linspace(0.0, 0.9, d) ** 1.5, r)


@pytest.mark.parametrize("dist", _DISTRIBUTIONS, ids=lambda x: x.kind)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_monte_carlo_matches_the_full_matrix_reference(dist, d):
    """Folded in blocks of _BLOCK draws over the pairs above the diagonal,
    the estimate is the all-draws full-matrix one to rounding: within
    1e-15 in one block, 1e-13 over many."""
    spec = _level_spec(dist, d)
    times = np.linspace(-1.0, 7.0, 9)
    for samples in (2, 100, 256, 257, 600, 5_000):
        draws = dist.sample(np.random.default_rng(17), samples)
        want = disorder_monte_carlo_full(spec.r, spec.epsilon, spec.slopes,
                                         draws, times)
        avg = disorder_averaged_state(spec, times, method="monte-carlo",
                                      samples=samples, seed=17)
        got = (avg.states.data, avg.stderr_real, avg.stderr_imag)
        tol = 1e-15 if samples <= 256 else 1e-13
        for x, y in zip(got, want):
            assert np.max(np.abs(x - y)) <= tol


@pytest.mark.parametrize("samples", [2, 600])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_monte_carlo_tables_mirror_the_pairs(d, samples):
    """Populations are r's diagonal exactly, the error tables are exactly
    0 there, and below the diagonal each table is the exact mirror of
    the pairs above it: the conjugate for states, the value for errors."""
    spec = _level_spec(Distribution.gaussian(0.3, 1.1), d, seed=d)
    avg = disorder_averaged_state(spec, np.linspace(0.0, 5.0, 11),
                                  method="monte-carlo", samples=samples,
                                  seed=4)
    rho = avg.states.data
    assert np.array_equal(np.diagonal(rho, axis1=1, axis2=2),
                          np.broadcast_to(np.diagonal(spec.r), (11, d)))
    assert np.array_equal(rho.transpose(0, 2, 1), rho.conj())
    for se in (avg.stderr_real, avg.stderr_imag):
        assert np.all(np.diagonal(se, axis1=1, axis2=2) == 0.0)
        assert np.array_equal(se.transpose(0, 2, 1), se)


def test_monte_carlo_memory_is_one_block_of_pairs_per_time():
    """20,000 draws at d = 4 over 51 times: the draws themselves (160 kB)
    and one block of phases per time, never (samples, d, d) arrays."""
    spec = _level_spec(Distribution.gaussian(0.2, 0.7), 4)
    times = np.linspace(0.0, 5.0, 51)
    tracemalloc.start()
    try:
        disorder_averaged_state(spec, times, method="monte-carlo",
                                samples=20_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
