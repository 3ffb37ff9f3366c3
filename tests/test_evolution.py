"""Unitary, Kraus, and master-equation evolution."""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from decosim import evolution, hilbert
from decosim.errors import (DimensionError, DomainError, IntegrationError,
                            ModelError)
from decosim.evolution import (KrausSet, LindbladModel, TimeGrid,
                               amplitude_damping_kraus, apply_kraus,
                               evolve_unitary, integrate_master, lindblad_rhs,
                               phase_damping_kraus, two_level_decay_model)
from decosim.hilbert import QuantumState
from decosim.models.disorder import (Distribution, DisorderSpec,
                                     disorder_averaged_state)
from decosim.models.oscillator import (DampedOscillatorParams,
                                       oscillator_model, superposition_state)
from decosim.models.three_level import ThreeLevelParams, three_level_model
from decosim.trajectories import aggregate, run_ensemble

from oracles import (expm_series, invariant_blocks_csgraph, lindblad_rhs_loops,
                     master_rk4)


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_density(rng, d):
    a = _random_complex(rng, d, d)
    rho = a @ a.conj().T
    return rho / rho.trace()


def test_kraus_completeness_enforced():
    with pytest.raises(ModelError):
        KrausSet([np.eye(2) * 0.9])
    with pytest.raises(ModelError):
        KrausSet([])
    with pytest.raises(DimensionError):
        KrausSet([np.eye(2) / np.sqrt(2), np.eye(3) / np.sqrt(2)])
    ks = amplitude_damping_kraus(0.3)
    assert ks.dim == 2


def test_kraus_probability_range():
    with pytest.raises(ModelError):
        amplitude_damping_kraus(1.5)
    with pytest.raises(ModelError):
        phase_damping_kraus(-0.1)


def test_amplitude_damping_action():
    p = 0.37
    excited = QuantumState.pure([0.0, 1.0])
    out = apply_kraus(excited, amplitude_damping_kraus(p))
    assert out.kind == "mixed"
    assert abs(out.data[0, 0].real - p) < 1e-12
    assert abs(out.data[1, 1].real - (1.0 - p)) < 1e-12
    assert abs(out.data.trace() - 1.0) < 1e-12


def test_phase_damping_shrinks_coherence():
    p = 0.2
    plus = QuantumState.pure(np.array([1.0, 1.0]) / np.sqrt(2.0))
    out = apply_kraus(plus, phase_damping_kraus(p))
    # populations untouched, off-diagonal scaled by 1 - 2p
    assert abs(out.data[0, 0].real - 0.5) < 1e-12
    assert abs(out.data[0, 1] - 0.5 * (1.0 - 2.0 * p)) < 1e-12


def test_apply_kraus_dimension_check():
    with pytest.raises(DimensionError):
        apply_kraus(QuantumState.pure([1.0, 0.0, 0.0]),
                    amplitude_damping_kraus(0.1))


def test_evolve_unitary_matches_series():
    rng = np.random.default_rng(31)
    a = _random_complex(rng, 3, 3)
    h = a + a.conj().T
    v = _random_complex(rng, 3)
    st = QuantumState.pure(v / np.linalg.norm(v))
    t = 0.83
    got = evolve_unitary(st, h, t)
    want = expm_series(-1j * h * t) @ st.data
    assert np.allclose(got.data, want, atol=1e-10)
    assert abs(np.linalg.norm(got.data) - 1.0) < 1e-12


def test_rabi_oscillation():
    omega = 1.7
    h = 0.5 * omega * np.array([[0.0, 1.0], [1.0, 0.0]])
    st = QuantumState.pure([1.0, 0.0])
    for t in (0.0, 0.4, 1.3, 2.9):
        out = evolve_unitary(st, h, t)
        p_excited = abs(out.data[1]) ** 2
        assert abs(p_excited - np.sin(0.5 * omega * t) ** 2) < 1e-12


def test_lindblad_model_validation():
    with pytest.raises(ModelError):
        LindbladModel(np.array([[0.0, 1.0], [0.0, 0.0]]))
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ModelError):
        LindbladModel(np.zeros((2, 2)), [(lower, -1.0)])
    with pytest.raises(DimensionError):
        LindbladModel(np.zeros((2, 2)), [(np.zeros((3, 3)), 1.0)])
    with pytest.raises(ModelError):
        two_level_decay_model(-0.5)


def test_lindblad_rhs_matches_loop_oracle():
    rng = np.random.default_rng(32)
    h = _random_complex(rng, 3, 3)
    h = h + h.conj().T
    ops = [(_random_complex(rng, 3, 3), 0.7),
           (_random_complex(rng, 3, 3), 0.0),
           (_random_complex(rng, 3, 3), 1.3)]
    model = LindbladModel(h, ops)
    rho = _random_density(rng, 3)
    assert np.allclose(lindblad_rhs(model, rho),
                       lindblad_rhs_loops(h, ops, rho), atol=1e-12)
    # the generator is trace-free
    assert abs(lindblad_rhs(model, rho).trace()) < 1e-13


def test_time_grid_validation():
    with pytest.raises(DimensionError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(DimensionError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(DimensionError):
        TimeGrid(0.0, 1.0, 10, sample_every=3)   # must divide n_steps
    with pytest.raises(DimensionError):
        TimeGrid(0.0, 1.0, 10, sample_every=0)
    g = TimeGrid(0.0, 2.0, 8, sample_every=2)
    assert g.dt == 0.25
    assert g.n_samples == 5
    assert np.allclose(g.sample_times(), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_master_equation_decay_law():
    gamma = 0.8
    model = two_level_decay_model(gamma)
    v = np.array([0.6, 0.8], dtype=complex)
    grid = TimeGrid(0.0, 4.0, 2000, sample_every=200)
    states = integrate_master(QuantumState.pure(v), model, grid)
    assert len(states) == grid.n_samples
    for st, t in zip(states, grid.sample_times()):
        rho = st.data
        assert abs(rho.trace() - 1.0) < 1e-10
        assert abs(rho[1, 1].real - 0.64 * np.exp(-gamma * t)) < 1e-8
        want_coh = 0.6 * 0.8 * np.exp(-0.5 * gamma * t)
        assert abs(rho[0, 1] - want_coh) < 1e-8


def test_master_equation_matches_loop_rk4():
    rng = np.random.default_rng(33)
    h = _random_complex(rng, 3, 3)
    h = h + h.conj().T
    ops = [(_random_complex(rng, 3, 3) * 0.4, 0.6)]
    model = LindbladModel(h, ops)
    rho0 = _random_density(rng, 3)
    grid = TimeGrid(0.0, 1.0, 200)
    final = integrate_master(QuantumState.mixed(rho0), model, grid)[-1]
    want = master_rk4(h, ops, rho0, 1.0, 200)
    assert np.allclose(final.data, want, atol=1e-12)


def test_master_vs_kraus_dual_route():
    # amplitude damping: the integrated channel equals the Kraus map with
    # p = 1 - exp(-gamma t)
    gamma = 0.9
    model = two_level_decay_model(gamma)
    v = np.array([0.6, 0.8j])
    st = QuantumState.pure(v)
    grid = TimeGrid(0.0, 2.0, 2000, sample_every=500)
    states = integrate_master(st, model, grid)
    for out, t in zip(states[1:], grid.sample_times()[1:]):
        p = 1.0 - np.exp(-gamma * t)
        want = apply_kraus(st, amplitude_damping_kraus(p))
        assert np.max(np.abs(out.data - want.data)) < 1e-7


def test_master_integration_failure_carries_time():
    # a step far beyond the stability limit destroys the state
    model = two_level_decay_model(200.0)
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(IntegrationError) as exc:
        integrate_master(QuantumState.pure([0.0, 1.0]), model, grid)
    assert exc.value.time is not None
    assert 0.0 < exc.value.time <= 1.0


def test_master_dimension_check():
    with pytest.raises(DimensionError):
        integrate_master(QuantumState.pure([1.0, 0.0, 0.0]),
                         two_level_decay_model(1.0), TimeGrid(0.0, 1.0, 10))


def test_evolve_unitary_on_a_mixed_state():
    rng = np.random.default_rng(47)
    a = _random_complex(rng, 3, 3)
    h = a + a.conj().T
    t = 0.61
    u = expm_series(-1j * h * t)
    rho = _random_density(rng, 3)
    got = evolve_unitary(QuantumState.mixed(rho), h, t)
    assert got.kind == "mixed"
    assert np.allclose(got.data, u @ rho @ u.conj().T, atol=1e-10)
    # a pure state taken through either route lands on the same matrix
    v = _random_complex(rng, 3)
    v /= np.linalg.norm(v)
    pure = evolve_unitary(QuantumState.pure(v), h, t)
    mixed = evolve_unitary(QuantumState.mixed(np.outer(v, v.conj())), h, t)
    assert np.allclose(mixed.data, pure.density_matrix(), atol=1e-12)


def _block_sizes(model):
    return sorted(n for g in evolution._invariant_blocks(model)
                  for n in [g.shape[1]] * g.shape[0])


def _route_cases():
    rng = np.random.default_rng(34)
    h = _random_complex(rng, 3, 3)
    h = h + h.conj().T
    ops = [(_random_complex(rng, 3, 3) * 0.4, 0.6),
           (_random_complex(rng, 3, 3) * 0.3, 0.2)]
    dense = (h, ops, _random_density(rng, 3), TimeGrid(0.0, 1.0, 40))
    p = DampedOscillatorParams(1.0, 0.2, 0.5, 12, (0.5, -0.5))
    model = oscillator_model(p)
    psi0 = superposition_state([1.0, 1.0], p.alphas, p.n_fock)
    fock = (model.h, list(model.channels), psi0.density_matrix(),
            TimeGrid(0.0, 1.5, 60))
    strided = (h, ops, dense[2], TimeGrid(0.0, 2.0, 300, sample_every=50))
    return {"dense-d3": dense, "fock-12": fock, "strided": strided}


@pytest.mark.parametrize("case", ["dense-d3", "fock-12", "strided"])
def test_block_route_matches_loop_rk4(case):
    h, ops, rho0, grid = _route_cases()[case]
    model = LindbladModel(h, ops)
    states = integrate_master(QuantumState.mixed(rho0), model, grid)
    assert len(states) == grid.n_samples
    assert np.array_equal(states[0].data, rho0)
    times = grid.sample_times()
    for k, (st, t) in enumerate(zip(states[1:], times[1:]), start=1):
        want = master_rk4(h, ops, rho0, t, k * grid.sample_every)
        assert np.max(np.abs(st.data - want)) < 1e-12, (case, t)


def _counted(fn):
    def wrapper(*args):
        wrapper.calls += 1
        return fn(*args)
    wrapper.calls = 0
    return wrapper


@pytest.mark.parametrize("case", ["dense-d3", "fock-12", "strided"])
def test_rk4_loop_and_block_route_agree(case, monkeypatch):
    h, ops, rho0, grid = _route_cases()[case]
    model = LindbladModel(h, ops)
    monkeypatch.setattr(evolution, "lindblad_rhs", _counted(lindblad_rhs))
    blocks = integrate_master(QuantumState.mixed(rho0), model, grid)
    assert evolution.lindblad_rhs.calls == 0
    monkeypatch.setattr(evolution, "MAX_POWERED_BLOCK", 0)
    loop = integrate_master(QuantumState.mixed(rho0), model, grid)
    assert evolution.lindblad_rhs.calls == 4 * grid.n_steps
    for a, b in zip(blocks, loop):
        assert np.max(np.abs(a.data - b.data)) < 1e-12


def _liouvillian(h, ops):
    """The d^2 x d^2 generator acting on row-major vec(rho), one column per
    basis matrix |i><j|."""
    d = h.shape[0]
    basis = np.eye(d * d).reshape(-1, d, d)
    return np.stack([lindblad_rhs_loops(h, ops, e).ravel() for e in basis],
                    axis=1)


@pytest.mark.parametrize("loop", [False, True])
@pytest.mark.parametrize("case", ["dense-d3", "fock-12"])
def test_rk4_converges_to_the_exact_exponential_at_fourth_order(
        case, loop, monkeypatch):
    """The final sample against the exact exp(t L) of the dense
    Liouvillian, an independent route: its error falls as h^4, a factor
    near 16 from 40 to 80 steps, on either route."""
    if loop:
        monkeypatch.setattr(evolution, "MAX_POWERED_BLOCK", 0)
    h, ops, rho0, grid = _route_cases()[case]
    model = LindbladModel(h, ops)
    span = grid.t_end - grid.t_start
    exact = (expm(span * _liouvillian(h, ops)) @ rho0.ravel()).reshape(
        rho0.shape)
    errors = []
    for n_steps in (40, 80):
        states = integrate_master(QuantumState.mixed(rho0), model,
                                  TimeGrid(grid.t_start, grid.t_end, n_steps))
        errors.append(np.max(np.abs(states[-1].data - exact)))
    assert 12.0 <= errors[0] / errors[1] <= 20.0, errors
    assert errors[1] < 1e-6, errors


def test_invariant_block_sizes():
    p = DampedOscillatorParams(1.0, 0.01, 0.5, 40, (2.0, -2.0))
    sizes = _block_sizes(oscillator_model(p))
    # each band rho_{m, m+k} of the Fock matrix is one block
    assert len(sizes) == 79 and max(sizes) == 40 and sum(sizes) == 1600
    model = three_level_model(ThreeLevelParams(2.0, 0.5, 1.0, 0.05, 0.15))
    assert _block_sizes(model) == [2, 2, 5]
    h, ops, _, _ = _route_cases()["dense-d3"]
    assert _block_sizes(LindbladModel(h, ops)) == [9]
    # with no coupling at all every entry is its own block
    assert _block_sizes(LindbladModel(np.diag([0.0, 1.0, 3.0]))) == [1] * 9


def _partition(labels):
    return sorted(sorted(np.flatnonzero(labels == v).tolist())
                  for v in np.unique(labels))


def test_invariant_blocks_match_the_dense_generator_graph():
    rng = np.random.default_rng(36)
    d = 4
    # |0><0| + |1><0|: column 0 feeds two rows, and row 2 of L is empty
    fan = np.zeros((d, d))
    fan[0, 0] = fan[1, 0] = 1.0
    models = [LindbladModel(np.zeros((d, d)), [(fan, 1.0)])]
    for _ in range(30):
        h = _random_complex(rng, d, d) * (rng.random((d, d)) < 0.2)
        ops = [(_random_complex(rng, d, d) * (rng.random((d, d)) < 0.3), 1.0)
               for _ in range(rng.integers(1, 3))]
        models.append(LindbladModel(h + h.conj().T, ops))
    eye = np.eye(d)
    for model in models:
        h = model._h_eff
        gen = -1j * (np.kron(h, eye) - np.kron(eye, h.conj()))
        for _, l in model._jumps:
            gen += np.kron(l, l.conj())
        _, want = connected_components(gen != 0, connection="weak")
        got = np.empty(d * d, dtype=int)
        for k, idx in enumerate(
                row for g in evolution._invariant_blocks(model) for row in g):
            got[idx] = k
        assert _partition(got) == _partition(want)


def test_component_labels_match_scipy_on_random_graphs():
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(1, 401))
        m = int(rng.integers(0, 2 * n + 1))
        a, b = rng.integers(0, n, m), rng.integers(0, n, m)
        got = evolution._component_labels(a, b, n)
        _, want = connected_components(
            coo_array((np.ones(m), (a, b)), shape=(n, n)), directed=False)
        # each label is the smallest node of its component
        first = {v: np.flatnonzero(want == v)[0] for v in np.unique(want)}
        assert np.array_equal(got, [first[v] for v in want])


def test_component_labels_join_a_randomly_numbered_path():
    # a path numbered at random is where min-label propagation needs
    # thousands of rounds
    n = 50_000
    path = np.random.default_rng(38).permutation(n)
    labels = evolution._component_labels(path[:-1], path[1:], n)
    assert np.array_equal(labels, np.zeros(n, dtype=labels.dtype))


def _block_models():
    rng = np.random.default_rng(39)
    fock = oscillator_model(
        DampedOscillatorParams(1.0, 0.01, 0.5, 40, (2.0, -2.0)))
    three = three_level_model(ThreeLevelParams(2.0, 0.5, 1.0, 0.05, 0.15))
    # the zero-rate channel would join every entry if it were live
    lower = np.diag([1.0, 1.0], k=-1)
    idle = LindbladModel(np.diag([0.0, 1.0, 3.0]),
                         [(lower, 0.5), (np.ones((3, 3)), 0.0)])

    def dense(d):
        h = _random_complex(rng, d, d)
        return LindbladModel(h + h.conj().T,
                             [(_random_complex(rng, d, d), 0.3)])

    return {"fock-40": fock, "three-level": three,
            "two-level-decay": two_level_decay_model(1.0),
            "zero-rate": idle, "dense-d6": dense(6), "dense-d40": dense(40)}


@pytest.mark.parametrize("case", ["fock-40", "three-level", "two-level-decay",
                                  "zero-rate", "dense-d6", "dense-d40"])
def test_invariant_blocks_match_the_csgraph_route(case):
    model = _block_models()[case]
    got = evolution._invariant_blocks(model)
    want = invariant_blocks_csgraph(model)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    if case == "dense-d40":
        # one block past MAX_POWERED_BLOCK: integrate_master loops RK4
        assert [g.shape for g in got] == [(1, 1600)]
        assert evolution.MAX_POWERED_BLOCK < 1600


def test_unstable_strided_grid_fails_at_the_first_sample():
    model = two_level_decay_model(200.0)
    grid = TimeGrid(0.0, 1.0, 4, sample_every=2)
    with pytest.raises(IntegrationError) as exc:
        integrate_master(QuantumState.pure([0.0, 1.0]), model, grid)
    assert exc.value.time == 2 * grid.dt


def test_rk4_loop_fails_at_the_first_sample_as_the_block_route_does(
        monkeypatch):
    model = two_level_decay_model(200.0)
    grid = TimeGrid(0.0, 1.0, 4, sample_every=2)
    monkeypatch.setattr(evolution, "MAX_POWERED_BLOCK", 0)
    monkeypatch.setattr(evolution, "lindblad_rhs", _counted(lindblad_rhs))
    with pytest.raises(IntegrationError,
                       match="state: matrix 0 of 2: ") as exc:
        integrate_master(QuantumState.pure([0.0, 1.0]), model, grid)
    assert evolution.lindblad_rhs.calls == 4 * grid.n_steps
    assert exc.value.time == 2 * grid.dt


@pytest.mark.parametrize("loop", [False, True])
def test_samples_are_checked_as_one_stack(loop, monkeypatch):
    h, ops, rho0, grid = _route_cases()["strided"]
    if loop:
        monkeypatch.setattr(evolution, "MAX_POWERED_BLOCK", 0)
    stack = QuantumState._mixed_stack.__func__
    mixed = QuantumState.mixed.__func__
    sizes, singles = [], []

    def counted_stack(cls, matrices):
        sizes.append(len(matrices))
        return stack(cls, matrices)

    def counted_mixed(cls, matrix):
        singles.append(matrix)
        return mixed(cls, matrix)

    monkeypatch.setattr(QuantumState, "_mixed_stack",
                        classmethod(counted_stack))
    monkeypatch.setattr(QuantumState, "mixed", classmethod(counted_mixed))
    states = integrate_master(QuantumState.pure(np.eye(3)[0]),
                              LindbladModel(h, ops), grid)
    assert len(states) == grid.n_samples
    # the initial state alone, then every later sample in one stack
    assert len(singles) == 1 and sorted(sizes) == [1, grid.n_samples - 1]


def test_invariant_block_rows_are_ordered():
    p = DampedOscillatorParams(1.0, 0.2, 0.5, 12, (0.5, -0.5))
    h, ops, _, _ = _route_cases()["dense-d3"]
    for model in [oscillator_model(p), LindbladModel(h, ops),
                  three_level_model(ThreeLevelParams(2.0, 0.5, 1.0, 0.05,
                                                     0.15))]:
        groups = evolution._invariant_blocks(model)
        assert [g.shape[1] for g in groups] == sorted(
            {g.shape[1] for g in groups})
        for g in groups:
            assert np.all(np.diff(g, axis=1) > 0)
            assert np.all(np.diff(g[:, 0]) > 0)
        flat = np.concatenate([g.ravel() for g in groups])
        assert np.array_equal(np.sort(flat), np.arange(model.dim ** 2))


def test_time_grid_refuses_non_integer_counts():
    # a float or a string count is refused, not truncated to its floor
    with pytest.raises(DimensionError,
                       match=r"^n_steps must be an integer, got 100\.7$"):
        TimeGrid(0.0, 1.0, 100.7, 2.2)
    with pytest.raises(DimensionError,
                       match=r"^sample_every must be an integer, got 2\.2$"):
        TimeGrid(0.0, 1.0, 100, 2.2)
    with pytest.raises(DimensionError, match="got 100.0"):
        TimeGrid(0.0, 1.0, 100.0)
    with pytest.raises(DimensionError, match="got '100'"):
        TimeGrid(0.0, 1.0, "100")
    g = TimeGrid(0.0, 1.0, np.int64(100), sample_every=np.uint8(4))
    assert (g.n_steps, g.sample_every) == (100, 4)
    assert type(g.n_steps) is int and type(g.sample_every) is int


def test_evolve_unitary_refuses_a_generator_of_another_dimension():
    with pytest.raises(DimensionError,
                       match="generator dimension 3 does not match state "
                             "dimension 2"):
        evolve_unitary(QuantumState.pure([1.0, 0.0]), np.eye(3), 1.0)


def test_time_grid_refuses_non_numeric_and_non_finite_times():
    # a string time is refused, not parsed; the class stays DimensionError
    with pytest.raises(DimensionError,
                       match="^t_end must be a finite number, got '1.0'$"):
        TimeGrid(0.0, "1.0", 10)
    with pytest.raises(DimensionError,
                       match="^t_start must be a finite number, got nan$"):
        TimeGrid(np.nan, 1.0, 10)
    g = TimeGrid(np.float32(0.5), 1, 10)
    assert (g.t_start, g.t_end) == (0.5, 1.0)
    assert type(g.t_start) is float and type(g.t_end) is float


def test_rates_and_probabilities_must_be_finite_numbers():
    # refused with the class each site raised before, never parsed
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ModelError,
                       match="^channel rate must be a finite number, "
                             "got '0.5'$"):
        LindbladModel(np.zeros((2, 2)), [(lower, "0.5")])
    with pytest.raises(ModelError, match="^channel rate must be a finite"):
        two_level_decay_model(np.nan)
    with pytest.raises(ModelError,
                       match="^decay probability must be a finite number"):
        amplitude_damping_kraus("0.5")
    with pytest.raises(ModelError,
                       match="^dephasing probability must be a finite"):
        phase_damping_kraus(np.inf)
    # a NaN time made every entry of the propagator NaN
    with pytest.raises(DomainError, match="^t must be a finite number"):
        evolve_unitary(QuantumState.pure([1.0, 0.0]), np.eye(2), np.nan)


@pytest.mark.parametrize("args, message", [
    ((0.0, 1.0, 0), "n_steps must be >= 1, got 0"),
    ((0.0, 1.0, 10, 0), "sample_every must be >= 1, got 0"),
    ((0.0, 1.0, -4, -2), "n_steps must be >= 1, got -4"),
    # two bad inputs: the counts are checked with their type, first
    ((1.0, 0.0, 0), "n_steps must be >= 1, got 0")])
def test_grid_counts_have_a_lower_bound(args, message):
    with pytest.raises(DimensionError) as exc:
        TimeGrid(*args)
    assert str(exc.value) == message


def test_dimension_mismatches_name_both_dimensions():
    qubit = QuantumState.pure([1.0, 0.0])
    qutrit = three_level_model(ThreeLevelParams(1.0, 0.0, 1.0, 0.0, 0.0))
    grid = TimeGrid(0.0, 1.0, 10)
    cases = [
        (lambda: apply_kraus(QuantumState.pure([1.0, 0.0, 0.0]),
                             amplitude_damping_kraus(0.5)),
         "state dimension 3 does not match Kraus dimension 2"),
        (lambda: LindbladModel(np.zeros((2, 2)), [(np.eye(3), 1.0)]),
         "channel dimension 3 does not match Hamiltonian dimension 2"),
        (lambda: evolve_unitary(qubit, np.eye(4), 1.0),
         "generator dimension 4 does not match state dimension 2"),
        (lambda: integrate_master(qubit, qutrit, grid),
         "state dimension 2 does not match model dimension 3")]
    for call, message in cases:
        with pytest.raises(DimensionError) as exc:
            call()
        assert str(exc.value) == message


def test_lindblad_model_refuses_a_non_hermitian_hamiltonian():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ModelError,
                       match="^Hamiltonian is not hermitian within 1e-10$"):
        LindbladModel(h)
    LindbladModel(np.array([[0.0, 1.0], [1.0 + 5e-11, 0.0]]))


def test_paired_blocks_come_out_exactly_hermitian():
    """The block route powers one block of each transpose pair and writes
    its partner as the conjugate, so outside the self-paired blocks every
    entry is the conjugate of its transposed entry, bit for bit."""
    p = DampedOscillatorParams(1.0, 0.2, 0.5, 12, (0.5 + 0.3j, -0.5))
    model = oscillator_model(p)
    psi0 = superposition_state([1.0, 1.0], p.alphas, p.n_fock)
    grid = TimeGrid(0.0, 3.0, 300, sample_every=30)
    d = p.n_fock
    paired = np.zeros(d * d, dtype=bool)
    for idx in evolution._invariant_blocks(model):
        tidx = idx % d * d + idx // d
        paired[idx[(np.sort(tidx, axis=1) != idx).any(axis=1)]] = True
    paired = paired.reshape(d, d)
    # every band rho_{m, m+k} but the diagonal has a partner
    assert np.array_equal(paired, ~np.eye(d, dtype=bool))
    states = integrate_master(psi0, model, grid)
    assert len(states) == grid.n_samples
    # the first sample is the initial state as given, not an engine output
    for st in states[1:]:
        assert np.array_equal(st.data[paired], st.data.conj().T[paired])


def _assert_series(series, n_samples, dim):
    assert isinstance(series, hilbert.StateSeries)
    data = series.data
    assert data.shape == (n_samples, dim, dim)
    assert data.dtype == np.complex128
    assert len(series) == n_samples
    # items are views of the validated array; slices are series
    for k in (0, n_samples - 1, -1):
        assert np.shares_memory(series[k].data, data)
        assert np.array_equal(series[k].data, data[k])
    tail = series[1:]
    assert isinstance(tail, hilbert.StateSeries) and len(tail) == n_samples - 1
    assert np.shares_memory(tail.data, data)


@pytest.mark.parametrize("loop", [False, True])
def test_every_engine_returns_the_array_it_checked(loop, monkeypatch):
    if loop:
        monkeypatch.setattr(evolution, "MAX_POWERED_BLOCK", 0)
    h, ops, rho0, grid = _route_cases()["fock-12"]
    # a mixed initial matrix that is hermitian only within tolerance, so a
    # row 0 written from the engine's transpose pairs would differ
    rho0 = rho0 + 1e-14j * np.triu(np.ones_like(rho0), 1)
    states = integrate_master(QuantumState.mixed(rho0), LindbladModel(h, ops),
                              grid)
    _assert_series(states, grid.n_samples, 12)
    assert np.array_equal(states.data[0], rho0)
    assert np.array_equal(states[0].data, rho0)

    spec = DisorderSpec(Distribution.gaussian(0.0, 0.4), [0.0, 1.0, 2.5],
                        [0.0, 1.0, -0.5], np.full((3, 3), 1.0 / 3.0))
    times = np.linspace(0.0, 2.0, 5)
    for avg in (disorder_averaged_state(spec, times),
                disorder_averaged_state(spec, times, method="monte-carlo",
                                        samples=50, seed=3)):
        _assert_series(avg.states, times.size, 3)

    decay = two_level_decay_model(1.0)
    small = TimeGrid(0.0, 1.0, 40, sample_every=10)
    est = aggregate(run_ensemble(QuantumState.pure([0.0, 1.0]), decay, small,
                                 20, seed=5))
    _assert_series(est.mean_states, small.n_samples, 2)
