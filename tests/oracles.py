"""Reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way (explicit
index loops, power series, scalar recursions, textbook closed forms) and
kept free of imports from the package under test, so agreement between the
two is evidence rather than tautology.
"""

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components


def matmul_loops(a, b):
    """Matrix product by explicit triple loop."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.complex128)
    for i in range(n):
        for j in range(m):
            s = 0.0 + 0.0j
            for p in range(k):
                s += a[i, p] * b[p, j]
            out[i, j] = s
    return out


def kron_loops(a, b):
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=np.complex128)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_loops(rho, dims, keep):
    """Partial trace by summing explicit multi-indices."""
    rho = np.asarray(rho, dtype=np.complex128)
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(int(k) for k in keep))
    traced = [i for i in range(len(dims)) if i not in keep]
    keep_dims = [dims[i] for i in keep]
    d_keep = int(np.prod(keep_dims))
    out = np.zeros((d_keep, d_keep), dtype=np.complex128)
    tensor = rho.reshape(dims + dims)
    for row in np.ndindex(*keep_dims):
        for col in np.ndindex(*keep_dims):
            s = 0.0 + 0.0j
            for tr in np.ndindex(*[dims[i] for i in traced]):
                idx_r = [0] * len(dims)
                idx_c = [0] * len(dims)
                for pos, i in enumerate(keep):
                    idx_r[i] = row[pos]
                    idx_c[i] = col[pos]
                for pos, i in enumerate(traced):
                    idx_r[i] = tr[pos]
                    idx_c[i] = tr[pos]
                s += tensor[tuple(idx_r) + tuple(idx_c)]
            out_r = 0
            out_c = 0
            for pos in range(len(keep)):
                out_r = out_r * keep_dims[pos] + row[pos]
                out_c = out_c * keep_dims[pos] + col[pos]
            out[out_r, out_c] = s
    return out


def expm_series(a, terms=60):
    """Matrix exponential by scaling-and-squaring of the Taylor series."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    scale = max(0, int(np.ceil(np.log2(max(1.0, np.linalg.norm(a, np.inf))))))
    m = a / (2.0 ** scale)
    out = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
        if np.max(np.abs(term)) < 1e-20:
            break
    for _ in range(scale):
        out = out @ out
    return out


def lindblad_rhs_loops(h, channels, rho):
    """Master-equation right-hand side assembled term by term."""
    h = np.asarray(h, dtype=np.complex128)
    rho = np.asarray(rho, dtype=np.complex128)
    out = -1j * (h @ rho - rho @ h)
    for op, rate in channels:
        op = np.asarray(op, dtype=np.complex128)
        od = op.conj().T
        out = out + rate * (op @ rho @ od
                            - 0.5 * (od @ op @ rho + rho @ od @ op))
    return out


def master_rk4(h, channels, rho0, t_end, n_steps, t_start=0.0):
    """Fixed-step RK4 integration of the master equation; returns the
    final density matrix only."""
    rho = np.asarray(rho0, dtype=np.complex128).copy()
    dt = (float(t_end) - float(t_start)) / int(n_steps)
    for _ in range(int(n_steps)):
        k1 = lindblad_rhs_loops(h, channels, rho)
        k2 = lindblad_rhs_loops(h, channels, rho + 0.5 * dt * k1)
        k3 = lindblad_rhs_loops(h, channels, rho + 0.5 * dt * k2)
        k4 = lindblad_rhs_loops(h, channels, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


# Characteristic functions E[exp(-i s w)] of the disorder families.

def gaussian_char(mean, sigma, s):
    return np.exp(-1j * mean * s) * np.exp(-0.5 * (sigma * s) ** 2)


def lorentzian_char(center, width, s):
    return np.exp(-1j * center * s) * np.exp(-width * abs(s))


def uniform_char(low, high, s):
    if s == 0.0:
        return 1.0 + 0.0j
    half = 0.5 * (high - low) * s
    return np.exp(-1j * 0.5 * (low + high) * s) * np.sin(half) / half


def disorder_monte_carlo_full(r, epsilon, slopes, draws, times):
    """Static-disorder Monte Carlo on full d x d member phase matrices,
    every draw at once: the averaged states and the standard errors of
    their real and imaginary parts, each (n_t, d, d)."""
    r = np.asarray(r, dtype=np.complex128)
    eps = np.asarray(epsilon, dtype=np.float64)
    slo = np.asarray(slopes, dtype=np.float64)
    draws = np.asarray(draws, dtype=np.float64)
    static_gap = eps[:, None] - eps[None, :]
    slope_gap = slo[:, None] - slo[None, :]
    d = eps.size
    rho = np.empty((len(times), d, d), dtype=np.complex128)
    se_re = np.empty((len(times), d, d))
    se_im = np.empty_like(se_re)
    root = np.sqrt(draws.size)
    for i, ti in enumerate(times):
        phases = np.exp(-1j * (slope_gap[None, :, :] * draws[:, None, None])
                        * ti)
        se_re[i] = phases.real.std(axis=0, ddof=1) / root
        se_im[i] = phases.imag.std(axis=0, ddof=1) / root
        rho[i] = r * (np.exp(-1j * static_gap * ti) * phases.mean(axis=0))
    return rho, se_re, se_im


def central_spin_brute(params, times, t_e=None):
    """<up| rho_S(t) |down> of the central spin by full evolution of the
    2^(M+1)-dimensional register, then a trace over the bath.

    The Hamiltonian (w0/2) S_z + sum_k A_k S_z S_z^(k) is diagonal in the
    product basis, so each time is one elementwise phase.  The bath starts
    maximally mixed.  With ``t_e`` set, the pulse exp(-i pi S_x) acts on the
    central spin at t_e.
    """
    m = len(params.couplings)
    n_bath = 2 ** m
    sz = np.array([0.5, -0.5])
    central = np.repeat(sz, n_bath)
    energy = 0.5 * params.omega0 * central
    for k, a in enumerate(params.couplings):
        bath_k = np.tile(np.repeat(sz, 2 ** (m - k - 1)), 2 ** (k + 1))
        energy = energy + a * central * bath_k
    psi = np.array([params.c1, params.c2], dtype=np.complex128)
    rho0 = np.kron(np.outer(psi, psi.conj()), np.eye(n_bath) / n_bath)
    pulse = np.kron(np.array([[0.0, -1j], [-1j, 0.0]]), np.eye(n_bath))

    def evolve(rho, t):
        u = np.exp(-1j * energy * t)
        return u[:, None] * rho * u.conj()[None, :]

    out = []
    for t in np.atleast_1d(np.asarray(times, dtype=np.float64)):
        if t_e is None or t <= t_e:
            rho = evolve(rho0, t)
        else:
            rho = evolve(pulse @ evolve(rho0, t_e) @ pulse.conj().T, t - t_e)
        blocks = rho.reshape(2, n_bath, 2, n_bath)
        out.append(np.trace(blocks, axis1=1, axis2=3)[0, 1])
    return np.array(out)


def coherent_wavefunction(alpha, xs):
    """<x|alpha> in the x = (a + a^dag)/sqrt(2) quadrature convention,
    from the generating function of the Hermite functions."""
    xs = np.asarray(xs, dtype=np.float64)
    alpha = complex(alpha)
    return (np.pi ** -0.25
            * np.exp(-0.5 * xs ** 2 + np.sqrt(2.0) * alpha * xs
                     - 0.5 * alpha ** 2 - 0.5 * abs(alpha) ** 2))


def coherent_overlap(a, b):
    a = complex(a)
    b = complex(b)
    return np.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2) + np.conj(a) * b)


def superposition_position_density(amplitudes, alphas, xs):
    """|<x|psi>|^2 for psi proportional to sum_k A_k |alpha_k>."""
    amplitudes = [complex(a) for a in amplitudes]
    alphas = [complex(a) for a in alphas]
    norm2 = 0.0
    for ai, pi in zip(amplitudes, alphas):
        for aj, pj in zip(amplitudes, alphas):
            norm2 += (np.conj(ai) * aj * coherent_overlap(pi, pj)).real
    wave = np.zeros(len(np.atleast_1d(xs)), dtype=np.complex128)
    for a, p in zip(amplitudes, alphas):
        wave = wave + a * coherent_wavefunction(p, xs)
    return np.abs(wave) ** 2 / norm2


def hermite_phi(n, xs):
    """Explicit closed forms for the first few Hermite functions."""
    xs = np.asarray(xs, dtype=np.float64)
    g = np.pi ** -0.25 * np.exp(-0.5 * xs ** 2)
    if n == 0:
        return g
    if n == 1:
        return np.sqrt(2.0) * xs * g
    if n == 2:
        return (2.0 * xs ** 2 - 1.0) / np.sqrt(2.0) * g
    if n == 3:
        return (2.0 * xs ** 3 - 3.0 * xs) / np.sqrt(3.0) * g
    raise ValueError("only n <= 3 is tabulated")


def period_table_loops(dark, bin_width, t_start):
    """Interior dark/bright runs of each row, by a loop over rows and runs:
    (row, is_dark, start time, duration), the first and last run of a row
    dropped as censored."""
    trajs, kinds, starts, durations = [], [], [], []
    n_traj, n_bins = dark.shape
    for i in range(n_traj):
        row = dark[i]
        edges = np.flatnonzero(np.diff(row)) + 1
        bounds = np.concatenate([[0], edges, [n_bins]])
        # interior runs only: run j spans bounds[j]..bounds[j+1]
        for j in range(1, len(bounds) - 2):
            lo, hi = bounds[j], bounds[j + 1]
            trajs.append(i)
            kinds.append(bool(row[lo]))
            starts.append(t_start + lo * bin_width)
            durations.append((hi - lo) * bin_width)
    return (np.array(trajs, dtype=np.int64),
            np.array(kinds, dtype=bool),
            np.array(starts, dtype=np.float64),
            np.array(durations, dtype=np.float64))


def mcwf_scalar(psi0, e_step, channels, t_start, dt, n_steps, sample_every,
                seed, stream):
    """One quantum-jump trajectory, propagated one scalar event at a time.

    ``e_step`` is the per-step effective propagator exp(-i H_eff dt);
    ``channels`` is a list of (operator, rate) pairs.  Draw order: one
    uniform per step for the jump test, then one more for channel choice
    only when the step fired with positive total weight.  Returns
    (snapshots, jump_times, jump_channels).
    """
    gen = np.random.Generator(
        np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    psi = np.asarray(psi0, dtype=np.complex128).copy()
    snaps = [psi.copy()]
    jump_times = []
    jump_channels = []
    for k in range(int(n_steps)):
        phi = e_step @ psi
        p = 1.0 - float(np.vdot(phi, phi).real)
        t_next = t_start + (k + 1) * dt
        u = float(gen.random())
        jumped = False
        if u < p:
            weights = []
            collapsed = []
            for op, rate in channels:
                v = op @ psi
                weights.append(rate * float(np.vdot(v, v).real))
                collapsed.append(v)
            total = sum(weights)
            if total > 0.0:
                r = float(gen.random()) * total
                acc = 0.0
                choice = len(weights) - 1
                for j, w in enumerate(weights):
                    acc += w
                    if acc >= r:
                        choice = j
                        break
                v = collapsed[choice]
                psi = v / np.linalg.norm(v)
                jump_times.append(t_next)
                jump_channels.append(choice)
                jumped = True
        if not jumped:
            psi = phi / np.linalg.norm(phi)
        if (k + 1) % sample_every == 0:
            snaps.append(psi.copy())
    return (np.array(snaps), np.array(jump_times),
            np.array(jump_channels, dtype=np.int64))


def continuation_einsum(powers, psi):
    """The no-jump continuations E^k psi of each row of *psi*, shape
    (rows, K + 1, d), from the powers (K + 1, d, d): one row-local einsum,
    the engine's route before it took BLAS products over fixed tiles."""
    return np.einsum("kij,bj->bki", np.asarray(powers), np.asarray(psi))


def invariant_blocks_csgraph(model):
    """``evolution._invariant_blocks`` with scipy's ``connected_components``
    labelling the same sparsity graph: the entries of rho, then the entries
    of rho L^dag for each live jump operator L, as extra nodes."""
    d = model.dim
    r = np.arange(d)
    hi, hk = np.nonzero(model._h_eff)
    a = [(hi[:, None] * d + r).ravel(), (r[:, None] * d + hi).ravel()]
    b = [(hk[:, None] * d + r).ravel(), (r[:, None] * d + hk).ravel()]
    for c, (_, l) in enumerate(model._jumps):
        base = (c + 1) * d * d
        li, lk = np.nonzero(l)
        rows, cols = np.unique(li), np.unique(lk)
        a += [(li[:, None] * d + rows).ravel(),
              (base + cols[:, None] * d + li).ravel()]
        b += [(base + lk[:, None] * d + rows).ravel(),
              (cols[:, None] * d + lk).ravel()]
    n_nodes = d * d * (1 + len(model._jumps))
    a, b = np.concatenate(a), np.concatenate(b)
    graph = coo_array((np.ones(a.size), (a, b)), shape=(n_nodes, n_nodes))
    labels = connected_components(graph, directed=False)[1]
    _, first, comp = np.unique(labels[:d * d], return_index=True,
                               return_inverse=True)
    sizes = np.bincount(comp)
    size = sizes[comp]
    order = np.lexsort((first[comp], size))
    return [order[size[order] == n].reshape(-1, n) for n in np.unique(sizes)]
