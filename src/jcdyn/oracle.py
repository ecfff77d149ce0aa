"""Brute-force trajectory validator.

Integrates the bare-basis Schrodinger equation block by block with a
general-purpose ODE solver, the DOP853 of ``jcdyn.dop853`` at its fixed
settings (or, in ``integrate_block``, fixed-step RK4), sampling lambda(t)
pointwise at every stage. The integrator never sees the coupling area, so
agreement with the closed-form path validates the area-based solution end
to end. Block n's amplitudes obey i (d/dt)(c_e, c_g) = lambda(t) k
(c_g, c_e), k = sqrt(n+1). Every row of block n, in every joint state of
a run, obeys this one linear equation, so all follow one real pair (P, Q),
P' = k lambda Q and Q' = -k lambda P, started at (r, 0), r the block's
norm: (c_e, c_g) = w P + i (w_g, w_e) Q, w = (c_e0, c_g0) / r. A pair that
starts at (0, 0) stays there, so the solver integrates one pair per photon
block with a row that starts nonzero. These pairs are stacked into one
flat real state vector, so the solver is called once per trajectory, and
its samples come back in time blocks of one reused buffer, from which no
complex row is built. ``oracle_evolve_mixed`` takes any atom on any field,
as ``evolve_mixed`` does, and returns the reduced atom, summed through a
table of products of the samples in time blocks as the solver hands them
over, so that it holds the solver's working set, per-block weights and one
time block, whatever the number of grid times. ``oracle_evolve_pure``
returns the joint state of a pure atom on a pure field, writing each time
block into it. Both evolve joint pure states through one helper, which
takes them as one complex (state, block, 2) array of rows (e[b], g[b+1]);
every block starts at its physical amplitude, for atom member v_k
(rho = sum_k v_k v_k^dagger): v_k C_n on a pure field, sqrt(p_n) v_k on a
photon-diagonal one. So the solver tolerances act alike on every field.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import _as_times, lambda_at
from .dynamics import (
    AtomDensityMatrix,
    AtomState,
    JointPureState,
    _BLOCK_ELEMENTS,
    _initial_amplitudes,
)
from .errors import InvalidInputError, NumericalFailureError, all_finite, as_numbers
from .fields import PhotonDistribution

# Weight below which the atom's second member is dropped.
_MEMBER_FLOOR = 1e-15

# Most complex values one solve's stage vectors may hold: DOP853 keeps
# _STAGES vectors of the integrated pairs, one per live photon block, and a
# pair's 2 floats take the bytes of one complex value, so a pair counts as
# 1; 256 MiB at 2^24.
# The samples do not count: they arrive in time blocks, which the mixed
# oracle reduces and the other entries copy into their return value.
MAX_ORACLE_SAMPLES = 2**24
_STAGES = 16  # jcdyn.dop853.C.size, written out so the budget loads no solver

# Most steps one solve may take, counted before the first: DOP853 takes at
# least one per dop853.MAX_STEP of the span and one per two radians of the
# top block's phase, RK4 exactly its steps.
MAX_ORACLE_STEPS = 2**20


def solve_ivp(fun, t_span, y0, **options):
    """``jcdyn.dop853.solve_ivp``, imported on first use, so that a run
    without the oracle never loads the integrator. The samples go to the
    ``sink`` keyword; returns ``.nfev``, ``.success`` and ``.message``."""
    from .dop853 import solve_ivp

    return solve_ivp(fun, t_span, y0, **options)


def _start(rows, first):
    """Where the solver starts for the complex (state, block, 2) array
    ``rows``, whose block b is photon block first + b; returns (n, r, u, v).

    ``n`` holds the numbers of the blocks in which some state's row starts
    nonzero, in order, ``r`` each such block's norm over all its states,
    and u + i v = rows / r as float parts on those blocks' columns
    (``rows[:, n - first]``). A solve of more than
    MAX_ORACLE_SAMPLES / _STAGES blocks is refused.
    """
    live = np.any(rows != 0, axis=(0, 2))
    n = np.flatnonzero(live) + first
    count = _STAGES * n.size
    if count > MAX_ORACLE_SAMPLES:
        raise InvalidInputError(
            f"oracle needs {count} complex stage values, over the budget of "
            f"{MAX_ORACLE_SAMPLES}"
        )
    rows = rows[:, live]
    # Each block's norm by hypot, as squares of a wide field's far tails
    # underflow, over every state's p (Re c_e, Re c_g), then q (Im c_g,
    # Im c_e); a row that starts at 0 adds hypot(r, 0) = r.
    r = np.zeros(n.size)
    for part in (rows.real, rows.imag[..., ::-1]):
        for x in np.vstack(part.swapaxes(1, 2)):
            np.hypot(r, x, out=r)
    # Float division: numpy's complex division multiplies by 1 / r.
    return n, r, rows.real / r[:, None], rows.imag / r[:, None]


def _check_solve(profile, t_grid, rows, rk4_step=None, first=0):
    """Check a solve of the complex (state, block, 2) array ``rows``, block
    b the photon block first + b, over ``t_grid`` before its first step;
    returns the grid and the solver's start (``_start``): each row follows
    its block's pair as (c_e, c_g) = w P + i (w_g, w_e) Q
    (``_integrate_stack``).

    The grid is checked as a time is (``_as_times``), and must be a
    non-empty 1-D array that starts at 0 and rises strictly. The stages
    must fit MAX_ORACLE_SAMPLES (``_start``), and the solve may take
    at most MAX_ORACLE_STEPS steps. RK4 with ``rk4_step`` takes exactly
    ceil(interval / rk4_step) per grid interval. DOP853 takes at least one
    per dop853.MAX_STEP of the span, and at least one per two radians of
    sqrt(n + 1) * integral |lambda| for the highest live block n, the
    integral a trapezoid of ``lambda_at`` on the grid.
    """
    grid = _as_times(profile, t_grid)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidInputError("t_grid must be a non-empty 1-D array")
    if grid[0] != 0.0:
        raise InvalidInputError("t_grid must start at 0")
    gaps = np.diff(grid)
    if not np.all(gaps > 0.0):
        raise InvalidInputError("t_grid must increase strictly")
    start = _start(rows, first)
    if rk4_step is None:
        from .dop853 import MAX_STEP

        top = np.max(start[0], initial=0)
        rate = np.abs(lambda_at(profile, grid))
        with np.errstate(over="ignore"):
            phase = math.sqrt(top + 1.0) * np.sum((rate[1:] + rate[:-1]) * gaps) / 2
        # A rate that is NaN somewhere is left to fail in the solver.
        steps = np.fmax(np.ceil(grid[-1] / MAX_STEP), np.ceil(0.5 * phase))
    else:
        with np.errstate(over="ignore"):
            steps = np.sum(np.maximum(1.0, np.ceil(gaps / rk4_step)))
    if steps > MAX_ORACLE_STEPS:
        raise InvalidInputError(
            f"oracle needs {steps:.7g} steps, over the budget of {MAX_ORACLE_STEPS}"
        )
    return grid, start


def _integrate_stack(n, r, profile, grid, consume, rk4_step=None):
    """Evolve one real pair per photon block, handing its samples to
    ``consume``.

    Block n's pair obeys (P, Q)' = lambda(t) sqrt(n+1) (Q, -P) from
    (r, 0), ``n`` and ``r`` as ``_check_solve`` gave them, so its row
    w r = (c_e0, c_g0) is (c_e, c_g) = w P + i (w_g, w_e) Q. The pairs are
    stepped as one float vector, by DOP853, or with ``rk4_step`` set, by
    fixed-step RK4 subdividing each grid interval evenly into steps of at
    most that size. Each run of grid times start..stop-1 that fills a block
    of _BLOCK_ELEMENTS entries (one time at least), and the rest at the
    end, is checked finite and handed to ``consume(start, P, Q)`` as soon
    as it is complete, P and Q the (stop - start, len(n)) views of the
    samples; their buffer is then reused.
    """
    y0 = np.zeros(2 * n.size)
    y0[0::2] = r
    coef = (np.sqrt(n + 1.0)[:, None] * [1.0, -1.0]).ravel()
    # A time takes two of the _BLOCK_ELEMENTS entries per pair: its samples
    # (two floats, the bytes of one complex value), and as much again for
    # what the consumer forms from them.
    size = min(grid.size, max(1, _BLOCK_ELEMENTS // max(1, 2 * n.size)))
    buf = np.empty((size, y0.size))
    first = 0  # grid index of buf[0]

    def flush(stop):
        m = stop - first
        if not all_finite(buf[:m]):
            raise NumericalFailureError("reference integrator produced non-finite values")
        consume(first, buf[:m, 0::2], buf[:m, 1::2])

    def sink(start, stop):
        nonlocal first
        if start == first + size:
            flush(start)
            first = start
        return buf[start - first : min(stop, first + size) - first]

    t_end = float(grid[-1])
    if y0.size == 0 or t_end == 0.0:
        for start in range(0, grid.size, size):
            sink(start, grid.size)[:] = y0
    else:
        _integrate_nonzero(coef, y0, profile, grid, rk4_step, sink)
    flush(grid.size)


def _write_amplitudes(start, e, g, first=0):
    """A ``consume`` for ``_integrate_stack`` that writes one state's row of
    block n, w P + i (w_g, w_e) Q with w = u + i v of ``start``, into column
    n - first of the complex (T, B) ``e`` and ``g`` at the sampled times.
    Each part is x P + y Q formed with float products, not a complex one,
    whose bits would depend on the time block's length; a part with
    x = y = 0 stays 0 and is left as it is."""
    n, _, (u,), (v,) = start
    parts = []
    for out, x, y in (
        (e.real, u[:, 0], -v[:, 1]),
        (e.imag, v[:, 0], u[:, 1]),
        (g.real, u[:, 1], -v[:, 0]),
        (g.imag, v[:, 1], u[:, 0]),
    ):
        cols = np.flatnonzero((x != 0) | (y != 0))
        parts.append((out, n[cols] - first, cols, x[cols], y[cols]))

    def consume(start, big_p, big_q):
        stop = start + len(big_p)
        for out, at, cols, x, y in parts:
            u = big_p[:, cols] * x
            u += big_q[:, cols] * y
            out[start:stop, at] = u

    return consume


def _integrate_nonzero(coef, y0, profile, grid, rk4_step, sink):
    """Step ``_integrate_stack``'s pairs (p, q)' = lambda(t) (k q, -k p),
    ``coef`` holding (k, -k) for each, over a grid that ends after 0,
    writing the samples through ``sink`` as ``dop853.solve_ivp`` does."""
    t_end = float(grid[-1])
    swap = np.arange(y0.size) ^ 1  # each pair (p, q) as (q, p)
    rate = profile.rate  # unchecked: _check_solve checked the profile on the grid

    def rhs(t, y):
        out = y.take(swap)
        out *= coef
        # Solver stages can round a hair outside [0, t_end]; clamp so
        # tabulated profiles stay in range.
        if not 0.0 <= t <= t_end:
            t = min(max(t, 0.0), t_end)
        out *= rate(t)
        return out

    if rk4_step is None:
        sol = solve_ivp(rhs, (0.0, t_end), y0, t_eval=grid, sink=sink)
        if not sol.success:
            raise NumericalFailureError(f"reference integrator failed: {sol.message}")
        return
    y = sink(0, 1)[0] = y0
    for i in range(1, grid.size):
        t0, t1 = grid[i - 1], grid[i]
        m = max(1, math.ceil((t1 - t0) / rk4_step))
        h = (t1 - t0) / m
        for j in range(m):
            t = t0 + j * h
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sink(i, i + 1)[0] = y


def integrate_block(n, initial, profile, t_grid, rk4_step=None):
    """Trajectory of one (|e,n>, |g,n+1>) pair; returns a (T, 2) array.

    DOP853 integrates it, or fixed-step RK4 with steps of at most
    ``rk4_step``.
    """
    n = as_numbers(n, "n", kind=int)
    if n < 0:
        raise InvalidInputError("n must be a non-negative integer")
    if rk4_step is not None:
        rk4_step = as_numbers(rk4_step, "rk4_step")
        if not rk4_step > 0.0:
            raise InvalidInputError("rk4_step must be a finite positive number")
    pair = as_numbers(initial, "initial", 1, complex)
    if pair.shape != (2,):
        raise InvalidInputError("initial must be a pair of amplitudes")
    grid, start = _check_solve(profile, t_grid, pair[None, None], rk4_step, n)
    out = np.zeros((grid.size, 2), dtype=complex)
    consume = _write_amplitudes(start, out[:, :1], out[:, 1:], n)
    _integrate_stack(*start[:2], profile, grid, consume, rk4_step)
    return out


def oracle_evolve_pure(
    atom: AtomState, field: PhotonDistribution, profile, t_grid
) -> JointPureState:
    """Numerically integrated counterpart of the closed-form pure evolution.

    Returns the batch form of JointPureState, one amplitude row per grid time.
    """
    if field.amplitudes is None:
        raise InvalidInputError("field is mixed; oracle_evolve_mixed handles it")
    e0, g0 = _initial_amplitudes(atom, field)
    grid, start = _check_solve(profile, t_grid, np.stack([e0[:-1], g0[1:]], -1)[None])
    e = np.zeros((grid.size, e0.size), dtype=complex)
    g = np.zeros_like(e)
    g[:, 0] = g0[0]
    consume = _write_amplitudes(start, e[:, :-1], g[:, 1:])
    _integrate_stack(*start[:2], profile, grid, consume)
    return JointPureState(e, g, grid)


def oracle_rows(atom: AtomDensityMatrix, field: PhotonDistribution):
    """The joint pure states ``oracle_evolve_mixed`` integrates for an atom
    on a field, as (rows, dark): the complex (state, block, 2) array whose
    block b of state s is (e[s, b], g[s, b+1]), b = 0 .. n_max, and their
    dark |g,0> amplitudes g[:, 0], which stay put and are in no block.

    Splits the atom into members v_k, rho = sum_k v_k v_k^dagger, the
    columns of its pivoted Cholesky factor: pivoting on the larger of
    rho_ee and rho_gg, say rho_ee = a, v_0 = (sqrt(a), conj(rho_eg) /
    sqrt(a)) and v_1 = (0, sqrt(s)), s = rho_gg - |rho_eg|^2 / a, clamped at
    0 and dropped under _MEMBER_FLOOR. Any such split gives the same
    reduced dynamics. On a pure field member k is one joint pure state
    v_k (x) C, state k. On a photon-diagonal field member k splits into two:
    its |e> part, sqrt(p_n) v_k,e on |e,n>, state 2k, and its |g> part,
    sqrt(p_n) v_k,g on |g,n>, state 2k + 1 (``_member_states``).
    ``_check_solve`` on the rows checks the solve's budgets, so a caller can
    refuse a case before anything runs.
    """
    ee, gg, eg = float(atom.rho_ee), float(atom.rho_gg), complex(atom.rho_eg)
    swap = gg > ee  # pivot on |g>: factor in the (g, e) basis
    a, d, c = (gg, ee, eg.conjugate()) if swap else (ee, gg, eg)
    top = math.sqrt(a)
    residue = max(d - abs(c) ** 2 / a, 0.0)
    members = [(top, c.conjugate() / top)]
    if residue > _MEMBER_FLOOR:
        members.append((0.0, math.sqrt(residue)))
    v = np.array(members, dtype=complex)[:, ::-1 if swap else 1]
    amp = field.amplitudes if field.amplitudes is not None else np.sqrt(field.weights)
    e_of, g_of = _member_states(field)
    rows = np.zeros((e_of.step * len(v), amp.size, 2), dtype=complex)
    dark = np.zeros(len(rows), dtype=complex)
    rows[e_of, :, 0] = v[:, :1] * amp
    rows[g_of, :-1, 1] = v[:, 1:] * amp[1:]
    dark[g_of] = v[:, 1] * amp[0]
    return rows, dark


def _member_states(field):
    """The states of ``oracle_rows`` that hold the atom members' |e> and |g>
    amplitudes on ``field``, as two slices: states k and k on a pure field,
    2k and 2k + 1 on a photon-diagonal one."""
    stride = 1 if field.amplitudes is not None else 2
    return slice(0, None, stride), slice(stride - 1, None, stride)


# Products of the solver's block samples P and Q, as their factors: of a
# block with itself, of each block (hi) with the one integrated before it
# (lo), and the first integrated block's own samples.
_PRODUCTS = {
    "P^2": lambda p, q: (p, p),
    "P*Q": lambda p, q: (p, q),
    "Q^2": lambda p, q: (q, q),
    "P_hi*P_lo": lambda p, q: (p[:, 1:], p[:, :-1]),
    "P_hi*Q_lo": lambda p, q: (p[:, 1:], q[:, :-1]),
    "Q_hi*P_lo": lambda p, q: (q[:, 1:], p[:, :-1]),
    "Q_hi*Q_lo": lambda p, q: (q[:, 1:], q[:, :-1]),
    "P_0": lambda p, q: (p[:, :1],),
    "Q_0": lambda p, q: (q[:, :1],),
}


def _reduction_terms(atom, field, profile, t_grid):
    """Check the mixed oracle's solve and weigh its products; returns
    (grid, n, r, dark_gg, kept).

    ``n`` and ``r`` are the solver's blocks and start norms (``_start``),
    dark_gg the dark amplitudes' share of rho_gg, and ``kept`` lists each
    ``_PRODUCTS`` entry with a weight that is not all 0 as
    (kind, [(part, weight)]): part 0 to 3 is rho_ee, rho_gg, Re rho_eg or
    Im rho_eg, and the weight holds one number per column of the product.
    Only these per-block weights outlive the call; the rows and their
    start go before the solve.
    """
    rows, dark = oracle_rows(atom, field)
    grid, (n, r, u, v) = _check_solve(profile, t_grid, rows)
    # c_e = a P + b Q and c_g = c P + d Q of state s in block n[j], at [s, j]
    w = u + 1j * v
    a, b, c, d = w[..., 0], 1j * w[..., 1], w[..., 1], 1j * w[..., 0]

    def same(x, y):  # sum_s Re(x conj(y)) at each live block
        return np.sum((x * y.conj()).real, axis=0)

    # rho_eg pairs each member's e_m with its g_m: block m's e with block
    # m - 1's g, and for m = 0 the dark g_0.
    e_of, g_of = _member_states(field)
    e_a, e_b = a[e_of], b[e_of]
    g_c, g_d = c[g_of].conj(), d[g_of].conj()
    g_dark = dark[g_of].conj()

    # sum_s x[s, j] y[s, j - 1] at each live block n[j] after the first,
    # kept where the live block before it is n[j] - 1: the product takes
    # the samples of the live block before, whatever its number.
    def lag(x, y):
        return np.where(np.diff(n) == 1, np.sum(x[:, 1:] * y[:, :-1], axis=0), 0)

    # sum_s x[s, 0] g_dark[s] where the first live block is block 0.
    def with_dark(x):
        return np.where(n[:1] == 0, np.sum(x[:, :1].T * g_dark, axis=1), 0)

    terms = {
        "P^2": [(0, same(a, a)), (1, same(c, c))],
        "P*Q": [(0, 2 * same(a, b)), (1, 2 * same(c, d))],
        "Q^2": [(0, same(b, b)), (1, same(d, d))],
    }
    for kind, w in (
        ("P_hi*P_lo", lag(e_a, g_c)),
        ("P_hi*Q_lo", lag(e_a, g_d)),
        ("Q_hi*P_lo", lag(e_b, g_c)),
        ("Q_hi*Q_lo", lag(e_b, g_d)),
        ("P_0", with_dark(e_a)),
        ("Q_0", with_dark(e_b)),
    ):
        terms[kind] = [(2, w.real), (3, w.imag)]
    kept = [(k, [(part, w) for part, w in uses if w.any()]) for k, uses in terms.items()]
    kept = [(kind, uses) for kind, uses in kept if uses]
    return grid, n, r, np.sum(np.abs(dark) ** 2), kept


def oracle_evolve_mixed(
    atom: AtomDensityMatrix, field: PhotonDistribution, profile, t_grid
) -> AtomDensityMatrix:
    """Numerically integrated counterpart of ``evolve_mixed``, for any field.

    Integrates the joint pure states of ``oracle_rows``. On a pure field
    their photon sectors are coherent, so the coherence pairs each state
    with itself. On a photon-diagonal field photon sector n keeps the |e>
    part in block n and the |g> part in block n - 1, so the populations are
    sums of squared amplitudes and the coherence pairs the |e> part's e_n
    with the |g> part's g_n. Every amplitude is a fixed linear function of
    its block's samples (``_integrate_stack``), so each sum is one of
    products of the samples (``_PRODUCTS``), each summed against per-block
    weights (``_reduction_terms``) by numpy's own loops, whose bits no BLAS
    thread count changes. A product whose weights are all 0 is not formed.
    The sums are taken one time block at a time as the solver completes
    it, without building the joint states or keeping the samples. Returns
    the batch form of AtomDensityMatrix, one row per grid time.
    """
    grid, n, r, dark_gg, kept = _reduction_terms(atom, field, profile, t_grid)
    ee = np.zeros(grid.size)
    gg = np.full(grid.size, dark_gg)
    eg = np.zeros(grid.size, dtype=complex)
    parts = (ee, gg, eg.real, eg.imag)

    def reduce(start, big_p, big_q):
        stop = start + len(big_p)
        for kind, uses in kept:
            factors = _PRODUCTS[kind](big_p, big_q)
            # One loop forms and sums each product: no (time, block) copy.
            spec = "tn," * len(factors) + "n->t"
            for part, weight in uses:
                parts[part][start:stop] += np.einsum(spec, *factors, weight)

    _integrate_stack(n, r, profile, grid, reduce)
    # Condition on the retained sectors exactly as evolve_mixed does, so
    # comparisons measure dynamics error rather than the truncation deficit.
    return AtomDensityMatrix.conditioned(ee, gg, eg)
