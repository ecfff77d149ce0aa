"""Brute-force trajectory validator.

Integrates the bare-basis Schrodinger equation block by block with a
general-purpose ODE solver, the DOP853 of ``jcdyn.dop853`` at its fixed
settings (or, in ``integrate_block``, fixed-step RK4), sampling lambda(t)
pointwise at every stage.
The integrator never sees the coupling area, so agreement with the
closed-form path validates the area-based solution end to end. Block n's
amplitudes (c_e, c_g) = (x_e + i y_e, x_g + i y_g) obey
i (d/dt)(c_e, c_g) = lambda(t) k (c_g, c_e), k = sqrt(n+1), which splits
into two real pairs (p, q), (x_e, y_g) and (x_g, y_e), each obeying
p' = k lambda q, q' = -k lambda p. Every pair of block n obeys this one
linear equation, so as a complex number z = p + i q each follows the same
solution: z(t) = (z0 / r) (P + i Q), where (P, Q) starts at (r, 0). The
solver therefore integrates one pair per photon block that holds a pair
starting nonzero, r that block's norm over all such pairs of all the joint
states of a run; a pair that starts at (0, 0) stays there. These pairs are
stacked into one flat real state vector, so the solver is called once per
trajectory, and its samples come back in time blocks, spread back onto
the complex block rows through reused buffers. ``oracle_evolve_mixed``
takes any atom on any field, as ``evolve_mixed`` does, and returns the
reduced atom, summed in time blocks as the solver hands the samples over,
so that it holds the solver's working set and one time block, whatever the
number of grid times. ``oracle_evolve_pure`` returns the joint state of a
pure atom on a pure field, copying each time block into it. Both evolve
joint pure states through one helper, and every block starts at its
physical amplitude, for atom member v_k (rho = sum_k v_k v_k^dagger):
v_k C_n on a pure field, sqrt(p_n) v_k on a photon-diagonal one. So the
solver tolerances act alike on every field.
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


def _live_pairs(blocks, rows):
    """The real pairs of the complex block rows ``rows`` (B, 2), of block
    numbers ``blocks``, that start nonzero, as (i, j, n, b): pair j of row
    i, the sorted numbers n of the blocks that hold one, and each pair's
    index b into n.

    Row (c_e, c_g) = (x_e + i y_e, x_g + i y_g) holds pair 0, (x_e, y_g),
    and pair 1, (x_g, y_e). A pair that starts at (0, 0) stays there, so
    only the live ones are followed, through one integrated pair per block
    in n; a solve of more than MAX_ORACLE_SAMPLES / _STAGES blocks is
    refused.
    """
    i, j = np.nonzero((rows.real != 0) | (rows.imag[:, ::-1] != 0))
    n, b = np.unique(blocks[i], return_inverse=True)
    count = _STAGES * n.size
    if count > MAX_ORACLE_SAMPLES:
        raise InvalidInputError(
            f"oracle needs {count} complex stage values, over the budget of "
            f"{MAX_ORACLE_SAMPLES}"
        )
    return i, j, n, b


def _check_solve(profile, t_grid, blocks, rows, rk4_step=None):
    """Check a solve of the complex block rows ``rows`` (B, 2), of block
    numbers ``blocks``, over ``t_grid`` before its first step; returns the
    grid and the rows' live pairs (``_live_pairs``), which
    ``_integrate_stack`` follows.

    The grid is checked as a time is (``_as_times``), and must be a
    non-empty 1-D array that starts at 0 and rises strictly. The stages
    must fit MAX_ORACLE_SAMPLES (``_live_pairs``), and the solve may take
    at most MAX_ORACLE_STEPS steps. RK4 with ``rk4_step`` takes exactly
    ceil(interval / rk4_step) per grid interval. DOP853 takes at least one
    per dop853.MAX_STEP of the span, and at least one per two radians of
    sqrt(n + 1) * integral |lambda| for the highest block n with a live
    pair, the integral a trapezoid of ``lambda_at`` on the grid.
    """
    grid = _as_times(profile, t_grid)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidInputError("t_grid must be a non-empty 1-D array")
    if grid[0] != 0.0:
        raise InvalidInputError("t_grid must start at 0")
    gaps = np.diff(grid)
    if not np.all(gaps > 0.0):
        raise InvalidInputError("t_grid must increase strictly")
    live = _live_pairs(blocks, rows)
    if rk4_step is None:
        from .dop853 import MAX_STEP

        top = np.max(live[2], initial=0)
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
    return grid, live


def _integrate_stack(rows, live, profile, grid, consume, rk4_step=None):
    """Evolve stacked block rows, handing their samples to ``consume``.

    Row i of the complex (B, 2) ``rows`` holds the (e, g) pair of its block
    n, obeying i (d/dt)(c_e, c_g) = lambda(t) sqrt(n+1) (c_g, c_e); ``grid``
    and ``live``, the rows' live pairs, are what ``_check_solve`` returned
    for them with the same ``rk4_step``. One real pair per block n that
    holds a live pair starts at (r_n, 0), r_n the norm of the block's live
    pairs, and these are stepped as one float vector, by DOP853, or with
    ``rk4_step`` set, by fixed-step RK4 subdividing each grid interval
    evenly into steps of at most that size. Each run of grid times
    start..stop-1 that fills a block of _BLOCK_ELEMENTS entries (one time at
    least; a time takes two per row, one per block and one per live pair),
    and the rest at the end, is checked finite; each live pair z0 = p0 + i q0
    of block n is then (z0 / r_n) (P_n + i Q_n), written into
    (stop - start, B, 2) complex samples, whose dead pairs stay 0, and
    handed to ``consume(start, samples)`` as soon as it is complete; its
    buffers are then reused.
    """
    i, j, n, b = live
    zr, zi = rows.real[i, j], rows.imag[i, 1 - j]
    # Each block's norm, summed by hypot: squares of the far tails of a
    # wide field underflow.
    r = np.zeros(n.size)
    np.hypot.at(r, b, zr)
    np.hypot.at(r, b, zi)
    wr, wi = zr / r[b], zi / r[b]
    y0 = np.zeros(2 * n.size)
    y0[0::2] = r
    coef = (np.sqrt(n + 1.0)[:, None] * [1.0, -1.0]).ravel()
    # Where each pair's p and q go in a time's (B, 2) complex samples viewed
    # as 4 B floats: pair (i, j) is (Re rows[i, j], Im rows[i, 1 - j]).
    p_places, q_places = 4 * i + 2 * j, 4 * i + 3 - 2 * j
    p_cols, q_cols = 2 * b, 2 * b + 1  # its block's P and Q in a sample
    per_time = 2 * len(rows) + n.size + i.size
    size = min(grid.size, max(1, _BLOCK_ELEMENTS // max(1, per_time)))
    buf = np.empty((size, y0.size))
    out = np.zeros((size, len(rows), 2), dtype=complex)
    floats = out.view(float).reshape(size, -1)
    terms = np.empty((2, size, i.size))
    first = 0  # grid index of buf[0]

    def spread(m, places, x, y, op):
        # op(wr x, wi y) for each live pair, x and y its block's P or Q
        # columns; float products, not a complex one, whose bits would
        # depend on the time block's length.
        u, v = terms[0, :m], terms[1, :m]
        np.take(buf[:m], x, axis=1, out=u)
        u *= wr
        np.take(buf[:m], y, axis=1, out=v)
        v *= wi
        op(u, v, out=u)
        floats[:m, places] = u

    def flush(stop):
        m = stop - first
        if not all_finite(buf[:m]):
            raise NumericalFailureError("reference integrator produced non-finite values")
        spread(m, p_places, p_cols, q_cols, np.subtract)
        spread(m, q_places, q_cols, p_cols, np.add)
        consume(first, out[:m])

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
    blocks, rows = np.array([n]), pair[None]
    grid, live = _check_solve(profile, t_grid, blocks, rows, rk4_step)
    out = np.empty((grid.size, 2), dtype=complex)

    def consume(start, samples):
        out[start : start + len(samples)] = samples[:, 0]

    _integrate_stack(rows, live, profile, grid, consume, rk4_step)
    return out


def _block_rows(e0, g0):
    """The block rows of S joint pure states, as (blocks, rows).

    Row s of the (S, n_max + 2) arrays e0 and g0 is laid out as
    ``_initial_amplitudes`` lays it out. Row s (n_max + 1) + n of the
    complex (S (n_max + 1), 2) ``rows`` is block n of state s, which pairs
    e0[s, n] with g0[s, n+1], and ``blocks`` holds its n. The dark
    amplitudes g0[:, 0] stay put and are in no block.
    """
    rows = np.stack([e0[:, :-1], g0[:, 1:]], axis=-1)
    blocks = np.broadcast_to(np.arange(rows.shape[1]), rows.shape[:2])
    return blocks.ravel(), rows.reshape(-1, 2)


def oracle_evolve_pure(
    atom: AtomState, field: PhotonDistribution, profile, t_grid
) -> JointPureState:
    """Numerically integrated counterpart of the closed-form pure evolution.

    Returns the batch form of JointPureState, one amplitude row per grid time.
    """
    if field.amplitudes is None:
        raise InvalidInputError("field is mixed; oracle_evolve_mixed handles it")
    e0, g0 = _initial_amplitudes(atom, field)
    blocks, rows = _block_rows(e0[None], g0[None])
    grid, live = _check_solve(profile, t_grid, blocks, rows)
    e = np.zeros((grid.size, e0.size), dtype=complex)
    g = np.zeros_like(e)
    g[:, 0] = g0[0]

    def consume(start, samples):
        stop = start + len(samples)
        e[start:stop, :-1] = samples[:, :, 0]
        g[start:stop, 1:] = samples[:, :, 1]

    _integrate_stack(rows, live, profile, grid, consume)
    return JointPureState(e, g, grid)


def oracle_rows(atom: AtomDensityMatrix, field: PhotonDistribution):
    """The joint pure states ``oracle_evolve_mixed`` integrates for an atom
    on a field, as (blocks, rows, dark): their block rows as
    ``_block_rows`` returns them, and their dark |g,0> amplitudes.

    Splits the atom into members v_k, rho = sum_k v_k v_k^dagger, the
    columns of its pivoted Cholesky factor: pivoting on the larger of
    rho_ee and rho_gg, say rho_ee = a, v_0 = (sqrt(a), conj(rho_eg) /
    sqrt(a)) and v_1 = (0, sqrt(s)), s = rho_gg - |rho_eg|^2 / a, clamped at
    0 and dropped under _MEMBER_FLOOR. Any such split gives the same
    reduced dynamics. On a pure field member k is one joint pure state
    v_k (x) C, state k. On a photon-diagonal field member k splits into two:
    its |e> part, sqrt(p_n) v_k,e on |e,n>, state 2k, and its |g> part,
    sqrt(p_n) v_k,g on |g,n>, state 2k + 1. ``_check_solve`` on the rows
    checks the solve's budgets, so a caller can refuse a case before
    anything runs.
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
    pure = field.amplitudes is not None
    stride = 1 if pure else 2  # states per member: one joint state, or e and g
    amp = field.amplitudes if pure else np.sqrt(field.weights)
    e0 = np.zeros((stride * len(v), field.n_max + 2), dtype=complex)
    g0 = e0.copy()
    e0[0::stride, :-1] = v[:, 0, None] * amp
    g0[stride - 1 :: stride, :-1] = v[:, 1, None] * amp
    return _block_rows(e0, g0) + (g0[:, 0],)


def oracle_evolve_mixed(
    atom: AtomDensityMatrix, field: PhotonDistribution, profile, t_grid
) -> AtomDensityMatrix:
    """Numerically integrated counterpart of ``evolve_mixed``, for any field.

    Integrates the joint pure states of ``oracle_rows``. On a pure field
    their photon sectors are coherent, so the coherence pairs each state
    with itself. On a photon-diagonal field photon sector n keeps the |e>
    part in block n and the |g> part in block n - 1, so the populations are
    sums of squared amplitudes and the coherence pairs the |e> part's e_n
    with the |g> part's g_n. These sums are read straight off the solver's
    rows, one time block at a time as the solver completes it, without
    building the joint states or keeping the samples. Returns the batch form
    of AtomDensityMatrix, one row per grid time.
    """
    blocks, rows, dark = oracle_rows(atom, field)
    grid, live = _check_solve(profile, t_grid, blocks, rows)
    stride = 1 if field.amplitudes is not None else 2
    # rho_eg pairs e_n of state s, s % stride == 0, with g_n of state
    # s + stride - 1: block n's e with block n - 1's g, and for n = 0 the
    # dark g_0.
    g_dark = dark[stride - 1 :: stride].conj()
    dark_gg = np.sum(np.abs(dark) ** 2)
    ee = np.empty(grid.size)
    gg = np.empty(grid.size)
    eg = np.empty(grid.size, dtype=complex)

    def reduce(start, block):
        stop = start + len(block)
        sq = np.sum(np.abs(block) ** 2, axis=1)
        ee[start:stop] = sq[:, 0]
        gg[start:stop] = sq[:, 1] + dark_gg
        states = block.reshape(len(block), dark.size, -1, 2)
        e = states[:, 0::stride, :, 0]
        g = states[:, stride - 1 :: stride, :-1, 1]
        eg[start:stop] = np.sum(e[:, :, 1:] * g.conj(), axis=(1, 2))
        eg[start:stop] += e[:, :, 0] @ g_dark

    _integrate_stack(rows, live, profile, grid, reduce)
    # Condition on the retained sectors exactly as evolve_mixed does, so
    # comparisons measure dynamics error rather than the truncation deficit.
    return AtomDensityMatrix.conditioned(ee, gg, eg)
