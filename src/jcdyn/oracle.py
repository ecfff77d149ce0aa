"""Brute-force trajectory validator.

Integrates the bare-basis Schrodinger equation block by block with a
general-purpose ODE solver, the DOP853 of ``jcdyn.dop853`` at its fixed
settings (or, in ``integrate_block``, fixed-step RK4), sampling lambda(t)
pointwise at every stage.
The integrator never sees the coupling area, so agreement with the
closed-form path validates the area-based solution end to end. All blocks
of a run are stacked into one flat state vector so the solver is called
once per trajectory, and its samples come back in time blocks through
one reused buffer. ``oracle_evolve_mixed`` takes any atom on any field,
as ``evolve_mixed`` does, and returns the reduced atom, summed in time
blocks as the solver hands the samples over, so that it holds the solver's
working set and one time block, whatever the number of grid times.
``oracle_evolve_pure`` returns the joint state of a pure atom on a pure
field, copying each time block into it. Both evolve joint pure states
through one helper, and every block starts at its physical amplitude, for
atom eigen-member k of weight w_k: sqrt(w_k) phi_k C_n on a pure field,
sqrt(w_k p_n) phi_k on a photon-diagonal one. So the solver tolerances
act alike on every field.
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
from .errors import InvalidInputError, NumericalFailureError, as_numbers
from .fields import PhotonDistribution

_EIGENWEIGHT_FLOOR = 1e-15

# Most complex values one solve's stage vectors may hold: DOP853 keeps
# _STAGES vectors of 2 values per integrated row, 256 MiB at 2^24 values.
# The samples do not count: they arrive in time blocks, which the mixed
# oracle reduces and the other entries copy into their return value.
MAX_ORACLE_SAMPLES = 2**24
_STAGES = 16  # jcdyn.dop853.C.size, written out so the budget loads no solver

# Most steps one solve may take, counted before the first: DOP853 takes at
# least one per dop853.MAX_STEP of the span, RK4 exactly its steps.
MAX_ORACLE_STEPS = 2**20


def solve_ivp(fun, t_span, y0, **options):
    """``jcdyn.dop853.solve_ivp``, imported on first use, so that a run
    without the oracle never loads the integrator. The samples go to the
    ``sink`` keyword; returns ``.nfev``, ``.success`` and ``.message``."""
    from .dop853 import solve_ivp

    return solve_ivp(fun, t_span, y0, **options)


def _check_grid(profile, t_grid):
    """A grid is checked as a time is (``_as_times``), and must be a
    non-empty 1-D array that starts at 0 and rises strictly."""
    grid = _as_times(profile, t_grid)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidInputError("t_grid must be a non-empty 1-D array")
    if grid[0] != 0.0:
        raise InvalidInputError("t_grid must start at 0")
    if not np.all(np.diff(grid) > 0.0):
        raise InvalidInputError("t_grid must increase strictly")
    return grid


def _integrate_stack(blocks, y0, profile, grid, consume, rk4_step=None):
    """Evolve stacked 2-level blocks, handing their samples to ``consume``.

    Row i holds the (e, g) pair of block ``blocks[i]``, obeying
    i (d/dt)(c_e, c_g) = lambda(t) sqrt(n+1) (c_g, c_e), on a ``grid``
    already checked by ``_check_grid``. DOP853 steps it, or with
    ``rk4_step`` set, fixed-step RK4 subdividing each grid interval evenly
    into steps of at most that size. Each run of grid times start..stop-1
    that fills a block of _BLOCK_ELEMENTS entries (one time at least), and
    the rest at the end, goes to ``consume(start, samples)`` as
    (stop - start, B, 2) complex samples as soon as it is complete, and the
    block's buffer is then reused. Samples are checked finite block by
    block, before ``consume`` sees them.
    """
    y0 = np.asarray(y0, dtype=complex).reshape(-1)
    size = min(grid.size, max(1, _BLOCK_ELEMENTS // max(1, y0.size)))
    buf = np.empty((size, y0.size), dtype=complex)
    first = 0  # grid index of buf[0]

    def flush(stop):
        block = buf[: stop - first].reshape(stop - first, -1, 2)
        # A NaN or inf anywhere makes the sum non-finite, with no mask allocated.
        if not math.isfinite(np.sum(block.view(float))):
            raise NumericalFailureError("reference integrator produced non-finite values")
        consume(first, block)

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
        _integrate_nonzero(blocks, y0, profile, grid, rk4_step, sink)
    flush(grid.size)


def _integrate_nonzero(blocks, y0, profile, grid, rk4_step, sink):
    """Step ``_integrate_stack``'s blocks over a grid that ends after 0,
    writing the samples through ``sink`` as ``dop853.solve_ivp`` does.
    Refuses a solve that would take more than MAX_ORACLE_STEPS steps before
    the first."""
    t_end = float(grid[-1])
    if rk4_step is None:
        from .dop853 import MAX_STEP

        steps = np.ceil(t_end / MAX_STEP)
    else:
        with np.errstate(over="ignore"):
            steps = np.sum(np.maximum(1.0, np.ceil(np.diff(grid) / rk4_step)))
    if steps > MAX_ORACLE_STEPS:
        raise InvalidInputError(
            f"oracle needs {steps:.7g} steps, over the budget of {MAX_ORACLE_STEPS}"
        )
    coef = -1j * np.sqrt(np.asarray(blocks, dtype=float) + 1.0)
    # Validate the profile on the whole span once; each stage then calls
    # profile.rate unchecked.
    lambda_at(profile, np.array([0.0, t_end]))

    def lam(t):
        # Solver stages can round a hair outside [0, t_end]; clamp so
        # tabulated profiles stay in range.
        return float(profile.rate(min(max(float(t), 0.0), t_end)))

    pair_coef = np.repeat(coef, 2).reshape(-1, 2)

    def rhs(t, y):
        return (pair_coef * y.reshape(-1, 2)[:, ::-1]).ravel() * lam(t)

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
    grid = _check_grid(profile, t_grid)
    out = np.empty((grid.size, 2), dtype=complex)

    def consume(start, samples):
        out[start : start + len(samples)] = samples[:, 0]

    _integrate_stack([n], pair, profile, grid, consume, rk4_step)
    return out


def _nonzero_blocks(e0, g0):
    """The blocks (s[r], n[r]) of S joint pure states that start nonzero.

    Row s of the (S, n_max + 2) arrays e0 and g0 is laid out as
    ``_initial_amplitudes`` lays it out: block n pairs e0[s, n] with
    g0[s, n+1], and the dark amplitude g0[s, 0] stays put. A block that
    starts at zero stays zero, so only these blocks are integrated, as the
    rows of one solve; one whose stages would pass MAX_ORACLE_SAMPLES is
    refused.
    """
    s, n = np.nonzero((e0[:, :-1] != 0) | (g0[:, 1:] != 0))
    count = _STAGES * 2 * s.size
    if count > MAX_ORACLE_SAMPLES:
        raise InvalidInputError(
            f"oracle needs {count} complex stage values, over the budget of "
            f"{MAX_ORACLE_SAMPLES}"
        )
    return s, n


def oracle_evolve_pure(
    atom: AtomState, field: PhotonDistribution, profile, t_grid
) -> JointPureState:
    """Numerically integrated counterpart of the closed-form pure evolution.

    Returns the batch form of JointPureState, one amplitude row per grid time.
    """
    if field.amplitudes is None:
        raise InvalidInputError("field is mixed; oracle_evolve_mixed handles it")
    grid = _check_grid(profile, t_grid)
    e0, g0 = _initial_amplitudes(atom, field)
    _, n = _nonzero_blocks(e0[None], g0[None])
    e = np.zeros((grid.size, e0.size), dtype=complex)
    g = np.zeros_like(e)
    g[:, 0] = g0[0]

    def consume(start, samples):
        stop = start + len(samples)
        e[start:stop, n] = samples[:, :, 0]
        g[start:stop, n + 1] = samples[:, :, 1]

    _integrate_stack(n, np.stack([e0[n], g0[n + 1]], axis=1), profile, grid, consume)
    return JointPureState(e, g, grid)


def oracle_rows(atom: AtomDensityMatrix, field: PhotonDistribution):
    """The joint pure states ``oracle_evolve_mixed`` integrates for an atom
    on a field, as (e0, g0, s, n) of ``_nonzero_blocks``.

    Diagonalizes the atomic state into members w_k phi_k. On a pure field
    member k is one joint pure state sqrt(w_k) phi_k (x) C, row k. On a
    photon-diagonal field member k splits into two: its |e> part,
    sqrt(w_k p_n) phi_k,e on |e,n>, row 2k, and its |g> part,
    sqrt(w_k p_n) phi_k,g on |g,n>, row 2k + 1. Raises InvalidInputError
    when the solve would pass the oracle's budget, so a caller can refuse a
    case before anything runs.
    """
    vals, vecs = np.linalg.eigh(atom.as_matrix())
    if vals[0] < -1e-10:
        raise InvalidInputError("atom state has a negative eigenvalue")
    keep = vals > _EIGENWEIGHT_FLOOR
    pure = field.amplitudes is not None
    stride = 1 if pure else 2  # rows per member: one joint state, or e and g parts
    amp = np.sqrt(vals[keep])[:, None] * (
        field.amplitudes if pure else np.sqrt(field.weights)
    )
    e0 = np.zeros((stride * amp.shape[0], field.n_max + 2), dtype=complex)
    g0 = e0.copy()
    e0[0::stride, :-1] = vecs[0, keep][:, None] * amp
    g0[stride - 1 :: stride, :-1] = vecs[1, keep][:, None] * amp
    return (e0, g0) + _nonzero_blocks(e0, g0)


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
    grid = _check_grid(profile, t_grid)
    e0, g0, s, n = oracle_rows(atom, field)
    stride = 1 if field.amplitudes is not None else 2
    # rho_eg pairs row (s, n) of an |e> part, s % stride == 0, with row
    # (s + stride - 1, n - 1) of its |g> part, which holds g[n]; for n = 0 the
    # column index -1 finds no row and the dark g0[s + stride - 1, 0] stands in.
    row = np.full(e0.shape, -1)
    row[s, n] = np.arange(s.size)
    e_rows = np.flatnonzero(s % stride == 0)
    g_of = s[e_rows] + stride - 1
    partner = row[g_of, n[e_rows] - 1]
    paired = partner >= 0
    r_e, r_g = e_rows[paired], partner[paired]
    at_zero = n[e_rows] == 0
    r_dark, g_dark = e_rows[at_zero], g0[g_of[at_zero], 0].conj()
    dark_gg = np.sum(np.abs(g0[:, 0]) ** 2)
    ee = np.empty(grid.size)
    gg = np.empty(grid.size)
    eg = np.empty(grid.size, dtype=complex)

    def reduce(start, block):
        stop = start + len(block)
        sq = np.sum(np.abs(block) ** 2, axis=1)
        ee[start:stop] = sq[:, 0]
        gg[start:stop] = sq[:, 1] + dark_gg
        eg[start:stop] = np.sum(block[:, r_e, 0] * block[:, r_g, 1].conj(), axis=1)
        eg[start:stop] += block[:, r_dark, 0] @ g_dark

    y0 = np.stack([e0[s, n], g0[s, n + 1]], axis=1)
    _integrate_stack(n, y0, profile, grid, reduce)
    # Condition on the retained sectors exactly as evolve_mixed does, so
    # comparisons measure dynamics error rather than the truncation deficit.
    return AtomDensityMatrix.conditioned(ee, gg, eg)
