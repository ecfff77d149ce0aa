"""Brute-force trajectory validator.

Integrates the bare-basis Schrodinger equation block by block with a
general-purpose ODE solver, the DOP853 of ``jcdyn.dop853`` at fixed
settings (or, in ``integrate_block``, fixed-step RK4), sampling lambda(t)
pointwise at every stage.
The integrator never sees the coupling area, so agreement with the
closed-form path validates the area-based solution end to end. All blocks
of a run are stacked into one flat state vector so the solver is called
once per trajectory. ``oracle_evolve_mixed`` takes any atom on any field,
as ``evolve_mixed`` does, and returns the reduced atom;
``oracle_evolve_pure`` returns the joint state of a pure atom on a pure
field. Both evolve joint pure states through one helper, and every block
starts at its physical amplitude, for atom eigen-member k of weight w_k:
sqrt(w_k) phi_k C_n on a pure field, sqrt(w_k p_n) phi_k on a
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
from .errors import InvalidInputError, NumericalFailureError, as_numbers
from .fields import PhotonDistribution

_EIGENWEIGHT_FLOOR = 1e-15

# Most complex samples (times x 2 x integrated rows) one solve may hold:
# 2^24, 256 MiB, and a solve holds about one copy at its peak.
MAX_ORACLE_SAMPLES = 2**24

# DOP853 settings of every reference solve. They are fixed: the oracle is
# one reference for the closed form, not a solver to tune.
_RTOL = 1e-10
_ATOL = 1e-12
_MAX_STEP = 0.1


def solve_ivp(fun, t_span, y0, **options):
    """``jcdyn.dop853.solve_ivp``, imported on first use, so that a run
    without the oracle never loads the integrator. Takes scipy's
    ``solve_ivp`` call shape and returns ``.y``, ``.nfev``, ``.success``
    and ``.message``."""
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


def _integrate_stack(blocks, y0, profile, grid, rk4_step=None):
    """Evolve stacked 2-level blocks; returns (T, B, 2) complex samples.

    Row i holds the (e, g) pair of block ``blocks[i]``, obeying
    i (d/dt)(c_e, c_g) = lambda(t) sqrt(n+1) (c_g, c_e), on a ``grid``
    already checked by ``_check_grid``. DOP853 steps it, or with
    ``rk4_step`` set, fixed-step RK4 subdividing each grid interval evenly
    into steps of at most that size.
    """
    y0 = np.asarray(y0, dtype=complex).reshape(-1, 2)
    t_end = float(grid[-1])
    if y0.shape[0] == 0 or t_end == 0.0:
        return np.broadcast_to(y0, (grid.size,) + y0.shape).copy()
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
        sol = solve_ivp(
            rhs,
            (0.0, t_end),
            y0.ravel(),
            method="DOP853",
            t_eval=grid,
            rtol=_RTOL,
            atol=_ATOL,
            max_step=_MAX_STEP,
        )
        if not sol.success:
            raise NumericalFailureError(f"reference integrator failed: {sol.message}")
        out = sol.y.T
    else:
        out = np.empty((grid.size, y0.size), dtype=complex)
        y = out[0] = y0.ravel()
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
            out[i] = y
    out = np.ascontiguousarray(out).reshape(grid.size, -1, 2)
    # A NaN or inf anywhere makes the sum non-finite, with no mask allocated.
    if not math.isfinite(np.sum(out.view(float))):
        raise NumericalFailureError("reference integrator produced non-finite values")
    return out


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
    return _integrate_stack([n], pair[None, :], profile, grid, rk4_step)[:, 0, :]


def _integrate_rows(e0, g0, profile, grid):
    """Evolve S joint pure states in one solver call; returns (s, n, samples).

    Row s of the (S, n_max + 2) arrays e0 and g0 is laid out as
    ``_initial_amplitudes`` lays it out: block n pairs e0[s, n] with
    g0[s, n+1], and the dark amplitude g0[s, 0] stays put. A block that
    starts at zero stays zero, so only the blocks (s[r], n[r]) that start
    nonzero are integrated; samples[:, r] is their (e_s[n], g_s[n+1]).
    """
    s, n = np.nonzero((e0[:, :-1] != 0) | (g0[:, 1:] != 0))
    count = grid.size * 2 * s.size
    if count > MAX_ORACLE_SAMPLES:
        raise InvalidInputError(
            f"oracle needs {count} samples, over the budget of {MAX_ORACLE_SAMPLES}"
        )
    samples = _integrate_stack(
        n, np.stack([e0[s, n], g0[s, n + 1]], axis=1), profile, grid
    )
    return s, n, samples


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
    _, n, samples = _integrate_rows(e0[None], g0[None], profile, grid)
    e = np.zeros((grid.size, e0.size), dtype=complex)
    g = np.zeros_like(e)
    e[:, n] = samples[:, :, 0]
    g[:, n + 1] = samples[:, :, 1]
    g[:, 0] = g0[0]
    return JointPureState(e, g, grid)


def oracle_evolve_mixed(
    atom: AtomDensityMatrix, field: PhotonDistribution, profile, t_grid
) -> AtomDensityMatrix:
    """Numerically integrated counterpart of ``evolve_mixed``, for any field.

    Diagonalizes the atomic state into members w_k phi_k. On a pure field
    member k is one joint pure state sqrt(w_k) phi_k (x) C, whose photon
    sectors are coherent, so the coherence pairs each state with itself. On
    a photon-diagonal field member k splits into two joint pure states: its
    |e> part, sqrt(w_k p_n) phi_k,e on |e,n>, and its |g> part,
    sqrt(w_k p_n) phi_k,g on |g,n>. Photon sector n keeps the |e> part in
    block n and the |g> part in block n - 1, so the populations are sums of
    squared amplitudes and the coherence pairs the |e> part's e_n with the
    |g> part's g_n. These sums are read straight off the solver's rows, in
    time blocks, without building the joint states. Returns the batch form
    of AtomDensityMatrix, one row per grid time.
    """
    grid = _check_grid(profile, t_grid)
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
    s, n, samples = _integrate_rows(e0, g0, profile, grid)
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
    # Time blocks bound the temporaries as the closed-form kernel's are bound.
    step = max(1, _BLOCK_ELEMENTS // max(1, samples[0].size))
    for i in range(0, grid.size, step):
        block = samples[i : i + step]
        sq = np.sum(np.abs(block) ** 2, axis=1)
        ee[i : i + step] = sq[:, 0]
        gg[i : i + step] = sq[:, 1] + dark_gg
        eg[i : i + step] = np.sum(block[:, r_e, 0] * block[:, r_g, 1].conj(), axis=1)
        eg[i : i + step] += block[:, r_dark, 0] @ g_dark
    # Condition on the retained sectors exactly as evolve_mixed does, so
    # comparisons measure dynamics error rather than the truncation deficit.
    return AtomDensityMatrix.conditioned(ee, gg, eg)
