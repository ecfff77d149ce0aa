"""Brute-force trajectory validator.

Integrates the bare-basis Schrodinger equation block by block with a
general-purpose ODE solver, the DOP853 of ``jcdyn.dop853`` at its fixed
settings (or, in ``integrate_block``, fixed-step RK4), sampling lambda(t)
pointwise at every stage. The integrator never sees the coupling area, so
agreement with the closed-form path validates the area-based solution end
to end. Block n's amplitudes obey i (d/dt)(c_e, c_g) = lambda(t) k
(c_g, c_e), k = sqrt(n+1), so the block turns by one angle theta_n
whatever it starts from. The solver finds that angle from one real pair
(P, Q) per photon block, P' = k lambda Q and Q' = -k lambda P, started at
(r, 0) with r the block's norm: (P, Q) = r (cos theta_n, -sin theta_n).
Every block starts at its physical amplitude, for atom member v_k
(rho = sum_k v_k v_k^dagger): v_k C_n on a pure field, sqrt(p_n) v_k on a
photon-diagonal one, so the solver's tolerances act alike on every field;
a block that starts at 0 in every member is not integrated. The pairs are
stacked into one flat real state vector, so the solver is called once per
trajectory, and its samples come back in time blocks of one reused
buffer. Each time block leaves as the cosines and sines (P, -Q) /
hypot(P, Q) of the block angles, exactly (1, 0) for the dark |g,0> and
for every block not integrated, and goes to the closed form's own code:
``oracle_evolve_mixed`` adds the closed form's term table to the reduced
atom (``dynamics._term_table`` and ``_add_terms``), and
``oracle_evolve_pure`` and ``integrate_block`` turn the start amplitudes
(``dynamics._rotate``). Each holds the solver's working set and one time
block, whatever the number of grid times. So ``compare`` checks the block
angles, which the closed form takes from the coupling area, and not the
term table's weights; the joint-state identities of
tests/test_properties.py and the batched-run checks of tests/test_batch.py
hold those.
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
    _add_terms,
    _initial_amplitudes,
    _rotate,
    _term_table,
)
from .errors import InvalidInputError, NumericalFailureError, all_finite, as_numbers
from .fields import PhotonDistribution

# Weight below which the atom's second member is dropped.
_MEMBER_FLOOR = 1e-15

# Most complex values one solve's stage vectors may hold: DOP853 keeps
# _STAGES vectors of the integrated pairs, one per live photon block, and a
# pair's 2 floats take the bytes of one complex value, so a pair counts as
# 1; 256 MiB at 2^24.
# The samples do not count: they arrive in time blocks, which leave as the
# block angles' cosines and sines.
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


def _start(e, g):
    """Where the solver starts for the (member, block) start amplitudes
    ``e`` and ``g``; returns (live, r).

    ``live`` holds the columns of the blocks in which some member starts
    nonzero, in order, and ``r`` each such block's norm over all members.
    A solve of more than MAX_ORACLE_SAMPLES / _STAGES blocks is refused.
    """
    # Each block's norm by hypot, as squares of a wide field's far tails
    # underflow, over every member's (Re e, Re g), then (Im g, Im e); a
    # part that starts at 0 adds hypot(r, 0) = r.
    r = np.zeros(e.shape[1])
    for parts in (*zip(e.real, g.real), *zip(g.imag, e.imag)):
        for x in parts:
            np.hypot(r, x, out=r)
    live = np.flatnonzero(r)
    count = _STAGES * live.size
    if count > MAX_ORACLE_SAMPLES:
        raise InvalidInputError(
            f"oracle needs {count} complex stage values, over the budget of "
            f"{MAX_ORACLE_SAMPLES}"
        )
    return live, r[live]


def _check_solve(profile, t_grid, e, g, rk4_step=None, first=0):
    """Check a solve of the (member, block) start amplitudes ``e`` and
    ``g``, block b the photon block first + b, over ``t_grid`` before its
    first step; returns the grid and the solver's start (``_start``).

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
    start = _start(e, g)
    if rk4_step is None:
        from .dop853 import MAX_STEP

        top = np.max(start[0] + first, initial=0)
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


def _integrate_stack(live, r, blocks, profile, grid, consume, rk4_step=None, first=0):
    """Evolve one real pair per live photon block, handing its angles to
    ``consume``.

    Block first + live[j]'s pair obeys (P, Q)' = lambda(t) sqrt(n+1) (Q, -P)
    from (r[j], 0), ``live`` and ``r`` as ``_check_solve`` gave them, so it
    is r (cos theta, -sin theta) for the block's angle theta. The pairs are
    stepped as one float vector, by DOP853, or with ``rk4_step`` set, by
    fixed-step RK4 subdividing each grid interval evenly into steps of at
    most that size. Each run of grid times start..stop-1 that fills a block
    of _BLOCK_ELEMENTS entries (one time at least), and the rest at the
    end, is checked finite and handed to ``consume(start, c, s)`` as soon
    as it is complete: c and s are (stop - start, 1 + blocks) views of two
    reused buffers, (P, -Q) / hypot(P, Q) in column 1 + live[j], and
    exactly (1, 0) in column 0 and in every block that is not live.
    """
    y0 = np.zeros(2 * live.size)
    y0[0::2] = r
    coef = (np.sqrt(live + first + 1.0)[:, None] * [1.0, -1.0]).ravel()
    # A time takes four of the _BLOCK_ELEMENTS entries per pair: its samples
    # (two floats, the bytes of one complex value), its cosine and sine
    # (as much again), their hypot and a quotient (one float each), and
    # the consumer's products and rotations.
    size = min(grid.size, max(1, _BLOCK_ELEMENTS // max(1, 4 * live.size)))
    buf = np.empty((size, y0.size))
    norm = np.empty((size, live.size))
    cos = np.ones((size, 1 + blocks))
    sin = np.zeros_like(cos)
    columns = 1 + live
    done = 0  # grid index of buf[0]

    def flush(stop):
        m = stop - done
        if not all_finite(buf[:m]):
            raise NumericalFailureError("reference integrator produced non-finite values")
        big_p, big_q = buf[:m, 0::2], buf[:m, 1::2]
        h = np.hypot(big_p, big_q, out=norm[:m])
        cos[:m, columns] = big_p / h
        sin[:m, columns] = big_q / np.negative(h, out=h)
        consume(done, cos[:m], sin[:m])

    def sink(start, stop):
        nonlocal done
        if start == done + size:
            flush(start)
            done = start
        return buf[start - done : min(stop, done + size) - done]

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
    e0, g0 = pair[:1], pair[1:]
    grid, start = _check_solve(profile, t_grid, e0[None], g0[None], rk4_step, n)
    out = np.zeros((grid.size, 2), dtype=complex)

    def write(i, c, s):
        stop = i + len(c)
        _rotate(e0, g0, c[:, 1:], s[:, 1:], out[i:stop, :1], out[i:stop, 1:])

    _integrate_stack(*start, 1, profile, grid, write, rk4_step, n)
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
    grid, start = _check_solve(profile, t_grid, e0[None, :-1], g0[None, 1:])
    e = np.zeros((grid.size, e0.size), dtype=complex)
    g = np.zeros_like(e)
    g[:, 0] = g0[0]

    def write(i, c, s):
        stop = i + len(c)
        _rotate(e0[:-1], g0[1:], c[:, 1:], s[:, 1:], e[i:stop, :-1], g[i:stop, 1:])

    _integrate_stack(*start, field.n_max + 1, profile, grid, write)
    return JointPureState(e, g, grid)


def _members(atom: AtomDensityMatrix):
    """The atom's members v_k, rho = sum_k v_k v_k^dagger, as a complex
    (member, 2) array of their (|e>, |g>) amplitudes.

    They are the columns of its pivoted Cholesky factor: pivoting on the
    larger of rho_ee and rho_gg, say rho_ee = a, v_0 = (sqrt(a),
    conj(rho_eg) / sqrt(a)) and v_1 = (0, sqrt(s)), s = rho_gg -
    |rho_eg|^2 / a, clamped at 0 and dropped under _MEMBER_FLOOR. Any such
    split gives the same reduced dynamics.
    """
    ee, gg, eg = float(atom.rho_ee), float(atom.rho_gg), complex(atom.rho_eg)
    swap = gg > ee  # pivot on |g>: factor in the (g, e) basis
    a, d, c = (gg, ee, eg.conjugate()) if swap else (ee, gg, eg)
    top = math.sqrt(a)
    residue = max(d - abs(c) ** 2 / a, 0.0)
    members = [(top, c.conjugate() / top)]
    if residue > _MEMBER_FLOOR:
        members.append((0.0, math.sqrt(residue)))
    return np.array(members, dtype=complex)[:, ::-1 if swap else 1]


def oracle_rows(atom: AtomDensityMatrix, field: PhotonDistribution):
    """Where ``oracle_evolve_mixed`` starts each photon block for an atom on
    a field, as the complex (member, block) arrays (e, g): e[k, n] =
    v_k,e A_n and g[k, n] = v_k,g A_(n+1), 0 past the cutoff, for the atom's
    members v_k (``_members``) and the field's amplitudes A, C_n on a pure
    field and sqrt(p_n) on a photon-diagonal one. So every block starts at
    its physical norm, and the solver's tolerances act alike on every
    field. ``_check_solve`` on them checks the solve's budgets, so a caller
    can refuse a case before anything runs.
    """
    v = _members(atom)
    amp = field.amplitudes if field.amplitudes is not None else np.sqrt(field.weights)
    e = v[:, :1] * amp
    g = np.zeros_like(e)
    g[:, :-1] = v[:, 1:] * amp[1:]
    return e, g


def oracle_evolve_mixed(
    atom: AtomDensityMatrix, field: PhotonDistribution, profile, t_grid
) -> AtomDensityMatrix:
    """Numerically integrated counterpart of ``evolve_mixed``, for any field.

    Integrates one pair per photon block from ``oracle_rows``'s start, and
    hands each time block's angles, as cosines and sines, to the closed
    form's own term table (``dynamics._term_table`` and ``_add_terms``),
    one time block at a time as the solver completes it, without building
    the joint states or keeping the samples. Returns the batch form of
    AtomDensityMatrix, one row per grid time.
    """
    grid, start = _check_solve(profile, t_grid, *oracle_rows(atom, field))
    ee, eg, trace, kept = _term_table(atom, field, grid.size)
    blocks = field.weights.size

    def reduce(i, c, s):
        _add_terms(kept, i, c, s, np.empty((len(c), blocks)))

    _integrate_stack(*start, blocks, profile, grid, reduce)
    # Condition on the retained sectors exactly as evolve_mixed does, so
    # comparisons measure dynamics error rather than the truncation deficit.
    return AtomDensityMatrix.conditioned(ee, trace - ee, eg)
