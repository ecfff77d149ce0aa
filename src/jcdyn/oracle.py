"""Brute-force trajectory validator.

Integrates the bare-basis Schrodinger equation block by block with a
general-purpose ODE solver, the DOP853 of ``jcdyn.dop853`` (or fixed-step
RK4), sampling lambda(t) pointwise at every stage.
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
from dataclasses import dataclass

import numpy as np

from .coupling import _rate, lambda_at
from .dynamics import (
    AtomDensityMatrix,
    AtomState,
    JointPureState,
    _initial_amplitudes,
)
from .errors import InvalidInputError, NumericalFailureError
from .fields import PhotonDistribution

ADAPTIVE = "adaptive"
RK4 = "rk4"

_EIGENWEIGHT_FLOOR = 1e-15

# Most complex samples (times x 2 x integrated rows) one solve may hold:
# 2^24, 256 MiB per copy, of which a solve holds about two at its peak.
MAX_ORACLE_SAMPLES = 2**24


# The adaptive step cannot resolve a relative tolerance finer than 100 eps.
REL_TOL_FLOOR = 100 * np.finfo(float).eps


def _is_real(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings for the reference integrator.

    ``max_step`` caps the adaptive step; the fixed-step rk4 method uses it
    as its step size outright, subdividing grid intervals evenly.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 0.1
    method: str = ADAPTIVE

    def __post_init__(self):
        if not (_is_real(self.rel_tol) and REL_TOL_FLOOR <= self.rel_tol <= 1e-3):
            raise InvalidInputError(f"rel_tol must lie in [{REL_TOL_FLOOR:.3g}, 1e-3]")
        if not (_is_real(self.abs_tol) and 0.0 < self.abs_tol <= 1e-3):
            raise InvalidInputError("abs_tol must lie in (0, 1e-3]")
        if not (
            _is_real(self.max_step)
            and math.isfinite(self.max_step)
            and self.max_step > 0.0
        ):
            raise InvalidInputError("max_step must be finite and positive")
        if self.method not in (ADAPTIVE, RK4):
            raise InvalidInputError(f"method must be {ADAPTIVE!r} or {RK4!r}")


DEFAULT_CONFIG = IntegratorConfig()


def solve_ivp(fun, t_span, y0, **options):
    """``jcdyn.dop853.solve_ivp``, imported on first use, so that a run
    without the oracle never loads the integrator. Takes scipy's
    ``solve_ivp`` call shape and returns ``.y``, ``.nfev``, ``.success``
    and ``.message``."""
    from .dop853 import solve_ivp

    return solve_ivp(fun, t_span, y0, **options)


def _check_grid(t_grid):
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidInputError("t_grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(grid)):
        raise InvalidInputError("t_grid must be finite")
    if grid[0] != 0.0:
        raise InvalidInputError("t_grid must start at 0")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise InvalidInputError("t_grid must increase strictly")
    return grid


def _integrate_stack(blocks, y0, profile, t_grid, cfg):
    """Evolve stacked 2-level blocks; returns (T, B, 2) complex samples.

    Row i holds the (e, g) pair of block ``blocks[i]``, obeying
    i (d/dt)(c_e, c_g) = lambda(t) sqrt(n+1) (c_g, c_e).
    """
    grid = _check_grid(t_grid)
    y0 = np.asarray(y0, dtype=complex).reshape(-1, 2)
    t_end = float(grid[-1])
    if y0.shape[0] == 0 or t_end == 0.0:
        return np.broadcast_to(y0, (grid.size,) + y0.shape).copy()
    coef = -1j * np.sqrt(np.asarray(blocks, dtype=float) + 1.0)
    # Validate the profile on the whole span once; each stage then evaluates
    # the same rate expressions unchecked.
    lambda_at(profile, np.array([0.0, t_end]))

    def lam(t):
        # Solver stages can round a hair outside [0, t_end]; clamp so
        # tabulated profiles stay in range.
        return float(_rate(profile, min(max(float(t), 0.0), t_end)))

    pair_coef = np.repeat(coef, 2).reshape(-1, 2)

    def rhs(t, y):
        return (pair_coef * y.reshape(-1, 2)[:, ::-1]).ravel() * lam(t)

    if cfg.method == ADAPTIVE:
        sol = solve_ivp(
            rhs,
            (0.0, t_end),
            y0.ravel(),
            method="DOP853",
            t_eval=grid,
            rtol=cfg.rel_tol,
            atol=cfg.abs_tol,
            max_step=cfg.max_step,
        )
        if not sol.success:
            raise NumericalFailureError(f"reference integrator failed: {sol.message}")
        out = sol.y.T
    else:
        out = np.empty((grid.size, y0.size), dtype=complex)
        y = out[0] = y0.ravel()
        for i in range(1, grid.size):
            t0, t1 = grid[i - 1], grid[i]
            m = max(1, math.ceil((t1 - t0) / cfg.max_step))
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
    if not np.all(np.isfinite(out.view(float))):
        raise NumericalFailureError("reference integrator produced non-finite values")
    return out


def integrate_block(n, initial, profile, t_grid, config=DEFAULT_CONFIG):
    """Trajectory of one (|e,n>, |g,n+1>) pair; returns a (T, 2) array."""
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0):
        raise InvalidInputError("n must be a non-negative integer")
    pair = np.asarray(initial, dtype=complex)
    if pair.shape != (2,):
        raise InvalidInputError("initial must be a pair of amplitudes")
    if not np.all(np.isfinite(pair.view(float))):
        raise InvalidInputError("initial amplitudes must be finite")
    return _integrate_stack([n], pair[None, :], profile, t_grid, config)[:, 0, :]


def _evolve_joint(e0, g0, profile, grid, config):
    """Evolve S joint pure states in one solver call; returns (e, g), each
    of shape (T, S, n_max + 2).

    Row s of the (S, n_max + 2) arrays e0 and g0 is laid out as
    ``_initial_amplitudes`` lays it out: block n pairs e0[s, n] with
    g0[s, n+1], and the dark amplitude g0[s, 0] stays put. A block that
    starts at zero stays zero, so it is not integrated.
    """
    s, n = np.nonzero((e0[:, :-1] != 0) | (g0[:, 1:] != 0))
    count = grid.size * 2 * s.size
    if count > MAX_ORACLE_SAMPLES:
        raise InvalidInputError(
            f"oracle needs {count} samples, over the budget of {MAX_ORACLE_SAMPLES}"
        )
    samples = _integrate_stack(
        n, np.stack([e0[s, n], g0[s, n + 1]], axis=1), profile, grid, config
    )
    e = np.zeros((grid.size,) + e0.shape, dtype=complex)
    g = np.zeros_like(e)
    e[:, s, n] = samples[:, :, 0]
    g[:, s, n + 1] = samples[:, :, 1]
    g[:, :, 0] = g0[:, 0]
    return e, g


def oracle_evolve_pure(
    atom: AtomState,
    field: PhotonDistribution,
    profile,
    t_grid,
    config=DEFAULT_CONFIG,
) -> JointPureState:
    """Numerically integrated counterpart of the closed-form pure evolution.

    Returns the batch form of JointPureState, one amplitude row per grid time.
    """
    if field.amplitudes is None:
        raise InvalidInputError("field is mixed; oracle_evolve_mixed handles it")
    grid = _check_grid(t_grid)
    e0, g0 = _initial_amplitudes(atom, field)
    e, g = _evolve_joint(e0[None], g0[None], profile, grid, config)
    return JointPureState(e[:, 0], g[:, 0], grid)


def oracle_evolve_mixed(
    atom: AtomDensityMatrix,
    field: PhotonDistribution,
    profile,
    t_grid,
    config=DEFAULT_CONFIG,
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
    |g> part's g_n. Returns the batch form of AtomDensityMatrix, one row per
    grid time.
    """
    grid = _check_grid(t_grid)
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
    e, g = _evolve_joint(e0, g0, profile, grid, config)
    # Condition on the retained sectors exactly as evolve_mixed does, so
    # comparisons measure dynamics error rather than the truncation deficit.
    return AtomDensityMatrix.conditioned(
        np.sum(np.abs(e) ** 2, axis=(1, 2)),
        np.sum(np.abs(g) ** 2, axis=(1, 2)),
        np.sum(e[:, 0::stride] * g[:, stride - 1 :: stride].conj(), axis=(1, 2)),
    )
