"""Brute-force trajectory validator.

Integrates the bare-basis Schrodinger equation block by block with a
general-purpose ODE solver, sampling lambda(t) pointwise at every stage.
The integrator never sees the coupling area, so agreement with the
closed-form path validates the area-based solution end to end. All blocks
of a run are stacked into one flat state vector so the solver is called
once per trajectory. Every block starts at its physical amplitude, the
field amplitude C_n on the pure path and sqrt(w_k p_n) phi_k for mixture
member k on the mixed path, so the solver tolerances act on physical
amplitudes on both paths.
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
        for name, tol in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not (
                isinstance(tol, (int, float)) and 0.0 < tol <= 1e-3
            ):
                raise InvalidInputError(f"{name} must lie in (0, 1e-3]")
        if not (
            isinstance(self.max_step, (int, float))
            and math.isfinite(self.max_step)
            and self.max_step > 0.0
        ):
            raise InvalidInputError("max_step must be finite and positive")
        if self.method not in (ADAPTIVE, RK4):
            raise InvalidInputError(f"method must be {ADAPTIVE!r} or {RK4!r}")


DEFAULT_CONFIG = IntegratorConfig()


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use: only the oracle needs scipy."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


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

    if cfg.method == ADAPTIVE:
        pair_coef = np.repeat(coef, 2).reshape(-1, 2)

        def rhs(t, y):
            return (pair_coef * y.reshape(-1, 2)[:, ::-1]).ravel() * lam(t)

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
        out = np.ascontiguousarray(sol.y.T).reshape(grid.size, -1, 2)
    else:
        out = np.empty((grid.size,) + y0.shape, dtype=complex)
        out[0] = y0
        y = y0.copy()

        def deriv(t, y):
            return lam(t) * coef[:, None] * y[:, ::-1]

        for i in range(1, grid.size):
            t0, t1 = grid[i - 1], grid[i]
            m = max(1, math.ceil((t1 - t0) / cfg.max_step))
            h = (t1 - t0) / m
            for j in range(m):
                t = t0 + j * h
                k1 = deriv(t, y)
                k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
                k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
                k4 = deriv(t + h, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[i] = y
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
    blocks = np.arange(e0.size - 1)
    y0 = np.stack([e0[:-1], g0[1:]], axis=1)
    samples = _integrate_stack(blocks, y0, profile, grid, config)
    e = np.zeros((grid.size, e0.size), dtype=complex)
    g = np.empty_like(e)
    e[:, :-1] = samples[:, :, 0]
    g[:, 1:] = samples[:, :, 1]
    g[:, 0] = g0[0]  # dark component, untouched by the interaction
    return JointPureState(e, g, grid)


def oracle_evolve_mixed(
    atom: AtomDensityMatrix,
    field: PhotonDistribution,
    profile,
    t_grid,
    config=DEFAULT_CONFIG,
) -> AtomDensityMatrix:
    """Numerically integrated counterpart of the closed-form mixed evolution.

    Diagonalizes the atomic state and propagates each eigenvector against
    every retained photon sector, then re-assembles the partial trace. All
    sectors of all eigenvectors ride in a single solver call. Member
    phi_k (x) |n> starts at its physical amplitude sqrt(w_k p_n) phi_k, so
    the solver tolerances act on physical amplitudes, as on the pure path,
    and each rho element is a plain sum over the rows. Returns the batch
    form of AtomDensityMatrix, one row per grid time.
    """
    grid = _check_grid(t_grid)
    n_max = field.n_max
    root_p = np.sqrt(field.weights)
    vals, vecs = np.linalg.eigh(atom.as_matrix())
    members = []  # (dark |g,0> amplitude, e_rows slice, g_rows slice)
    blocks = []
    y0 = []

    def push(block_ids, e, g):
        start = sum(b.size for b in blocks)
        blocks.append(block_ids)
        y0.append(np.stack(np.broadcast_arrays(e, g), axis=1))
        return slice(start, start + block_ids.size)

    for k in range(2):
        w_k = float(vals[k])
        if w_k < -1e-10:
            raise InvalidInputError("atom state has a negative eigenvalue")
        if w_k <= _EIGENWEIGHT_FLOOR:
            continue
        phi_e, phi_g = complex(vecs[0, k]), complex(vecs[1, k])
        amp = math.sqrt(w_k) * root_p  # sqrt(w_k p_n), n = 0 .. n_max
        e_rows = g_rows = None
        if phi_e != 0:
            e_rows = push(np.arange(n_max + 1), phi_e * amp, 0.0)
        if phi_g != 0 and n_max >= 1:
            # block n pairs |e,n> with |g,n+1>, which carries p_{n+1}
            g_rows = push(np.arange(n_max), 0.0, phi_g * amp[1:])
        members.append((phi_g * amp[0], e_rows, g_rows))

    if y0:
        samples = _integrate_stack(
            np.concatenate(blocks), np.concatenate(y0), profile, grid, config
        )
    else:
        samples = np.zeros((grid.size, 0, 2), dtype=complex)

    power = np.abs(samples) ** 2
    rho_ee = power[:, :, 0].sum(axis=1)
    rho_gg = power[:, :, 1].sum(axis=1)
    rho_eg = np.zeros(grid.size, dtype=complex)
    for dark, e_rows, g_rows in members:
        rho_gg += abs(dark) ** 2  # |g,0> is dark: constant amplitude
        if e_rows is None:
            continue
        a = samples[:, e_rows, 0]
        rho_eg += a[:, 0] * dark.conjugate()
        if g_rows is not None:
            rho_eg += (a[:, 1:] * samples[:, g_rows, 1].conj()).sum(axis=1)
    # Condition on the retained sectors exactly as evolve_mixed does, so
    # comparisons measure dynamics error rather than the truncation deficit.
    trace = rho_ee + rho_gg
    return AtomDensityMatrix(rho_ee / trace, rho_gg / trace, rho_eg / trace)

