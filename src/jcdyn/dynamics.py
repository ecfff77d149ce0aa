"""Closed-form resonant dynamics in the bare basis.

The interaction couples |e,n> only with |g,n+1>, so evolution factors into
independent 2x2 rotations whose angle is the coupling area scaled by
sqrt(n+1). Pure joint states evolve amplitude-wise. The reduced atom of any
product initial state follows from the field's weights and, for a pure field,
its near-diagonal coherences, without building a joint state.

The evolution functions take one time or a 1-D array of times. An array
yields the batch form of the same dataclass: every field gains a leading
time axis. A batch is validated once: each check of the single-time
constructor runs over all rows in the same order, and a message that quotes
a value quotes the first failing row, so a batch with one invalid row raises
exactly what the single-time constructor raises for that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import coupling_area
from .errors import InvalidInputError, as_numbers
from .fields import PhotonDistribution

_NORM_TOL = 1e-12
_RHO_TOL = 1e-10

# Most (time, level) entries the reduced-atom kernel holds at once, about
# 1 MB per complex temporary however wide the field; a field with more
# levels than half of it takes one time point per block. The oracle reduces
# its (time, sample) rows in blocks of the same budget.
_BLOCK_ELEMENTS = 2**16


def _set_numbers(obj, names, ndim=0, kind=float):
    """Check the named fields of a frozen dataclass with ``as_numbers``,
    store what it returns and return that."""
    values = tuple(as_numbers(getattr(obj, n), n, ndim, kind) for n in names)
    for name, value in zip(names, values):
        object.__setattr__(obj, name, value)
    return values


def _first(values, bad):
    """The value at the first row flagged in ``bad``, as a Python number.

    Works alike on a column with its mask and on one value with one flag.
    """
    return np.ravel(values)[np.argmax(bad)].item()


@dataclass(frozen=True)
class AtomState:
    """Pure two-level state c_e |e> + c_g |g>, normalized to 1e-12."""

    c_e: complex
    c_g: complex

    def __post_init__(self):
        ce, cg = _set_numbers(self, ("c_e", "c_g"), kind=complex)
        norm = abs(ce) ** 2 + abs(cg) ** 2
        if abs(norm - 1.0) > _NORM_TOL:
            raise InvalidInputError(f"atom state norm {norm!r} deviates from 1")

    @classmethod
    def excited(cls):
        return cls(1.0 + 0.0j, 0.0 + 0.0j)

    @classmethod
    def ground(cls):
        return cls(0.0 + 0.0j, 1.0 + 0.0j)

    @classmethod
    def plus_x(cls):
        """Equal superposition (|e> + |g>)/sqrt(2), the +1 eigenstate of sigma_x."""
        s = 1.0 / math.sqrt(2.0)
        return cls(complex(s), complex(s))


@dataclass(frozen=True)
class JointPureState:
    """Joint atom-field amplitudes at one instant, or at each time of a batch.

    ``amps_e[n]`` multiplies |e,n>, ``amps_g[n]`` multiplies |g,n>. Both
    arrays share one length chosen large enough that the topmost retained
    block closes, so evolution is exactly unitary on this representation.
    In the batch form ``time`` is a 1-D array and the amplitude arrays hold
    one row per time.
    """

    amps_e: np.ndarray
    amps_g: np.ndarray
    time: float

    def __post_init__(self):
        e, g = _set_numbers(self, ("amps_e", "amps_g"), (1, 2), complex)
        (time,) = _set_numbers(self, ("time",), (0, 1))
        if not e.shape == g.shape == np.shape(time) + e.shape[-1:] or not e.shape[-1]:
            raise InvalidInputError(
                "amplitude arrays must hold one equal-length row per time"
            )
        if np.any(np.asarray(time) < 0.0):
            raise InvalidInputError("time must be non-negative")

    @property
    def n_levels(self) -> int:
        return self.amps_e.shape[-1]

    def norm(self):
        """Total occupation, 1 up to the truncated tail of the field."""
        total = np.sum(np.abs(self.amps_e) ** 2, axis=-1) + np.sum(
            np.abs(self.amps_g) ** 2, axis=-1
        )
        return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class AtomDensityMatrix:
    """Reduced 2x2 atomic density matrix, or a batch of them.

    ``rho_eg`` is the true off-diagonal element <e|rho|g>; the conjugate
    element is implied by Hermiticity. In the batch form each entry is a
    1-D column with one value per time.
    """

    rho_ee: float
    rho_gg: float
    rho_eg: complex

    def __post_init__(self):
        ee, gg = _set_numbers(self, ("rho_ee", "rho_gg"), (0, 1))
        (eg,) = _set_numbers(self, ("rho_eg",), (0, 1), complex)
        if not np.shape(ee) == np.shape(gg) == np.shape(eg):
            raise InvalidInputError("density matrix columns must share one length")
        if np.any((ee < -_RHO_TOL) | (gg < -_RHO_TOL)):
            raise InvalidInputError("populations must be non-negative")
        trace = ee + gg
        bad = np.abs(trace - 1.0) > _RHO_TOL
        if np.any(bad):
            raise InvalidInputError(f"trace {_first(trace, bad)!r} deviates from 1")
        if np.any(np.abs(eg) ** 2 > ee * gg + _RHO_TOL):
            raise InvalidInputError("coherence exceeds the positivity bound")

    @classmethod
    def conditioned(cls, ee, gg, eg):
        """The matrix with entries divided by their trace ee + gg.

        A truncated field leaves the raw trace short of 1 by the discarded
        tail, and |c|^2 rounding can leave a pure state's an ulp off (e.g.
        the sigma_x eigenstate); dividing conditions on the retained photon
        levels, so the trace is 1 for any tail_epsilon.
        """
        trace = ee + gg
        return cls(ee / trace, gg / trace, eg / trace)

    @classmethod
    def from_atom_state(cls, state: AtomState):
        return cls.conditioned(
            abs(state.c_e) ** 2,
            abs(state.c_g) ** 2,
            state.c_e * state.c_g.conjugate(),
        )

    def as_matrix(self) -> np.ndarray:
        """2x2 array in the (|e>, |g>) basis; (T, 2, 2) for a batch."""
        m = np.empty(np.shape(self.rho_ee) + (2, 2), dtype=complex)
        m[..., 0, 0] = self.rho_ee
        m[..., 0, 1] = self.rho_eg
        m[..., 1, 0] = np.conj(self.rho_eg)
        m[..., 1, 1] = self.rho_gg
        return m


def _initial_amplitudes(atom: AtomState, field: PhotonDistribution):
    """(e0, g0) amplitudes of the product state, one slot past the cutoff."""
    size = field.n_max + 2
    e0 = np.zeros(size, dtype=complex)
    g0 = np.zeros(size, dtype=complex)
    e0[:-1] = atom.c_e * field.amplitudes
    g0[:-1] = atom.c_g * field.amplitudes
    return e0, g0


def _angles(area, k_min, k_end):
    """Angles area * sqrt(k), k = k_min .. k_end - 1, one row per area; the
    widest is checked first, so overflow raises before the product."""
    top = float(np.max(np.abs(area), initial=0.0))
    if not math.isfinite(top * math.sqrt(k_end - 1)):
        raise InvalidInputError(
            f"block angle A*sqrt(n+1) overflows at A = {top!r}, n = {k_end - 2}"
        )
    return area[:, None] * np.sqrt(np.arange(k_min, k_end))


def _rotate_blocks(e0, g0, area):
    """Amplitudes after block n turns by area * sqrt(n+1): two (Tc, size) arrays.

    Block n mixes e0[n] with g0[n+1], the off-diagonal picking up -i; the
    dark amplitude g0[0] stays put and the top slot of e stays empty.
    """
    theta = _angles(area, 1.0, e0.size)
    c = np.cos(theta)
    s = np.sin(theta)
    e_re, e_im = e0.real[:-1], e0.imag[:-1]
    g_re, g_im = g0.real[1:], g0.imag[1:]
    e = np.empty((area.size, e0.size), dtype=complex)
    g = np.empty_like(e)
    # e_n = c e0_n - i s g0_(n+1), written out in real and imaginary parts:
    # the same values as the complex expression without casting c and s
    # to complex.
    e.real[:, :-1] = c * e_re + s * g_im
    e.imag[:, :-1] = c * e_im - s * g_re
    e[:, -1] = 0.0
    g.real[:, 1:] = c * g_re + s * e_im
    g.imag[:, 1:] = c * g_im - s * e_re
    g[:, 0] = g0[0]
    return e, g


def _cmatvec(m, v):
    """m @ v for a real matrix and a complex vector, without casting m."""
    return m @ v.real + 1j * (m @ v.imag)


def _cos_sin(theta):
    """(cos theta, sin theta) from one tan(theta/2), written into theta's
    buffer and one more: c = 2/(1+t^2) - 1, s = 2t/(1+t^2).

    One tan costs a fraction of a cos and a sin. Angle 0 gives exactly
    (1, 0), and t^2 cannot overflow: tan of a finite double stays far
    below 1e154.
    """
    t = np.tan(np.multiply(theta, 0.5, out=theta), out=theta)
    c = np.square(t)
    c += 1.0
    np.divide(2.0, c, out=c)
    s = np.multiply(t, c, out=t)
    c -= 1.0
    return c, s


def _reduced_sums(rho, field, area):
    """Unconditioned (ee, gg, eg) columns of the atom for rho (x) field.

    Block n = (|e,n>, |g,n+1>) turns by theta_n = area * sqrt(n+1), the dark
    |g,0> by theta_-1 = 0. The field enters through its weights p_n and, if
    pure, f_n = C_n conj(C_(n-1)) and h_n = C_(n+1) conj(C_(n-1)). A term
    whose atomic factor (rho_eg, rho_ee or rho_gg) is exactly 0 is skipped.
    ``area`` is 1-D; results have one entry per area. The areas are taken
    in row blocks of at most ``_BLOCK_ELEMENTS`` (area, level) entries, so
    no temporary grows with the number of areas.
    """
    p, total = field.weights, field.weights.sum()
    # Corrections to the sums at area 0, which are then exactly rho * total.
    d = rho.rho_gg * np.append(p[1:], 0.0) - rho.rho_ee * p  # per block, g minus e
    if field.amplitudes is not None:
        a = np.concatenate(([0.0], field.amplitudes, [0.0]))
        f, f_next = a[1:-1] * a[:-2].conj(), a[2:] * a[1:-1].conj()
        # Each matvec's field vector times its atomic factor.
        v_ee = (rho.rho_eg * f_next.conj()).imag
        v_e, v_g = 1j * rho.rho_ee * f, 1j * rho.rho_gg * f_next
        h = np.conj(rho.rho_eg) * a[2:] * a[:-2].conj()
    ee = np.full(area.size, rho.rho_ee * total)
    eg = np.zeros(area.size, dtype=complex)
    rows = max(1, _BLOCK_ELEMENTS // (p.size + 1))
    for i in range(0, area.size, rows):
        c, s = _cos_sin(_angles(area[i : i + rows], 0.0, p.size + 1))
        c_lo, c_hi = c[:, :-1], c[:, 1:]  # cos theta_(n-1), cos theta_n
        s_lo, s_hi = s[:, :-1], s[:, 1:]
        ee_i, eg_i = ee[i : i + rows], eg[i : i + rows]  # views into the columns
        ee_i += (s_hi * s_hi) @ d
        if rho.rho_eg != 0:
            eg_i += rho.rho_eg * (total - (1.0 - c_lo * c_hi) @ p)
        if field.amplitudes is None:
            continue
        if rho.rho_eg != 0:
            ee_i -= 2.0 * ((c_hi * s_hi) @ v_ee)
        if rho.rho_ee != 0:
            eg_i += _cmatvec(c_hi * s_lo, v_e)
        if rho.rho_gg != 0:
            eg_i -= _cmatvec(s_hi * c_lo, v_g)
        if rho.rho_eg != 0:
            eg_i += _cmatvec(s_hi * s_lo, h)
    return ee, (rho.rho_ee + rho.rho_gg) * total - ee, eg


def evolve_pure(
    atom: AtomState, field: PhotonDistribution, profile, t
) -> JointPureState:
    """Joint state at time t for a pure field, from initial product state.

    Each block n rotates (amps_e[n], amps_g[n+1]) by the angle
    A(t) * sqrt(n+1) with the off-diagonal picking up -i. The arrays carry
    one slot beyond the field cutoff so the top block stays closed. A 1-D
    array of times gives the batch form, one amplitude row per time.
    """
    if field.amplitudes is None:
        raise InvalidInputError("field is mixed; evolve_mixed handles it")
    area = coupling_area(profile, t)
    e0, g0 = _initial_amplitudes(atom, field)
    if np.ndim(area):
        return JointPureState(*_rotate_blocks(e0, g0, area), t)
    if t == 0:
        return JointPureState(e0, g0, 0.0)
    e, g = _rotate_blocks(e0, g0, np.atleast_1d(area))
    return JointPureState(e[0], g[0], t)


def evolve_mixed(
    atom: AtomDensityMatrix, field: PhotonDistribution, profile, t
) -> AtomDensityMatrix:
    """Reduced atomic state at time t for any field, pure or mixed.

    Traces the field out in closed form (``_reduced_sums``, in bounded
    memory however many times), keeping a pure field's phases. A 1-D array
    of times gives the batch form; a single time 0 returns ``atom`` itself.
    """
    area = coupling_area(profile, t)
    if np.ndim(area):
        return AtomDensityMatrix.conditioned(*_reduced_sums(atom, field, area))
    if t == 0:
        return atom
    ee, gg, eg = _reduced_sums(atom, field, np.atleast_1d(area))
    return AtomDensityMatrix.conditioned(ee[0], gg[0], eg[0])


def excitation_expectation(state: JointPureState):
    """Mean of the conserved excitation count n + sigma_z / 2."""
    n = np.arange(state.n_levels)
    mean = np.abs(state.amps_e) ** 2 @ (n + 0.5) + np.abs(state.amps_g) ** 2 @ (
        n - 0.5
    )
    return float(mean) if mean.ndim == 0 else mean
