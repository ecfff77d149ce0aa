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
# levels than half of it takes one time point per block. The oracle takes
# its time blocks from the same budget, four entries per integrated pair
# and time: its samples, its cosine and sine, their hypot and a quotient.
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
        e, g = np.abs(self.amps_e) ** 2, np.abs(self.amps_g) ** 2
        total = np.sum(e, axis=-1) + np.sum(g, axis=-1)
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


def _check_angles(area, k_top):
    """Raise unless every angle area * sqrt(k), k <= k_top, is finite; the
    widest is checked, so overflow raises before any angle is formed."""
    top = float(np.max(np.abs(area), initial=0.0))
    if not math.isfinite(top * math.sqrt(k_top)):
        raise InvalidInputError(
            f"block angle A*sqrt(n+1) overflows at A = {top!r}, n = {k_top - 1}"
        )


def _kernel_rows(field):
    """Times in one row block of ``_reduced_sums`` on ``field``: at most
    _BLOCK_ELEMENTS (time, angle) entries, one time at least."""
    return max(1, _BLOCK_ELEMENTS // (field.weights.size + 1))


def _rotate_blocks(e0, g0, area):
    """Amplitudes after block n turns by area * sqrt(n+1): two (Tc, size) arrays.

    Block n mixes e0[n] with g0[n+1], the off-diagonal picking up -i; the
    dark amplitude g0[0] stays put and the top slot of e stays empty.
    """
    _check_angles(area, e0.size - 1)
    theta = area[:, None] * np.sqrt(np.arange(1.0, e0.size))
    e = np.empty((area.size, e0.size), dtype=complex)
    g = np.empty_like(e)
    _rotate(e0[:-1], g0[1:], np.cos(theta), np.sin(theta), e[:, :-1], g[:, 1:])
    e[:, -1] = 0.0
    g[:, 0] = g0[0]
    return e, g


def _rotate(e0, g0, c, s, e, g):
    """Write into the (T, B) ``e`` and ``g`` the pairs (e0[n], g0[n]) turned
    by the angles whose cosines and sines are c[:, n] and s[:, n].

    e = c e0 - i s g0 and g = c g0 - i s e0, written out in real and
    imaginary parts: the same values as the complex expression without
    casting c and s to complex.
    """
    e.real[:] = c * e0.real + s * g0.imag
    e.imag[:] = c * e0.imag - s * g0.real
    g.real[:] = c * g0.real + s * e0.imag
    g.imag[:] = c * g0.imag - s * e0.real


def _cos_sin(theta, out=None):
    """(cos theta, sin theta) from one tan(theta/2), written into theta's
    buffer and ``out`` (a new array if None): c = 2/(1+t^2) - 1,
    s = 2t/(1+t^2).

    One tan costs a fraction of a cos and a sin. Angle 0 gives exactly
    (1, 0), and t^2 cannot overflow: tan of a finite double stays far
    below 1e154.
    """
    t = np.tan(np.multiply(theta, 0.5, out=theta), out=theta)
    c = np.square(t, out=out)
    c += 1.0
    np.divide(2.0, c, out=c)
    s = np.multiply(t, c, out=t)
    c -= 1.0
    return c, s


# Block trig products, lo for block n-1 and hi for block n; each is 0 at
# area 0, and each is written into the buffer ``out`` it is given.
_PRODUCTS = {
    "s_hi^2": lambda c_lo, c_hi, s_lo, s_hi, out: np.multiply(s_hi, s_hi, out),
    "1-c_lo*c_hi": lambda c_lo, c_hi, s_lo, s_hi, out: np.subtract(
        1.0, np.multiply(c_lo, c_hi, out), out
    ),
    "c_hi*s_hi": lambda c_lo, c_hi, s_lo, s_hi, out: np.multiply(c_hi, s_hi, out),
    "c_hi*s_lo": lambda c_lo, c_hi, s_lo, s_hi, out: np.multiply(c_hi, s_lo, out),
    "s_hi*c_lo": lambda c_lo, c_hi, s_lo, s_hi, out: np.multiply(s_hi, c_lo, out),
    "s_hi*s_lo": lambda c_lo, c_hi, s_lo, s_hi, out: np.multiply(s_hi, s_lo, out),
}


def _term_table(rho, field, size):
    """The terms of the atom for rho (x) field as ``_reduced_sums`` adds
    them; returns (ee, eg, trace, kept).

    ``ee`` and ``eg`` are the columns over ``size`` times, filled with
    rho * total, ``trace`` is the trace of rho (x) field, and ``kept`` lists
    each block trig product of ``_PRODUCTS`` that some term needs as
    (kind, [(column, scale, weight)]), column a part of ee or eg. The
    weights come from p_n and, for a pure field, f_n = C_n conj(C_(n-1))
    and h_n = C_(n+1) conj(C_(n-1)); a term whose scale or weight is all 0
    is dropped.
    """
    p, total = field.weights, field.weights.sum()
    ee_0, gg_0, eg_0 = rho.rho_ee, rho.rho_gg, rho.rho_eg
    ee, eg = np.full(size, ee_0 * total), np.full(size, eg_0 * total)
    d = gg_0 * np.append(p[1:], 0.0) - ee_0 * p  # per block, g minus e
    terms = {
        "s_hi^2": [(ee, 1.0, d)],
        "1-c_lo*c_hi": [(eg.real, -eg_0.real, p), (eg.imag, -eg_0.imag, p)],
    }
    if field.amplitudes is not None:
        a = np.concatenate(([0.0], field.amplitudes, [0.0]))
        f, f_next = a[1:-1] * a[:-2].conj(), a[2:] * a[1:-1].conj()
        h = np.conj(eg_0) * a[2:] * a[:-2].conj()
        terms |= {
            "c_hi*s_hi": [(ee, -2.0, (eg_0 * f_next.conj()).imag)],
            "c_hi*s_lo": [(eg.real, -ee_0, f.imag), (eg.imag, ee_0, f.real)],
            "s_hi*c_lo": [(eg.real, gg_0, f_next.imag), (eg.imag, -gg_0, f_next.real)],
            "s_hi*s_lo": [(eg.real, 1.0, h.real), (eg.imag, 1.0, h.imag)],
        }
    kept = [(k, [u for u in us if u[1] != 0 and u[2].any()]) for k, us in terms.items()]
    kept = [(kind, uses) for kind, uses in kept if uses]
    return ee, eg, (ee_0 + gg_0) * total, kept


def _add_terms(kept, i, c, s, prod):
    """Add the ``_term_table`` terms ``kept`` to rows i .. i + len(c) - 1 of
    their columns, from the (rows, 1 + blocks) cosines ``c`` and sines
    ``s`` of one row block: column 0 is the dark |g,0>'s angle 0, column
    n + 1 block n's. Each product is written into ``prod``, a (rows,
    blocks) buffer."""
    for kind, uses in kept:
        m = _PRODUCTS[kind](c[:, :-1], c[:, 1:], s[:, :-1], s[:, 1:], prod)
        for column, scale, weight in uses:
            column[i : i + len(c)] += scale * (m @ weight)


def _reduced_sums(rho, field, area):
    """Unconditioned (ee, gg, eg) columns of the atom for rho (x) field.

    Block n = (|e,n>, |g,n+1>) turns by theta_n = area * sqrt(n+1), the dark
    |g,0> by theta_-1 = 0. Each column is rho * total plus scale * (product
    @ weight) for each of its terms (``_term_table``), eg's real and
    imaginary parts apart. ``area`` is 1-D, taken in row blocks of
    ``_kernel_rows`` times that share three block buffers.
    """
    ee, eg, trace, kept = _term_table(rho, field, area.size)
    p = field.weights
    _check_angles(area, p.size)
    root = np.sqrt(np.arange(0.0, p.size + 1))  # angle k is area * sqrt(k)
    rows = _kernel_rows(field)
    # One row block's angles (then tan(theta/2), then sin), cosines and
    # product, allocated once and reused by every row block.
    theta = np.empty((min(rows, area.size), p.size + 1))
    cos = np.empty_like(theta)
    prod = np.empty((len(theta), p.size))
    for i in range(0, area.size, rows):
        n = min(rows, area.size - i)
        c, s = _cos_sin(np.multiply(area[i : i + n, None], root, theta[:n]), cos[:n])
        _add_terms(kept, i, c, s, prod[:n])
    return ee, trace - ee, eg


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
    e, g = np.abs(state.amps_e) ** 2, np.abs(state.amps_g) ** 2
    mean = e @ (n + 0.5) + g @ (n - 0.5)
    return float(mean) if mean.ndim == 0 else mean
