"""Measured quantities derived from evolved states.

Everything here reduces to the 2x2 atomic density matrix: inversion and the
Bloch vector come from its entries, the atom's von Neumann entropy from its
eigenvalues; that entropy measures atom-field entanglement only when the
joint state is pure. Each function takes one state or a batch (see dynamics)
and returns a number or a column from the same array expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import coupling_area
from .dynamics import (
    AtomDensityMatrix,
    JointPureState,
    _first,
    _reduced_sums,
    _set_numbers,
)
from .errors import InvalidInputError, NumericalFailureError
from .fields import PhotonDistribution

_CLAMP_TOL = 1e-10


@dataclass(frozen=True)
class SchmidtData:
    """Eigenvalues of the reduced atomic state, mu_plus >= mu_minus.

    In the batch form both fields are columns with one entry per time.
    """

    mu_plus: float
    mu_minus: float

    def __post_init__(self):
        mp_, mm = _set_numbers(self, ("mu_plus", "mu_minus"), (0, 1))
        if not np.all((0.0 <= mm) & (mm <= mp_) & (mp_ <= 1.0)):
            raise InvalidInputError("eigenvalues must satisfy 0 <= mu- <= mu+ <= 1")
        if np.any(np.abs(mp_ + mm - 1.0) > _CLAMP_TOL):
            raise InvalidInputError("eigenvalues must sum to 1")


@dataclass(frozen=True)
class BlochVector:
    """Bloch components of the atomic state and the vector's modulus.

    In the batch form every field is a column with one entry per time.
    """

    r_x: float
    r_y: float
    r_z: float
    r: float

    def __post_init__(self):
        r_x, r_y, r_z, r = _set_numbers(self, ("r_x", "r_y", "r_z", "r"), (0, 1))
        modulus = np.sqrt(r_x**2 + r_y**2 + r_z**2)
        if np.any(np.abs(modulus - r) > 1e-12):
            raise InvalidInputError("modulus inconsistent with components")
        if np.any(r > 1.0 + _CLAMP_TOL):
            raise InvalidInputError("Bloch vector leaves the unit ball")


def population_inversion(rho: AtomDensityMatrix):
    """W = rho_ee - rho_gg, the mean of sigma_z."""
    return rho.rho_ee - rho.rho_gg


def inversion_closed_form(field: PhotonDistribution, profile, t):
    """W(t) for an atom starting in |e>: sum_n P_n cos(2 A(t) sqrt(n+1)).

    Accepts a scalar or a 1-D array of times. These are the raw sums of the
    reduced-state kernel, not conditioned on the retained field mass.
    """
    area = coupling_area(profile, t)
    rho = AtomDensityMatrix(1.0, 0.0, 0.0)
    ee, gg, _ = _reduced_sums(rho, field, np.atleast_1d(area))
    w = ee - gg
    return w if np.ndim(area) else float(w[0])


def coherence_xi(state: JointPureState):
    """Cross-level overlap xi = sum_n conj(C_e,n) C_g,n.

    Note the conjugation order: the matrix element <e|rho|g> is conj(xi).
    """
    xi = np.sum(np.conj(state.amps_e) * state.amps_g, axis=-1)
    return complex(xi) if xi.ndim == 0 else xi


def reduced_atom(state: JointPureState) -> AtomDensityMatrix:
    """Trace the field out of a joint pure state.

    The truncated field leaves the state norm short of 1 by up to
    tail_epsilon, so the matrix is conditioned on the retained levels to
    keep its trace at exactly 1.
    """
    p_e = np.sum(np.abs(state.amps_e) ** 2, axis=-1)
    p_g = np.sum(np.abs(state.amps_g) ** 2, axis=-1)
    eg = np.sum(np.conj(state.amps_g) * state.amps_e, axis=-1)
    return AtomDensityMatrix.conditioned(p_e, p_g, eg)


def atom_eigenvalues(rho: AtomDensityMatrix) -> SchmidtData:
    """Closed-form eigenvalues (1 +- r)/2 with r the Bloch modulus.

    Values straying past [0, 1] by at most 1e-10 are clamped; anything
    worse signals numerical failure upstream.
    """
    w = rho.rho_ee - rho.rho_gg
    r = np.sqrt(w**2 + 4.0 * np.abs(rho.rho_eg) ** 2)
    mu_plus = 0.5 * (1.0 + r)
    mu_minus = 0.5 * (1.0 - r)
    bad = (mu_minus < -_CLAMP_TOL) | (mu_plus > 1.0 + _CLAMP_TOL)
    if np.any(bad):
        mp_, mm = _first(mu_plus, bad), _first(mu_minus, bad)
        raise NumericalFailureError(
            f"eigenvalues ({mp_!r}, {mm!r}) stray beyond [0, 1]", estimate=mm
        )
    return SchmidtData(np.minimum(mu_plus, 1.0), np.maximum(mu_minus, 0.0))


def _entropy_term(mu):
    """mu log2 mu for clamped eigenvalues, with 0 log 0 = 0."""
    return mu * np.log2(np.where(mu > 0.0, mu, 1.0))


def von_neumann_entropy(rho: AtomDensityMatrix):
    """The atom's von Neumann entropy in bits, -sum mu log2 mu, 0 log 0 = 0:
    the atom-field entanglement only when the joint state is pure."""
    data = atom_eigenvalues(rho)
    s = 0.0 - _entropy_term(data.mu_plus) - _entropy_term(data.mu_minus)
    return float(s) if s.ndim == 0 else s


def bloch_vector(rho: AtomDensityMatrix) -> BlochVector:
    """(r_x, r_y, r_z) = (2 Re rho_eg, -2 Im rho_eg, rho_ee - rho_gg)."""
    r_x = 2.0 * np.real(rho.rho_eg)
    r_y = -2.0 * np.imag(rho.rho_eg)
    r_z = rho.rho_ee - rho.rho_gg
    return BlochVector(r_x, r_y, r_z, np.sqrt(r_x**2 + r_y**2 + r_z**2))


def revival_time(field: PhotonDistribution, profile) -> float | None:
    """Predicted revival instant, or None when the profile has no closed
    form for it (see each profile's ``revival``)."""
    if not field.mean_n > 0.0:
        raise InvalidInputError("revival prediction needs mean_n > 0")
    return profile.revival(field.mean_n)
