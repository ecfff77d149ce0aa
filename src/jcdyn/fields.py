"""Photon-number statistics of the initial cavity field.

Builds truncated number-basis data for coherent, thermal, and user-supplied
field states. Truncation keeps the discarded probability mass below a
caller-chosen tail bound, so sums over Fock blocks downstream are finite and
reproducible. Truncated weights are used as-is, never renormalized: the
missing mass is bounded by ``tail_epsilon`` by construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, as_numbers

DEFAULT_TAIL_EPSILON = 1e-12

# Most photon levels a field may keep (2^22, 32 MiB per float column).
# Fields are checked against it before any level array is allocated.
MAX_LEVELS = 1 << 22


def _weight_total(w):
    """Exactly rounded sum of the weights at or above 2^-80 of the largest.

    The weights left out sum to less than ``w.size * 2**-80 * max(w)``:
    under 3.5e-18 at ``MAX_LEVELS`` levels, far below the 1e-13 slack of
    the sum check. Dropping them spares ``math.fsum`` the partial sums that
    the tiny tail weights of a wide coherent field would otherwise cost.
    """
    return math.fsum(w[w >= 2.0**-80 * w.max()])


@dataclass(frozen=True)
class PhotonDistribution:
    """Truncated photon-number content of the initial field state.

    ``weights[n]`` is the occupation probability P_n for n = 0 .. n_max.
    ``amplitudes`` holds the number-basis coefficients C_n when the state is
    pure (then ``|C_n|**2 == weights[n]``) and is None for mixed fields.
    ``mean_n`` is the mean photon number of the untruncated state.
    """

    kind: str
    weights: np.ndarray
    amplitudes: np.ndarray | None
    mean_n: float
    tail_epsilon: float

    def __post_init__(self):
        w = _checked(self.weights, "weights")
        object.__setattr__(self, "weights", w)
        if self.amplitudes is not None:
            a = _checked(self.amplitudes, "amplitudes", 1, complex)
            if a.shape != w.shape:
                raise InvalidInputError("amplitudes must match weights in length")
            # Rounding moves |C_n|^2 by a few ulps; anything more is a
            # different state than the weights describe.
            if np.any(np.abs(np.abs(a) ** 2 - w) > 1e-12 * w + 1e-300):
                raise InvalidInputError("weights must equal |amplitudes|^2")
            object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "mean_n", _checked(self.mean_n, "mean_n", 0))
        object.__setattr__(self, "tail_epsilon", _check_tail(self.tail_epsilon))
        total = _weight_total(w)
        # Slack of a few ulps on either side; the tail bound itself is part
        # of the construction contract, not re-derived here.
        if not (1.0 - self.tail_epsilon - 1e-13 <= total <= 1.0 + 1e-12):
            raise InvalidInputError(
                f"weights sum to {total!r}, outside [1 - tail_epsilon, 1]"
            )

    @property
    def n_max(self) -> int:
        """Largest retained photon number."""
        return self.weights.size - 1

    @property
    def is_pure(self) -> bool:
        return self.amplitudes is not None


def _check_tail(tail_epsilon):
    tail_epsilon = as_numbers(tail_epsilon, "tail_epsilon")
    if not 0.0 < tail_epsilon < 1.0:
        raise InvalidInputError("tail_epsilon must lie in (0, 1)")
    return tail_epsilon


def _checked(values, name, ndim=1, kind=float):
    """``as_numbers`` of a number or a non-empty table, non-negative where
    real."""
    arr = as_numbers(values, name, ndim, kind)
    if np.size(arr) == 0:
        raise InvalidInputError(f"{name} must be a non-empty 1-D array")
    if kind is float and np.any(arr < 0.0):
        raise InvalidInputError(f"{name} must be non-negative")
    return arr


def _check_levels(levels, what):
    if levels > MAX_LEVELS:
        raise InvalidInputError(
            f"{what} needs about {levels:.3g} photon levels, "
            f"more than the budget of {MAX_LEVELS}"
        )


def _poisson_log_mode(a2, m):
    """log P_m of a Poisson law with mean a2 at its mode m = floor(a2).

    Small m takes lgamma directly. Large m uses Stirling's series with
    f = a2 - m, in a form free of cancellation between m log a2 and
    lgamma(m + 1); the first omitted term is about 1e-16 at m = 16.
    """
    if m < 16:
        return -a2 + m * math.log(a2) - math.lgamma(m + 1.0)
    f = a2 - m
    r = 1.0 / (m * m)
    series = (1 / 12 + r * (-1 / 360 + r * (1 / 1260 + r * (-1 / 1680 + r / 1188)))) / m
    return -f + m * math.log1p(f / m) - 0.5 * math.log(2.0 * math.pi * m) - series


def coherent_amplitudes(alpha, tail_epsilon=DEFAULT_TAIL_EPSILON) -> PhotonDistribution:
    """Truncated number-basis expansion of a coherent state.

    C_n = exp(-|alpha|^2 / 2) alpha^n / sqrt(n!). The log Poisson weights are
    anchored at the mode and filled outwards by cumulative sums of
    log(|alpha|^2 / n), so large |alpha| neither overflows nor loses the
    mass to rounding. n_max is the smallest index whose cumulative mass
    exceeds 1 - ``tail_epsilon``, judged on the discarded upper tail.
    """
    tail_epsilon = _check_tail(tail_epsilon)
    alpha = as_numbers(alpha, "alpha", kind=complex)
    modulus = abs(alpha)
    a2 = modulus * modulus  # inf rather than OverflowError past 1e154
    if a2 == 0.0:
        return PhotonDistribution(
            kind="coherent",
            weights=np.array([1.0]),
            amplitudes=np.array([1.0 + 0.0j]),
            mean_n=0.0,
            tail_epsilon=tail_epsilon,
        )
    # Bernstein's bound puts the Poisson mass above a2 + t under exp(-L),
    # here tail_epsilon * 2^-53: levels past ``top`` cannot move the cutoff.
    big_l = 37.0 - math.log(tail_epsilon)
    t = big_l / 3.0 + math.sqrt(big_l * big_l / 9.0 + 2.0 * big_l * a2)
    _check_levels(a2 + t + 1.0, f"a coherent field with |alpha| = {modulus:g}")
    top = math.ceil(a2 + t)
    m = math.floor(a2)
    # log(P_n / P_{n-1}); a subnormal a2 / n can round to 0, giving P_n = 0.
    with np.errstate(divide="ignore"):
        steps = np.log(a2 / np.arange(1.0, top + 1.0))
    log_p = np.empty(top + 1)
    log_p[m] = _poisson_log_mode(a2, m)
    log_p[m + 1 :] = log_p[m] + np.cumsum(steps[m:])
    log_p[:m] = log_p[m] - np.cumsum(steps[:m][::-1])[::-1]
    # tail[n] = sum of P_k over n < k <= top, summed from the small end
    tail = np.append(np.cumsum(np.exp(log_p[:0:-1]))[::-1], 0.0)
    n_max = int(np.argmax(tail < tail_epsilon))
    n = np.arange(n_max + 1)
    amps = np.exp(0.5 * log_p[: n_max + 1] + 1j * cmath.phase(alpha) * n)
    return PhotonDistribution(
        kind="coherent",
        weights=np.abs(amps) ** 2,
        amplitudes=amps,
        mean_n=a2,
        tail_epsilon=tail_epsilon,
    )


def thermal_weights(mean_n, tail_epsilon=DEFAULT_TAIL_EPSILON) -> PhotonDistribution:
    """Truncated geometric photon distribution of a thermal field.

    P_n = q^n / (1 + mean_n) with q = mean_n / (1 + mean_n). The geometric
    tail past n_max equals q^(n_max + 1), so the cutoff comes from a
    logarithm rather than a summation loop.
    """
    tail_epsilon = _check_tail(tail_epsilon)
    mean_n = _checked(mean_n, "mean_n", 0)
    if mean_n == 0.0:
        return PhotonDistribution(
            kind="thermal",
            weights=np.array([1.0]),
            amplitudes=None,
            mean_n=0.0,
            tail_epsilon=tail_epsilon,
        )
    q = mean_n / (1.0 + mean_n)
    log_q = math.log(q)
    # q rounds to 1 for mean_n beyond ~1e16: no finite cutoff.
    levels = math.log(tail_epsilon) / log_q if log_q < 0.0 else math.inf
    _check_levels(levels, f"a thermal field with mean_n = {mean_n:g}")
    n_max = max(0, math.ceil(levels) - 1)
    # Guard against rounding in the closed form: enforce q^(n_max+1) < eps
    # with n_max minimal.
    while q ** (n_max + 1) >= tail_epsilon:
        n_max += 1
    while n_max > 0 and q**n_max < tail_epsilon:
        n_max -= 1
    n = np.arange(n_max + 1)
    weights = np.exp(n * log_q) * (1.0 - q)
    return PhotonDistribution(
        kind="thermal",
        weights=weights,
        amplitudes=None,
        mean_n=mean_n,
        tail_epsilon=tail_epsilon,
    )


def custom_distribution(
    weights=None, amplitudes=None, tail_epsilon=DEFAULT_TAIL_EPSILON
) -> PhotonDistribution:
    """Field state from an explicit finite number-basis table.

    Exactly one of ``weights`` (mixed) or ``amplitudes`` (pure) must be
    given. The table must already be normalized to within 1e-9; it is then
    rescaled to unit total so downstream invariants hold exactly.
    """
    tail_epsilon = _check_tail(tail_epsilon)
    if (weights is None) == (amplitudes is None):
        raise InvalidInputError("give exactly one of weights or amplitudes")
    if amplitudes is not None:
        a = _checked(amplitudes, "amplitudes", 1, complex)
        total = math.fsum(np.abs(a) ** 2)
        if abs(total - 1.0) >= 1e-9:
            raise InvalidInputError(
                f"amplitude norm {total!r} deviates from 1 by 1e-9 or more"
            )
        a = a / math.sqrt(total)
        w = np.abs(a) ** 2
    else:
        a, w = None, _checked(weights, "weights")
        total = math.fsum(w)
        if abs(total - 1.0) >= 1e-9:
            raise InvalidInputError(f"weight sum {total!r} deviates from 1 by 1e-9 or more")
        w = w / total
    return PhotonDistribution(
        kind="custom",
        weights=w,
        amplitudes=a,
        mean_n=float(np.arange(w.size) @ w),
        tail_epsilon=tail_epsilon,
    )
