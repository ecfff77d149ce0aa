"""Time-dependent atom-field coupling profiles and their accumulated area.

On resonance the dynamics depends on the modulation lambda(t) only through
its running integral A(t), so every built-in profile carries a closed-form
area next to its pointwise value. A global-adaptive Gauss-Kronrod fallback
covers tabulated profiles and doubles as an independent cross-check of the
closed forms.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, OutOfRangeError

_PANEL_BUDGET = 2**20


def _require_positive(name, value):
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise InvalidInputError(f"{name} must be a finite positive number")


@dataclass(frozen=True)
class ConstantCoupling:
    """lambda(t) = lambda0."""

    lambda0: float

    def __post_init__(self):
        _require_positive("lambda0", self.lambda0)


@dataclass(frozen=True)
class LinearCoupling:
    """lambda(t) = lambda0 * zeta1 * t."""

    lambda0: float
    zeta1: float

    def __post_init__(self):
        _require_positive("lambda0", self.lambda0)
        _require_positive("zeta1", self.zeta1)


@dataclass(frozen=True)
class SechCoupling:
    """lambda(t) = lambda0 * sech(zeta2 * t), a pulse that switches off."""

    lambda0: float
    zeta2: float

    def __post_init__(self):
        _require_positive("lambda0", self.lambda0)
        _require_positive("zeta2", self.zeta2)


@dataclass(frozen=True)
class SinusoidalCoupling:
    """lambda(t) = lambda0 * sin(p * zeta3 * t) with integer harmonic p."""

    lambda0: float
    zeta3: float
    p: int = 1

    def __post_init__(self):
        _require_positive("lambda0", self.lambda0)
        _require_positive("zeta3", self.zeta3)
        if not (isinstance(self.p, int) and not isinstance(self.p, bool) and self.p >= 1):
            raise InvalidInputError("p must be an integer >= 1")


@dataclass(frozen=True)
class CustomCoupling:
    """Piecewise-linear lambda(t) through tabulated (time, value) points.

    Times must start at 0 and increase strictly; queries beyond the last
    tabulated time are rejected rather than extrapolated.
    """

    times: tuple
    values: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        if len(times) < 2 or len(times) != len(values):
            raise InvalidInputError(
                "need at least two (time, value) points of equal count"
            )
        if not all(math.isfinite(x) for x in times + values):
            raise InvalidInputError("times and values must be finite")
        if times[0] != 0.0:
            raise InvalidInputError("times must start at 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidInputError("times must increase strictly")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @cached_property
    def _t(self):
        return np.asarray(self.times)

    @cached_property
    def _v(self):
        return np.asarray(self.values)

    @cached_property
    def _cum_area(self):
        # Exact trapezoid area accumulated up to each table point.
        seg = 0.5 * (self._v[:-1] + self._v[1:]) * np.diff(self._t)
        return np.concatenate(([0.0], np.cumsum(seg)))


CouplingProfile = (
    ConstantCoupling
    | LinearCoupling
    | SechCoupling
    | SinusoidalCoupling
    | CustomCoupling
)


def _as_times(t):
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("t must be finite")
    if np.any(arr < 0.0):
        raise InvalidInputError("t must be non-negative")
    return arr


def _check_range(profile, arr):
    if isinstance(profile, CustomCoupling) and np.any(arr > profile.times[-1]):
        raise OutOfRangeError(f"t beyond tabulated range [0, {profile.times[-1]}]")


def _rate(profile, t):
    """lambda(t) at times already checked by lambda_at; no validation."""
    if isinstance(profile, ConstantCoupling):
        return np.full_like(t, profile.lambda0)
    if isinstance(profile, LinearCoupling):
        return profile.lambda0 * profile.zeta1 * t
    if isinstance(profile, SechCoupling):
        return profile.lambda0 / np.cosh(profile.zeta2 * t)
    if isinstance(profile, SinusoidalCoupling):
        return profile.lambda0 * np.sin(profile.p * profile.zeta3 * t)
    if isinstance(profile, CustomCoupling):
        return np.interp(t, profile._t, profile._v)
    raise InvalidInputError(f"unknown coupling profile {type(profile).__name__}")


def lambda_at(profile, t):
    """Coupling rate lambda(t). Accepts a scalar or an array of times."""
    arr = _as_times(t)
    _check_range(profile, arr)
    out = _rate(profile, arr)
    return out if arr.ndim else float(out)


def coupling_area(profile, t):
    """Accumulated area A(t) = integral of lambda from 0 to t, closed form.

    Accepts a scalar or an array of times.
    """
    arr = _as_times(t)
    if isinstance(profile, ConstantCoupling):
        out = profile.lambda0 * arr
    elif isinstance(profile, LinearCoupling):
        out = 0.5 * profile.lambda0 * profile.zeta1 * arr**2
    elif isinstance(profile, SechCoupling):
        # gd(x) = arctan(sinh(x)) written as 2*arctan(tanh(x/2)) so large
        # zeta2*t cannot overflow sinh.
        x = profile.zeta2 * arr
        out = (profile.lambda0 / profile.zeta2) * 2.0 * np.arctan(np.tanh(0.5 * x))
    elif isinstance(profile, SinusoidalCoupling):
        k = profile.p * profile.zeta3
        out = profile.lambda0 * (1.0 - np.cos(k * arr)) / k
    elif isinstance(profile, CustomCoupling):
        _check_range(profile, arr)
        idx = np.searchsorted(profile._t, arr, side="right") - 1
        idx = np.clip(idx, 0, len(profile.times) - 2)
        t0 = profile._t[idx]
        lam_t = np.interp(arr, profile._t, profile._v)
        out = profile._cum_area[idx] + 0.5 * (profile._v[idx] + lam_t) * (arr - t0)
    else:
        raise InvalidInputError(f"unknown coupling profile {type(profile).__name__}")
    return out if arr.ndim else float(out)


# 15-point Kronrod abscissae (positive half) and weights, with the embedded
# 7-point Gauss weights on the odd-indexed nodes.
_XGK_HALF = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK_HALF = (
    0.02293532201052922,
    0.06309209262997855,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG_HALF = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

_XK = np.array([-x for x in _XGK_HALF[:-1]] + [0.0] + [x for x in reversed(_XGK_HALF[:-1])])
_WK = np.array(list(_WGK_HALF[:-1]) + [_WGK_HALF[-1]] + list(reversed(_WGK_HALF[:-1])))
_WG = np.array(list(_WG_HALF[:-1]) + [_WG_HALF[-1]] + list(reversed(_WG_HALF[:-1])))
_GAUSS_SLICE = slice(1, 15, 2)  # Gauss nodes sit at the odd Kronrod indices


def _panel(profile, a, b):
    """Kronrod estimate and error indicator for one panel of lambda."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    # Clip so rounding cannot push a node past the panel (and past the end
    # of a tabulated profile).
    f = lambda_at(profile, np.clip(mid + half * _XK, a, b))
    k15 = half * float(_WK @ f)
    g7 = half * float(_WG @ f[_GAUSS_SLICE])
    diff = abs(k15 - g7)
    err = min(diff, (200.0 * diff) ** 1.5) if diff > 0.0 else 0.0
    return k15, err


def _seed_edges(profile, t):
    if isinstance(profile, CustomCoupling):
        inner = [x for x in profile.times if 0.0 < x < t]
        return [0.0] + inner + [t]
    if isinstance(profile, SinusoidalCoupling):
        period = 2.0 * math.pi / (profile.p * profile.zeta3)
        n0 = min(4096, max(1, math.ceil(4.0 * t / period)))
    else:
        n0 = min(8, max(1, math.ceil(t)))
    return list(np.linspace(0.0, t, n0 + 1))


def coupling_area_numeric(profile, t, tol=1e-10):
    """A(t) by global-adaptive Gauss-Kronrod quadrature of lambda.

    Bisects the worst panel until the summed error indicator drops below the
    absolute target ``tol``. Exhausting the panel budget raises
    NumericalFailureError carrying the best estimate and its error bound.
    """
    if not (isinstance(tol, (int, float)) and 0.0 < tol <= 1e-3):
        raise InvalidInputError("tol must lie in (0, 1e-3]")
    arr = _as_times(t)
    if arr.ndim:
        raise InvalidInputError("t must be a scalar")
    t = float(arr)
    if isinstance(profile, CustomCoupling) and t > profile.times[-1]:
        raise OutOfRangeError(f"t beyond tabulated range [0, {profile.times[-1]}]")
    if t == 0.0:
        return 0.0

    edges = _seed_edges(profile, t)
    heap = []
    tick = 0  # heap tiebreaker; keeps popping order deterministic
    total = 0.0
    total_err = 0.0
    evaluated = 0
    for a, b in zip(edges, edges[1:]):
        val, err = _panel(profile, a, b)
        evaluated += 1
        total += val
        total_err += err
        heapq.heappush(heap, (-err, tick, a, b, val, err))
        tick += 1

    while total_err > tol and evaluated < _PANEL_BUDGET:
        _, _, a, b, val, err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        lv, le = _panel(profile, a, mid)
        rv, re = _panel(profile, mid, b)
        evaluated += 2
        total += lv + rv - val
        total_err += le + re - err
        heapq.heappush(heap, (-le, tick, a, mid, lv, le))
        tick += 1
        heapq.heappush(heap, (-re, tick, mid, b, rv, re))
        tick += 1

    if total_err > tol:
        raise NumericalFailureError(
            f"quadrature budget exhausted at error {total_err:.3e} (target {tol:.3e})",
            estimate=total,
            error_bound=total_err,
        )
    return total
