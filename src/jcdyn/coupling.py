"""Time-dependent atom-field coupling profiles and their accumulated area.

On resonance the dynamics depends on the modulation lambda(t) only through
its running integral A(t), so every built-in profile carries a closed-form
area next to its pointwise value. A global-adaptive Gauss-Kronrod fallback
covers tabulated profiles and doubles as an independent cross-check of the
closed forms.
"""

import bisect
import heapq
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
    InvalidInputError,
    NumericalFailureError,
    OutOfRangeError,
    as_numbers,
)

_PANEL_BUDGET = 2**20


def check_parameter(field, value):
    """A profile field's value as its type demands, or InvalidInputError:
    a ``float`` field takes a real number > 0, an ``int`` field an integer
    >= 1."""
    value = as_numbers(value, field.name, kind=field.type)
    if not value > 0:
        raise InvalidInputError(f"{field.name} must be > 0")
    return value


def scalar_fields(profile):
    """A profile's parameters by name: its ``float`` and ``int`` fields.

    Takes a profile class or an instance.
    """
    return {f.name: f for f in fields(profile) if f.type in (float, int)}


class _Profile:
    """What every coupling profile shares.

    Each subclass is a frozen dataclass naming its JSON ``key`` and giving
    ``rate(t)`` and ``area(t)`` as array expressions over checked times.
    Its ``float`` and ``int`` fields are its scalar parameters; the scenario
    codec reads, writes and sweeps them by name.
    """

    t_max = math.inf  # last time the profile is defined at

    def __post_init__(self):
        for name, field in scalar_fields(self).items():
            value = check_parameter(field, getattr(self, name))
            object.__setattr__(self, name, value)

    def revival(self, mean_n):
        """Predicted revival instant for a field of mean photon number
        ``mean_n``, or None when no closed form exists."""
        return None

    def seed_edges(self, t):
        """Initial panel edges on [0, t] for the adaptive quadrature."""
        n0 = min(8, max(1, math.ceil(t)))
        return list(np.linspace(0.0, t, n0 + 1))


@dataclass(frozen=True)
class ConstantCoupling(_Profile):
    """lambda(t) = lambda0."""

    key = "constant"
    lambda0: float

    def rate(self, t):
        return np.full_like(t, self.lambda0)

    def area(self, t):
        return self.lambda0 * t

    def revival(self, mean_n):
        """Collapse-revival time 2 pi sqrt(mean_n) / lambda0."""
        return 2.0 * math.pi * math.sqrt(mean_n) / self.lambda0


@dataclass(frozen=True)
class LinearCoupling(_Profile):
    """lambda(t) = lambda0 * zeta1 * t."""

    key = "linear"
    lambda0: float
    zeta1: float

    def rate(self, t):
        return self.lambda0 * self.zeta1 * t

    def area(self, t):
        return 0.5 * self.lambda0 * self.zeta1 * t**2

    def revival(self, mean_n):
        """Revival time 2 sqrt(pi sqrt(mean_n) / (lambda0 zeta1))."""
        return 2.0 * math.sqrt(
            math.pi * math.sqrt(mean_n) / (self.lambda0 * self.zeta1)
        )


@dataclass(frozen=True)
class SechCoupling(_Profile):
    """lambda(t) = lambda0 * sech(zeta2 * t), a pulse that switches off."""

    key = "sech"
    lambda0: float
    zeta2: float

    def rate(self, t):
        return self.lambda0 / np.cosh(self.zeta2 * t)

    def area(self, t):
        # gd(x) = arctan(sinh(x)) written as 2*arctan(tanh(x/2)) so large
        # zeta2*t cannot overflow sinh.
        x = self.zeta2 * t
        return (self.lambda0 / self.zeta2) * 2.0 * np.arctan(np.tanh(0.5 * x))


@dataclass(frozen=True)
class SinusoidalCoupling(_Profile):
    """lambda(t) = lambda0 * sin(p * zeta3 * t) with integer harmonic p."""

    key = "sinusoidal"
    lambda0: float
    zeta3: float
    p: int = 1

    def rate(self, t):
        return self.lambda0 * np.sin(self.p * self.zeta3 * t)

    def area(self, t):
        # 1 - cos(kt) as 2 sin^2(kt/2): the difference loses every relative
        # digit as kt goes to 0.
        k = self.p * self.zeta3
        return 2.0 * self.lambda0 * np.sin(0.5 * k * t) ** 2 / k

    def seed_edges(self, t):
        period = 2.0 * math.pi / (self.p * self.zeta3)
        n0 = min(4096, max(1, math.ceil(4.0 * t / period)))
        return list(np.linspace(0.0, t, n0 + 1))


@dataclass(frozen=True)
class CustomCoupling(_Profile):
    """Piecewise-linear lambda(t) through tabulated (time, value) points.

    Times must start at 0 and increase strictly; queries beyond the last
    tabulated time are rejected rather than extrapolated.
    """

    key = "custom"
    times: tuple
    values: tuple

    def __post_init__(self):
        times = as_numbers(self.times, "times", 1)
        values = as_numbers(self.values, "values", 1)
        if times.size < 2 or times.size != values.size:
            raise InvalidInputError(
                "need at least two (time, value) points of equal count"
            )
        if times[0] != 0.0:
            raise InvalidInputError("times must start at 0")
        if np.any(np.diff(times) <= 0.0):
            raise InvalidInputError("times must increase strictly")
        object.__setattr__(self, "times", tuple(times.tolist()))
        object.__setattr__(self, "values", tuple(values.tolist()))

    @property
    def t_max(self):
        return self.times[-1]

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

    def rate(self, t):
        if not isinstance(t, float) or math.isnan(t):
            return np.interp(t, self._t, self._v)
        # np.interp's own steps at one float, without its array set-up.
        times, values = self.times, self.values
        j = bisect.bisect_right(times, t) - 1
        if j < 0:
            return values[0]
        if j == len(times) - 1 or times[j] == t:
            return values[j]
        slope = (values[j + 1] - values[j]) / (times[j + 1] - times[j])
        return slope * (t - times[j]) + values[j]

    def area(self, t):
        idx = np.searchsorted(self._t, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.times) - 2)
        t0 = self._t[idx]
        return self._cum_area[idx] + 0.5 * (self._v[idx] + self.rate(t)) * (t - t0)

    def seed_edges(self, t):
        return [0.0] + [x for x in self.times if 0.0 < x < t] + [t]


PROFILES = (
    ConstantCoupling,
    LinearCoupling,
    SechCoupling,
    SinusoidalCoupling,
    CustomCoupling,
)


def _as_times(profile, t):
    """Every time argument's one check, returning a float array of t's shape:
    a real number or 1-D sequence (``as_numbers``), non-negative and inside
    the profile's span."""
    arr = np.asarray(as_numbers(t, "t", (0, 1)))
    if np.any(arr < 0.0):
        raise InvalidInputError("t must be non-negative")
    if np.any(arr > profile.t_max):
        raise OutOfRangeError(f"t beyond tabulated range [0, {profile.t_max}]")
    return arr


def lambda_at(profile, t):
    """Coupling rate lambda(t). Accepts a scalar or a 1-D array of times."""
    arr = _as_times(profile, t)
    out = profile.rate(arr)
    return out if arr.ndim else float(out)


def coupling_area(profile, t):
    """Accumulated area A(t) = integral of lambda from 0 to t, closed form.

    Accepts a scalar or a 1-D array of times. Parameters so large that the
    area overflows raise InvalidInputError naming the first such time.
    """
    arr = _as_times(profile, t)
    with np.errstate(over="ignore", invalid="ignore"):
        out = profile.area(arr)
    bad = ~np.isfinite(out)
    if np.any(bad):
        first = float(np.atleast_1d(arr)[np.atleast_1d(bad)][0])
        raise InvalidInputError(f"coupling area is not finite at t = {first!r}")
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


def coupling_area_numeric(profile, t, tol=1e-10):
    """A(t) by global-adaptive Gauss-Kronrod quadrature of lambda.

    Bisects the worst panel until the summed error indicator drops below the
    absolute target ``tol``. Exhausting the panel budget raises
    NumericalFailureError carrying the best estimate and its error bound.
    """
    if not 0.0 < as_numbers(tol, "tol") <= 1e-3:
        raise InvalidInputError("tol must lie in (0, 1e-3]")
    arr = _as_times(profile, t)
    if arr.ndim:
        raise InvalidInputError("t must be a scalar")
    t = float(arr)
    if t == 0.0:
        return 0.0

    edges = profile.seed_edges(t)
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
