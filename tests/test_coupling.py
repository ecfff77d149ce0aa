"""Coupling profiles: closed-form areas, quadrature cross-check, domains."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jcdyn.coupling as coupling_mod
from jcdyn import (
    ConstantCoupling,
    CustomCoupling,
    InvalidInputError,
    LinearCoupling,
    NumericalFailureError,
    OutOfRangeError,
    SechCoupling,
    SinusoidalCoupling,
    coupling_area,
    coupling_area_numeric,
    lambda_at,
)

TABLE = CustomCoupling(times=(0.0, 1.0, 3.0, 4.0), values=(0.0, 2.0, 2.0, 0.0))

# One instance of every class in PROFILES, with a time inside its domain.
EXAMPLES = {
    ConstantCoupling: (ConstantCoupling(1.0), 50.0),
    LinearCoupling: (LinearCoupling(1.0, 0.16), 50.0),
    SechCoupling: (SechCoupling(1.0, 0.3), 50.0),
    SinusoidalCoupling: (SinusoidalCoupling(1.0, 1.0, p=1), 50.0),
    CustomCoupling: (TABLE, 3.9),
}


def test_constant_and_linear_closed_forms():
    assert lambda_at(ConstantCoupling(2.0), 7.5) == 2.0
    assert coupling_area(ConstantCoupling(2.0), 3.0) == 6.0
    lin = LinearCoupling(2.0, 0.3)
    assert lambda_at(lin, 4.0) == pytest.approx(2.4, rel=1e-15)
    assert coupling_area(lin, 4.0) == pytest.approx(4.8, rel=1e-15)


def test_sech_reference_values():
    prof = SechCoupling(1.0, 0.3)
    # sech(3) and arctan(sinh(3))/0.3, 25-digit references
    assert lambda_at(prof, 10.0) == pytest.approx(0.09932792741943321, rel=1e-14)
    assert coupling_area(prof, 10.0) == pytest.approx(4.904347803723976, rel=1e-14)


def test_sech_area_saturates_without_overflow():
    prof = SechCoupling(1.0, 0.3)
    with np.errstate(over="raise"):
        late = coupling_area(prof, 1e6)
    assert late == pytest.approx(math.pi / 0.6, rel=1e-12)
    assert coupling_area(prof, 1e6) >= coupling_area(prof, 100.0)


def test_sinusoidal_area_period_and_peak():
    prof = SinusoidalCoupling(1.5, 0.7, p=2)
    period = 2.0 * math.pi / (2 * 0.7)
    for k in (1, 2, 5):
        assert coupling_area(prof, k * period) == pytest.approx(0.0, abs=1e-12)
    assert coupling_area(prof, period / 2.0) == pytest.approx(
        2.0 * 1.5 / (2 * 0.7), rel=1e-12
    )


@pytest.mark.parametrize(
    "prof",
    [SinusoidalCoupling(1.0, 1.0), SinusoidalCoupling(1.5, 0.7, p=2)],
    ids=["unit", "harmonic"],
)
def test_sinusoidal_area_keeps_relative_accuracy_near_zero(prof):
    # lambda0 (1 - cos kt) / k at 40 digits: the area keeps its relative
    # digits down to kt = 1e-10, where 1 - cos(kt) in doubles is all error.
    with mpmath.workdps(40):
        k = prof.p * mpmath.mpf(prof.zeta3)
        for kt in np.geomspace(1e-10, 3.0, 41):
            t = float(kt) / (prof.p * prof.zeta3)
            exact = prof.lambda0 * (1 - mpmath.cos(k * t)) / k
            assert abs(coupling_area(prof, t) - exact) <= 1e-15 * exact, kt


def test_custom_interpolation_and_area():
    assert lambda_at(TABLE, 0.5) == 1.0
    assert lambda_at(TABLE, 2.0) == 2.0
    assert lambda_at(TABLE, 3.5) == 1.0
    # trapezoids: 1 + 4 + 1
    assert coupling_area(TABLE, 4.0) == pytest.approx(6.0, rel=1e-15)
    assert coupling_area(TABLE, 0.5) == pytest.approx(0.25, rel=1e-15)
    assert coupling_area(TABLE, 3.5) == pytest.approx(5.75, rel=1e-15)
    assert coupling_area(TABLE, 0.0) == 0.0


def test_custom_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        lambda_at(TABLE, 4.0 + 1e-9)
    with pytest.raises(OutOfRangeError):
        coupling_area(TABLE, 5.0)
    with pytest.raises(OutOfRangeError):
        coupling_area_numeric(TABLE, 5.0)


def test_custom_table_validation():
    with pytest.raises(InvalidInputError):
        CustomCoupling(times=(0.5, 1.0), values=(1.0, 1.0))  # must start at 0
    with pytest.raises(InvalidInputError):
        CustomCoupling(times=(0.0, 1.0, 1.0), values=(1.0, 1.0, 1.0))
    with pytest.raises(InvalidInputError):
        CustomCoupling(times=(0.0,), values=(1.0,))
    with pytest.raises(InvalidInputError):
        CustomCoupling(times=(0.0, float("nan")), values=(1.0, 1.0))


def test_parameter_validation():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            ConstantCoupling(bad)
        with pytest.raises(InvalidInputError):
            LinearCoupling(1.0, bad)
        with pytest.raises(InvalidInputError):
            SechCoupling(bad, 1.0)
        with pytest.raises(InvalidInputError):
            SinusoidalCoupling(1.0, bad)
    with pytest.raises(InvalidInputError):
        SinusoidalCoupling(1.0, 1.0, p=0)
    with pytest.raises(InvalidInputError):
        SinusoidalCoupling(1.0, 1.0, p=1.5)
    for make in (
        lambda: ConstantCoupling(True),
        lambda: LinearCoupling(1.0, False),
        lambda: SinusoidalCoupling(1.0, True),
        lambda: SinusoidalCoupling(1.0, 1.0, p=True),
    ):
        with pytest.raises(InvalidInputError):
            make()


def test_negative_time_rejected():
    for prof in (ConstantCoupling(1.0), TABLE):
        with pytest.raises(InvalidInputError):
            lambda_at(prof, -0.1)
        with pytest.raises(InvalidInputError):
            coupling_area(prof, -0.1)
        with pytest.raises(InvalidInputError):
            coupling_area_numeric(prof, -0.1)


def test_array_evaluation_matches_scalars():
    ts = np.array([0.0, 0.7, 2.2, 3.9])
    for prof in (
        ConstantCoupling(1.3),
        LinearCoupling(1.0, 0.4),
        SechCoupling(2.0, 0.5),
        SinusoidalCoupling(1.0, 1.1, p=3),
        TABLE,
    ):
        np.testing.assert_allclose(
            lambda_at(prof, ts), [lambda_at(prof, t) for t in ts], rtol=0, atol=0
        )
        np.testing.assert_allclose(
            coupling_area(prof, ts),
            [coupling_area(prof, t) for t in ts],
            rtol=0,
            atol=0,
        )


def test_quadrature_agrees_with_closed_forms():
    cases = [EXAMPLES[cls] for cls in coupling_mod.PROFILES]
    cases.append((SinusoidalCoupling(2.0, 3.0, p=7), 37.7))
    for prof, t in cases:
        numeric = coupling_area_numeric(prof, t, tol=1e-12)
        assert numeric == pytest.approx(coupling_area(prof, t), abs=5e-12)


def test_quadrature_tolerance_validation():
    with pytest.raises(InvalidInputError):
        coupling_area_numeric(ConstantCoupling(1.0), 1.0, tol=0.0)
    with pytest.raises(InvalidInputError):
        coupling_area_numeric(ConstantCoupling(1.0), 1.0, tol=2e-3)


def test_quadrature_budget_exhaustion_reports_estimate(monkeypatch):
    monkeypatch.setattr(coupling_mod, "_PANEL_BUDGET", 40)
    prof = SinusoidalCoupling(1.0, 50.0, p=9)
    with pytest.raises(NumericalFailureError) as info:
        coupling_area_numeric(prof, 200.0, tol=1e-13)
    err = info.value
    assert err.estimate is not None
    assert err.error_bound is not None and err.error_bound > 1e-13
    assert abs(err.estimate - coupling_area(prof, 200.0)) <= err.error_bound * 100


@st.composite
def profile_and_time(draw):
    kind = draw(st.sampled_from(["constant", "linear", "sech", "sinusoidal"]))
    lam0 = draw(st.floats(0.1, 3.0))
    t = draw(st.floats(0.0, 30.0))
    if kind == "constant":
        return ConstantCoupling(lam0), t
    if kind == "linear":
        return LinearCoupling(lam0, draw(st.floats(0.01, 1.0))), t
    if kind == "sech":
        return SechCoupling(lam0, draw(st.floats(0.05, 2.0))), t
    return (
        SinusoidalCoupling(lam0, draw(st.floats(0.1, 2.0)), p=draw(st.integers(1, 4))),
        t,
    )


@given(profile_and_time())
@settings(max_examples=100, deadline=None)
def test_quadrature_property(case):
    prof, t = case
    assert coupling_area_numeric(prof, t, tol=1e-10) == pytest.approx(
        coupling_area(prof, t), abs=1e-8
    )


@st.composite
def table_and_times(draw):
    steps = draw(st.lists(st.floats(1e-6, 50.0), min_size=1, max_size=10))
    times = np.concatenate(([0.0], np.cumsum(steps)))
    assume(np.all(np.diff(times) > 0.0))
    values = draw(
        st.lists(st.floats(-1e6, 1e6), min_size=times.size, max_size=times.size)
    )
    # Every knot with both float neighbours, 0 and t_max, and points between.
    probes = np.concatenate(
        (
            times,
            np.nextafter(times, -np.inf),
            np.nextafter(times, np.inf),
            [0.0, times[-1]],
            times[-1] * np.array(draw(st.lists(st.floats(0.0, 1.0), max_size=20))),
        )
    )
    return CustomCoupling(times=tuple(times), values=tuple(values)), probes.tolist()


@given(table_and_times())
@settings(max_examples=200, deadline=None)
def test_custom_rate_at_a_float_is_np_interp_bit_for_bit(case):
    # The oracle evaluates the rate at one Python float per stage; that path
    # skips np.interp and must return its bits, signed zeros included.
    prof, probes = case
    for t in probes:
        got = prof.rate(t)
        want = np.interp(t, prof.times, prof.values)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), t
