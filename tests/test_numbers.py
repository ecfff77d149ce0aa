"""One rule for every numeric argument of the library.

Each argument refuses the same bad values with InvalidInputError, takes
every in-range Python or numpy number (a 0-d array too), and its
constructor stores Python numbers or float/complex arrays.
"""

import math

import numpy as np
import pytest

from jcdyn import (
    AtomDensityMatrix,
    AtomState,
    BlochVector,
    ConstantCoupling,
    CustomCoupling,
    InvalidInputError,
    JointPureState,
    LinearCoupling,
    PhotonDistribution,
    SchmidtData,
    SechCoupling,
    SinusoidalCoupling,
    coherent_amplitudes,
    custom_distribution,
    lambda_at,
    thermal_weights,
)
from jcdyn.coupling import coupling_area_numeric
from jcdyn.oracle import integrate_block, oracle_evolve_mixed

CONST = ConstantCoupling(1.0)
GRID = [0.0, 0.5]
ONE_LEVEL = np.array([1.0])
TWO_LEVELS = np.array([1.0, 0.0])


def photons(**kw):
    args = dict(kind="custom", weights=ONE_LEVEL, amplitudes=None, mean_n=0.0)
    return PhotonDistribution(**{**args, "tail_epsilon": 1e-12, **kw})


# name: (call with the argument, in-range float, in-range int or None, kind,
#        stored value of the result or None, list template and slot or None)
ARGUMENTS = {
    "lambda0": (ConstantCoupling, 1.5, 2, float, lambda r: r.lambda0, None),
    "zeta1": (lambda v: LinearCoupling(1.0, v), 1.5, 2, float, lambda r: r.zeta1, None),
    "zeta2": (lambda v: SechCoupling(1.0, v), 1.5, 2, float, lambda r: r.zeta2, None),
    "zeta3": (
        lambda v: SinusoidalCoupling(1.0, v), 1.5, 2, float, lambda r: r.zeta3, None
    ),
    "p": (lambda v: SinusoidalCoupling(1.0, 1.0, p=v), None, 2, int, lambda r: r.p, None),
    "times": (
        lambda v: CustomCoupling(v, (1.0, 1.0)), 1.5, 2, float, lambda r: r.times,
        ([0.0, 2.0], 1),
    ),
    "values": (
        lambda v: CustomCoupling((0.0, 1.0), v), 1.5, 2, float, lambda r: r.values,
        ([1.0, 1.0], 1),
    ),
    "t": (lambda v: lambda_at(CONST, v), 1.5, 2, float, None, None),
    "tol": (lambda v: coupling_area_numeric(CONST, 1.0, tol=v), 1e-6, None, float, None, None),
    "tail_epsilon (coherent)": (
        lambda v: coherent_amplitudes(1.0, v), 1e-6, None, float,
        lambda r: r.tail_epsilon, None,
    ),
    "tail_epsilon (thermal)": (
        lambda v: thermal_weights(1.0, v), 1e-6, None, float, lambda r: r.tail_epsilon, None
    ),
    "tail_epsilon (custom)": (
        lambda v: custom_distribution(weights=[1.0], tail_epsilon=v), 1e-6, None, float,
        lambda r: r.tail_epsilon, None,
    ),
    "alpha": (coherent_amplitudes, 1.5, 2, complex, lambda r: r.amplitudes, None),
    "mean_n (thermal)": (thermal_weights, 1.5, 2, float, lambda r: r.mean_n, None),
    "weights (custom)": (
        lambda v: custom_distribution(weights=v), 1.0, 1, float, lambda r: r.weights,
        ([1.0, 0.0], 0),
    ),
    "amplitudes (custom)": (
        lambda v: custom_distribution(amplitudes=v), 1.0, 1, complex,
        lambda r: r.amplitudes, ([1.0, 0.0], 0),
    ),
    "weights": (
        lambda v: photons(weights=v), 1.0, 1, float, lambda r: r.weights, ([1.0, 0.0], 0)
    ),
    "amplitudes": (
        lambda v: photons(weights=TWO_LEVELS, amplitudes=v), 1.0, 1, complex,
        lambda r: r.amplitudes, ([1.0, 0.0], 0),
    ),
    "mean_n": (lambda v: photons(mean_n=v), 1.5, 2, float, lambda r: r.mean_n, None),
    "tail_epsilon": (
        lambda v: photons(tail_epsilon=v), 1e-6, None, float, lambda r: r.tail_epsilon,
        None,
    ),
    "c_e": (lambda v: AtomState(v, 0.0), 1.0, 1, complex, lambda r: r.c_e, None),
    "c_g": (lambda v: AtomState(0.0, v), 1.0, 1, complex, lambda r: r.c_g, None),
    "amps_e": (
        lambda v: JointPureState(v, [0.0, 0.0], 0.0), 1.0, 1, complex,
        lambda r: r.amps_e, ([1.0, 0.0], 0),
    ),
    "amps_g": (
        lambda v: JointPureState([0.0, 0.0], v, 0.0), 1.0, 1, complex,
        lambda r: r.amps_g, ([1.0, 0.0], 0),
    ),
    "time": (
        lambda v: JointPureState([1.0], [0.0], v), 1.5, 2, float, lambda r: r.time, None
    ),
    "rho_ee": (
        lambda v: AtomDensityMatrix(v, 0.0, 0.0), 1.0, 1, float, lambda r: r.rho_ee, None
    ),
    "rho_gg": (
        lambda v: AtomDensityMatrix(0.0, v, 0.0), 1.0, 1, float, lambda r: r.rho_gg, None
    ),
    "rho_eg": (
        lambda v: AtomDensityMatrix(0.5, 0.5, v), 0.5, 0, complex, lambda r: r.rho_eg, None
    ),
    "mu_plus": (lambda v: SchmidtData(v, 0.0), 1.0, 1, float, lambda r: r.mu_plus, None),
    "mu_minus": (lambda v: SchmidtData(1.0, v), 0.0, 0, float, lambda r: r.mu_minus, None),
    "r_x": (lambda v: BlochVector(v, 0.0, 0.0, 1.0), 1.0, 1, float, lambda r: r.r_x, None),
    "r_y": (lambda v: BlochVector(0.0, v, 0.0, 1.0), 1.0, 1, float, lambda r: r.r_y, None),
    "r_z": (lambda v: BlochVector(0.0, 0.0, v, 1.0), 1.0, 1, float, lambda r: r.r_z, None),
    "r": (lambda v: BlochVector(1.0, 0.0, 0.0, v), 1.0, 1, float, lambda r: r.r, None),
    "n": (lambda v: integrate_block(v, (1.0, 0.0), CONST, GRID), None, 2, int, None, None),
    "initial": (
        lambda v: integrate_block(0, v, CONST, GRID), 1.0, 1, complex, None,
        ([1.0, 0.0], 0),
    ),
    "rk4_step": (
        lambda v: integrate_block(0, (1.0, 0.0), CONST, GRID, rk4_step=v), 0.25, 1, float,
        None, None,
    ),
    "t_grid": (
        lambda v: oracle_evolve_mixed(
            AtomDensityMatrix(1.0, 0.0, 0.0), thermal_weights(1.0), CONST, v
        ),
        0.5, 1, float, None, ([0.0, 0.5], 1),
    ),
}

BAD_ENTRIES = {
    "numeric-string": "1.5",
    "bool": True,
    "nan": math.nan,
    "inf": math.inf,
    "int-past-float": 10**400,
}


def _with_entry(template, value):
    if template is None:
        return value
    entries, slot = template
    entries = list(entries)
    entries[slot] = value
    return entries


@pytest.mark.parametrize("name", list(ARGUMENTS))
def test_every_numeric_argument_follows_one_rule(name):
    call, real, whole, kind, stored, template = ARGUMENTS[name]
    sample = _with_entry(template, real if whole is None else whole)
    bad = {key: _with_entry(template, v) for key, v in BAD_ENTRIES.items()}
    bad["object-array"] = np.array(sample, dtype=object)
    bad["ragged"] = [[sample], [sample, sample]]
    for key, value in bad.items():
        with pytest.raises(InvalidInputError):
            call(value)
            pytest.fail(f"{name} took the {key} value {value!r}")

    good = []
    if real is not None:
        good += [real, np.float32(real), np.array(real)]
    if whole is not None:
        good += [whole, np.int64(whole), np.array(whole)]
    for value in good:
        result = call(_with_entry(template, value))
        if stored is None:
            continue
        kept = stored(result)
        if isinstance(kept, np.ndarray):
            assert kept.dtype == np.dtype(kind), (name, value, kept.dtype)
        elif isinstance(kept, tuple):
            assert all(type(x) is kind for x in kept), (name, value, kept)
        else:
            assert type(kept) is kind, (name, value, type(kept))


def test_finiteness_check_allocates_no_mask():
    # A (20001, 71) complex array is 22.7 MB; a boolean mask of it would be
    # 1.36 MiB. The check reads min and max of its parts instead.
    import tracemalloc

    from jcdyn.errors import as_numbers

    amps = np.zeros((20001, 71), dtype=complex)
    tracemalloc.start()
    try:
        as_numbers(amps, "amps", 2, complex)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_finiteness_check_reads_every_layout():
    from jcdyn.errors import all_finite

    amps = np.zeros((40, 6), dtype=complex)
    for bad in (math.nan, math.inf, -math.inf, complex(0, math.nan), complex(0, -math.inf)):
        amps[7, 3] = bad
        assert not all_finite(amps) and not all_finite(amps[:, 1::2])
        assert not all_finite(amps.T) and not all_finite(amps.real + amps.imag)
        assert all_finite(amps[:, ::2])  # a strided view that skips the entry
        amps[7, 3] = 0.0
    assert all_finite(amps) and all_finite(np.array([-1e308, 1e308]))  # no sum overflows
    assert all_finite(np.empty((0, 3))) and all_finite(np.empty(0, dtype=complex))


def _must(message):
    return InvalidInputError, f"x must be {message}"


# (value, what as_numbers(value, "x", kind=k) gives for k = float, complex,
# int): the returned number, whose type is checked too, or the error. A
# list, not a dict: False == 0 would share a key.
PYTHON_NUMBERS = [
    (0, (0.0, 0j, 0)),
    (-1, (-1.0, -1 + 0j, -1)),
    (2**53 + 1, (2.0**53, complex(2.0**53), 2**53 + 1)),
    (2**70, (2.0**70, complex(2.0**70), _must("an integer"))),
    (10**400, (_must("finite"), _must("finite"), _must("finite"))),
    (1.5, (1.5, 1.5 + 0j, _must("an integer"))),
    (math.inf, (_must("finite"), _must("finite"), _must("an integer"))),
    (math.nan, (_must("finite"), _must("finite"), _must("an integer"))),
    (True, (_must("a real number"), _must("a number"), _must("an integer"))),
    (False, (_must("a real number"), _must("a number"), _must("an integer"))),
]


@pytest.mark.parametrize("kind", [float, complex, int], ids=lambda k: k.__name__)
@pytest.mark.parametrize(
    "value, expected", PYTHON_NUMBERS, ids=[repr(v)[:12] for v, _ in PYTHON_NUMBERS]
)
def test_python_numbers_table(value, expected, kind):
    from jcdyn.errors import as_numbers

    expected = expected[[float, complex, int].index(kind)]
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error) as caught:
            as_numbers(value, "x", kind=kind)
        assert str(caught.value) == message
    else:
        got = as_numbers(value, "x", kind=kind)
        assert type(got) is kind and got == expected


def _layouts(amps):
    """A 2-D complex array seen contiguous, strided, transposed, reversed
    and as a 1-D row, each holding entry (7, 3)."""
    return {
        "contiguous": amps,
        "fortran": np.asfortranarray(amps),
        "transposed": amps.T,
        "every_other_column": amps[:, 1::2],
        "reversed": amps[::-1, ::-1],
        "row": amps[7],
        "entry": amps[7, 3, ...],
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_finiteness_check_finds_each_part_in_each_layout(bad, part):
    from jcdyn.errors import all_finite

    amps = np.zeros((40, 6), dtype=complex)
    getattr(amps, part)[7, 3] = bad
    for name, view in _layouts(amps).items():
        assert not all_finite(view), name
        assert all_finite(view) == bool(np.isfinite(view).all()), name
    getattr(amps, part)[7, 3] = 1.0
    for name, view in _layouts(amps).items():
        assert all_finite(view), name
