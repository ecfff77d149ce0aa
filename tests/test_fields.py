"""Photon statistics: truncation bounds, reference values, validation."""

import cmath
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jcdyn
from jcdyn import (
    InvalidInputError,
    PhotonDistribution,
    coherent_amplitudes,
    custom_distribution,
    thermal_weights,
)


def test_coherent_matches_poisson_reference():
    alpha = 1.7 * cmath.exp(0.4j)
    d = coherent_amplitudes(alpha)
    a2 = abs(alpha) ** 2
    for n in range(d.n_max + 1):
        expected = math.exp(-a2) * a2**n / math.factorial(n)
        assert d.weights[n] == pytest.approx(expected, rel=1e-12)
        # amplitude phase advances by arg(alpha) per photon
        assert cmath.phase(complex(d.amplitudes[n]) / abs(d.amplitudes[n])) == (
            pytest.approx(math.remainder(0.4 * n, 2 * math.pi), abs=1e-12)
        )
    assert d.mean_n == pytest.approx(a2, rel=1e-15)
    assert d.kind == "coherent"


def test_coherent_cutoff_matches_direct_tail_summation():
    # independent oracle: accumulate Poisson terms until the tail drops
    # below the bound, then demand the same minimal cutoff
    eps = 1e-12
    d = coherent_amplitudes(1.0, tail_epsilon=eps)
    cum, n = 0.0, 0
    while True:
        cum += math.exp(-1.0) / math.factorial(n)
        if cum > 1.0 - eps:
            break
        n += 1
    assert d.n_max == n == 14


def test_coherent_mass_within_tail_bound():
    # at 5e-162, |alpha|^2 is subnormal and |alpha|^2 / n rounds to 0
    for alpha in (5e-162, 0.3, 1.0, 2.5, 5.0):
        d = coherent_amplitudes(alpha)
        total = math.fsum(d.weights)
        assert 1.0 - d.tail_epsilon <= total <= 1.0 + 1e-13
        # dropping the last level must cross below the bound (minimality)
        assert math.fsum(d.weights[:-1]) <= 1.0 - d.tail_epsilon + 1e-13


@pytest.mark.parametrize(
    "alpha", [0.5, 1.7 * cmath.exp(0.4j), 10.0, 30.0, 100.0, 180.0], ids=str
)
def test_coherent_matches_mpmath_weights_and_cutoff(alpha):
    # 40-digit Poisson weights by recurrence; the cutoff is the first n whose
    # exact upper tail is below the bound
    eps = 1e-12
    d = coherent_amplitudes(alpha, tail_epsilon=eps)
    with mpmath.workdps(40):
        a2 = mpmath.mpf(abs(complex(alpha))) ** 2
        p = mpmath.exp(-a2)
        mass, n, worst, n_max = mpmath.mpf(0), 0, 0.0, None
        while n_max is None or n <= d.n_max:
            if p > 1e-30:
                assert n <= d.n_max, f"weight {float(p):.3e} at n={n} was cut"
                worst = max(worst, abs(float((d.weights[n] - p) / p)))
            mass += p
            if n_max is None and 1 - mass < eps:
                n_max = n
            n += 1
            p *= a2 / n
    assert d.n_max == n_max
    assert worst <= 1e-12


def test_coherent_search_ends_at_large_alpha():
    # In a child process with a time limit and an address-space cap, so a
    # search that never ends fails here instead of hanging the suite or
    # exhausting memory.
    code = """
import json, math, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from jcdyn import coherent_amplitudes
out = []
for alpha in (180.0, 250.0):
    start = time.perf_counter()
    d = coherent_amplitudes(alpha)
    out.append([type(d).__name__, math.fsum(d.weights), d.tail_epsilon,
                time.perf_counter() - start])
print(json.dumps(out))
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(jcdyn.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    for name, total, eps, seconds in json.loads(proc.stdout):
        assert name == PhotonDistribution.__name__
        assert 1.0 - eps <= total <= 1.0 + 1e-12
        assert seconds < 2.0


@pytest.mark.parametrize(
    "build",
    [lambda: thermal_weights(1e9), lambda: coherent_amplitudes(1e5)],
    ids=["thermal", "coherent"],
)
def test_level_budget_refuses_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match="budget"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_coherent_amplitudes_square_to_weights():
    d = coherent_amplitudes(2.2 + 0.5j)
    np.testing.assert_array_equal(np.abs(d.amplitudes) ** 2, d.weights)
    assert d.is_pure


def test_coherent_vacuum():
    d = coherent_amplitudes(0.0)
    assert d.n_max == 0
    assert d.weights[0] == 1.0
    assert d.amplitudes[0] == 1.0 + 0.0j
    assert d.mean_n == 0.0


def test_coherent_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        coherent_amplitudes(float("nan"))
    with pytest.raises(InvalidInputError):
        coherent_amplitudes(1.0, tail_epsilon=0.0)
    with pytest.raises(InvalidInputError):
        coherent_amplitudes(1.0, tail_epsilon=1.0)


def test_thermal_geometric_ratio():
    mean = 25.0
    d = thermal_weights(mean)
    q = mean / (1.0 + mean)
    assert d.weights[0] == pytest.approx(1.0 / 26.0, rel=1e-15)
    ratios = d.weights[1:] / d.weights[:-1]
    np.testing.assert_allclose(ratios, q, rtol=1e-12)
    assert d.amplitudes is None
    assert not d.is_pure


def test_thermal_cutoff_analytic():
    # q^(n_max+1) < eps <= q^n_max pins the minimal analytic cutoff
    d = thermal_weights(25.0)
    assert d.n_max == 704
    q = 25.0 / 26.0
    assert q ** (d.n_max + 1) < 1e-12 <= q**d.n_max


def test_thermal_cutoff_matches_direct_summation():
    eps = 1e-12
    for mean in (0.5, 3.7, 25.0):
        d = thermal_weights(mean, tail_epsilon=eps)
        q = mean / (1.0 + mean)
        n, tail = 0, 1.0
        while True:
            tail *= q  # geometric tail past n equals q^(n+1)
            if tail < eps:
                break
            n += 1
        assert d.n_max == n


def test_thermal_vacuum_and_errors():
    d = thermal_weights(0.0)
    assert d.n_max == 0 and d.weights[0] == 1.0
    with pytest.raises(InvalidInputError):
        thermal_weights(-0.1)
    with pytest.raises(InvalidInputError):
        thermal_weights(float("inf"))


def test_custom_weights_renormalized_within_gate():
    w = [0.25, 0.25, 0.5 + 3e-10]
    d = custom_distribution(weights=w)
    assert math.fsum(d.weights) == pytest.approx(1.0, abs=1e-15)
    assert d.mean_n == pytest.approx((0.25 + 2 * (0.5 + 3e-10)) / (1 + 3e-10), rel=1e-12)
    assert not d.is_pure


def test_custom_weights_rejects_bad_tables():
    with pytest.raises(InvalidInputError):
        custom_distribution(weights=[0.5, 0.5 + 2e-9])  # off by 2e-9
    with pytest.raises(InvalidInputError):
        custom_distribution(weights=[-0.1, 1.1])
    with pytest.raises(InvalidInputError):
        custom_distribution(weights=[])
    with pytest.raises(InvalidInputError):
        custom_distribution()
    with pytest.raises(InvalidInputError):
        custom_distribution(weights=[1.0], amplitudes=[1.0])


def test_custom_amplitudes_pure():
    s = 1.0 / math.sqrt(2.0)
    d = custom_distribution(amplitudes=[s, 1j * s])
    assert d.is_pure
    np.testing.assert_allclose(d.weights, [0.5, 0.5], atol=1e-15)
    assert d.mean_n == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(InvalidInputError):
        custom_distribution(amplitudes=[1.0, 0.1])


@given(
    modulus=st.floats(0.0, 4.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    eps=st.floats(1e-14, 1e-6),
)
@settings(max_examples=80, deadline=None)
def test_coherent_truncation_property(modulus, phase, eps):
    d = coherent_amplitudes(cmath.rect(modulus, phase), tail_epsilon=eps)
    total = math.fsum(d.weights)
    assert 1.0 - eps - 1e-13 <= total <= 1.0 + 1e-12
    if d.n_max > 0:
        assert math.fsum(d.weights[:-1]) <= 1.0 - eps + 1e-13
    np.testing.assert_array_equal(np.abs(d.amplitudes) ** 2, d.weights)


@given(mean=st.floats(0.0, 60.0), eps=st.floats(1e-14, 1e-6))
@settings(max_examples=80, deadline=None)
def test_thermal_truncation_property(mean, eps):
    d = thermal_weights(mean, tail_epsilon=eps)
    total = math.fsum(d.weights)
    assert 1.0 - eps - 1e-13 <= total <= 1.0 + 1e-12
    if mean > 0.0:
        q = mean / (1.0 + mean)
        assert q ** (d.n_max + 1) < eps
        if d.n_max > 0:
            assert q**d.n_max >= eps


@pytest.mark.parametrize(
    "dist",
    [coherent_amplitudes(a) for a in (10.0, 30.0, 100.0, 180.0)]
    + [thermal_weights(m) for m in (5.0, 1000.0)],
    ids=["alpha10", "alpha30", "alpha100", "alpha180", "thermal5", "thermal1000"],
)
def test_weight_total_matches_full_fsum(dist):
    # The sum check skips weights below 2^-80 of the largest; what it skips
    # must not show in the total.
    from jcdyn.fields import _weight_total

    assert abs(_weight_total(dist.weights) - math.fsum(dist.weights)) <= 1e-17
