"""Closed-form evolution: block rotations, conservation, mixed sectors."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from jcdyn import (
    AtomDensityMatrix,
    AtomState,
    ConstantCoupling,
    CustomCoupling,
    InvalidInputError,
    JointPureState,
    SechCoupling,
    SinusoidalCoupling,
    coherent_amplitudes,
    coupling_area,
    custom_distribution,
    evolve_mixed,
    evolve_pure,
    excitation_expectation,
    inversion_closed_form,
    lambda_at,
    oracle_evolve_mixed,
    parse_scenario,
    population_inversion,
    reduced_atom,
    run,
    thermal_weights,
)
from jcdyn import dynamics

CONST = ConstantCoupling(1.0)


def fock(n, size=None):
    """Pure field concentrated on photon number n."""
    size = (n + 1) if size is None else size
    amps = [0.0] * size
    amps[n] = 1.0
    return custom_distribution(amplitudes=amps)


def test_vacuum_block_quarter_turn():
    # |e,0> after area pi/2 sits entirely on -i |g,1>
    st = evolve_pure(AtomState.excited(), fock(0), CONST, math.pi / 2.0)
    assert abs(st.amps_g[1] - (-1j)) < 1e-15
    assert abs(st.amps_e[0]) < 1e-15
    assert st.time == math.pi / 2.0


def test_dark_state_is_invariant():
    st = evolve_pure(AtomState.ground(), fock(0), CONST, 17.3)
    assert st.amps_g[0] == 1.0 + 0.0j
    assert np.all(st.amps_e == 0.0)
    assert np.all(st.amps_g[1:] == 0.0)


def test_pure_norm_preserved():
    atom = AtomState(0.6, 0.8j)
    from jcdyn import coherent_amplitudes

    field = coherent_amplitudes(1.8)
    before = evolve_pure(atom, field, CONST, 0.0).norm()
    after = evolve_pure(atom, field, CONST, 12.7).norm()
    assert abs(after - before) < 1e-13


def test_doubled_angle_only_in_inversion():
    # On Fock |3> the amplitude rotates by A*sqrt(4) = 2A while the
    # inversion oscillates at twice that: W = cos(4A).
    field = fock(3)
    for t in (0.3, 1.1, 2.6):
        area = coupling_area(CONST, t)
        st = evolve_pure(AtomState.excited(), field, CONST, t)
        assert st.amps_e[3] == pytest.approx(math.cos(2.0 * area), abs=1e-14)
        w = population_inversion(reduced_atom(st))
        assert w == pytest.approx(math.cos(4.0 * area), abs=1e-13)
        assert inversion_closed_form(field, CONST, t) == pytest.approx(w, abs=1e-13)


def test_mixed_excited_populations_match_sector_formula():
    # evolve_mixed conditions on the retained sectors, so the literal
    # sector sums get divided by the retained mass
    field = thermal_weights(2.0)
    total = float(field.weights.sum())
    rho0 = AtomDensityMatrix.from_atom_state(AtomState.excited())
    for t in (0.5, 2.0, 7.7):
        area = coupling_area(CONST, t)
        n = np.arange(field.n_max + 1)
        expected_ee = field.weights @ np.cos(area * np.sqrt(n + 1.0)) ** 2
        rho = evolve_mixed(rho0, field, CONST, t)
        assert rho.rho_ee == pytest.approx(expected_ee / total, abs=1e-13)
        assert rho.rho_eg == 0.0
        assert population_inversion(rho) == pytest.approx(
            inversion_closed_form(field, CONST, t), abs=1e-12
        )


def test_mixed_sigma_x_overlap_damping():
    # the coherence shrinks by sum_n P_n cos(A sqrt(n)) cos(A sqrt(n+1))
    # and the populations follow the inverted-sector mix
    field = thermal_weights(0.5)
    rho0 = AtomDensityMatrix.from_atom_state(AtomState.plus_x())
    for t in (0.4, 1.9, 6.2):
        area = coupling_area(CONST, t)
        n = np.arange(field.n_max + 1)
        c_lo = np.cos(area * np.sqrt(n))
        c_hi = np.cos(area * np.sqrt(n + 1.0))
        s_lo = np.sin(area * np.sqrt(n))
        rho = evolve_mixed(rho0, field, CONST, t)
        total = float(field.weights.sum())
        assert rho.rho_eg.imag == 0.0
        assert rho.rho_eg.real == pytest.approx(
            0.5 * float(field.weights @ (c_lo * c_hi)) / total, abs=1e-13
        )
        # the conditioned populations satisfy the identity with the
        # retained-mass denominator, not the literal truncated sums
        expected_rz = float(field.weights @ (c_hi**2 + s_lo**2)) / total - 1.0
        assert rho.rho_ee - rho.rho_gg == pytest.approx(expected_rz, abs=1e-13)


def test_mixed_agrees_with_pure_on_fock_field():
    # a single Fock level is both pure and photon-diagonal, so the two
    # evolution routes must coincide
    atom = AtomState(0.8, 0.6j)
    pure_field = fock(2, size=4)
    mixed_field = custom_distribution(weights=[0.0, 0.0, 1.0, 0.0])
    rho0 = AtomDensityMatrix.from_atom_state(atom)
    for t in (0.9, 3.3):
        via_pure = reduced_atom(evolve_pure(atom, pure_field, CONST, t))
        via_mixed = evolve_mixed(rho0, mixed_field, CONST, t)
        assert via_pure.rho_ee == pytest.approx(via_mixed.rho_ee, abs=1e-12)
        assert via_pure.rho_gg == pytest.approx(via_mixed.rho_gg, abs=1e-12)
        assert via_pure.rho_eg == pytest.approx(via_mixed.rho_eg, abs=1e-12)


def test_mixed_keeps_pure_field_phases():
    # The reduced-state kernel reads a pure field's coherences as well as its
    # weights, so a coherent field keeps the phases the joint state carries.
    from jcdyn import coherent_amplitudes

    field = coherent_amplitudes(2.0)
    for atom, expected in (
        (AtomState.excited(), -0.27180j),
        (AtomState.plus_x(), 0.43798 - 0.13434j),
    ):
        rho0 = AtomDensityMatrix.from_atom_state(atom)
        for t in (1.3, np.array([0.0, 1.3])):
            rho = evolve_mixed(rho0, field, CONST, t)
            ref = reduced_atom(evolve_pure(atom, field, CONST, t))
            assert np.ravel(rho.rho_eg)[-1] == pytest.approx(expected, abs=5e-6)
            for name in ("rho_ee", "rho_gg", "rho_eg"):
                gap = np.abs(getattr(rho, name) - getattr(ref, name))
                assert np.all(gap <= 1e-14)


def _mp_rotated_pure(atom, field, area):
    """(ee, gg, eg) of the atom at 30 digits: rotate each block of the joint
    state by area * sqrt(n+1), then trace the field out."""
    amps = [mpmath.mpc(a) for a in field.amplitudes] + [mpmath.mpc(0)]
    ce, cg = mpmath.mpc(atom.c_e), mpmath.mpc(atom.c_g)
    e, g = [], [cg * amps[0]]  # the dark |g,0> does not turn
    for n in range(len(amps) - 1):
        theta = area * mpmath.sqrt(n + 1)
        c, s = mpmath.cos(theta), mpmath.sin(theta)
        e0, g0 = ce * amps[n], cg * amps[n + 1]
        e.append(c * e0 - 1j * s * g0)
        g.append(-1j * s * e0 + c * g0)
    ee = mpmath.fsum(abs(x) ** 2 for x in e)
    gg = mpmath.fsum(abs(x) ** 2 for x in g)
    eg = mpmath.fsum(x * mpmath.conj(y) for x, y in zip(e, g))
    return ee, gg, eg


def _mp_sector_sums(rho, field, area):
    """(ee, gg, eg) of the atom at 30 digits for a photon-diagonal mixture:
    sector n turns |e,n> by area * sqrt(n+1) and |g,n> by area * sqrt(n)."""
    ree, rgg = mpmath.mpf(rho.rho_ee), mpmath.mpf(rho.rho_gg)
    reg = mpmath.mpc(rho.rho_eg)
    ee = gg = eg = mpmath.mpf(0)
    for n, w in enumerate(field.weights):
        p = mpmath.mpf(w)
        c_lo = mpmath.cos(area * mpmath.sqrt(n))
        c_hi = mpmath.cos(area * mpmath.sqrt(n + 1))
        ee += p * (ree * c_hi**2 + rgg * (1 - c_lo**2))
        gg += p * (ree * (1 - c_hi**2) + rgg * c_lo**2)
        eg += p * reg * c_lo * c_hi
    return ee, gg, eg


def test_reduced_state_matches_mpmath_in_wide_regimes():
    # Wide fields and long times against a 30-digit reference that never
    # forms the kernel's coherence vectors. Both profiles bound the area, so
    # the largest block angle stays under 400 and its float rounding,
    # theta * 2^-53, under 1e-13: the check measures the kernel itself.
    from jcdyn import coherent_amplitudes

    atom = AtomState.plus_x()
    rho0 = AtomDensityMatrix.from_atom_state(atom)
    cases = (
        (coherent_amplitudes(30.0), SechCoupling(1.0, 0.3)),
        (thermal_weights(200.0), SinusoidalCoupling(1.0, 1.0, p=3)),
    )
    with mpmath.workdps(30):
        for field, profile in cases:
            for t in (0.7, 37.0, 1e4):
                area = coupling_area(profile, t)
                assert area * math.sqrt(field.n_max + 1) < 400.0
                if field.amplitudes is not None:
                    ee, gg, eg = _mp_rotated_pure(atom, field, mpmath.mpf(area))
                else:
                    ee, gg, eg = _mp_sector_sums(rho0, field, mpmath.mpf(area))
                rho = evolve_mixed(rho0, field, profile, t)
                trace = ee + gg
                assert abs(rho.rho_ee - float(ee / trace)) <= 1e-13
                assert abs(rho.rho_gg - float(gg / trace)) <= 1e-13
                assert abs(rho.rho_eg - complex(eg / trace)) <= 1e-13


def test_excitation_conserved():
    from jcdyn import coherent_amplitudes

    atom = AtomState.plus_x()
    field = coherent_amplitudes(1.3)
    prof = SinusoidalCoupling(1.0, 0.8, p=2)
    start = excitation_expectation(evolve_pure(atom, field, prof, 0.0))
    for t in (0.7, 4.4, 15.0):
        now = excitation_expectation(evolve_pure(atom, field, prof, t))
        assert now == pytest.approx(start, abs=1e-12)


def test_excitation_counts_dark_level_negative():
    st = evolve_pure(AtomState.ground(), fock(0), CONST, 0.0)
    assert excitation_expectation(st) == -0.5


def test_evolve_validation():
    field = fock(1)
    with pytest.raises(InvalidInputError):
        evolve_pure(AtomState.excited(), field, CONST, -1.0)
    with pytest.raises(InvalidInputError):
        evolve_pure(AtomState.excited(), thermal_weights(1.0), CONST, 1.0)
    with pytest.raises(InvalidInputError):
        evolve_mixed(
            AtomDensityMatrix.from_atom_state(AtomState.excited()),
            field,
            CONST,
            float("nan"),
        )


TIME_TABLE = CustomCoupling(times=(0.0, 2.0, 4.0), values=(0.5, 1.5, 1.0))


def time_entry_points(t):
    """Every public function that takes a time, called at ``t``."""
    return {
        "lambda_at": lambda: lambda_at(TIME_TABLE, t),
        "coupling_area": lambda: coupling_area(TIME_TABLE, t),
        "evolve_pure": lambda: evolve_pure(
            AtomState.excited(), coherent_amplitudes(1.0), TIME_TABLE, t
        ),
        "evolve_mixed": lambda: evolve_mixed(
            AtomDensityMatrix(1.0, 0.0, 0.0), thermal_weights(1.0), TIME_TABLE, t
        ),
        "inversion_closed_form": lambda: inversion_closed_form(
            thermal_weights(1.0), TIME_TABLE, t
        ),
    }


@pytest.mark.parametrize(
    "t",
    [math.nan, -1.0, np.ones((2, 2)), [[0.0], [1.0, 2.0]], "abc", "1.5", 5.0],
    ids=["nan", "negative", "2-D", "ragged", "abc", "numeric-string", "past-table"],
)
def test_bad_time_raises_alike_everywhere(t):
    # One check guards every entry point, so each refuses a bad time with
    # the same exception and message; an oracle grid is checked as a time.
    calls = time_entry_points(t)
    calls["oracle t_grid"] = lambda: oracle_evolve_mixed(
        AtomDensityMatrix(1.0, 0.0, 0.0), thermal_weights(1.0), TIME_TABLE, t
    )
    raised = {}
    for name, call in calls.items():
        with pytest.raises(InvalidInputError) as info:
            call()
        raised[name] = (type(info.value), str(info.value))
    assert len(set(raised.values())) == 1, raised


@pytest.mark.parametrize(
    "t",
    [0, 1.5, np.float64(1.5), np.array(1.5), [0.0, 1.5], np.array([0.0, 1.5])],
    ids=["int-zero", "float", "float64", "0-d", "list", "1-D"],
)
def test_good_time_accepted_everywhere(t):
    batch = np.ndim(t) == 1
    for name, call in time_entry_points(t).items():
        result = call()
        if name == "evolve_pure":
            result = result.time
        elif name == "evolve_mixed":
            result = result.rho_ee
        assert np.shape(result) == ((2,) if batch else ()), name


def test_atom_state_validation():
    with pytest.raises(InvalidInputError):
        AtomState(1.0, 1.0)  # norm 2
    with pytest.raises(InvalidInputError):
        AtomState(float("nan"), 0.0)
    s = AtomState.plus_x()
    assert abs(s.c_e) ** 2 + abs(s.c_g) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_validation():
    with pytest.raises(InvalidInputError):
        AtomDensityMatrix(0.7, 0.7, 0.0)  # trace 1.4
    with pytest.raises(InvalidInputError):
        AtomDensityMatrix(-0.2, 1.2, 0.0)
    with pytest.raises(InvalidInputError):
        AtomDensityMatrix(0.5, 0.5, 0.6)  # breaks positivity
    rho = AtomDensityMatrix(0.25, 0.75, 0.1j)
    m = rho.as_matrix()
    assert m[0, 1] == 0.1j and m[1, 0] == -0.1j


def test_joint_state_validation():
    with pytest.raises(InvalidInputError):
        JointPureState(np.array([1.0 + 0j]), np.array([0.0j, 0.0j]), 0.0)
    with pytest.raises(InvalidInputError):
        JointPureState(np.array([np.inf + 0j]), np.array([0.0j]), 0.0)
    with pytest.raises(InvalidInputError):
        JointPureState(np.array([1.0 + 0j]), np.array([0.0j]), -1.0)


def test_time_zero_returns_initial_embedding():
    from jcdyn import coherent_amplitudes

    atom = AtomState(0.6, 0.8)
    field = coherent_amplitudes(0.9)
    st = evolve_pure(atom, field, CONST, 0.0)
    np.testing.assert_array_equal(st.amps_e[:-1], 0.6 * field.amplitudes)
    np.testing.assert_array_equal(st.amps_g[:-1], 0.8 * field.amplitudes)
    assert st.amps_e[-1] == 0.0 and st.amps_g[-1] == 0.0
    rho0 = AtomDensityMatrix.from_atom_state(atom)
    assert evolve_mixed(rho0, thermal_weights(1.0), CONST, 0.0) is rho0


def _cos_sin_angles():
    """Angles that stress the half-angle form: 0, a subnormal-adjacent one,
    the doubles next to k*pi (tan(theta/2) near 0) and (2k+1)*pi (near a
    pole), and uniform draws over three widths."""
    ks = (1, 2, 3, 7, 10, 99, 1000, 12345, 10**5)
    centres = [k * math.pi for k in ks] + [(2 * k + 1) * math.pi for k in ks]
    near = []
    for x in centres:
        lo = hi = x
        for _ in range(3):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            near += [lo, hi]
        near.append(x)
    rng = np.random.default_rng(20261018)
    draws = [rng.uniform(0.0, top, 200) for top in (400.0, 1e4, 1e6)]
    return np.concatenate([[0.0, 1e-300], near, *draws])


def test_cos_sin_matches_mpmath():
    # cos and sin from one tan(theta/2) against 40-digit values at the
    # exact double angle; eps * theta, the rounding the angle itself
    # carries, is not part of this error.
    theta = _cos_sin_angles()
    c, s = dynamics._cos_sin(theta.copy())
    assert c[0] == 1.0 and s[0] == 0.0
    assert np.all(np.abs(c * c + s * s - 1.0) <= 1e-15)
    with mpmath.workdps(40):
        for x, ci, si in zip(theta.tolist(), c.tolist(), s.tolist()):
            angle = mpmath.mpf(x)
            assert abs(ci - mpmath.cos(angle)) <= 4e-16, x
            assert abs(si - mpmath.sin(angle)) <= 4e-16, x


def test_cos_sin_stays_finite_at_widest_angle():
    # 1e300 is as wide as _angles admits; t^2 must not overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, s = dynamics._cos_sin(np.array([1e300, -1e300]))
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(s))
    assert np.all(np.abs(c * c + s * s - 1.0) <= 1e-15)


@pytest.mark.parametrize(
    "atom, field, per_block",
    (
        ("excited", {"coherent": 2}, 1),
        ("ground", {"coherent": 2}, 1),
        ("plus_x", {"coherent": 2}, 3),
        ("excited", {"thermal": 2}, 0),
        ("ground", {"thermal": 2}, 0),
        ("plus_x", {"thermal": 2}, 0),
    ),
)
def test_reduced_sums_skip_zero_atomic_factors(monkeypatch, atom, field, per_block):
    # Each complex matvec carries one atomic factor (rho_ee, rho_gg or
    # rho_eg); a factor that is exactly 0 costs no (T, N) work. The 51 times
    # fit one row block.
    counts = {"calls": 0, "cmatvec": 0}
    reduced_sums, cmatvec = dynamics._reduced_sums, dynamics._cmatvec

    def counted_sums(*args):
        counts["calls"] += 1
        return reduced_sums(*args)

    def counted_cmatvec(*args):
        counts["cmatvec"] += 1
        return cmatvec(*args)

    monkeypatch.setattr(dynamics, "_reduced_sums", counted_sums)
    monkeypatch.setattr(dynamics, "_cmatvec", counted_cmatvec)
    scenario = parse_scenario(
        {
            "atom": atom,
            "field": field,
            "profile": {"constant": {"lambda0": 1}},
            "time": {"t_end": 10, "steps": 51},
        }
    )
    run(scenario)
    assert counts == {"calls": 1, "cmatvec": per_block}


def test_excited_atom_on_mixed_field_has_no_coherence():
    rho0 = AtomDensityMatrix.from_atom_state(AtomState.excited())
    rho = evolve_mixed(rho0, thermal_weights(5.0), CONST, np.linspace(0.0, 20.0, 101))
    assert np.all(rho.rho_eg == 0.0)
