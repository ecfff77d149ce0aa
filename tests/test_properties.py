"""Randomized invariants: unitarity, conservation, state validity, identities."""

import cmath
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from jcdyn import (
    AtomDensityMatrix,
    AtomState,
    ConstantCoupling,
    CustomCoupling,
    LinearCoupling,
    SechCoupling,
    SinusoidalCoupling,
    atom_eigenvalues,
    bloch_vector,
    coherent_amplitudes,
    custom_distribution,
    evolve_mixed,
    evolve_pure,
    excitation_expectation,
    inversion_closed_form,
    population_inversion,
    reduced_atom,
    thermal_weights,
    von_neumann_entropy,
)

COMMON = settings(max_examples=80, deadline=None)


@st.composite
def profiles(draw):
    kind = draw(
        st.sampled_from(["constant", "linear", "sech", "sinusoidal", "custom"])
    )
    lam = draw(st.floats(0.1, 3.0))
    if kind == "constant":
        return ConstantCoupling(lam)
    if kind == "linear":
        return LinearCoupling(lam, draw(st.floats(0.01, 1.0)))
    if kind == "sech":
        return SechCoupling(lam, draw(st.floats(0.05, 2.0)))
    if kind == "sinusoidal":
        return SinusoidalCoupling(
            lam, draw(st.floats(0.1, 3.0)), p=draw(st.integers(1, 4))
        )
    values = draw(st.lists(st.floats(0.0, 3.0), min_size=2, max_size=6))
    times = np.linspace(0.0, 26.0, len(values))
    return CustomCoupling(tuple(times), tuple(values))


@st.composite
def atom_states(draw):
    comps = [draw(st.floats(-1.0, 1.0)) for _ in range(4)]
    norm = math.sqrt(sum(c * c for c in comps))
    assume(norm > 1e-3)
    return AtomState(
        complex(comps[0], comps[1]) / norm, complex(comps[2], comps[3]) / norm
    )


@st.composite
def pure_fields(draw):
    if draw(st.booleans()):
        mod = draw(st.floats(0.0, 2.5))
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        return coherent_amplitudes(complex(mod * math.cos(phase), mod * math.sin(phase)))
    raw = draw(
        st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=12).filter(
            lambda v: sum(x * x for x in v) > 1e-4
        )
    )
    amps = np.asarray(raw, dtype=complex)
    amps /= np.linalg.norm(amps)
    return custom_distribution(amplitudes=list(amps))


@st.composite
def mixed_fields(draw):
    if draw(st.booleans()):
        return thermal_weights(draw(st.floats(0.0, 5.0)))
    raw = draw(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10).filter(
            lambda v: sum(v) > 1e-3
        )
    )
    w = np.asarray(raw, dtype=float)
    return custom_distribution(weights=list(w / w.sum()))


@st.composite
def phased_pure_fields(draw):
    """Multi-level pure fields with phases: coherent with |alpha| <= 4, or
    3-8 custom amplitudes, some of them zero."""
    if draw(st.booleans()):
        return coherent_amplitudes(
            cmath.rect(draw(st.floats(0.0, 4.0)), draw(st.floats(0.0, 2.0 * math.pi)))
        )
    size = draw(st.integers(3, 8))
    mods = draw(
        st.lists(
            st.just(0.0) | st.floats(0.05, 1.0), min_size=size, max_size=size
        ).filter(lambda v: sum(v) > 0.0)
    )
    phases = draw(
        st.lists(st.floats(0.0, 2.0 * math.pi), min_size=size, max_size=size)
    )
    amps = np.array([cmath.rect(m, ph) for m, ph in zip(mods, phases)])
    return custom_distribution(amplitudes=list(amps / np.linalg.norm(amps)))


@st.composite
def density_matrices(draw):
    pure = draw(atom_states())
    kappa = draw(st.floats(0.0, 1.0))
    m = 0.5 * (1.0 - kappa)
    return AtomDensityMatrix(
        kappa * abs(pure.c_e) ** 2 + m,
        kappa * abs(pure.c_g) ** 2 + m,
        kappa * pure.c_e * pure.c_g.conjugate(),
    )


times = st.floats(0.0, 25.0)


@COMMON
@given(atom_states(), pure_fields(), profiles(), times)
def test_pure_norm_preserved(atom, field, profile, t):
    before = evolve_pure(atom, field, profile, 0.0).norm()
    after = evolve_pure(atom, field, profile, t).norm()
    assert abs(after - before) < 1e-13


@COMMON
@given(atom_states(), pure_fields(), profiles(), times)
def test_excitation_conserved(atom, field, profile, t):
    e0 = excitation_expectation(evolve_pure(atom, field, profile, 0.0))
    et = excitation_expectation(evolve_pure(atom, field, profile, t))
    assert abs(et - e0) < 1e-9


@COMMON
@given(density_matrices(), mixed_fields(), profiles(), times)
def test_mixed_state_stays_physical(rho0, field, profile, t):
    rho = evolve_mixed(rho0, field, profile, t)
    assert abs(rho.rho_ee + rho.rho_gg - 1.0) < 1e-12
    assert rho.rho_ee > -1e-12 and rho.rho_gg > -1e-12
    assert abs(rho.rho_eg) ** 2 <= rho.rho_ee * rho.rho_gg + 1e-10
    b = bloch_vector(rho)
    assert b.r <= 1.0 + 1e-10
    assert -1.0 - 1e-10 <= population_inversion(rho) <= 1.0 + 1e-10
    assert 0.0 <= von_neumann_entropy(rho) <= 1.0 + 1e-12


@COMMON
@given(density_matrices(), mixed_fields(), profiles(), times)
def test_entropy_agrees_between_eigenvalue_and_bloch_routes(
    rho0, field, profile, t
):
    rho = evolve_mixed(rho0, field, profile, t)
    data = atom_eigenvalues(rho)
    s_eig = 0.0
    for mu in (data.mu_plus, data.mu_minus):
        if mu > 0.0:
            s_eig -= mu * math.log2(mu)
    r = min(bloch_vector(rho).r, 1.0)
    s_bloch = 0.0
    for mu in (0.5 * (1.0 + r), 0.5 * (1.0 - r)):
        if mu > 0.0:
            s_bloch -= mu * math.log2(mu)
    assert abs(s_eig - s_bloch) < 1e-12
    assert abs(s_eig - von_neumann_entropy(rho)) < 1e-12


@COMMON
@given(mixed_fields(), profiles(), times)
def test_inversion_closed_form_equals_mixed_evolution(field, profile, t):
    rho0 = AtomDensityMatrix.from_atom_state(AtomState.excited())
    via_mixed = population_inversion(evolve_mixed(rho0, field, profile, t))
    closed = inversion_closed_form(field, profile, t)
    # the closed form keeps raw truncated sums while evolve_mixed conditions
    # on the retained mass, so they may differ by the tail deficit
    assert abs(via_mixed - closed) < 2e-12


@COMMON
@given(density_matrices(), mixed_fields(), times)
def test_sinusoidal_trajectories_repeat_each_period(rho0, field, t):
    profile = SinusoidalCoupling(1.3, 0.7, p=2)
    period = 2.0 * math.pi / (profile.p * profile.zeta3)
    a = evolve_mixed(rho0, field, profile, t)
    b = evolve_mixed(rho0, field, profile, t + period)
    assert abs(a.rho_ee - b.rho_ee) < 1e-10
    assert abs(a.rho_eg - b.rho_eg) < 1e-10


@COMMON
@given(atom_states(), st.integers(0, 8), profiles(), times)
def test_rank_one_field_reduction_consistency(atom, level, profile, t):
    amps = [0.0] * (level + 1)
    amps[level] = 1.0
    pure_field = custom_distribution(amplitudes=amps)
    mixed_field = custom_distribution(weights=[0.0] * level + [1.0])
    via_pure = reduced_atom(evolve_pure(atom, pure_field, profile, t))
    via_mixed = evolve_mixed(
        AtomDensityMatrix.from_atom_state(atom), mixed_field, profile, t
    )
    assert abs(via_pure.rho_ee - via_mixed.rho_ee) < 1e-12
    assert abs(via_pure.rho_gg - via_mixed.rho_gg) < 1e-12
    assert abs(via_pure.rho_eg - via_mixed.rho_eg) < 1e-12


def _entries(rho):
    return np.array([rho.rho_ee, rho.rho_gg, rho.rho_eg])


@COMMON
@given(atom_states(), phased_pure_fields(), profiles(), times)
def test_reduced_kernel_matches_traced_joint_state(atom, field, profile, t):
    rho0 = AtomDensityMatrix.from_atom_state(atom)
    via_kernel = evolve_mixed(rho0, field, profile, t)
    via_joint = reduced_atom(evolve_pure(atom, field, profile, t))
    assert np.max(np.abs(_entries(via_kernel) - _entries(via_joint))) < 1e-12


@COMMON
@given(density_matrices(), phased_pure_fields() | mixed_fields(), profiles(), times)
def test_mixed_atom_on_pure_field_is_eigen_mixture(rho0, field, profile, t):
    # A photon-diagonal field is the mixture of its number states |n>,
    # weighted p_n. The joint-state path shares no weight (d, f or h) with
    # the kernel's term table, so it holds those weights on both kinds of
    # field.
    if field.amplitudes is not None:
        fields = [(1.0, field)]
    else:
        fields = [
            (p, custom_distribution(amplitudes=[0.0] * n + [1.0]))
            for n, p in enumerate(field.weights)
            if p > 0.0
        ]
    vals, vecs = np.linalg.eigh(rho0.as_matrix())
    mixture = sum(
        p * w * _entries(reduced_atom(evolve_pure(AtomState(*v), part, profile, t)))
        for p, part in fields
        for w, v in zip(vals, vecs.T)
        if w > 0.0
    ) / sum(p for p, _ in fields)
    via_kernel = evolve_mixed(rho0, field, profile, t)
    assert np.max(np.abs(_entries(via_kernel) - mixture)) < 1e-12
