"""Reference integrator: frozen values, convergence order, cross-checks."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from jcdyn import (
    AtomDensityMatrix,
    AtomState,
    ConstantCoupling,
    CustomCoupling,
    InvalidInputError,
    LinearCoupling,
    Scenario,
    SechCoupling,
    SinusoidalCoupling,
    coherent_amplitudes,
    coupling_area,
    custom_distribution,
    evolve_mixed,
    evolve_pure,
    integrate_block,
    oracle_evolve_mixed,
    oracle_evolve_pure,
    reduced_atom,
    run,
    thermal_weights,
)
from jcdyn.oracle import oracle_rows

CONST = ConstantCoupling(1.0)

ALL_PROFILES = (
    ConstantCoupling(1.0),
    LinearCoupling(1.0, 0.16),
    SechCoupling(1.0, 0.3),
    SinusoidalCoupling(1.0, 1.0, p=1),
    CustomCoupling(times=(0.0, 2.0, 6.0, 12.0), values=(0.5, 1.5, 0.2, 1.0)),
)


def test_vacuum_block_quarter_turn_reference():
    grid = np.linspace(0.0, math.pi / 2.0, 9)
    traj = integrate_block(0, (1.0, 0.0), CONST, grid)
    assert traj.shape == (9, 2)
    assert abs(traj[-1, 0] - 0.0) < 1e-9
    assert abs(traj[-1, 1] - (-1j)) < 1e-9


def test_block_matches_closed_rotation_mid_grid():
    grid = np.linspace(0.0, 2.0, 21)
    traj = integrate_block(2, (0.0, 1.0), LinearCoupling(1.0, 0.5), grid)
    for i, t in enumerate(grid):
        theta = coupling_area(LinearCoupling(1.0, 0.5), float(t)) * math.sqrt(3.0)
        assert abs(traj[i, 0] - (-1j * math.sin(theta))) < 1e-9
        assert abs(traj[i, 1] - math.cos(theta)) < 1e-9


def test_block_of_a_huge_photon_number():
    # The solver's start is sized by the live blocks, never by the largest
    # block number: block 2^40 turns by sqrt(2^40 + 1) * 1e-12 radians.
    traj = integrate_block(2**40, (1, 0), CONST, [0, 1e-12], rk4_step=1e-12)
    assert np.all(np.isfinite(traj))
    assert np.allclose(np.sum(np.abs(traj) ** 2, axis=1), 1.0, rtol=1e-15, atol=0)
    theta = math.sqrt(2**40 + 1) * 1e-12
    assert np.allclose(traj[-1], [math.cos(theta), -1j * math.sin(theta)], rtol=0, atol=1e-15)


def test_rk4_step_validation():
    for bad in (0.0, -0.1, math.inf, math.nan, True, "0.1"):
        with pytest.raises(InvalidInputError, match="rk4_step must be"):
            integrate_block(0, (1.0, 0.0), CONST, [0.0, 1.0], rk4_step=bad)
    traj = integrate_block(0, (1.0, 0.0), CONST, [0.0, 1.0], rk4_step=1)
    assert traj.shape == (2, 2)


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        integrate_block(0, (1.0, 0.0), CONST, [1.0, 2.0])  # must start at 0
    with pytest.raises(InvalidInputError):
        integrate_block(0, (1.0, 0.0), CONST, [0.0, 2.0, 1.0])
    with pytest.raises(InvalidInputError):
        integrate_block(0, (1.0, 0.0), CONST, [])
    with pytest.raises(InvalidInputError):
        integrate_block(-1, (1.0, 0.0), CONST, [0.0, 1.0])
    with pytest.raises(InvalidInputError):
        integrate_block(0, (float("nan"), 0.0), CONST, [0.0, 1.0])


def test_rk4_fourth_order_convergence():
    # halving the step should cut the global error by about 2^4
    prof = LinearCoupling(1.0, 0.8)
    t_end = 2.0
    theta = coupling_area(prof, t_end)
    exact = np.array([math.cos(theta), -1j * math.sin(theta)])

    def error(h):
        traj = integrate_block(0, (1.0, 0.0), prof, [0.0, t_end], rk4_step=h)
        return float(np.max(np.abs(traj[-1] - exact)))

    ratio = error(0.05) / error(0.025)
    assert 12.0 < ratio < 20.0


def test_adaptive_pure_matches_closed_form_all_profiles():
    atom = AtomState(0.8, 0.6j)
    field = coherent_amplitudes(1.5)
    grid = np.linspace(0.0, 10.0, 41)
    for prof in ALL_PROFILES:
        states = oracle_evolve_pure(atom, field, prof, grid)
        worst = 0.0
        for i, t in enumerate(grid):
            ref = evolve_pure(atom, field, prof, float(t))
            worst = max(
                worst,
                float(np.max(np.abs(states.amps_e[i] - ref.amps_e))),
                float(np.max(np.abs(states.amps_g[i] - ref.amps_g))),
            )
        assert worst < 1e-8, prof


def test_adaptive_mixed_matches_closed_form():
    field = thermal_weights(1.2)
    grid = np.linspace(0.0, 8.0, 33)
    for rho0 in (
        AtomDensityMatrix.from_atom_state(AtomState(0.8, 0.6j)),
        AtomDensityMatrix(0.7, 0.3, 0.2 + 0.1j),
    ):
        for prof in ALL_PROFILES:
            rhos = oracle_evolve_mixed(rho0, field, prof, grid)
            for i, t in enumerate(grid):
                ref = evolve_mixed(rho0, field, prof, float(t))
                assert abs(rhos.rho_ee[i] - ref.rho_ee) < 1e-9
                assert abs(rhos.rho_gg[i] - ref.rho_gg) < 1e-9
                assert abs(rhos.rho_eg[i] - ref.rho_eg) < 1e-9


def test_oracle_dark_amplitude_constant():
    field = custom_distribution(amplitudes=[1.0])
    grid = np.linspace(0.0, 5.0, 11)
    states = oracle_evolve_pure(AtomState.ground(), field, CONST, grid)
    assert states.amps_g.shape[0] == grid.size
    assert np.all(states.amps_g[:, 0] == 1.0 + 0.0j)


def test_oracle_rejects_mixed_field_on_pure_path():
    with pytest.raises(InvalidInputError):
        oracle_evolve_pure(
            AtomState.excited(), thermal_weights(1.0), CONST, [0.0, 1.0]
        )


PURE_FIELDS = {
    "coherent": coherent_amplitudes(1.5),
    "custom_amplitudes": custom_distribution(amplitudes=[0.5, 0.5j, -0.5, 0.5]),
}
RHO_ENTRIES = ("rho_ee", "rho_gg", "rho_eg")


def max_gap(a, b):
    return max(np.max(np.abs(getattr(a, n) - getattr(b, n))) for n in RHO_ENTRIES)


@pytest.mark.parametrize("field", PURE_FIELDS.values(), ids=PURE_FIELDS.keys())
def test_mixed_oracle_takes_pure_fields(field):
    grid = np.linspace(0.0, 8.0, 33)
    prof = LinearCoupling(1.0, 0.16)
    rho0 = AtomDensityMatrix(0.7, 0.3, 0.2 + 0.1j)  # rank 2
    rhos = oracle_evolve_mixed(rho0, field, prof, grid)
    assert max_gap(rhos, evolve_mixed(rho0, field, prof, grid)) < 1e-9
    # The eigen-mixture of joint-state oracle runs, member by member.
    vals, vecs = np.linalg.eigh(rho0.as_matrix())
    members = [
        reduced_atom(oracle_evolve_pure(AtomState(*vecs[:, k]), field, prof, grid))
        for k in range(2)
    ]
    mixture = AtomDensityMatrix(
        *(sum(w * getattr(m, n) for w, m in zip(vals, members)) for n in RHO_ENTRIES)
    )
    assert max_gap(rhos, mixture) < 1e-9
    # A pure atom is one joint state, the one oracle_evolve_pure integrates.
    atom = AtomState(0.8, 0.6j)
    rhos = oracle_evolve_mixed(
        AtomDensityMatrix.from_atom_state(atom), field, prof, grid
    )
    ref = reduced_atom(oracle_evolve_pure(atom, field, prof, grid))
    assert max_gap(rhos, ref) < 1e-12


def test_oracle_integrates_only_rows_that_start_nonzero(monkeypatch):
    # Block n pairs e0[n] with g0[n+1]; its complex row (c_e, c_g) holds the
    # real pairs (Re c_e, Im c_g) and (Re c_g, Im c_e), and a pair starting
    # at (0, 0) stays there. The solver integrates one pair per photon block
    # that holds a live pair, whatever the joint state: its float state
    # holds 2 per such block.
    from jcdyn import oracle

    pairs = []
    original = oracle.solve_ivp

    def counting(*args, **kwargs):
        y0 = np.asarray(args[2])
        assert y0.dtype == float
        pairs.append(y0.size // 2)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "solve_ivp", counting)
    grid = np.linspace(0.0, 3.0, 7)
    thermal = thermal_weights(1.2)
    coherent = coherent_amplitudes(2.0)
    # excited: only the |e> part of one member, n = 0 .. n_max, and only
    # Re c_e of each: one live pair per block
    oracle_evolve_mixed(AtomDensityMatrix(1.0, 0.0, 0.0), thermal, CONST, grid)
    # rank 2: members (sqrt(0.7), conj(rho_eg) / sqrt(0.7)) and (0, sqrt(s)),
    # whose |e> and |g> parts hold n_max + 1 rows of one live pair, n_max of
    # two, none and n_max of one, all in blocks 0 .. n_max
    rank2 = AtomDensityMatrix(0.7, 0.3, 0.2 + 0.1j)
    rows, _ = oracle_rows(rank2, thermal)
    live = (rows.real != 0) | (rows.imag[..., ::-1] != 0)
    assert np.count_nonzero(live) == thermal.n_max + 1 + 3 * thermal.n_max
    rhos = oracle_evolve_mixed(rank2, thermal, CONST, grid)
    # ground on a real alpha: Re c_g of each block; the top block pairs two
    # empty slots and is skipped
    states = oracle_evolve_pure(AtomState.ground(), coherent, CONST, grid)
    assert pairs == [thermal.n_max + 1, thermal.n_max + 1, coherent.n_max]
    ref = evolve_mixed(rank2, thermal, CONST, grid)
    assert np.max(np.abs(rhos.rho_eg - ref.rho_eg)) < 1e-9
    # the skipped block's slots stay empty, and so do the skipped pair
    # (Re c_e, Im c_g) of the other blocks; the dark |g,0> keeps C_0
    assert np.all(states.amps_e[:, -2:] == 0.0)
    assert np.all(states.amps_g[:, -1] == 0.0)
    assert np.all(states.amps_e.real == 0.0) and np.all(states.amps_g.imag == 0.0)
    assert np.all(states.amps_g[:, 0] == coherent.amplitudes[0])


PAIRING_ATOMS = {
    "excited": AtomDensityMatrix(1.0, 0.0, 0.0),
    "ground": AtomDensityMatrix(0.0, 1.0, 0.0),
    "plus_x": AtomDensityMatrix.from_atom_state(AtomState.plus_x()),
    "rank2": AtomDensityMatrix(0.7, 0.3, 0.2 + 0.1j),
    # one member (-0.6i, 0.8): on the complex alpha both pairs of every row
    # are live
    "complex": AtomDensityMatrix.from_atom_state(AtomState(0.6, 0.8j)),
}
PAIRING_FIELDS = {
    "thermal": thermal_weights(1.2),
    "coherent": coherent_amplitudes(2.0),
    "complex_alpha": coherent_amplitudes(1.2 + 0.9j),
    # block 1 holds no live pair for an excited atom, between live blocks
    # 0 and 2
    "gap": custom_distribution(weights=[0.5, 0.0, 0.5]),
    # a pure field on which block 1 of an excited atom starts at 0, between
    # live blocks 0 and 2, and block 1 is a ground atom's one live block,
    # beside its dark |g,0>
    "pure_gap": custom_distribution(amplitudes=[0.6, 0.0, 0.8j]),
}


@pytest.mark.parametrize("field_name", PAIRING_FIELDS)
@pytest.mark.parametrize("atom_name", PAIRING_ATOMS)
def test_mixed_reduction_pairs_rows_as_the_joint_states_do(
    atom_name, field_name, solves, monkeypatch
):
    # The reduction sums products of the solver's samples, block by block
    # as they come; scattering the same pairs back into joint states and
    # reducing those must agree with it.
    from jcdyn import oracle

    monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", 400)  # several time blocks
    atom, field = PAIRING_ATOMS[atom_name], PAIRING_FIELDS[field_name]
    grid = np.linspace(0.0, 3.0, 13)
    rhos = oracle_evolve_mixed(atom, field, SechCoupling(1.0, 0.2), grid)
    (((_, _, y0), _, _, samples),) = solves
    rows, dark = oracle.oracle_rows(atom, field)
    # Row rows[s, n] = (c_e, c_g) of block n of state s holds pair 0
    # (Re c_e, Im c_g) and pair 1 (Re c_g, Im c_e); the solver gets one pair
    # (r_n, 0) per block n that holds a pair starting nonzero, in block
    # order, r_n the norm of those pairs.
    live = (rows.real != 0) | (rows.imag[..., ::-1] != 0)
    s, numbers, j = np.nonzero(live)
    p0, q0 = rows.real[s, numbers, j], rows.imag[s, numbers, 1 - j]
    n, b = np.unique(numbers, return_inverse=True)
    norms = [math.hypot(*p0[b == k], *q0[b == k]) for k in range(n.size)]
    np.testing.assert_allclose(y0[0::2], norms, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(y0[1::2], 0.0)
    if (atom_name, field_name) == ("ground", "coherent"):
        # the top block pairs two empty slots
        assert n.size == field.n_max
    # Each pair z0 = p0 + i q0 follows its block's (P, Q) as (z0 / r_n)(P + i Q).
    wr, wi = p0 / y0[2 * b], q0 / y0[2 * b]
    big_p, big_q = samples[:, 2 * b], samples[:, 2 * b + 1]
    re = np.zeros((grid.size,) + rows.shape)
    im = np.zeros_like(re)
    re[:, s, numbers, j] = big_p * wr - big_q * wi
    im[:, s, numbers, 1 - j] = big_q * wr + big_p * wi
    blocks = re + 1j * im
    e = np.zeros((grid.size, dark.size, field.n_max + 2), dtype=complex)
    g = np.zeros_like(e)
    e[:, :, :-1] = blocks[..., 0]
    g[:, :, 1:] = blocks[..., 1]
    g[:, :, 0] = dark
    # Joint states per atom member: one on a pure field, |e> and |g> parts
    # on a photon-diagonal one.
    k = 1 if field.amplitudes is not None else 2
    ref = AtomDensityMatrix.conditioned(
        np.sum(np.abs(e) ** 2, axis=(1, 2)),
        np.sum(np.abs(g) ** 2, axis=(1, 2)),
        np.sum(e[:, 0::k] * g[:, k - 1 :: k].conj(), axis=(1, 2)),
    )
    assert max_gap(rhos, ref) < 1e-15


# The products a mixed oracle run on a thermal field forms: the weights of
# the others are all 0. On excited or ground, rho_eg is 0 and formed from
# nothing; plus_x's |e> and |g> parts are real and in different states,
# so no row mixes P and Q.
THERMAL_PRODUCTS = {
    "excited": {"P^2", "Q^2"},
    "ground": {"P^2", "Q^2"},
    "plus_x": {"P^2", "Q^2", "P_hi*P_lo", "P_0"},
}


def product_counts(monkeypatch, atom, field):
    """{product: times formed} over one mixed oracle run of one time block,
    checked against the closed form."""
    from jcdyn import oracle

    counts = Counter()

    def counted(kind, product):
        def form(*samples):
            counts[kind] += 1
            return product(*samples)

        return form

    for kind, product in oracle._PRODUCTS.items():
        monkeypatch.setitem(oracle._PRODUCTS, kind, counted(kind, product))
    grid = np.linspace(0.0, 3.0, 13)
    profile = SechCoupling(1.0, 0.2)
    rhos = oracle_evolve_mixed(atom, field, profile, grid)
    assert max_gap(rhos, evolve_mixed(atom, field, profile, grid)) < 1e-9
    return counts


@pytest.mark.parametrize("atom_name", THERMAL_PRODUCTS)
def test_mixed_reduction_forms_no_product_of_zero_weight(atom_name, monkeypatch):
    counts = product_counts(
        monkeypatch, PAIRING_ATOMS[atom_name], PAIRING_FIELDS["thermal"]
    )
    assert counts == Counter(dict.fromkeys(THERMAL_PRODUCTS[atom_name], 1))


def test_mixed_reduction_forms_every_product_once_per_time_block(monkeypatch):
    # A rank-2 atom on a complex alpha gives every product a weight.
    from jcdyn import oracle

    counts = product_counts(
        monkeypatch, PAIRING_ATOMS["rank2"], PAIRING_FIELDS["complex_alpha"]
    )
    assert counts == Counter(dict.fromkeys(oracle._PRODUCTS, 1))


ONE_PAIR_ATOMS = {
    "excited": AtomDensityMatrix(1.0, 0.0, 0.0),
    "ground": AtomDensityMatrix(0.0, 1.0, 0.0),
    "plus_x": AtomDensityMatrix.from_atom_state(AtomState.plus_x()),
}
ONE_PAIR_FIELDS = {
    "thermal": thermal_weights(1.2),
    "custom_weights": custom_distribution(weights=[0.1, 0.4, 0.2, 0.3]),
}


def solver_rows_and_pairs(solves, atom, field):
    """Run the mixed oracle against the closed form; return the number of
    block rows that start nonzero, their live pairs, the photon blocks that
    hold them and the pairs in the solver's state."""
    grid = np.linspace(0.0, 8.0, 33)
    profile = SechCoupling(1.0, 0.2)
    rhos = oracle_evolve_mixed(atom, field, profile, grid)
    # the tolerance of test_adaptive_mixed_matches_closed_form
    assert max_gap(rhos, evolve_mixed(atom, field, profile, grid)) < 1e-9
    (((_, _, y0), _, _, _),) = solves
    assert y0.dtype == float
    rows, _ = oracle_rows(atom, field)
    live = (rows.real != 0) | (rows.imag[..., ::-1] != 0)
    return (
        np.count_nonzero(np.any(rows != 0, axis=-1)),
        np.count_nonzero(live),
        np.count_nonzero(np.any(live, axis=(0, 2))),
        y0.size // 2,
    )


@pytest.mark.parametrize("field_name", ONE_PAIR_FIELDS)
@pytest.mark.parametrize("atom_name", ONE_PAIR_ATOMS)
def test_real_atom_on_diagonal_field_integrates_one_pair_per_row(
    atom_name, field_name, solves
):
    # A real member on a photon-diagonal field starts each row as (real, 0)
    # or (0, real): c_e stays real and c_g imaginary, or the other way round,
    # so one live pair carries the row. The solver integrates one pair per
    # photon block, which plus_x's |e> and |g> parts share.
    rows, live, blocks, pairs = solver_rows_and_pairs(
        solves, ONE_PAIR_ATOMS[atom_name], ONE_PAIR_FIELDS[field_name]
    )
    field = ONE_PAIR_FIELDS[field_name]
    assert rows > 0 and live == rows
    # ground's |g,0> is dark, in no block
    assert pairs == blocks == field.n_max + (atom_name != "ground")
    assert rows == (2 * field.n_max + 1 if atom_name == "plus_x" else blocks)


@pytest.mark.parametrize(
    "atom, field, spare",
    [
        # complex amplitudes: both parts of every row are live
        (
            AtomState(0.6 + 0.3j, 0.2 - 0.7141428428542850j),
            coherent_amplitudes(1.2 + 0.9j),
            0,
        ),
        # real and nonzero e and g: two pairs, but the top row's g slot is
        # past the cutoff, which leaves it one
        (AtomState.plus_x(), coherent_amplitudes(1.5), 1),
    ],
    ids=["complex-atom-complex-alpha", "plus_x-real-alpha"],
)
def test_complex_start_rows_integrate_two_pairs(atom, field, spare, solves):
    # Two live pairs per row, both followed through the one pair the solver
    # integrates for the row's block.
    rows, live, blocks, pairs = solver_rows_and_pairs(
        solves, AtomDensityMatrix.from_atom_state(atom), field
    )
    assert rows > 0 and live == 2 * rows - spare
    assert pairs == blocks == rows == field.n_max + 1


@pytest.mark.parametrize(
    "atom, per_row",
    [
        (AtomState.excited(), 1),
        (AtomState(0.6 + 0.3j, 0.2 - 0.7141428428542850j), 2),
    ],
    ids=["excited-one-pair", "complex-atom-two-pairs"],
)
def test_stage_budget_counts_live_pairs(atom, per_row, monkeypatch):
    # DOP853 holds 16 stage vectors of the integrated pairs, one per photon
    # block with a live pair, however many live pairs the block's row holds,
    # each the bytes of one complex value: a count at the budget runs, one
    # past it is refused before the first step.
    from jcdyn import oracle

    rho = AtomDensityMatrix.from_atom_state(atom)
    field = coherent_amplitudes(1.2 + 0.9j if per_row == 2 else 1.2)
    (rows,), _ = oracle_rows(rho, field)  # one state: a block per row
    live = (rows.real != 0) | (rows.imag[:, ::-1] != 0)
    assert np.all(np.count_nonzero(live, axis=1) == per_row)
    count = 16 * len(rows)
    grid = np.linspace(0.0, 1.0, 5)
    monkeypatch.setattr(oracle, "MAX_ORACLE_SAMPLES", count)
    oracle_evolve_mixed(rho, field, CONST, grid)
    monkeypatch.setattr(oracle, "MAX_ORACLE_SAMPLES", count - 1)
    with pytest.raises(InvalidInputError) as err:
        oracle_evolve_mixed(rho, field, CONST, grid)
    assert str(err.value) == (
        f"oracle needs {count} complex stage values, over the budget of {count - 1}"
    )


# Peak of the case below: 0.9 MiB at 201 times, 2.0 MiB at 20,001, where
# the three output columns and their conditioned copies take the
# difference (1.9 and 2.5 MiB when the samples were spread back onto
# complex rows). Holding the samples took 16.4 MiB at 201 times and
# 140.9 MiB at 2001.
MIXED_ORACLE_PEAK = 6 * 2**20


@pytest.mark.parametrize("steps", [201, 20001])
def test_mixed_oracle_memory_does_not_grow_with_times(steps):
    # The samples go from the solver to the reduction one time block at a
    # time, so past the outputs' few columns the peak is the solver's
    # working set and one block, at 201 times as at 20,001.
    grid = np.linspace(0.0, 4.0, steps)
    rho0 = AtomDensityMatrix(0.7, 0.3, 0.2 + 0.1j)
    tracemalloc.start()
    try:
        oracle_evolve_mixed(
            rho0, thermal_weights(20.0), SinusoidalCoupling(1.0, 0.5), grid
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= MIXED_ORACLE_PEAK


# Peak of the case below: 3.8 MiB. Spreading the samples back onto complex
# rows peaked at 5.47 MiB; holding the rows, their coefficients and the
# live-pair indices through the solve peaks at 5.1 MiB.
WIDE_ORACLE_PEAK = 5.5 * 2**20


def test_mixed_oracle_wide_field_holds_per_block_weights():
    # plus_x on thermal 200: 11,082 rows in 5,541 photon blocks. Only the
    # per-block weights of the products outlive the set-up; the rows and
    # their coefficients are gone before the solve.
    field = thermal_weights(200.0)
    rho0 = AtomDensityMatrix.from_atom_state(AtomState.plus_x())
    grid = np.linspace(0.0, 2.0, 101)
    tracemalloc.start()
    try:
        oracle_evolve_mixed(rho0, field, SinusoidalCoupling(1.0, 0.5), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= WIDE_ORACLE_PEAK


def test_pure_oracle_holds_no_sample_copy():
    # Each time block of samples goes straight into the joint state's
    # arrays, so past them the peak is the solver's working set and one
    # block. Collecting every sample first took 43 MiB more here.
    grid = np.linspace(0.0, 4.0, 20001)
    tracemalloc.start()
    try:
        states = oracle_evolve_pure(
            AtomState.plus_x(), coherent_amplitudes(5.0), SechCoupling(1.0, 0.3), grid
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= states.amps_e.nbytes + states.amps_g.nbytes + 2 * 2**20


BLOCK_ENTRIES = {
    "pure": lambda grid: oracle_evolve_pure(
        AtomState(0.8, 0.6j), coherent_amplitudes(2.0), SechCoupling(1.0, 0.2), grid
    ),
    "dop853": lambda grid: integrate_block(1, (0.6, 0.8j), SechCoupling(1.0, 0.2), grid),
    "rk4": lambda grid: integrate_block(
        1, (0.6, 0.8j), SechCoupling(1.0, 0.2), grid, rk4_step=0.05
    ),
}


def result_arrays(result):
    if isinstance(result, np.ndarray):
        return [result]
    return [result.amps_e, result.amps_g]


@pytest.mark.parametrize("elements", [1, 10, 100])
@pytest.mark.parametrize("entry", BLOCK_ENTRIES)
def test_time_blocks_fill_the_result_bit_for_bit(entry, elements, monkeypatch):
    # However the grid splits into time blocks (one time per block, several
    # with a shorter last one), the result comes out as from one block.
    from jcdyn import oracle

    grid = np.linspace(0.0, 3.0, 13)
    whole = BLOCK_ENTRIES[entry](grid)
    monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", elements)
    split = BLOCK_ENTRIES[entry](grid)
    for a, b in zip(result_arrays(whole), result_arrays(split), strict=True):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "rk4_step, grid, steps",
    [(None, [0.0, 0.25, 0.5], 5), (0.5, [0.0, 1.0, 2.5], 5)],
)
def test_oracle_counts_its_steps_before_the_first(rk4_step, grid, steps, monkeypatch):
    # DOP853 takes at least t_end / dop853.MAX_STEP steps, RK4 exactly
    # ceil(interval / rk4_step) per grid interval: a count at the budget
    # runs, one past it is refused.
    from jcdyn import oracle

    monkeypatch.setattr(oracle, "MAX_ORACLE_STEPS", steps)
    integrate_block(0, (1.0, 0.0), CONST, grid, rk4_step=rk4_step)
    monkeypatch.setattr(oracle, "MAX_ORACLE_STEPS", steps - 1)
    with pytest.raises(InvalidInputError) as err:
        integrate_block(0, (1.0, 0.0), CONST, grid, rk4_step=rk4_step)
    assert str(err.value) == f"oracle needs {steps} steps, over the budget of {steps - 1}"


def test_oracle_counts_a_strong_couplings_phase(monkeypatch):
    # DOP853 takes at least one step per two radians of the top block's
    # phase sqrt(n+1) * integral |lambda|: 0.5 * 2 * 40 * 1 = 40 steps here,
    # more than the span's 10.
    from jcdyn import oracle

    grid = [0.0, 0.5, 1.0]
    monkeypatch.setattr(oracle, "MAX_ORACLE_STEPS", 40)
    integrate_block(3, (1.0, 0.0), ConstantCoupling(40.0), grid)
    monkeypatch.setattr(oracle, "MAX_ORACLE_STEPS", 39)
    with pytest.raises(InvalidInputError) as err:
        integrate_block(3, (1.0, 0.0), ConstantCoupling(40.0), grid)
    assert str(err.value) == "oracle needs 40 steps, over the budget of 39"


def test_rk4_over_step_budget_is_refused():
    # 1e300 steps would never finish; they are refused before the first.
    from jcdyn import oracle

    with pytest.raises(InvalidInputError) as err:
        integrate_block(0, (1, 0), CONST, [0.0, 1.0], rk4_step=1e-300)
    assert str(err.value).endswith(f"over the budget of {oracle.MAX_ORACLE_STEPS}")


def test_rk4_and_adaptive_agree():
    prof = SinusoidalCoupling(1.0, 0.9, p=2)
    grid = np.linspace(0.0, 4.0, 9)
    a = integrate_block(1, (0.6, 0.8j), prof, grid)
    b = integrate_block(1, (0.6, 0.8j), prof, grid, rk4_step=0.002)
    assert float(np.max(np.abs(a - b))) < 1e-8


def reference_rate(profile, t):
    """lambda(t) as the oracle once computed it at every stage: the checked
    rate expressions evaluated on a 0-d array."""
    arr = np.asarray(t, dtype=float)
    if isinstance(profile, ConstantCoupling):
        out = np.full_like(arr, profile.lambda0)
    elif isinstance(profile, LinearCoupling):
        out = profile.lambda0 * profile.zeta1 * arr
    elif isinstance(profile, SechCoupling):
        out = profile.lambda0 / np.cosh(profile.zeta2 * arr)
    elif isinstance(profile, SinusoidalCoupling):
        out = profile.lambda0 * np.sin(profile.p * profile.zeta3 * arr)
    else:
        out = np.interp(arr, profile.times, profile.values)
    return float(out)


def test_unchecked_rate_keeps_trajectories_bit_identical(monkeypatch):
    # The oracle validates the profile once per trajectory and then evaluates
    # the rate unchecked at every stage; every trajectory must come out bit
    # for bit as with the checked per-stage evaluation.
    profiles = (
        ConstantCoupling(1.3),
        LinearCoupling(1.1, 0.16),
        SechCoupling(0.9, 0.3),
        SinusoidalCoupling(1.2, 0.7, p=2),
        CustomCoupling(times=(0.0, 2.0, 6.0, 12.0), values=(0.5, 1.5, 0.2, 1.0)),
    )
    atom = AtomState(0.8, 0.6j)
    pure = coherent_amplitudes(1.2)
    mixed = thermal_weights(0.8)
    rho0 = AtomDensityMatrix(0.7, 0.3, 0.2 + 0.1j)
    grid = np.linspace(0.0, 10.0, 21)

    def trajectories():
        out = []
        for prof in profiles:
            states = oracle_evolve_pure(atom, pure, prof, grid)
            rhos = oracle_evolve_mixed(rho0, mixed, prof, grid)
            block = integrate_block(2, (0.6, 0.8j), prof, grid[:5], rk4_step=0.05)
            out += [states.amps_e, states.amps_g, rhos.rho_ee, rhos.rho_eg, block]
        return out

    fast = trajectories()
    calls = Counter()
    rates = {type(prof): type(prof).rate for prof in profiles}

    def counted_rate(profile, t):
        if np.ndim(t):  # the span check in lambda_at
            return rates[type(profile)](profile, t)
        calls[profile] += 1
        return reference_rate(profile, t)

    for cls in rates:
        monkeypatch.setattr(cls, "rate", counted_rate)
    reference = trajectories()
    # The patched rate must really have driven every profile's stages.
    for prof in profiles:
        assert calls[prof] > 0, prof
    for a, b in zip(fast, reference):
        np.testing.assert_array_equal(a, b)


def test_oracle_validates_the_span_once():
    from jcdyn import OutOfRangeError

    short = CustomCoupling(times=(0.0, 1.0), values=(1.0, 1.0))
    with pytest.raises(OutOfRangeError):
        integrate_block(0, (1.0, 0.0), short, [0.0, 2.0])


def test_oracle_calls_solve_ivp_once_per_trajectory(tmp_path, monkeypatch, capsys):
    # jcdyn.dop853 is imported on first use, but its solver stays reachable
    # as the module attribute jcdyn.oracle.solve_ivp, called with y0 third.
    import json

    import jcdyn.cli as cli
    from jcdyn import oracle

    calls = []
    original = oracle.solve_ivp

    def counting(*args, **kwargs):
        calls.append(np.asarray(args[2]).copy())
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "solve_ivp", counting)
    doc = {
        "atom": "excited",
        "field": {"coherent": 1.5},
        "profile": {"sech": {"lambda0": 1.0, "zeta2": 0.3}},
        "time": {"t_end": 6.0, "steps": 31},
        "outputs": ["inversion", "entropy"],
        "sweep": {"parameter": "lambda0", "values": [0.8, 1.2]},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["compare", str(path)]) == 0
    worst = float(capsys.readouterr().out.split("overall max deviation:")[1])
    assert worst < 1e-7
    amps = coherent_amplitudes(1.5).amplitudes
    assert len(calls) == 2  # one trajectory per sweep case
    for y0 in calls:
        # excited atom: block n starts in |e,n> with the field amplitude C_n
        np.testing.assert_array_equal(y0[0::2], amps)
        np.testing.assert_array_equal(y0[1::2], 0.0)


def test_mixed_oracle_starts_members_at_physical_amplitudes(monkeypatch):
    # A thermal field under a 9-point table, as `jcdyn compare` sees it.
    # Member (k, n) starts at sqrt(w_k p_n) phi_k: the start vector holds the
    # retained mass, and the n ~ 150 blocks, weighted ~1e-12, do not set the
    # adaptive step. Started at unit amplitude, they cost about 18,000 stages.
    from jcdyn import oracle
    from jcdyn.scenario import AtomSpec, FieldSpec

    calls = []
    original = oracle.solve_ivp

    def counting(*args, **kwargs):
        sol = original(*args, **kwargs)
        calls.append((np.asarray(args[2]).copy(), sol))
        return sol

    monkeypatch.setattr(oracle, "solve_ivp", counting)
    times = tuple(40.0 * i / 8 for i in range(9))
    values = (1.0, 0.93, 1.06, 0.97, 1.09, 0.91, 1.03, 0.95, 1.08)
    table = run(
        Scenario(
            atom=AtomSpec(kind="plus_x"),
            field=FieldSpec(kind="thermal", mean_n=5.0),
            profile=CustomCoupling(times=times, values=values),
            t_end=40.0,
            steps=401,
            outputs=("inversion", "entropy", "bloch", "purity"),
            oracle_check=True,
        )
    )
    assert table.max_oracle_deviation < 1e-7
    assert len(calls) == 1
    y0, sol = calls[0]
    p = thermal_weights(5.0).weights
    # 303 rows, e-member and g-member, in 152 photon blocks: one pair each,
    # starting at (r_n, 0)
    assert y0.size == 2 * p.size
    assert np.all(y0[1::2] == 0.0)
    # plus_x is one member, w = 1 and |phi_g|^2 = 1/2; |g,0> stays out of y0
    dark = 0.5 * p[0]
    assert abs(math.fsum(np.abs(y0) ** 2) + dark - math.fsum(p)) < 1e-14
    assert sol.nfev <= 12_000


def test_mixed_oracle_wide_thermal_field():
    # mean_n = 200 keeps 5,541 photon levels: 11,081 rows in one solve.
    from jcdyn.scenario import AtomSpec, FieldSpec

    table = run(
        Scenario(
            atom=AtomSpec(kind="plus_x"),
            field=FieldSpec(kind="thermal", mean_n=200.0),
            profile=SinusoidalCoupling(1.0, 0.5),
            t_end=10.0,
            steps=201,
            outputs=("inversion", "entropy", "bloch", "purity"),
            oracle_check=True,
        )
    )
    assert table.max_oracle_deviation < 1e-9


@pytest.mark.parametrize(
    "atom",
    [AtomState.plus_x(), AtomState(0.6 + 0.3j, 0.2 - 0.7141428428542850j)],
    ids=["plus_x", "complex-atom"],
)
def test_pure_oracle_wide_coherent_field(atom):
    # alpha = 30 keeps 1,120 levels, and the amplitudes of the low blocks
    # fall below 1e-154, whose squares underflow: a block norm summed from
    # squares would be 0 there and give NaN.
    field = coherent_amplitudes(30.0)
    profile = SechCoupling(1.0, 0.3)
    grid = np.linspace(0.0, 2.0, 41)
    states = oracle_evolve_pure(atom, field, profile, grid)
    ref = evolve_pure(atom, field, profile, grid)
    assert np.max(np.abs(states.amps_e - ref.amps_e)) < 1e-9
    assert np.max(np.abs(states.amps_g - ref.amps_g)) < 1e-9


FACTOR_ATOMS = {
    "rank2-e-pivot": (AtomDensityMatrix(0.7, 0.3, 0.2 + 0.1j), 2),
    "rank2-g-pivot": (AtomDensityMatrix(0.3, 0.7, 0.2 - 0.1j), 2),
    "pure-complex": (
        AtomDensityMatrix.from_atom_state(
            AtomState(0.6 + 0.3j, 0.2 - 0.7141428428542850j)
        ),
        1,
    ),
    "ground": (AtomDensityMatrix(0.0, 1.0, 0.0), 1),
}


@pytest.mark.parametrize("atom, members", FACTOR_ATOMS.values(), ids=FACTOR_ATOMS.keys())
def test_atom_members_sum_to_the_density_matrix(atom, members):
    # On the one-level field |0>, state k holds member v_k as (e_0, dark g_0),
    # and sum_k v_k v_k^dagger is the atom; a pure atom is one member.
    rows, dark = oracle_rows(atom, custom_distribution(amplitudes=[1.0]))
    v = np.stack([rows[:, 0, 0], dark], axis=1)
    assert len(v) == members
    assert np.max(np.abs(v.T @ v.conj() - atom.as_matrix())) < 1e-15


@pytest.mark.parametrize("ee", [0.5, 1e-9])
def test_mixed_oracle_runs_at_the_positivity_edge(ee):
    # |rho_eg|^2 past rho_ee rho_gg by 0.99e-10, which the density matrix
    # allows: the factor's Schur residue, -1.98e-10 at ee = 0.5, is clamped
    # to 0, leaving one member, and the oracle runs as on a pure atom.
    gg = 1.0 - ee
    rho0 = AtomDensityMatrix(ee, gg, math.sqrt(ee * gg + 0.99e-10))
    field = thermal_weights(1.2)
    _, dark = oracle_rows(rho0, field)
    assert dark.size == 2  # one member: its |e> and |g> parts
    grid = np.linspace(0.0, 3.0, 13)
    profile = SechCoupling(1.0, 0.2)
    rhos = oracle_evolve_mixed(rho0, field, profile, grid)
    assert max_gap(rhos, evolve_mixed(rho0, field, profile, grid)) < 1e-9


def _plain_pair_rhs(k, profile, t_end):
    """The oracle's right-hand side on real pairs written plainly: each pair
    (p, q) of the state goes to (k q, -k p), ``k`` its block's sqrt(n+1),
    times the rate at the clamped time as a Python float."""

    def rhs(t, y):
        rate = float(profile.rate(min(max(float(t), 0.0), t_end)))
        p, q = y[0::2], y[1::2]
        return np.stack([k * q, -k * p], axis=1).ravel() * rate

    return rhs


def _states_with_zeros(rng, size, count=8):
    """Random real states in which some entries are exact zeros of either
    sign."""
    states = rng.normal(size=(count, size))
    states[:, ::5] = 0.0
    states[:, 1::7] = -0.0
    states[0] = 0.0
    return states


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: type(p).__name__)
def test_right_hand_side_is_the_plain_expression_bit_for_bit(profile, solves):
    # The solver's right-hand side, as the solves fixture records it, gives
    # the bits of the plain expression, at the times a solver can ask for:
    # inside the span, on its ends and a hair outside them (clamped).
    t_end = 1.0
    rho0 = AtomDensityMatrix(0.7, 0.3, 0.2 + 0.1j)
    field = thermal_weights(0.8)
    oracle_evolve_mixed(rho0, field, profile, np.linspace(0.0, t_end, 3))
    ((args, _, _, _),) = solves
    rhs, (_, span_end), y0 = args
    assert span_end == t_end
    # One pair per photon block with a live pair, in block order; its
    # block n sets k.
    rows, _ = oracle_rows(rho0, field)
    live = (rows.real != 0) | (rows.imag[..., ::-1] != 0)
    n = np.flatnonzero(np.any(live, axis=(0, 2)))
    assert y0.dtype == float and y0.size == 2 * n.size
    plain = _plain_pair_rhs(np.sqrt(n + 1.0), profile, t_end)
    rng = np.random.default_rng(7)
    times = [0.0, -0.0, 0.37, t_end, np.nextafter(0.0, -1.0), -1e-13,
             np.nextafter(t_end, 2.0), t_end + 1e-13]
    for y in _states_with_zeros(rng, y0.size):
        for t in times + [np.float64(t) for t in times]:
            new = rhs(t, y.copy())
            assert new.dtype == float and new.shape == y.shape
            assert new.tobytes() == plain(t, y).tobytes(), (t, y)


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: type(p).__name__)
def test_rk4_steps_the_plain_expression_bit_for_bit(profile):
    # integrate_block's fixed-step RK4 shares the solver's right-hand side;
    # a local RK4 over the plain expression, on the block's one pair
    # (r, 0), and the pair (Re c_e, Im c_g) = (0.6, 0.8) followed as
    # (0.6 + 0.8 i) / r (P + i Q), give the same bits.
    n, rk4_step = 2, 0.07
    grid = np.array([0.0, 0.25, 0.6, 1.0])
    rhs = _plain_pair_rhs(np.sqrt(n + 1.0), profile, grid[-1])
    r = np.hypot(0.6, 0.8)
    y = np.array([r, 0.0])
    expected = [y]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        m = max(1, math.ceil((t1 - t0) / rk4_step))
        h = (t1 - t0) / m
        for j in range(m):
            t = t0 + j * h
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        expected.append(y)
    big_p, big_q = np.array(expected).T
    wr, wi = 0.6 / r, 0.8 / r
    # (Re c_e, Im c_e, Re c_g, Im c_g); the dead pair (Re c_g, Im c_e) stays 0
    floats = np.zeros((grid.size, 4))
    floats[:, 0] = big_p * wr - big_q * wi
    floats[:, 3] = big_q * wr + big_p * wi
    traj = integrate_block(n, (0.6, 0.8j), profile, grid, rk4_step=rk4_step)
    assert traj.tobytes() == floats.tobytes()
