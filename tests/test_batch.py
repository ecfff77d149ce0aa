"""Batched closed form: equality with per-point calls, memory, error parity."""

import math
import tracemalloc
from types import SimpleNamespace

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
    NumericalFailureError,
    Scenario,
    SchmidtData,
    SechCoupling,
    SinusoidalCoupling,
    atom_eigenvalues,
    bloch_vector,
    coherence_xi,
    coherent_amplitudes,
    evolve_mixed,
    evolve_pure,
    inversion_closed_form,
    population_inversion,
    reduced_atom,
    run,
    thermal_weights,
    von_neumann_entropy,
)
import jcdyn.scenario as scenario_module
from jcdyn import dynamics, oracle_evolve_mixed
from jcdyn.scenario import (
    DEFAULT_OUTPUTS,
    AtomSpec,
    FieldSpec,
    SweepSpec,
    _observable_columns,
    _sweep_case,
)

PROFILES = (
    ConstantCoupling(1.0),
    LinearCoupling(1.0, 0.16),
    SechCoupling(1.0, 0.3),
    SinusoidalCoupling(1.0, 1.0, p=2),
    CustomCoupling(times=(0.0, 2.0, 6.0, 12.0), values=(0.5, 1.5, 0.2, 1.0)),
)
ATOMS = (
    AtomSpec(kind="excited"),
    AtomSpec(kind="plus_x"),
    AtomSpec(kind="custom", c_e=0.6 + 0j, c_g=0.8 * complex(math.cos(0.3), math.sin(0.3))),
)
FIELDS = (
    FieldSpec(kind="coherent", alpha=1.5 + 0.5j),
    FieldSpec(kind="thermal", mean_n=1.2),
)
ALL_OUTPUTS = ("inversion", "entropy", "bloch", "purity", "eigenvalues")


def per_point_columns(scenario):
    """Reference table: one scalar evolve and scalar observable calls per time."""
    dist = scenario.field.build(scenario.tail_epsilon)
    atom = scenario.atom.to_state()
    rho0 = AtomDensityMatrix.from_atom_state(atom)
    cols = {}
    for t in np.linspace(0.0, scenario.t_end, scenario.steps):
        row = {}
        if dist.is_pure:
            state = evolve_pure(atom, dist, scenario.profile, float(t))
            rho = reduced_atom(state)
            xi = coherence_xi(state)
            row["xi_re"], row["xi_im"] = xi.real, xi.imag
        else:
            rho = evolve_mixed(rho0, dist, scenario.profile, float(t))
        bloch = bloch_vector(rho)
        eig = atom_eigenvalues(rho)
        row.update(
            W=population_inversion(rho),
            S=von_neumann_entropy(rho),
            Rx=bloch.r_x,
            Ry=bloch.r_y,
            Rz=bloch.r_z,
            R=bloch.r,
            mu_plus=eig.mu_plus,
            mu_minus=eig.mu_minus,
        )
        for key, value in row.items():
            cols.setdefault(key, []).append(value)
    return cols


def assert_table_matches_per_point(scenario):
    table = run(scenario)
    reference = per_point_columns(scenario)
    for i, name in enumerate(table.columns[1:], start=1):
        gap = np.max(np.abs(table.data[:, i] - np.array(reference[name])))
        assert gap <= 1e-14, (name, gap)
    return table


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
@pytest.mark.parametrize("atom", ATOMS, ids=lambda a: a.kind)
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: type(p).__name__)
def test_batched_run_matches_per_point_calls(monkeypatch, profile, atom, field):
    # Shrink the kernel's row block to five rows so a short grid crosses
    # several block boundaries and ends on a partial block.
    n_levels = field.build(1e-12).n_max + 2
    monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 5 * n_levels)
    steps = 23
    assert steps % 5 != 0
    outputs = ALL_OUTPUTS + (("coherence",) if field.is_pure else ())
    scenario = Scenario(
        atom=atom, field=field, profile=profile, t_end=12.0, steps=steps, outputs=outputs
    )
    table = assert_table_matches_per_point(scenario)
    # the t = 0 row is the initial atom
    rho0 = AtomDensityMatrix.from_atom_state(atom.to_state())
    w_col = table.columns.index("W")
    assert table.data[0, w_col] == pytest.approx(rho0.rho_ee - rho0.rho_gg, abs=1e-14)


def wide_pure_field(levels=33_000):
    """A smooth, phase-winding pure field spread over ``levels`` photon numbers."""
    n = np.arange(levels)
    amps = np.exp(-(((n - levels / 2) / 3000.0) ** 2) / 4.0 + 0.1j * n)
    amps /= math.sqrt(math.fsum(np.abs(amps) ** 2))
    return FieldSpec(kind="custom_amplitudes", amplitudes=tuple(amps))


@pytest.mark.parametrize(
    "field",
    (FieldSpec(kind="thermal", mean_n=1200.0), wide_pure_field()),
    ids=("thermal", "pure"),
)
def test_single_row_chunks_for_a_large_field(field):
    dist = field.build(1e-12)
    assert dynamics._BLOCK_ELEMENTS // (dist.n_max + 2) <= 1  # one row per block
    scenario = Scenario(
        atom=AtomSpec(kind="plus_x"),
        field=field,
        profile=SechCoupling(1.0, 0.3),
        t_end=0.5,
        steps=3,
        outputs=ALL_OUTPUTS + (("coherence",) if field.is_pure else ()),
    )
    assert_table_matches_per_point(scenario)


def test_batch_evolution_matches_scalar_states():
    atom = AtomState(0.6, 0.8j)
    pure = coherent_amplitudes(2.0)
    mixed = thermal_weights(0.7)
    rho0 = AtomDensityMatrix.from_atom_state(atom)
    times = np.array([0.0, 0.4, 3.3, 7.9])
    for profile in PROFILES:
        states = evolve_pure(atom, pure, profile, times)
        rhos = evolve_mixed(rho0, mixed, profile, times)
        np.testing.assert_array_equal(states.time, times)
        for i, t in enumerate(times):
            one = evolve_pure(atom, pure, profile, float(t))
            assert np.max(np.abs(states.amps_e[i] - one.amps_e)) <= 1e-15
            assert np.max(np.abs(states.amps_g[i] - one.amps_g)) <= 1e-15
            rho = evolve_mixed(rho0, mixed, profile, float(t))
            assert abs(rhos.rho_ee[i] - rho.rho_ee) <= 1e-15
            assert abs(rhos.rho_gg[i] - rho.rho_gg) <= 1e-15
            assert abs(rhos.rho_eg[i] - rho.rho_eg) <= 1e-15


def test_run_memory_stays_bounded_for_a_wide_thermal_field():
    # N = 5541 levels and T = 2001 times: one unblocked T x N float64
    # temporary would take 89 MB.
    scenario = Scenario(
        atom=AtomSpec(kind="plus_x"),
        field=FieldSpec(kind="thermal", mean_n=200.0),
        profile=ConstantCoupling(1.0),
        t_end=20.0,
        steps=2001,
    )
    assert scenario.field.build(scenario.tail_epsilon).n_max > 5000
    tracemalloc.start()
    try:
        table = run(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.data.shape[0] == 2001
    assert peak < 32 * 2**20, peak


@pytest.mark.parametrize("layer", ("evolve_mixed", "inversion_closed_form"))
def test_kernel_memory_stays_bounded_for_a_wide_thermal_field(layer):
    # The public kernel entries block their own rows: on the same N = 5541,
    # T = 2001 case they stay within the bound that run keeps.
    field = thermal_weights(200.0)
    profile = ConstantCoupling(1.0)
    times = np.linspace(0.0, 20.0, 2001)
    rho0 = AtomDensityMatrix.from_atom_state(AtomState.plus_x())
    tracemalloc.start()
    try:
        if layer == "evolve_mixed":
            column = evolve_mixed(rho0, field, profile, times).rho_ee
        else:
            column = inversion_closed_form(field, profile, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert column.shape == (2001,)
    assert peak < 32 * 2**20, peak


@pytest.mark.parametrize(
    "build, bound_mib",
    ((lambda: thermal_weights(20000.0), 24), (lambda: coherent_amplitudes(300.0), 16)),
    ids=("thermal", "coherent"),
)
def test_kernel_weights_cost_no_memory_per_term(build, bound_mib):
    # 552,635 thermal levels (4.2 MiB a real vector) and 92,119 coherent
    # ones, at 3 times: the kernel holds its weights as real vectors and
    # views, one product at a time. A dense complex table of its terms and
    # columns would take about 135 and 22 MiB.
    field = build()
    rho0 = AtomDensityMatrix.from_atom_state(AtomState.plus_x())
    tracemalloc.start()
    try:
        rho = evolve_mixed(rho0, field, ConstantCoupling(1.0), np.linspace(0.0, 2.0, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rho.rho_ee.shape == (3,)
    assert peak < bound_mib * 2**20, peak


@pytest.mark.parametrize(
    "field, outputs, width",
    (
        (FieldSpec(kind="coherent", alpha=1.0), DEFAULT_OUTPUTS, 7),
        (FieldSpec(kind="thermal", mean_n=2.0), DEFAULT_OUTPUTS + ("eigenvalues",), 9),
    ),
    ids=("coherent", "thermal"),
)
def test_run_holds_its_table_and_one_time_block(field, outputs, width):
    # 2^18 rows make a 14 or 18 MiB table. run writes each time block into
    # its rows of the table, so beside the table it holds the grid (2 MiB)
    # and one time block's columns. Evolving every column over the whole
    # grid and stacking them peaked at 42 and 54 MiB.
    scenario = Scenario(
        atom=AtomSpec(kind="plus_x"),
        field=field,
        profile=SechCoupling(1.0, 0.1),
        t_end=400.0,
        steps=2**18,
        outputs=outputs,
    )
    tracemalloc.start()
    try:
        table = run(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.data.shape == (2**18, width)
    assert peak <= table.data.nbytes + 8 * 2**20, peak


def whole_grid_columns(scenario, field, profile, oracle=False):
    """One case's table columns with every layer called once on the whole
    grid, and the ``dev_`` columns against the oracle if ``oracle``."""
    grid = np.linspace(0.0, scenario.t_end, scenario.steps)
    dist = field.build(scenario.tail_epsilon)
    rho0 = AtomDensityMatrix.from_atom_state(scenario.atom.to_state())
    mass = dist.weights.sum()

    def columns(rho):
        return _observable_columns(scenario.outputs, rho, mass * np.conj(rho.rho_eg))

    cols = {"t": grid, **columns(evolve_mixed(rho0, dist, profile, grid))}
    if oracle:
        ref = columns(oracle_evolve_mixed(rho0, dist, profile, grid))
        cols.update({f"dev_{k}": np.abs(cols[k] - ref[k]) for k in ref})
    return dist, cols


def assert_table_has_whole_grid_bits(scenario, min_blocks):
    """Check run's table column by column, byte for byte, against
    ``whole_grid_columns`` of each case, whose grid spans at least
    ``min_blocks`` time blocks of run."""
    table = run(scenario)
    values = (None,) if scenario.sweep is None else scenario.sweep.values
    for case, value in enumerate(values):
        field, profile = scenario.field, scenario.profile
        if value is not None:
            field, profile = _sweep_case(scenario, value)
        dist, cols = whole_grid_columns(scenario, field, profile, scenario.oracle_check)
        rows = dynamics._kernel_rows(dist)
        step = rows * max(1, scenario_module._TIME_BLOCK // rows)
        assert math.ceil(scenario.steps / step) >= min_blocks
        part = table.data[case * scenario.steps : (case + 1) * scenario.steps]
        if value is not None:
            assert table.columns[0] == "sweep_value" and np.all(part[:, 0] == value)
        assert table.columns[-len(cols) :] == tuple(cols)
        for j, name in enumerate(cols, start=len(table.columns) - len(cols)):
            assert part[:, j].tobytes() == cols[name].tobytes(), (value, name)
    return table


@pytest.mark.parametrize(
    "field, sweep",
    (
        (FieldSpec(kind="coherent", alpha=3.0 + 1.0j), None),
        (FieldSpec(kind="thermal", mean_n=2.0), SweepSpec("mean_n", (2.0, 50.0))),
    ),
    ids=("coherent", "thermal-sweep"),
)
def test_run_time_blocks_give_the_whole_grid_bits(field, sweep):
    # 40,001 times span 3 time blocks on every case; the sweep's two cases
    # have 69 and 1,396 levels, so different row blocks and time blocks.
    scenario = Scenario(
        atom=ATOMS[2],
        field=field,
        profile=SinusoidalCoupling(1.0, 0.1, p=1),
        t_end=100.0,
        steps=40001,
        outputs=ALL_OUTPUTS + (("coherence",) if field.is_pure else ()),
        sweep=sweep,
    )
    assert_table_has_whole_grid_bits(scenario, min_blocks=3)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_run_time_blocks_of_one_row_block_give_the_whole_grid_bits(
    monkeypatch, field
):
    # Row blocks of 3 times and time blocks of one row block: 23 times span
    # 8 time blocks, the last partial, and the oracle's states are cut at
    # each block's rows.
    n_levels = field.build(1e-12).n_max + 2
    monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 3 * n_levels)
    monkeypatch.setattr(scenario_module, "_TIME_BLOCK", 1)
    scenario = Scenario(
        atom=ATOMS[2],
        field=field,
        profile=PROFILES[4],
        t_end=12.0,
        steps=23,
        outputs=ALL_OUTPUTS,
        oracle_check=True,
    )
    table = assert_table_has_whole_grid_bits(scenario, min_blocks=8)
    dev = [j for j, name in enumerate(table.columns) if name.startswith("dev_")]
    assert table.max_oracle_deviation == np.max(table.data[:, dev])


def raised(factory):
    with pytest.raises(Exception) as info:
        factory()
    return type(info.value), str(info.value)


def with_bad_row(good, bad, at=2, rows=5):
    """Columns of ``rows`` copies of ``good`` with ``bad`` at row ``at``."""
    cols = [np.full(rows, g, dtype=type(g)) for g in good]
    for col, value in zip(cols, bad):
        col[at] = value
    return cols


@pytest.mark.parametrize(
    "bad",
    (
        (math.nan, 0.5, 0.0j),
        (-0.2, 1.2, 0.0j),
        (0.7, 0.7, 0.0j),
        (0.5, 0.5, 0.6 + 0j),
    ),
)
def test_density_matrix_batch_error_parity(bad):
    expected = raised(lambda: AtomDensityMatrix(*bad))
    cols = with_bad_row((0.25, 0.75, 0.1j), bad)
    assert raised(lambda: AtomDensityMatrix(*cols)) == expected


@pytest.mark.parametrize(
    "bad, cls",
    (
        ((1.0, math.inf), SchmidtData),
        ((0.4, 0.6), SchmidtData),
        ((0.75, 0.3), SchmidtData),
        ((1.0, 0.0, 0.0, 0.5), BlochVector),
        ((1.0, 1.0, 0.0, math.sqrt(2.0)), BlochVector),
    ),
)
def test_observable_batch_error_parity(bad, cls):
    good = (0.75, 0.25) if cls is SchmidtData else (0.6, 0.0, 0.0, 0.6)
    expected = raised(lambda: cls(*bad))
    assert raised(lambda: cls(*with_bad_row(good, bad))) == expected


def test_eigenvalue_failure_parity():
    bad = (0.6, 0.4, 0.5)
    fake = SimpleNamespace(rho_ee=bad[0], rho_gg=bad[1], rho_eg=bad[2])
    with pytest.raises(NumericalFailureError) as one:
        atom_eigenvalues(fake)
    ee, gg, eg = with_bad_row((0.5, 0.5, 0.0), bad)
    with pytest.raises(NumericalFailureError) as batch:
        atom_eigenvalues(SimpleNamespace(rho_ee=ee, rho_gg=gg, rho_eg=eg))
    assert str(batch.value) == str(one.value)
    assert batch.value.estimate == one.value.estimate


def test_joint_state_and_time_batch_error_parity():
    amps = np.full(3, 0.5 + 0j)
    bad_amps = np.array([0.5, np.inf, 0.5], dtype=complex)
    expected = raised(lambda: JointPureState(bad_amps, amps, 0.0))
    batch_e = np.tile(amps, (4, 1))
    batch_e[1] = bad_amps
    assert raised(
        lambda: JointPureState(batch_e, np.tile(amps, (4, 1)), np.zeros(4))
    ) == expected
    expected = raised(lambda: JointPureState(amps, amps, -1.0))
    assert raised(
        lambda: JointPureState(
            np.tile(amps, (3, 1)), np.tile(amps, (3, 1)), np.array([0.0, -1.0, 2.0])
        )
    ) == expected

    field = coherent_amplitudes(1.0)
    atom = AtomState.excited()
    expected = raised(lambda: evolve_pure(atom, field, ConstantCoupling(1.0), -0.5))
    assert expected[0] is InvalidInputError
    times = np.array([0.0, -0.5, 1.0])
    assert raised(lambda: evolve_pure(atom, field, ConstantCoupling(1.0), times)) == expected
    rho0 = AtomDensityMatrix.from_atom_state(atom)
    field = thermal_weights(1.0)
    assert raised(lambda: evolve_mixed(rho0, field, ConstantCoupling(1.0), times)) == expected
