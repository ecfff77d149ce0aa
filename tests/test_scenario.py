"""Scenario parsing, serialization round-trips, and table evaluation."""

import json
from functools import partial

import numpy as np
import pytest

import jcdyn.scenario as scenario_module
from jcdyn import (
    ConstantCoupling,
    CustomCoupling,
    InvalidInputError,
    Scenario,
    ScenarioError,
    SinusoidalCoupling,
    SweepSpec,
    custom_distribution,
    parse_scenario,
    run,
    serialize,
)
from jcdyn.coupling import PROFILES
from jcdyn.errors import as_numbers
from jcdyn.fields import _check_tail, _checked
from jcdyn.scenario import MAX_STEPS, AtomSpec, FieldSpec

MINIMAL = {
    "atom": "excited",
    "field": {"coherent": 5},
    "profile": {"constant": {"lambda0": 1}},
    "time": {"t_end": 50, "steps": 5000},
}


def scen(**overrides):
    doc = {
        "atom": "excited",
        "field": {"thermal": 0.5},
        "profile": {"constant": {"lambda0": 1}},
        "time": {"t_end": 2, "steps": 5},
    }
    doc.update(overrides)
    return doc


def err_path(doc):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    return exc.value.path


def test_minimal_document():
    s = parse_scenario(json.dumps(MINIMAL))
    assert s.atom == AtomSpec(kind="excited")
    assert s.field == FieldSpec(kind="coherent", alpha=5 + 0j)
    assert s.profile == ConstantCoupling(1.0)
    assert s.t_end == 50.0 and s.steps == 5000
    assert s.outputs == ("inversion", "entropy", "bloch", "purity")
    assert s.tail_epsilon == 1e-12
    assert s.oracle_check is False and s.sweep is None


def test_error_paths():
    assert err_path({"atom": "excited"}) == "$"
    assert err_path(scen(extra=1)) == "$"
    assert err_path(scen(atom="superposed")) == "atom"
    assert err_path(scen(atom={"custom": {"c_e": 1.0}})) == "atom.custom"
    assert err_path(scen(field={"squeezed": 1})) == "field"
    assert err_path(scen(field={"thermal": -1})) == "field.thermal"
    assert err_path(scen(field={"coherent": "big"})) == "field.coherent"
    assert err_path(scen(profile={"constant": {"lambda0": 0}})) == "profile.constant.lambda0"
    assert err_path(scen(profile={"constant": {}})) == "profile.constant"
    assert err_path(scen(time={"steps": 5})) == "time"
    assert err_path(scen(time={"t_end": 2, "steps": 1})) == "time.steps"
    for t_start in (1, False):
        time_node = {"t_end": 2, "steps": 5, "t_start": t_start}
        assert err_path(scen(time=time_node)) == "time.t_start"
    assert err_path(scen(outputs=["inversion", "inversion"])) == "outputs[1]"
    assert err_path(scen(outputs=["heat"])) == "outputs[0]"
    assert err_path(scen(tail_epsilon=0)) == "tail_epsilon"
    assert err_path(scen(oracle_check="yes")) == "oracle_check"
    big = 10**400  # a JSON integer no float can hold
    assert err_path(scen(time={"t_end": big, "steps": 5})) == "time.t_end"
    assert err_path(scen(field={"thermal": big})) == "field.thermal"
    assert err_path(scen(field={"coherent": big})) == "field.coherent[0]"
    assert err_path(scen(tail_epsilon=big)) == "tail_epsilon"
    assert err_path(scen(profile={"constant": {"lambda0": big}})) == (
        "profile.constant.lambda0"
    )
    sinusoidal = {"sinusoidal": {"lambda0": 1, "zeta3": 1, "p": big}}
    assert err_path(scen(profile=sinusoidal)) == "profile.sinusoidal.p"
    for parameter in ("lambda0", "mean_n"):
        sweep = {"parameter": parameter, "values": [big]}
        assert err_path(scen(sweep=sweep)) == "sweep.values[0]"
    for steps in (big, 10**18, MAX_STEPS + 1):
        assert err_path(scen(time={"t_end": 2, "steps": steps})) == "time.steps"
    repeated = {"parameter": "lambda0", "values": [1.0, 2.0, 1.0]}
    assert err_path(scen(sweep=repeated)) == "sweep.values[2]"
    five = {"parameter": "lambda0", "values": [0.5, 1.0, 1.5, 2.0, 2.5]}
    rows = scen(time={"t_end": 2, "steps": MAX_STEPS // 5 + 1}, sweep=five)
    assert err_path(rows) == "sweep.values"
    rows["time"]["steps"] = MAX_STEPS // 5
    assert parse_scenario(rows).sweep.values == (0.5, 1.0, 1.5, 2.0, 2.5)
    assert parse_scenario(scen(time={"t_end": 2, "steps": MAX_STEPS})).steps == (
        MAX_STEPS
    )


# (document overrides, path, the library check that refuses the same value)
BAD_VALUES = {
    "thermal-negative": (
        {"field": {"thermal": -1}}, "field.thermal", partial(_checked, -1, "mean_n", 0)
    ),
    "weight-negative": (
        {"field": {"custom": [-0.5, 1.5]}},
        "field.custom.weights",
        partial(custom_distribution, weights=[-0.5, 1.5]),
    ),
    "weights-sum": (
        {"field": {"custom": {"weights": [0.3, 0.3]}}},
        "field.custom.weights",
        partial(custom_distribution, weights=[0.3, 0.3]),
    ),
    "amplitudes-norm": (
        {"field": {"custom": {"amplitudes": [[0.6, 0.0], [0.0, 0.7]]}}},
        "field.custom.amplitudes",
        partial(custom_distribution, amplitudes=[0.6, 0.7j]),
    ),
    "tail": ({"tail_epsilon": 1.5}, "tail_epsilon", partial(_check_tail, 1.5)),
    "steps-fraction": (
        {"time": {"t_end": 2, "steps": 1.5}},
        "time.steps",
        partial(as_numbers, 1.5, "steps", kind=int),
    ),
    "steps-bool": (
        {"time": {"t_end": 2, "steps": True}},
        "time.steps",
        partial(as_numbers, True, "steps", kind=int),
    ),
    "table-string": (
        {"profile": {"custom": {"times": [0, "2"], "values": [1, 1]}}},
        "profile.custom.times",
        partial(as_numbers, [0, "2"], "times", 1),
    ),
}


@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_value_errors_carry_path_and_library_message(case):
    overrides, path, check = BAD_VALUES[case]
    with pytest.raises(InvalidInputError) as library:
        check()
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(scen(**overrides))
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: {library.value}"


def test_missing_t_end_names_path():
    # the error message carries the dotted location of the hole
    with pytest.raises(ScenarioError, match="time"):
        parse_scenario(scen(time={"steps": 5}))


def test_invalid_json_text():
    with pytest.raises(ScenarioError, match="invalid JSON"):
        parse_scenario("{not json")


def test_coherence_needs_pure_field():
    assert err_path(scen(outputs=["coherence"])) == "outputs"
    s = parse_scenario(scen(field={"coherent": 2}, outputs=["coherence"]))
    assert s.outputs == ("coherence",)


def test_custom_atom_normalization_gate():
    ok = scen(atom={"custom": {"c_e": [0.6, 0.0], "c_g": [0.0, 0.8]}})
    s = parse_scenario(ok)
    assert s.atom.c_e == pytest.approx(0.6)
    assert s.atom.c_g == pytest.approx(0.8j)
    bad = scen(atom={"custom": {"c_e": [0.6, 0.0], "c_g": [0.0, 0.7]}})
    assert err_path(bad) == "atom.custom"


def test_field_custom_bare_list_shorthand():
    s = parse_scenario(scen(field={"custom": [0.25, 0.75]}))
    assert s.field.kind == "custom_weights"
    assert s.field.weights == (0.25, 0.75)
    dist = s.field.build(s.tail_epsilon)
    assert dist.n_max == 1


def test_field_custom_amplitudes():
    s = parse_scenario(
        scen(field={"custom": {"amplitudes": [[0.6, 0.0], [0.0, 0.8]]}})
    )
    assert s.field.kind == "custom_amplitudes"
    assert s.field.amplitudes == (0.6 + 0j, 0.8j)
    assert err_path(scen(field={"custom": {"weights": [0.3, 0.3]}})) == (
        "field.custom.weights"
    )


def test_custom_profile_must_cover_grid():
    doc = scen(
        profile={"custom": {"times": [0, 1], "values": [1, 1]}},
        time={"t_end": 2, "steps": 5},
    )
    assert err_path(doc) == "profile.custom.times"


def test_sweep_validation():
    ok = scen(sweep={"parameter": "mean_n", "values": [0.5, 2.0]})
    s = parse_scenario(ok)
    assert s.sweep == SweepSpec(parameter="mean_n", values=(0.5, 2.0))
    assert err_path(scen(sweep={"parameter": "zeta3", "values": [1]})) == (
        "sweep.parameter"
    )
    assert err_path(scen(sweep={"parameter": "mass", "values": [1]})) == (
        "sweep.parameter"
    )
    assert err_path(scen(sweep={"parameter": "lambda0", "values": []})) == (
        "sweep.values"
    )
    assert err_path(scen(sweep={"parameter": "lambda0", "values": [0.0]})) == (
        "sweep.values[0]"
    )
    bad_field = scen(
        field={"custom": [0.5, 0.5]},
        sweep={"parameter": "mean_n", "values": [1.0]},
    )
    assert err_path(bad_field) == "sweep.parameter"
    p_doc = scen(
        profile={"sinusoidal": {"lambda0": 1, "zeta3": 1}},
        sweep={"parameter": "p", "values": [1, 2, 3]},
    )
    assert parse_scenario(p_doc).sweep.values == (1, 2, 3)
    assert err_path(
        scen(
            profile={"sinusoidal": {"lambda0": 1, "zeta3": 1}},
            sweep={"parameter": "p", "values": [1.5]},
        )
    ) == "sweep.values[0]"


# The canonical profile node that serialize writes for each class in PROFILES.
PROFILE_NODES = {
    "constant": {"constant": {"lambda0": 1.0}},
    "linear": {"linear": {"lambda0": 1.0, "zeta1": 0.16}},
    "sech": {"sech": {"lambda0": 2.0, "zeta2": 0.3}},
    "sinusoidal": {"sinusoidal": {"lambda0": 1.0, "zeta3": 0.5, "p": 1}},
    "custom": {"custom": {"times": [0.0, 1.0, 4.0], "values": [0.0, 2.0, 1.0]}},
}


def test_round_trip_identity():
    for cls in PROFILES:
        node = PROFILE_NODES[cls.key]
        s = parse_scenario(scen(profile=node))
        assert isinstance(s.profile, cls)
        # repr tells 1 from 1.0 and pins the key order
        assert repr(json.loads(serialize(s))["profile"]) == repr(node)
        assert parse_scenario(serialize(s)) == s
    scenarios = [
        parse_scenario(MINIMAL),
        parse_scenario(
            scen(
                atom={"custom": {"c_e": [0.6, 0.0], "c_g": [0.48, 0.64]}},
                field={"custom": {"amplitudes": [[0.8, 0.0], [0.0, 0.6]]}},
                profile={"custom": {"times": [0, 1, 4], "values": [0, 2, 1]}},
                outputs=["coherence", "entropy"],
                tail_epsilon=1e-10,
                oracle_check=True,
            )
        ),
        parse_scenario(
            scen(
                field={"thermal": 2.5},
                profile={"sinusoidal": {"lambda0": 1, "zeta3": 0.5, "p": 3}},
                sweep={"parameter": "zeta3", "values": [0.5, 1.0, 2.0]},
            )
        ),
    ]
    for s in scenarios:
        assert parse_scenario(serialize(s)) == s


def test_run_default_columns():
    table = run(parse_scenario(scen()))
    assert table.columns == ("t", "W", "S", "Rx", "Ry", "Rz", "R")
    assert table.data.shape == (5, 7)
    assert table.sweep_parameter is None
    assert table.max_oracle_deviation is None
    np.testing.assert_allclose(table.data[:, 0], np.linspace(0, 2, 5))
    assert table.data[0, 1] == 1.0  # excited atom starts at W = 1


def test_run_output_subset_order():
    table = run(parse_scenario(scen(outputs=["bloch", "inversion"])))
    assert table.columns == ("t", "Rx", "Ry", "Rz", "W")


def test_run_eigenvalue_and_coherence_columns():
    doc = scen(
        field={"coherent": 1.5},
        outputs=["coherence", "eigenvalues"],
    )
    table = run(parse_scenario(doc))
    assert table.columns == ("t", "xi_re", "xi_im", "mu_plus", "mu_minus")
    mu = table.data[:, 3:5]
    np.testing.assert_allclose(mu.sum(axis=1), 1.0, atol=1e-10)


def test_run_sweep_stacks_blocks_in_value_order():
    doc = scen(
        field={"thermal": 1.0},
        outputs=["inversion"],
        sweep={"parameter": "mean_n", "values": [2.0, 0.5, 1.0]},
    )
    table = run(parse_scenario(doc))
    assert table.columns == ("sweep_value", "t", "W")
    assert table.sweep_parameter == "mean_n"
    assert table.data.shape == (15, 3)
    # blocks follow the order values were given, each a full time grid
    np.testing.assert_array_equal(
        table.data[:, 0], np.repeat([2.0, 0.5, 1.0], 5)
    )
    np.testing.assert_allclose(table.data[5:10, 1], np.linspace(0, 2, 5))


def test_run_sweep_equals_individual_runs():
    doc = scen(
        field={"thermal": 1.0},
        profile={"sinusoidal": {"lambda0": 1, "zeta3": 1}},
        outputs=["inversion", "purity"],
        sweep={"parameter": "p", "values": [1, 2]},
    )
    table = run(parse_scenario(doc))
    for i, p in enumerate((1, 2)):
        single = run(
            parse_scenario(
                scen(
                    field={"thermal": 1.0},
                    profile={"sinusoidal": {"lambda0": 1, "zeta3": 1, "p": p}},
                    outputs=["inversion", "purity"],
                )
            )
        )
        np.testing.assert_array_equal(
            table.data[5 * i : 5 * (i + 1), 1:], single.data
        )


def test_run_oracle_check_appends_dev_columns():
    doc = scen(
        field={"coherent": 1.2},
        time={"t_end": 3, "steps": 7},
        outputs=["inversion", "entropy"],
        oracle_check=True,
    )
    table = run(parse_scenario(doc))
    assert table.columns == ("t", "W", "S", "dev_W", "dev_S")
    assert table.max_oracle_deviation is not None
    assert table.max_oracle_deviation < 1e-8
    assert float(np.max(table.data[:, 3:])) == table.max_oracle_deviation


@pytest.mark.parametrize(
    "field", [{"coherent": 1.2}, {"thermal": 0.5}], ids=["pure", "mixed"]
)
def test_run_calls_each_layer_once_per_case(monkeypatch, field):
    # The layers are looked up as jcdyn.scenario globals at call time, so
    # wrapping them there sees every call run makes.
    calls = dict.fromkeys(
        ("evolve_pure", "evolve_mixed", "reduced_atom")
        + ("oracle_evolve_pure", "oracle_evolve_mixed"),
        0,
    )
    for name in calls:

        def counted(*args, _name=name, _layer=getattr(scenario_module, name)):
            calls[_name] += 1
            return _layer(*args)

        monkeypatch.setattr(scenario_module, name, counted)
    doc = scen(
        field=field,
        time={"t_end": 2, "steps": 7},
        oracle_check=True,
        sweep={"parameter": "lambda0", "values": [1, 2]},
    )
    table = run(parse_scenario(doc))
    assert table.data.shape[0] == 14
    # Every field takes one closed form and one oracle, evolve_mixed and
    # oracle_evolve_mixed, each once per case.
    assert calls["evolve_mixed"] == 2 and calls["evolve_pure"] == 0
    assert calls["oracle_evolve_mixed"] == 2
    assert calls["oracle_evolve_pure"] == 0 and calls["reduced_atom"] == 0


def test_run_mixed_oracle_check():
    doc = scen(
        atom="plus_x",
        field={"thermal": 0.5},
        profile={"sinusoidal": {"lambda0": 1, "zeta3": 1}},
        time={"t_end": 4, "steps": 9},
        oracle_check=True,
    )
    table = run(parse_scenario(doc))
    assert table.max_oracle_deviation < 1e-8


def test_scenario_dataclass_direct_use():
    s = Scenario(
        atom=AtomSpec(kind="ground"),
        field=FieldSpec(kind="custom_weights", weights=(1.0,)),
        profile=ConstantCoupling(1.0),
        t_end=1.0,
        steps=3,
        outputs=("inversion",),
    )
    table = run(s)
    np.testing.assert_array_equal(table.data[:, 1], [-1.0, -1.0, -1.0])


def test_sweep_case_coherent_mean_photon():
    doc = scen(
        field={"coherent": [0.0, 2.0]},  # phase pi/2, mean 4
        outputs=["inversion"],
        sweep={"parameter": "mean_n", "values": [9.0]},
    )
    s = parse_scenario(doc)
    table = run(s)
    # swept coherent field keeps its phase, mean goes to the new value
    ref = run(
        parse_scenario(
            scen(
                field={"coherent": [0.0, 3.0]},
                outputs=["inversion"],
            )
        )
    )
    np.testing.assert_allclose(table.data[:, 2], ref.data[:, 1], atol=1e-12)
