"""Scenario documents: parsing, validation, and batch evaluation.

A scenario is a JSON object pinning down the initial atom, the initial
field, the coupling profile, the time grid, and which observables to
tabulate. Parsing is strict: unknown keys and out-of-range values are
rejected with the dotted path of the offending entry, so a typo cannot
silently change the physics.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .coupling import PROFILES, check_parameter, scalar_fields
from .dynamics import AtomDensityMatrix, AtomState, evolve_mixed
from .errors import InvalidInputError, ScenarioError
from .fields import (
    DEFAULT_TAIL_EPSILON,
    coherent_amplitudes,
    custom_distribution,
    thermal_weights,
)
from .observables import (
    atom_eigenvalues,
    bloch_vector,
    population_inversion,
    von_neumann_entropy,
)
from .oracle import oracle_evolve_mixed

# Not called here: bench/run.py's trace_targets wraps these jcdyn.scenario
# attributes by name, so they stay importable from this module.
from .dynamics import evolve_pure  # noqa: F401
from .observables import coherence_xi, reduced_atom  # noqa: F401
from .oracle import oracle_evolve_pure  # noqa: F401

OUTPUT_CHOICES = (
    "inversion",
    "entropy",
    "bloch",
    "purity",
    "coherence",
    "eigenvalues",
)
DEFAULT_OUTPUTS = ("inversion", "entropy", "bloch", "purity")
SWEEP_PARAMETERS = ("mean_n",) + tuple(
    dict.fromkeys(name for cls in PROFILES for name in scalar_fields(cls))
)
_PROFILE_BY_KEY = {cls.key: cls for cls in PROFILES}

ORACLE_DEVIATION_LIMIT = 1e-6

# Most rows a scenario may ask for, time points times sweep values (2^22,
# 32 MiB per float column of the result table), checked at parse time
# before the grid is allocated.
MAX_STEPS = 2**22


@dataclass(frozen=True)
class AtomSpec:
    """Initial atomic state named or given by explicit amplitudes."""

    kind: str
    c_e: complex = 0j
    c_g: complex = 0j

    def to_state(self) -> AtomState:
        if self.kind == "excited":
            return AtomState.excited()
        if self.kind == "ground":
            return AtomState.ground()
        if self.kind == "plus_x":
            return AtomState.plus_x()
        return AtomState(self.c_e, self.c_g)


@dataclass(frozen=True)
class FieldSpec:
    """Initial field state; built into a PhotonDistribution per run."""

    kind: str
    alpha: complex = 0j
    mean_n: float = 0.0
    weights: tuple = ()
    amplitudes: tuple = ()

    @property
    def is_pure(self) -> bool:
        return self.kind in ("coherent", "custom_amplitudes")

    def build(self, tail_epsilon):
        if self.kind == "coherent":
            return coherent_amplitudes(self.alpha, tail_epsilon)
        if self.kind == "thermal":
            return thermal_weights(self.mean_n, tail_epsilon)
        if self.kind == "custom_weights":
            return custom_distribution(
                weights=list(self.weights), tail_epsilon=tail_epsilon
            )
        return custom_distribution(
            amplitudes=list(self.amplitudes), tail_epsilon=tail_epsilon
        )


@dataclass(frozen=True)
class SweepSpec:
    """One parameter swept over explicit values, one run per value."""

    parameter: str
    values: tuple


@dataclass(frozen=True)
class Scenario:
    atom: AtomSpec
    field: FieldSpec
    profile: object
    t_end: float
    steps: int
    outputs: tuple = DEFAULT_OUTPUTS
    tail_epsilon: float = DEFAULT_TAIL_EPSILON
    oracle_check: bool = False
    sweep: SweepSpec | None = None


@dataclass(frozen=True)
class ResultTable:
    """Tabulated observables, one row per time point (times sweep values).

    ``columns`` names the numeric columns of ``data``; sweeping prepends a
    ``sweep_value`` column and sets ``sweep_parameter`` to the swept name.
    """

    columns: tuple
    data: np.ndarray
    sweep_parameter: str | None = None
    max_oracle_deviation: float | None = None


def _err(path, message):
    raise ScenarioError(path, message)


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        _err(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj, path, required, optional=()):
    for key in obj:
        if key not in required and key not in optional:
            _err(path, f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            _err(path, f"missing key {key!r}")


def _real(value, path, *, minimum=None, exclusive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _err(path, "expected a number")
    if not abs(value) <= sys.float_info.max:  # inf, nan or an int beyond float
        _err(path, "must be finite")
    value = float(value)
    if minimum is not None:
        if exclusive and value <= minimum:
            _err(path, f"must be > {minimum}")
        if not exclusive and value < minimum:
            _err(path, f"must be >= {minimum}")
    return value


def _integer(value, path, *, minimum):
    if isinstance(value, bool) or not isinstance(value, int):
        _err(path, "expected an integer")
    if value < minimum:
        _err(path, f"must be >= {minimum}")
    return value


def _complex_number(value, path):
    """A complex entry: a plain number or a [real, imag] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [value, 0.0]
    if not (isinstance(value, list) and len(value) == 2):
        _err(path, "expected a number or [real, imag]")
    re = _real(value[0], f"{path}[0]")
    im = _real(value[1], f"{path}[1]")
    return complex(re, im)


def _parse_atom(node, path):
    if isinstance(node, str):
        if node not in ("excited", "ground", "plus_x"):
            _err(path, f"unknown atom state {node!r}")
        return AtomSpec(kind=node)
    node = _require_mapping(node, path)
    _check_keys(node, path, required=("custom",))
    body = _require_mapping(node["custom"], f"{path}.custom")
    _check_keys(body, f"{path}.custom", required=("c_e", "c_g"))
    c_e = _complex_number(body["c_e"], f"{path}.custom.c_e")
    c_g = _complex_number(body["c_g"], f"{path}.custom.c_g")
    norm = abs(c_e) ** 2 + abs(c_g) ** 2
    if abs(norm - 1.0) >= 1e-9:
        _err(f"{path}.custom", f"amplitude norm {norm!r} deviates from 1")
    scale = 1.0 / math.sqrt(norm)
    return AtomSpec(kind="custom", c_e=c_e * scale, c_g=c_g * scale)


def _parse_field(node, path):
    node = _require_mapping(node, path)
    if len(node) != 1:
        _err(path, "expected exactly one of coherent | thermal | custom")
    key = next(iter(node))
    if key == "coherent":
        return FieldSpec(kind="coherent", alpha=_complex_number(node[key], f"{path}.coherent"))
    if key == "thermal":
        return FieldSpec(
            kind="thermal", mean_n=_real(node[key], f"{path}.thermal", minimum=0.0)
        )
    if key == "custom":
        body = node[key]
        if isinstance(body, list):
            # Shorthand: a bare list is a table of occupation weights.
            body = {"weights": body}
        body = _require_mapping(body, f"{path}.custom")
        if set(body) == {"weights"}:
            raw = body["weights"]
            if not (isinstance(raw, list) and raw):
                _err(f"{path}.custom.weights", "expected a non-empty list")
            w = tuple(
                _real(v, f"{path}.custom.weights[{i}]", minimum=0.0)
                for i, v in enumerate(raw)
            )
            if abs(math.fsum(w) - 1.0) >= 1e-9:
                _err(f"{path}.custom.weights", "must sum to 1 within 1e-9")
            return FieldSpec(kind="custom_weights", weights=w)
        if set(body) == {"amplitudes"}:
            raw = body["amplitudes"]
            if not (isinstance(raw, list) and raw):
                _err(f"{path}.custom.amplitudes", "expected a non-empty list")
            a = tuple(
                _complex_number(v, f"{path}.custom.amplitudes[{i}]")
                for i, v in enumerate(raw)
            )
            if abs(math.fsum(abs(x) ** 2 for x in a) - 1.0) >= 1e-9:
                _err(f"{path}.custom.amplitudes", "norm must be 1 within 1e-9")
            return FieldSpec(kind="custom_amplitudes", amplitudes=a)
        _err(f"{path}.custom", "expected exactly one of weights | amplitudes")
    _err(path, f"unknown field kind {key!r}")


def _parameter(field, value, path):
    """A profile parameter from JSON, bounded by the profile's own check."""
    if field.type is tuple:
        if not isinstance(value, list):
            _err(path, "expected a list")
        return tuple(_real(v, f"{path}[{i}]") for i, v in enumerate(value))
    try:
        return check_parameter(field, value)
    except InvalidInputError as exc:
        _err(path, str(exc))


def _parse_coupling(node, path):
    node = _require_mapping(node, path)
    if len(node) != 1:
        _err(path, "expected exactly one coupling kind")
    key = next(iter(node))
    p = f"{path}.{key}"
    body = _require_mapping(node[key], p)
    cls = _PROFILE_BY_KEY.get(key)
    if cls is None:
        _err(path, f"unknown coupling kind {key!r}")
    params = fields(cls)
    required = [f.name for f in params if f.default is MISSING]
    _check_keys(body, p, required, [f.name for f in params if f.name not in required])
    kwargs = {
        f.name: _parameter(f, body[f.name], f"{p}.{f.name}")
        for f in params
        if f.name in body
    }
    try:
        return cls(**kwargs)
    except InvalidInputError as exc:
        _err(p, str(exc))


def _parse_sweep(node, path, field, profile):
    node = _require_mapping(node, path)
    _check_keys(node, path, required=("parameter", "values"))
    parameter = node["parameter"]
    if parameter not in SWEEP_PARAMETERS:
        _err(f"{path}.parameter", f"unknown sweep parameter {parameter!r}")
    swept = scalar_fields(profile).get(parameter)
    if parameter == "mean_n" and field.kind not in ("coherent", "thermal"):
        _err(f"{path}.parameter", "mean_n sweep needs a coherent or thermal field")
    if parameter != "mean_n" and swept is None:
        _err(
            f"{path}.parameter",
            f"{parameter!r} does not apply to this coupling profile",
        )
    raw = node["values"]
    if not (isinstance(raw, list) and raw):
        _err(f"{path}.values", "expected a non-empty list")
    values = tuple(
        _real(v, f"{path}.values[{i}]", minimum=0.0)
        if swept is None
        else _parameter(swept, v, f"{path}.values[{i}]")
        for i, v in enumerate(raw)
    )
    first = {}
    for i, v in enumerate(values):
        if first.setdefault(v, i) != i:
            _err(f"{path}.values[{i}]", f"duplicate value {v!r}")
    return SweepSpec(parameter=parameter, values=values)


def parse_scenario(source) -> Scenario:
    """Parse and validate a scenario from JSON text or a parsed mapping."""
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ScenarioError("$", f"invalid JSON: {exc}") from None
    else:
        doc = source
    doc = _require_mapping(doc, "$")
    _check_keys(
        doc,
        "$",
        required=("atom", "field", "profile", "time"),
        optional=("outputs", "tail_epsilon", "oracle_check", "sweep"),
    )
    atom = _parse_atom(doc["atom"], "atom")
    field = _parse_field(doc["field"], "field")
    profile = _parse_coupling(doc["profile"], "profile")

    time_node = _require_mapping(doc["time"], "time")
    _check_keys(time_node, "time", required=("t_end", "steps"), optional=("t_start",))
    if "t_start" in time_node and _real(time_node["t_start"], "time.t_start") != 0:
        _err("time.t_start", "only 0 is supported")
    t_end = _real(time_node["t_end"], "time.t_end", minimum=0.0, exclusive=True)
    steps = _integer(time_node["steps"], "time.steps", minimum=2)
    if steps > MAX_STEPS:
        _err("time.steps", f"must be <= {MAX_STEPS}")

    outputs = DEFAULT_OUTPUTS
    if "outputs" in doc:
        raw = doc["outputs"]
        if not (isinstance(raw, list) and raw):
            _err("outputs", "expected a non-empty list")
        seen = []
        for i, name in enumerate(raw):
            if name not in OUTPUT_CHOICES:
                _err(f"outputs[{i}]", f"unknown output {name!r}")
            if name in seen:
                _err(f"outputs[{i}]", f"duplicate output {name!r}")
            seen.append(name)
        outputs = tuple(seen)
    if "coherence" in outputs and not field.is_pure:
        _err("outputs", "coherence needs a pure field state")

    tail_epsilon = DEFAULT_TAIL_EPSILON
    if "tail_epsilon" in doc:
        tail_epsilon = _real(
            doc["tail_epsilon"], "tail_epsilon", minimum=0.0, exclusive=True
        )
        if tail_epsilon >= 1.0:
            _err("tail_epsilon", "must be < 1")

    oracle_check = False
    if "oracle_check" in doc:
        if not isinstance(doc["oracle_check"], bool):
            _err("oracle_check", "expected true or false")
        oracle_check = doc["oracle_check"]

    sweep = None
    if "sweep" in doc:
        sweep = _parse_sweep(doc["sweep"], "sweep", field, profile)
        if steps * len(sweep.values) > MAX_STEPS:
            _err("sweep.values", f"steps x values must be <= {MAX_STEPS}")

    if profile.t_max < t_end:
        _err(f"profile.{profile.key}.times", "table ends before time.t_end")

    return Scenario(
        atom=atom,
        field=field,
        profile=profile,
        t_end=t_end,
        steps=steps,
        outputs=outputs,
        tail_epsilon=tail_epsilon,
        oracle_check=oracle_check,
        sweep=sweep,
    )


def _complex_json(z):
    return [z.real, z.imag]


def serialize(scenario: Scenario) -> str:
    """Canonical JSON for a scenario; parse_scenario inverts it exactly."""
    doc = {}
    atom = scenario.atom
    if atom.kind == "custom":
        doc["atom"] = {
            "custom": {"c_e": _complex_json(atom.c_e), "c_g": _complex_json(atom.c_g)}
        }
    else:
        doc["atom"] = atom.kind
    field = scenario.field
    if field.kind == "coherent":
        doc["field"] = {"coherent": _complex_json(field.alpha)}
    elif field.kind == "thermal":
        doc["field"] = {"thermal": field.mean_n}
    elif field.kind == "custom_weights":
        doc["field"] = {"custom": {"weights": list(field.weights)}}
    else:
        doc["field"] = {
            "custom": {"amplitudes": [_complex_json(a) for a in field.amplitudes]}
        }
    prof = scenario.profile
    doc["profile"] = {prof.key: {f.name: getattr(prof, f.name) for f in fields(prof)}}
    doc["time"] = {"t_end": scenario.t_end, "steps": scenario.steps}
    doc["outputs"] = list(scenario.outputs)
    doc["tail_epsilon"] = scenario.tail_epsilon
    doc["oracle_check"] = scenario.oracle_check
    if scenario.sweep is not None:
        doc["sweep"] = {
            "parameter": scenario.sweep.parameter,
            "values": list(scenario.sweep.values),
        }
    return json.dumps(doc, indent=2)


def _sweep_case(scenario, value):
    """Field spec and profile with one swept parameter replaced."""
    field, profile = scenario.field, scenario.profile
    param = scenario.sweep.parameter
    if param == "mean_n":
        if field.kind == "thermal":
            field = replace(field, mean_n=value)
        else:
            phase = cmath.phase(field.alpha) if field.alpha != 0 else 0.0
            field = replace(field, alpha=cmath.rect(math.sqrt(value), phase))
    else:
        profile = replace(profile, **{param: value})
    return field, profile


def _observable_columns(outputs, rho, xi):
    """Output columns from a batch of reduced states and their xi column."""
    cols = {}
    if "bloch" in outputs or "purity" in outputs:
        bloch = bloch_vector(rho)
    for name in outputs:
        if name == "inversion":
            cols["W"] = population_inversion(rho)
        elif name == "entropy":
            cols["S"] = von_neumann_entropy(rho)
        elif name == "bloch":
            cols["Rx"], cols["Ry"], cols["Rz"] = bloch.r_x, bloch.r_y, bloch.r_z
        elif name == "purity":
            cols["R"] = bloch.r
        elif name == "coherence":
            cols["xi_re"], cols["xi_im"] = xi.real, xi.imag
        else:
            eig = atom_eigenvalues(rho)
            cols["mu_plus"], cols["mu_minus"] = eig.mu_plus, eig.mu_minus
    return cols


def _evolve_case(scenario, field_spec, profile, grid):
    """Observable columns of one case, each with a ``dev_`` companion
    appended when the oracle checks the case."""
    dist = field_spec.build(scenario.tail_epsilon)
    rho0 = AtomDensityMatrix.from_atom_state(scenario.atom.to_state())
    mass = dist.weights.sum()  # rho is divided by this, so xi = mass * conj(rho_eg)

    def columns(rho):
        return _observable_columns(scenario.outputs, rho, mass * np.conj(rho.rho_eg))

    cols = columns(evolve_mixed(rho0, dist, profile, grid))
    if scenario.oracle_check:
        ref = columns(oracle_evolve_mixed(rho0, dist, profile, grid))
        cols.update({f"dev_{k}": np.abs(cols[k] - ref[k]) for k in ref})
    return cols


def run(scenario: Scenario) -> ResultTable:
    """Evaluate a scenario into a flat table, sweeps stacked lengthwise.

    Each case takes one batched closed-form call over the whole time grid,
    and sweep cases run one after another, so rows assemble in
    sweep-value-then-time order. With ``oracle_check`` set, each observable
    column gains a ``dev_`` companion holding the absolute gap to the
    reference integrator.
    """
    grid = np.linspace(0.0, scenario.t_end, scenario.steps)
    if scenario.sweep is None:
        cases = [(None, scenario.field, scenario.profile)]
    else:
        cases = [
            (float(v), *_sweep_case(scenario, v)) for v in scenario.sweep.values
        ]

    blocks = []
    for value, field_spec, profile in cases:
        cols = _evolve_case(scenario, field_spec, profile, grid)
        arrays = [grid, *cols.values()]
        if value is not None:
            arrays.insert(0, np.full(grid.size, value))
        blocks.append(np.column_stack(arrays))

    data = np.concatenate(blocks, axis=0)
    columns = ("t",) + tuple(cols)
    sweep_parameter = None
    if scenario.sweep is not None:
        sweep_parameter = scenario.sweep.parameter
        columns = ("sweep_value",) + columns
    dev = [i for i, name in enumerate(columns) if name.startswith("dev_")]
    return ResultTable(
        columns=columns,
        data=data,
        sweep_parameter=sweep_parameter,
        max_oracle_deviation=float(data[:, dev].max()) if dev else None,
    )
