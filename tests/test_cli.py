"""Command-line interface: subcommands, outputs, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import jcdyn.cli as cli
from jcdyn import NumericalFailureError, oracle

BASIC = {
    "atom": "excited",
    "field": {"coherent": 2},
    "profile": {"constant": {"lambda0": 1}},
    "time": {"t_end": 2.0, "steps": 9},
    "outputs": ["inversion"],
}


def write_scenario(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_run_stdout_csv(tmp_path, capsys):
    path = write_scenario(tmp_path, BASIC)
    assert cli.main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "t,W"
    assert len(lines) == 10
    assert float(lines[1].split(",")[1]) == 1.0


def test_run_writes_csv_and_svg(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(BASIC, outputs=["inversion", "entropy"]))
    out_dir = tmp_path / "results"
    code = cli.main(
        ["run", str(path), "--out", str(out_dir), "--csv", "--svg", "W,S"]
    )
    assert code == 0
    csv_path = out_dir / "case.csv"
    svg_path = out_dir / "case.svg"
    assert csv_path.read_text().splitlines()[0] == "t,W,S"
    assert svg_path.read_text().startswith("<svg")
    printed = capsys.readouterr().out
    assert str(csv_path) in printed and str(svg_path) in printed


def test_run_parametric_svg(tmp_path):
    doc = {
        "atom": "plus_x",
        "field": {"thermal": 0.5},
        "profile": {"sinusoidal": {"lambda0": 1, "zeta3": 1}},
        "time": {"t_end": 3.0, "steps": 13},
    }
    path = write_scenario(tmp_path, doc)
    assert cli.main(["run", str(path), "--out", str(tmp_path), "--svg", "Rx:Rz"]) == 0
    assert (tmp_path / "case.svg").exists()


@pytest.mark.parametrize("flags", [["--csv"], ["--svg", "W"]], ids=["csv", "svg"])
def test_run_unwritable_output_exits_2(tmp_path, capsys, flags):
    path = write_scenario(tmp_path, BASIC)
    # --out names an existing file, so the directory cannot be made.
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert cli.main(["run", str(path), "--out", str(blocker)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: cannot write output: ")
    assert len(err.splitlines()) == 1
    # The output file's own name is taken by a directory.
    out_dir = tmp_path / "results"
    (out_dir / ("case." + flags[0][2:])).mkdir(parents=True)
    assert cli.main(["run", str(path), "--out", str(out_dir)] + flags) == 2
    assert "cannot write output: " in capsys.readouterr().err


# Nine rows sit in stdout's buffer until main's flush; 4096 rows of (t, W)
# make exactly one 2^13-value block, larger than a pipe's buffer; 2001 rows
# of every output span several blocks.
ONE_BLOCK = dict(BASIC, time={"t_end": 2.0, "steps": 4096})
MULTI_BLOCK = dict(BASIC, atom="plus_x", time={"t_end": 20.0, "steps": 2001})
del MULTI_BLOCK["outputs"]


def start_cli(args, stdout, unbuffered):
    """Start ``jcdyn`` with stdout block-buffered, as the interpreter's
    default is, or with PYTHONUNBUFFERED=1, under which CPython's text
    stdout would drop the unwritten tail of a short write to a closed pipe
    without an error."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "jcdyn.cli"] + args,
        stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


# A complex custom atom on a complex alpha forms all six products of the
# reduced-atom kernel; the sweep's widest case holds 2777 levels, several
# row blocks of them.
BLAS_DOCS = (
    {
        "atom": {"custom": {"c_e": [0.6, 0.3], "c_g": [0.2, -0.714142842854285]}},
        "field": {"coherent": [6.0, 8.0]},
        "profile": {"sech": {"lambda0": 1.1, "zeta2": 0.2}},
        "time": {"t_end": 30.0, "steps": 1001},
    },
    {
        "atom": "plus_x",
        "field": {"thermal": 1.0},
        "profile": {"sinusoidal": {"lambda0": 1, "zeta3": 0.1, "p": 1}},
        "time": {"t_end": 100.0, "steps": 1001},
        "sweep": {"parameter": "mean_n", "values": [0.5, 5.0, 100.0]},
    },
)


@pytest.mark.parametrize("doc", BLAS_DOCS, ids=["complex-coherent", "thermal-sweep"])
def test_run_stdout_is_the_same_on_one_and_two_blas_threads(tmp_path, doc):
    # The closed-form columns do not depend on how BLAS splits its sums.
    path = write_scenario(tmp_path, doc)
    src = str(Path(cli.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "jcdyn.cli", "run", str(path)],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0].count(b"\n") > 1001 and outputs[0] == outputs[1]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "doc, unbuffered",
    [(BASIC, False), (MULTI_BLOCK, False), (BASIC, True), (MULTI_BLOCK, True)],
    ids=["flush", "multi-block", "flush-unbuffered", "multi-block-unbuffered"],
)
def test_run_into_full_device_exits_2(tmp_path, doc, unbuffered):
    path = write_scenario(tmp_path, doc)
    with open("/dev/full", "w") as full:
        proc = start_cli(["run", str(path)], full, unbuffered)
        err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 2
    assert err.splitlines() == [
        "invalid input: cannot write output: [Errno 28] No space left on device"
    ]


@pytest.mark.parametrize(
    "doc, unbuffered",
    [(ONE_BLOCK, False), (MULTI_BLOCK, False), (ONE_BLOCK, True), (MULTI_BLOCK, True)],
    ids=["one-block", "multi-block", "one-block-unbuffered", "multi-block-unbuffered"],
)
def test_run_into_closed_pipe_exits_2(tmp_path, doc, unbuffered):
    # The reader takes 100 bytes and closes the pipe, as `head -c 100` does.
    path = write_scenario(tmp_path, doc)
    proc = start_cli(["run", str(path)], subprocess.PIPE, unbuffered)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 2
    assert err.splitlines() == [
        "invalid input: cannot write output: [Errno 32] Broken pipe"
    ]


def test_run_unknown_svg_column_writes_nothing(tmp_path, capsys):
    # emit_svg checks the selection against the table before it opens a
    # file, and the SVG is written before the CSV.
    path = write_scenario(tmp_path, BASIC)
    out_dir = tmp_path / "results"
    code = cli.main(["run", str(path), "--csv", "--svg", "nope", "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["invalid input: unknown column 'nope'"]
    assert captured.out == ""
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_run_failed_svg_leaves_no_csv(tmp_path, capsys):
    # The SVG's name is taken by a directory: the CSV, written beside it,
    # must not be left behind by a run that exits 2.
    path = write_scenario(tmp_path, BASIC)
    out_dir = tmp_path / "results"
    (out_dir / "case.svg").mkdir(parents=True)
    code = cli.main(["run", str(path), "--csv", "--svg", "W", "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: cannot write output: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert sorted(p.name for p in out_dir.iterdir()) == ["case.svg"]
    assert not any((out_dir / "case.svg").iterdir())


def test_run_oracle_flag_reports_deviation(tmp_path, capsys):
    path = write_scenario(tmp_path, BASIC)
    assert cli.main(["run", str(path), "--oracle"]) == 0
    captured = capsys.readouterr()
    assert "dev_W" in captured.out.splitlines()[0]
    assert "max oracle deviation" in captured.err


def test_run_tail_eps_override(tmp_path, capsys):
    path = write_scenario(tmp_path, BASIC)
    assert cli.main(["run", str(path), "--tail-eps", "1e-6"]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(path), "--tail-eps", "2.0"]) == 2
    assert "tail-eps" in capsys.readouterr().err


def test_invalid_inputs_exit_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{")
    assert cli.main(["run", str(bad_json)]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    semantic = write_scenario(
        tmp_path, dict(BASIC, time={"t_end": -1, "steps": 9}), "bad_time.json"
    )
    assert cli.main(["run", str(semantic)]) == 2
    assert "time.t_end" in capsys.readouterr().err

    path = write_scenario(tmp_path, BASIC)
    assert cli.main(["run", str(path), "--svg", "nope"]) == 2
    assert "unknown column" in capsys.readouterr().err
    assert cli.main(["run", str(path), "--svg", "W:S:R"]) == 2


@pytest.mark.parametrize(
    "field", [{"thermal": 1e9}, {"coherent": 1e5}], ids=["thermal", "coherent"]
)
def test_field_over_level_budget_exits_2(tmp_path, capsys, field):
    path = write_scenario(tmp_path, dict(BASIC, field=field))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and "budget" in err
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "field", [{"coherent": 2}, {"thermal": 0.5}], ids=["coherent", "thermal"]
)
@pytest.mark.parametrize(
    "profile",
    [
        {"linear": {"lambda0": 1, "zeta1": 1e308}},
        {"constant": {"lambda0": 1e308}},
        {"sinusoidal": {"lambda0": 1, "zeta3": 1e308, "p": 3}},
        {"sech": {"lambda0": 1e308, "zeta2": 1e-308}},
    ],
    ids=["linear", "constant", "sinusoidal", "sech"],
)
def test_overflowing_coupling_area_exits_2(tmp_path, capsys, field, profile):
    doc = dict(BASIC, field=field, profile=profile, time={"t_end": 5, "steps": 4})
    path = write_scenario(tmp_path, doc)
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: coupling area is not finite at t = ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "field", [{"coherent": 2}, {"thermal": 2}], ids=["coherent", "thermal"]
)
def test_overflowing_rotation_angle_exits_2(tmp_path, capsys, field):
    # The area 1.5e308 is finite; the top block turns by it times sqrt(n+1).
    profile = {"constant": {"lambda0": 1e308}}
    doc = dict(BASIC, field=field, profile=profile, time={"t_end": 1.5, "steps": 4})
    path = write_scenario(tmp_path, doc)
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: block angle A*sqrt(n+1) overflows")
    assert err.count("\n") == 1


def test_sweep_over_row_budget_exits_2(tmp_path, capsys):
    # MAX_STEPS bounds the whole table: 2^20 steps times 5 sweep values is
    # refused at parse time, before any grid or column is allocated.
    import tracemalloc

    from jcdyn import ScenarioError, parse_scenario

    values = [0.5, 1.0, 1.5, 2.0, 2.5]
    doc = dict(
        BASIC,
        field={"thermal": 0.5},
        time={"t_end": 2.0, "steps": 2**20},
        sweep={"parameter": "lambda0", "values": values},
    )
    path = write_scenario(tmp_path, doc)
    assert cli.main(["run", str(path), "--csv", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: sweep.values: ")
    assert err.count("\n") == 1
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError):
            parse_scenario(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def assert_oracle_refuses_before_running(tmp_path, capsys, monkeypatch, doc, budget):
    from jcdyn import scenario

    calls = []
    monkeypatch.setattr(oracle, "solve_ivp", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(scenario, "evolve_mixed", lambda *a: calls.append(a))
    path = write_scenario(tmp_path, doc)
    assert cli.main(["run", str(path), "--oracle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: oracle needs ")
    assert f"over the budget of {budget}" in err
    assert err.count("\n") == 1
    assert calls == []


def test_oracle_over_sample_budget_exits_2(tmp_path, capsys, monkeypatch):
    # plus_x on thermal mean_n=4e4 integrates one pair for each of its
    # 1,105,255 photon blocks, whose 16 stage vectors pass 2^24 values:
    # refused before the closed form or the solver runs.
    doc = dict(BASIC, atom="plus_x", field={"thermal": 4e4})
    assert_oracle_refuses_before_running(
        tmp_path, capsys, monkeypatch, doc, oracle.MAX_ORACLE_SAMPLES
    )


def test_sweep_over_oracle_budget_exits_2_before_its_first_case(
    tmp_path, capsys, monkeypatch
):
    sweep = {"parameter": "mean_n", "values": [1, 4e4]}
    doc = dict(BASIC, atom="plus_x", field={"thermal": 1}, sweep=sweep)
    assert_oracle_refuses_before_running(
        tmp_path, capsys, monkeypatch, doc, oracle.MAX_ORACLE_SAMPLES
    )


def test_compare_beyond_the_old_sample_budget(tmp_path, capsys):
    # 20,001 times x 2 x 567 rows is 22,681,134 samples, more than 2^24; the
    # solver hands them to the reduction block by block, so none are kept.
    doc = dict(
        BASIC,
        field={"thermal": 20},
        profile={"sinusoidal": {"lambda0": 1, "zeta3": 0.5}},
        time={"t_end": 2.0, "steps": 20001},
    )
    path = write_scenario(tmp_path, doc)
    assert cli.main(["compare", str(path)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("overall max deviation: ")
    assert float(last.split(": ")[1]) < 1e-7


def test_run_without_oracle_loads_no_scipy():
    code = """
import json, sys
import jcdyn, jcdyn.cli
scenario = jcdyn.parse_scenario(json.loads(sys.argv[1]))
table = jcdyn.run(scenario)
print(json.dumps([table.data.shape[0], sorted(sys.modules)]))
"""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(BASIC)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows, modules = json.loads(proc.stdout)
    assert rows == BASIC["time"]["steps"]
    assert "numpy" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    assert "jcdyn.dop853" not in modules


@pytest.mark.parametrize(
    "field", [{"thermal": 1.0}, {"coherent": 1.2}], ids=["thermal", "coherent"]
)
def test_compare_loads_no_scipy(tmp_path, field):
    # With sys.modules["scipy"] = None any scipy import raises, so exit 0
    # shows that the oracle runs on numpy alone, for either kind of field.
    code = """
import json, sys
sys.modules["scipy"] = None
import jcdyn.cli
status = jcdyn.cli.main(["compare", sys.argv[1]])
print(json.dumps([status, sorted(k for k, v in sys.modules.items() if v is not None)]))
"""
    doc = dict(BASIC, atom="plus_x", field=field)
    path = write_scenario(tmp_path, doc)
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "overall max deviation:" in proc.stdout
    status, modules = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0
    assert "jcdyn.dop853" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_predict_revival_constant(tmp_path, capsys):
    doc = dict(BASIC, field={"coherent": 5})
    path = write_scenario(tmp_path, doc)
    assert cli.main(["predict-revival", str(path)]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(10.0 * math.pi, rel=1e-12)


def test_predict_revival_no_formula(tmp_path, capsys):
    doc = dict(BASIC, profile={"sech": {"lambda0": 1, "zeta2": 0.3}})
    path = write_scenario(tmp_path, doc)
    assert cli.main(["predict-revival", str(path)]) == 0
    assert "no closed-form revival prediction" in capsys.readouterr().out


def test_compare_report(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(BASIC, outputs=["inversion", "purity"]))
    assert cli.main(["compare", str(path)]) == 0
    out = capsys.readouterr().out
    assert "W: max |closed - oracle|" in out
    assert "R: max |closed - oracle|" in out
    assert "overall max deviation" in out


def test_deviation_exit_4(tmp_path, monkeypatch, capsys):
    # force the acceptance threshold to zero so any fp noise trips it
    monkeypatch.setattr(cli, "ORACLE_DEVIATION_LIMIT", 0.0)
    path = write_scenario(tmp_path, BASIC)
    assert cli.main(["compare", str(path)]) == 4
    capsys.readouterr()
    assert cli.main(["run", str(path), "--oracle"]) == 4
    assert "deviation exceeds" in capsys.readouterr().err


def test_numerical_failure_exit_3(tmp_path, monkeypatch, capsys):
    def boom(scenario):
        raise NumericalFailureError("synthetic blow-up")

    monkeypatch.setattr(cli, "run", boom)
    path = write_scenario(tmp_path, BASIC)
    assert cli.main(["run", str(path)]) == 3
    assert "synthetic blow-up" in capsys.readouterr().err


def test_compare_over_step_budget_exits_2(tmp_path, capsys, monkeypatch):
    # DOP853 needs at least t_end / dop853.MAX_STEP = 1e13 steps here; the
    # count is refused before the closed form or the first step runs.
    doc = dict(BASIC, field={"coherent": 1}, time={"t_end": 1e12, "steps": 5})
    path = write_scenario(tmp_path, doc)
    assert cli.main(["compare", str(path)]) == 2
    assert capsys.readouterr().err == (
        "invalid input: oracle needs 1e+13 steps, over the budget of "
        f"{oracle.MAX_ORACLE_STEPS}\n"
    )
    assert_oracle_refuses_before_running(
        tmp_path, capsys, monkeypatch, doc, oracle.MAX_ORACLE_STEPS
    )


def test_compare_strong_coupling_over_step_budget_exits_2(
    tmp_path, capsys, monkeypatch
):
    # The span counts only 1e5 steps, but lambda0 = 1000 turns the top
    # block, n = 14, by sqrt(15) * 1e7 radians, at least one step per two:
    # refused at once, where the solver would step for hours.
    doc = dict(
        BASIC,
        field={"coherent": 1},
        profile={"constant": {"lambda0": 1000}},
        time={"t_end": 1e4, "steps": 5},
    )
    path = write_scenario(tmp_path, doc)
    start = time.perf_counter()
    assert cli.main(["compare", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "invalid input: oracle needs 1.936492e+07 steps, over the budget of "
        f"{oracle.MAX_ORACLE_STEPS}\n"
    )
    assert_oracle_refuses_before_running(
        tmp_path, capsys, monkeypatch, doc, oracle.MAX_ORACLE_STEPS
    )


def test_bench_trace_targets_exist():
    # bench/run.py's tracer wraps these module attributes by name; a
    # missing one would fail only the traced benchmark. The file is read,
    # not imported: importing it sets the BLAS thread variables.
    import ast
    import importlib

    source = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    body = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "trace_targets"
    )
    modules = {}  # local name -> jcdyn module, from `cli, ... = api.cli, ...`
    for node in ast.walk(body):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            for name, value in zip(node.targets[0].elts, node.value.elts):
                modules[name.id] = importlib.import_module(f"jcdyn.{value.attr}")
    targets = [
        (node.elts[0].id, node.elts[1].value)
        for node in ast.walk(body)
        if isinstance(node, ast.Tuple)
        and isinstance(node.elts[0], ast.Name)
        and node.elts[0].id in modules
        and isinstance(node.elts[1], ast.Constant)
    ]
    assert len(targets) >= 20
    missing = [t for t in targets if not hasattr(modules[t[0]], t[1])]
    assert missing == []
