"""CSV and SVG emission: format contract, round-trips, golden plot."""

import errno
import json
import math
import os
import pathlib
import signal
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from jcdyn import InvalidInputError, ResultTable, cli, output, parse_scenario, run
from jcdyn.output import (
    _nice_ticks,
    _series_from_table,
    emit_csv,
    emit_svg,
    format_csv,
)

DATA = pathlib.Path(__file__).parent / "data"

TRICKY = (1.0 / 3.0, 0.1, math.pi, 1e-17, -0.0, 1234567.875, -2.5e300)


def small_table():
    data = np.array([[0.0, 1.0], [0.5, 0.25], [1.0, -1.0]])
    return ResultTable(columns=("t", "W"), data=data)


def golden_scenario():
    return parse_scenario(
        {
            "atom": "excited",
            "field": {"coherent": 5},
            "profile": {"constant": {"lambda0": 1}},
            "time": {"t_end": 40, "steps": 201},
            "outputs": ["inversion", "entropy"],
        }
    )


def test_csv_header_and_line_endings(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(small_table(), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8")
    lines = text.splitlines()
    assert lines[0] == "t,W"
    assert len(lines) == 4
    assert text.endswith("\n")


def test_csv_values_round_trip_exactly():
    data = np.column_stack([np.arange(len(TRICKY), dtype=float), TRICKY])
    table = ResultTable(columns=("t", "W"), data=data)
    lines = format_csv(table).splitlines()[1:]
    for line, original in zip(lines, TRICKY):
        assert float(line.split(",")[1]) == original


def test_csv_sweep_layout():
    data = np.array([[0.5, 0.0, 1.0], [0.5, 1.0, 0.2], [2.0, 0.0, 1.0]])
    table = ResultTable(
        columns=("sweep_value", "t", "W"), data=data, sweep_parameter="mean_n"
    )
    lines = format_csv(table).splitlines()
    assert lines[0] == "sweep_param,sweep_value,t,W"
    assert lines[1].startswith("mean_n,0.5,")
    assert lines[3].startswith("mean_n,2,")


def per_cell_case(sweep):
    """A table of awkward values and its CSV rows formatted cell by cell."""
    values = np.array(
        [
            [0.0, -0.0, 5e-324, 0.1],
            [1e16, 1e17, -1e17, 1.0 / 3.0],
            [2.5e-300, -7.0, 123456789.123, 1e300],
        ]
    )
    columns = ("t", "W", "S", "R")
    prefix = ""
    if sweep is not None:
        columns = ("sweep_value",) + columns[1:]
        prefix = sweep + ","
    table = ResultTable(columns=columns, data=values, sweep_parameter=sweep)
    expected = [
        prefix + ",".join(format(float(v), ".17g") for v in row) for row in values
    ]
    return table, expected


@pytest.mark.parametrize("sweep", (None, "mean_n", "odd%sname"))
def test_csv_matches_per_cell_formatting(sweep):
    table, expected = per_cell_case(sweep)
    assert format_csv(table).splitlines()[1:] == expected


def test_csv_rejects_bad_tables():
    with pytest.raises(InvalidInputError):
        format_csv(ResultTable(columns=("t",), data=np.empty((0, 1))))
    with pytest.raises(InvalidInputError):
        format_csv(ResultTable(columns=("t", "W"), data=np.zeros((2, 3))))


def svg_polylines(path):
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    return root.findall(f".//{ns}polyline")


def test_svg_series_mode(tmp_path):
    table = run(golden_scenario())
    path = tmp_path / "plot.svg"
    emit_svg(table, ["W", "S"], path)
    polys = svg_polylines(path)
    assert len(polys) == 2
    # every polyline carries one point per grid row
    assert len(polys[0].get("points").split()) == 201


def test_svg_parametric_mode(tmp_path):
    table = run(
        parse_scenario(
            {
                "atom": "plus_x",
                "field": {"thermal": 0.5},
                "profile": {"sinusoidal": {"lambda0": 1, "zeta3": 1}},
                "time": {"t_end": 6.0, "steps": 61},
            }
        )
    )
    path = tmp_path / "plane.svg"
    emit_svg(table, ["Rx", "Rz"], path, parametric=True)
    assert len(svg_polylines(path)) == 1
    text = path.read_text()
    assert ">Rx</text>" in text  # x axis labeled by the first selection


def test_svg_sweep_one_polyline_per_value(tmp_path):
    table = run(
        parse_scenario(
            {
                "atom": "excited",
                "field": {"thermal": 1.0},
                "profile": {"constant": {"lambda0": 1}},
                "time": {"t_end": 2.0, "steps": 9},
                "outputs": ["inversion"],
                "sweep": {"parameter": "mean_n", "values": [0.5, 1.0, 2.0]},
            }
        )
    )
    path = tmp_path / "sweep.svg"
    emit_svg(table, ["W"], path)
    assert len(svg_polylines(path)) == 3
    assert "W [mean_n=0.5]" in path.read_text()


def test_svg_sweep_series_follow_table_order(tmp_path):
    # groups follow the table's sweep order, not sorted values
    data = np.array([[2.0, 0.0, 1.0], [2.0, 1.0, 0.5], [0.5, 0.0, 1.0], [0.5, 1.0, 0.8]])
    table = ResultTable(
        columns=("sweep_value", "t", "W"), data=data, sweep_parameter="lambda0"
    )
    path = tmp_path / "order.svg"
    emit_svg(table, ["W"], path)
    text = path.read_text()
    assert len(svg_polylines(path)) == 2
    assert text.index("W [lambda0=2]") < text.index("W [lambda0=0.5]")


def test_svg_selection_errors(tmp_path):
    table = small_table()
    with pytest.raises(InvalidInputError):
        emit_svg(table, ["Q"], tmp_path / "a.svg")
    with pytest.raises(InvalidInputError):
        emit_svg(table, ["t"], tmp_path / "b.svg")
    with pytest.raises(InvalidInputError):
        emit_svg(table, [], tmp_path / "c.svg")
    with pytest.raises(InvalidInputError):
        emit_svg(table, ["W"], tmp_path / "d.svg", parametric=True)


def test_golden_svg_regression(tmp_path):
    # collapse-and-revival chart frozen byte for byte
    table = run(golden_scenario())
    path = tmp_path / "golden.svg"
    emit_svg(table, ["W", "S"], path)
    assert path.read_bytes() == (DATA / "inversion_entropy.svg").read_bytes()


def _timeout(signum, frame):
    raise TimeoutError("emit_svg did not return")


@pytest.mark.parametrize(
    "field, lambda0, t_end",
    [(0, 1e-300, 1.7e308), (1, 1, 5e-324)],
    ids=["span_near_float_max", "span_underflows"],
)
def test_svg_extreme_time_span(tmp_path, field, lambda0, t_end):
    # A tick ladder that overflows past hi, or a step that underflows to 0,
    # must neither loop forever nor raise.
    table = run(
        parse_scenario(
            {
                "atom": "excited",
                "field": {"coherent": field},
                "profile": {"constant": {"lambda0": lambda0}},
                "time": {"t_end": t_end, "steps": 3},
            }
        )
    )
    path = tmp_path / "extreme.svg"
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(5)
    try:
        emit_svg(table, ["W"], path)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    text = path.read_text(encoding="utf-8")
    assert "inf" not in text and "nan" not in text
    ET.fromstring(text)


@pytest.mark.parametrize("lo, hi", [(1e16, 1e16 + 2), (-1e16 - 2, -1e16)])
def test_nice_ticks_are_distinct_on_a_span_of_a_few_ulps(lo, hi):
    # Where the ladder step is below half an ulp of the tick, adding it does
    # not move the tick; each tick must still appear once.
    ticks = _nice_ticks(lo, hi)
    assert ticks and len(set(ticks)) == len(ticks), ticks
    assert all(lo - (hi - lo) <= t <= hi + (hi - lo) for t in ticks), ticks


def per_point_polylines(table, selection, parametric):
    """Polyline points formatted one point at a time, as emit_svg once did:
    the reference its array form must match byte for byte. The plot area is
    the default 720x480 chart less its margins."""
    series = _series_from_table(table, tuple(selection), parametric)
    plot_w, plot_h = 720 - 64 - 16, 480 - 16 - 44
    xs = np.concatenate([s[1] for s in series])
    ys = np.concatenate([s[2] for s in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return 64 + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return 16 + (y_hi - v) / (y_hi - y_lo) * plot_h

    return [
        " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
        for _, x, y in series
    ]


@pytest.fixture(scope="module")
def svg_cases():
    sweep = run(
        parse_scenario(
            {
                "atom": "excited",
                "field": {"thermal": 1.0},
                "profile": {"constant": {"lambda0": 1}},
                "time": {"t_end": 12.0, "steps": 301},
                "outputs": ["inversion", "entropy"],
                "sweep": {"parameter": "mean_n", "values": [0.5, 1.0, 3.0]},
            }
        )
    )
    bloch = run(
        parse_scenario(
            {
                "atom": "plus_x",
                "field": {"coherent": 3},
                "profile": {"sech": {"lambda0": 4, "zeta2": 0.3}},
                "time": {"t_end": 30.0, "steps": 401},
                "outputs": ["bloch"],
            }
        )
    )
    flat = ResultTable(
        columns=("t", "W"), data=np.column_stack([np.linspace(0, 3, 7), np.ones(7)])
    )
    negative = ResultTable(
        columns=("t", "A", "B"),
        data=np.array([[-3.0, -1e-3, -7.5], [-1.0, -2.25, -0.125], [-0.5, -9.0, -2.0]]),
    )
    # x spans [0, 1] over 640 px, so k/5120 lands on k/8 px past the margin:
    # 64.125, 64.375, 320.125, ... sit on a 5 in the third decimal.
    x = np.array([0.0, 1.0, 3.0, 5.0, 2561.0, 5119.0, 5120.0]) / 5120.0
    ties = ResultTable(columns=("t", "W"), data=np.column_stack([x, 8.0 * x]))
    return {
        "sweep": (sweep, ["W", "S"], False),
        "parametric": (bloch, ["Rx", "Ry"], True),
        "constant": (flat, ["W"], False),
        "negative": (negative, ["A", "B"], False),
        "negative_parametric": (negative, ["A", "B"], True),
        "ties": (ties, ["W"], False),
    }


@pytest.mark.parametrize(
    "case",
    ("sweep", "parametric", "constant", "negative", "negative_parametric", "ties"),
)
def test_svg_points_match_per_point_formatting(tmp_path, svg_cases, case):
    table, selection, parametric = svg_cases[case]
    path = tmp_path / "plot.svg"
    emit_svg(table, selection, path, parametric=parametric)
    points = [p.get("points") for p in svg_polylines(path)]
    assert points == per_point_polylines(table, selection, parametric)


def per_row_csv(table):
    """CSV text formatted one row at a time, as format_csv once did."""
    header = list(table.columns)
    prefix = ""
    if table.sweep_parameter is not None:
        header = ["sweep_param"] + header
        prefix = table.sweep_parameter + ","
    lines = [",".join(header)]
    lines.extend(
        prefix + ",".join(format(v, ".17g") for v in row) for row in table.data.tolist()
    )
    return "\n".join(lines) + "\n"


SWEEP_DOC = {
    "atom": "plus_x",
    "field": {"thermal": 1.0},
    "profile": {"linear": {"lambda0": 1, "zeta1": 0.2}},
    "time": {"t_end": 9.0, "steps": 97},
    "sweep": {"parameter": "mean_n", "values": [0.25, 2.0]},
}


def test_csv_bytes_match_per_row_formatting():
    for table in (run(golden_scenario()), run(parse_scenario(SWEEP_DOC))):
        assert format_csv(table) == per_row_csv(table)


# Block sizes that split every table below into several blocks, the last one
# ragged: 50 values give 16 rows of the 3-column golden table (201 rows) and
# 6 rows of the 8-column sweep table (194 rows); 1 value forces one row per
# block, fewer values than a row holds.
SMALL_BLOCKS = (1, 5, 50)


@pytest.mark.parametrize("block_values", SMALL_BLOCKS)
def test_csv_writers_match_references_across_blocks(
    tmp_path, capsys, monkeypatch, block_values
):
    monkeypatch.setattr(output, "_BLOCK_VALUES", block_values)
    for sweep in (None, "mean_n", "odd%sname"):
        table, expected = per_cell_case(sweep)
        assert format_csv(table).splitlines()[1:] == expected
    for name, doc in (("golden", None), ("sweep", SWEEP_DOC)):
        table = run(golden_scenario() if doc is None else parse_scenario(doc))
        reference = per_row_csv(table)
        assert format_csv(table) == reference
        emit_csv(table, tmp_path / f"{name}.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == reference.encode()
    # The CLI's stdout path, on the sweep document.
    scenario = tmp_path / "sweep.json"
    scenario.write_text(json.dumps(SWEEP_DOC), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["run", str(scenario)]) == 0
    assert capsys.readouterr().out == reference


@pytest.mark.parametrize("block_values", (1, 5))
@pytest.mark.parametrize(
    "case",
    ("sweep", "parametric", "constant", "negative", "negative_parametric", "ties"),
)
def test_svg_points_match_per_point_formatting_across_blocks(
    tmp_path, svg_cases, monkeypatch, case, block_values
):
    # 5 values hold 2 points: every polyline spans several blocks, and the
    # 3- and 7-point ones end in a ragged block.
    monkeypatch.setattr(output, "_BLOCK_VALUES", block_values)
    table, selection, parametric = svg_cases[case]
    path = tmp_path / "plot.svg"
    emit_svg(table, selection, path, parametric=parametric)
    points = [p.get("points") for p in svg_polylines(path)]
    assert points == per_point_polylines(table, selection, parametric)


def long_table(steps):
    """An 11-column table of full-precision values, as coherent_pulse's."""
    rng = np.random.default_rng(steps)
    data = rng.standard_normal((steps, 11))
    data[:, 0] = np.linspace(0.0, 80.0, steps)
    columns = ("t", "W", "S", "Rx", "Ry", "Rz", "purity") + tuple(
        f"c{k}" for k in range(4)
    )
    return ResultTable(columns=columns, data=data)


@pytest.mark.parametrize("steps", (5_001, 50_001))
@pytest.mark.parametrize("kind", ("csv", "svg"))
def test_writers_hold_one_block(tmp_path, kind, steps):
    # The table is the only array that grows with its rows; a writer adds
    # one block of floats and text, the same bound at either length. A
    # writer formatting the whole table at once peaks near 7x the table
    # (about 30 MiB at 50,001 rows).
    table = long_table(steps)
    path = tmp_path / f"long.{kind}"
    tracemalloc.start()
    try:
        if kind == "csv":
            emit_csv(table, path)
        else:
            emit_svg(table, ["W", "S"], path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > steps * 20
    assert peak < 2**20


def test_sweep_svg_holds_one_block(tmp_path):
    # Each sweep value's series are slices of the table, so the plot adds
    # no copy of the table (11 MiB here) to the one-block bound above.
    steps, values = 20_001, 8
    rng = np.random.default_rng(8)
    data = rng.standard_normal((values * steps, 9))
    data[:, 0] = np.repeat(np.arange(1.0, values + 1.0), steps)
    data[:, 1] = np.tile(np.linspace(0.0, 80.0, steps), values)
    columns = ("sweep_value", "t", "W", "S", "Rx", "Ry", "Rz", "purity", "xi")
    table = ResultTable(columns=columns, data=data, sweep_parameter="mean_n")
    path = tmp_path / "sweep.svg"
    tracemalloc.start()
    try:
        emit_svg(table, ["W", "S"], path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(svg_polylines(path)) == 2 * values
    assert peak < 2**20


class SecondWriteFails:
    """A text file whose second write fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


@pytest.mark.parametrize("flags", [["--csv"], ["--svg", "W"]], ids=["csv", "svg"])
def test_failed_write_leaves_no_partial_file(tmp_path, capsys, monkeypatch, flags):
    # Small blocks put the failing second write in the middle of the table.
    monkeypatch.setattr(output, "_BLOCK_VALUES", 5)
    real_open = open
    monkeypatch.setattr(
        output, "open", lambda *a, **k: SecondWriteFails(real_open(*a, **k)),
        raising=False,
    )
    scenario = tmp_path / "case.json"
    scenario.write_text(json.dumps(SWEEP_DOC), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: cannot write output: ")
    assert len(err.splitlines()) == 1
    assert os.listdir(out) == []
    # A target that already exists keeps its old bytes.
    target = out / ("case." + flags[0][2:])
    target.write_text("old\n")
    assert cli.main(["run", str(scenario), "--out", str(out)] + flags) == 2
    assert os.listdir(out) == [target.name]
    assert target.read_text() == "old\n"


def test_bad_tables_raise_before_any_file_is_opened(tmp_path, monkeypatch):
    opened = []
    monkeypatch.setattr(output, "open", lambda *a, **k: opened.append(a), raising=False)
    empty = ResultTable(columns=("t",), data=np.empty((0, 1)))
    narrow = ResultTable(columns=("t", "W"), data=np.zeros((2, 3)))
    for table in (empty, narrow):
        with pytest.raises(InvalidInputError):
            emit_csv(table, tmp_path / "bad.csv")
    with pytest.raises(InvalidInputError):
        emit_svg(small_table(), ["Q"], tmp_path / "bad.svg")
    assert opened == []
    assert os.listdir(tmp_path) == []
