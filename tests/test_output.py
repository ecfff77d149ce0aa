"""CSV and SVG emission: format contract, round-trips, golden plot."""

import math
import pathlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from jcdyn import InvalidInputError, ResultTable, parse_scenario, run
from jcdyn.output import emit_csv, emit_svg, format_csv

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


@pytest.mark.parametrize("sweep", (None, "mean_n", "odd%sname"))
def test_csv_matches_per_cell_formatting(sweep):
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
