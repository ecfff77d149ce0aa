"""Deterministic table serialization: CSV text and standalone SVG plots.

Numbers render with 17 significant digits so a value survives a round trip
through the file, and two runs of the same scenario produce byte-identical
output. The SVG writer draws simple polyline charts without any plotting
dependency; files open directly in a browser.
"""

from __future__ import annotations

import html
import math
import sys

import numpy as np

from .errors import InvalidInputError

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def format_csv(table) -> str:
    """CSV text for a result table: header row, LF endings.

    Sweep tables gain a leading ``sweep_param`` column repeating the swept
    parameter's name, for long-format consumers.
    """
    if table.data.ndim != 2 or table.data.shape[0] == 0:
        raise InvalidInputError("table has no rows")
    if table.data.shape[1] != len(table.columns):
        raise InvalidInputError("column names do not match the data width")
    header = list(table.columns)
    prefix = ""
    if table.sweep_parameter is not None:
        header = ["sweep_param"] + header
        prefix = table.sweep_parameter + ","
    # "%.17g" renders a float exactly as format(value, ".17g") does.
    row = prefix.replace("%", "%%") + ",".join(["%.17g"] * table.data.shape[1])
    body = "\n".join([row] * table.data.shape[0]) % tuple(table.data.ravel().tolist())
    return ",".join(header) + "\n" + body + "\n"


def emit_csv(table, path) -> None:
    """Write the table as UTF-8 CSV at ``path``."""
    text = format_csv(table)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _nice_ticks(lo, hi, target=5):
    """Round tick positions covering [lo, hi] on a 1-2-5 ladder.

    Returns at most target + 2 distinct finite ticks. A span whose ladder
    step does not fit between the smallest normal float and a tenth of the
    largest gets its two ends.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0]
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target, 1)
    if not sys.float_info.min <= raw <= sys.float_info.max / 10:
        return [lo, hi]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    # Past the largest float the sum turns inf, and where step is below half
    # an ulp of value it stops moving; the length cap ends both, and a tick
    # that did not move is kept once.
    while (
        value <= hi + 0.5 * step and math.isfinite(value) and len(ticks) < target + 2
    ):
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return list(dict.fromkeys(ticks))


def _series_from_table(table, selection, parametric):
    """(label, x, y) triples for the requested columns.

    Sweep tables contribute one series per sweep value so curves do not run
    together across segments.
    """
    names = list(table.columns)
    for col in selection:
        if col not in names:
            raise InvalidInputError(f"unknown column {col!r}")
        if col in ("t", "sweep_value"):
            raise InvalidInputError(f"{col!r} is an axis, not a series")
    if parametric and len(selection) != 2:
        raise InvalidInputError("parametric plots need exactly two columns")
    if not selection:
        raise InvalidInputError("nothing selected to plot")

    if table.sweep_parameter is None:
        groups = [(None, table.data)]
    else:
        sweep_col = table.data[:, names.index("sweep_value")]
        values, first = np.unique(sweep_col, return_index=True)
        groups = [(v, table.data[sweep_col == v]) for v in values[np.argsort(first)]]

    series = []
    for value, rows in groups:
        suffix = "" if value is None else f" [{table.sweep_parameter}={value:g}]"
        if parametric:
            x = rows[:, names.index(selection[0])]
            y = rows[:, names.index(selection[1])]
            series.append((f"{selection[1]} vs {selection[0]}{suffix}", x, y))
        else:
            t = rows[:, names.index("t")]
            for col in selection:
                series.append((f"{col}{suffix}", t, rows[:, names.index(col)]))
    return series


def emit_svg(table, selection, path, *, parametric=False, width=720, height=480):
    """Write a polyline chart of the selected columns at ``path``.

    Series mode plots each column against t; parametric mode plots the
    second selected column against the first.
    """
    series = _series_from_table(table, tuple(selection), parametric)
    margin_l, margin_r, margin_t, margin_b = 64, 16, 16, 44
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

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
        return margin_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return margin_t + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    axis_style = 'stroke="#333" stroke-width="1"'
    text_style = 'font-family="sans-serif" font-size="11" fill="#333"'
    for tick in _nice_ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{margin_t + plot_h:.2f}" '
            f'x2="{px:.2f}" y2="{margin_t + plot_h + 5:.2f}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{margin_t + plot_h + 18:.2f}" '
            f'text-anchor="middle" {text_style}>{tick:g}</text>'
        )
    for tick in _nice_ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{margin_l - 5:.2f}" y1="{py:.2f}" '
            f'x2="{margin_l:.2f}" y2="{py:.2f}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{margin_l - 8:.2f}" y="{py + 4:.2f}" '
            f'text-anchor="end" {text_style}>{tick:g}</text>'
        )
    parts.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" {axis_style}/>'
    )
    x_label = tuple(selection)[0] if parametric else "t"
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.2f}" y="{height - 8}" '
        f'text-anchor="middle" {text_style}>{html.escape(x_label)}</text>'
    )
    for i, (label, x, y) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        xy = np.column_stack((sx(x), sy(y))).ravel().tolist()
        points = " ".join(["%.2f,%.2f"] * len(x)) % tuple(xy)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.4" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{margin_l + plot_w - 6:.2f}" '
            f'y="{margin_t + 14 + 14 * i:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">'
            f"{html.escape(label)}</text>"
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
