"""Deterministic table serialization: CSV text and standalone SVG plots.

Numbers render with 17 significant digits so a value survives a round trip
through the file, and two runs of the same scenario produce byte-identical
output. The SVG writer draws simple polyline charts without any plotting
dependency; files open directly in a browser.
"""

from __future__ import annotations

import html
import itertools
import math
import os
import sys

import numpy as np

from .errors import InvalidInputError

# Values formatted per block by _format_blocks. One block's Python floats,
# `%` template and text peak near 0.5 MiB, whatever the table's length. The
# peak RSS of a run writing CSV and SVG is flat from 2^10 to 2^14 values per
# block and rises from 2^15 on, as the blocks approach the whole table.
_BLOCK_VALUES = 2**13

_WIDTH, _HEIGHT = 720, 480  # SVG chart size in pixels

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


def _format_blocks(rows_at, count, width, row, sep):
    """Yield ``sep.join(row % tuple(r) for r in rows_at(0, count))`` in pieces.

    ``rows_at(start, stop)`` gives rows start..stop-1 as a (rows, width)
    array, and ``row`` formats one of them. Each piece covers at most
    _BLOCK_VALUES values (one row at least) and is formatted with one `%`,
    so only one block's floats and text exist at a time. This is the only
    place that formats CSV rows and SVG points.
    """
    step = max(1, _BLOCK_VALUES // max(width, 1))
    for start in range(0, count, step):
        block = rows_at(start, min(start + step, count))
        template = (sep if start else "") + sep.join([row] * len(block))
        yield template % tuple(block.ravel().tolist())


def _csv_pieces(table):
    """The CSV text of a table as an iterator: header line, then row blocks.

    Sweep tables gain a leading ``sweep_param`` column repeating the swept
    parameter's name, for long-format consumers. The table is checked on the
    call, before any piece is formatted or any file opened.
    """
    if table.data.ndim != 2 or table.data.shape[0] == 0:
        raise InvalidInputError("table has no rows")
    rows, width = table.data.shape
    if width != len(table.columns):
        raise InvalidInputError("column names do not match the data width")
    header = list(table.columns)
    prefix = ""
    if table.sweep_parameter is not None:
        header = ["sweep_param"] + header
        prefix = table.sweep_parameter + ","
    # "%.17g" renders a float exactly as format(value, ".17g") does.
    row = prefix.replace("%", "%%") + ",".join(["%.17g"] * width) + "\n"
    blocks = _format_blocks(
        lambda start, stop: table.data[start:stop], rows, width, row, ""
    )
    return itertools.chain([",".join(header) + "\n"], blocks)


def format_csv(table) -> str:
    """CSV text for a result table: header row, LF endings."""
    return "".join(_csv_pieces(table))


def write_csv(table, stream) -> None:
    """Write the table's CSV text to an open text ``stream``, block by block.

    A stream with a binary ``buffer`` (stdout) gets each block's bytes
    there until all of them are taken: an unbuffered one takes part of a
    block when a pipe's reader leaves, which its text layer would let pass
    in silence, and the next write raises.
    """
    pieces = _csv_pieces(table)
    binary = getattr(stream, "buffer", None)
    if binary is None:
        stream.writelines(pieces)
        return
    stream.flush()
    for piece in pieces:
        data = memoryview(piece.encode(stream.encoding))
        while data:
            data = data[binary.write(data) :]


def _write_replacing(path, pieces):
    """Write text pieces to ``path`` through a sibling ``<name>.tmp`` file.

    The temp file is moved onto ``path`` after the last piece, so ``path``
    holds either its old content or the whole new text. On any failure the
    temp file is removed and the error propagates.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def emit_csv(table, path) -> None:
    """Write the table as UTF-8 CSV at ``path``."""
    _write_replacing(path, _csv_pieces(table))


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


def check_selection(columns, selection, parametric):
    """Refuse a plot selection that the table's ``columns`` cannot draw."""
    for col in selection:
        if col not in columns:
            raise InvalidInputError(f"unknown column {col!r}")
        if col in ("t", "sweep_value"):
            raise InvalidInputError(f"{col!r} is an axis, not a series")
    if parametric and len(selection) != 2:
        raise InvalidInputError("parametric plots need exactly two columns")
    if not selection:
        raise InvalidInputError("nothing selected to plot")


def _series_from_table(table, selection, parametric):
    """(label, x, y) triples for the requested columns.

    Sweep tables contribute one series per sweep value so curves do not run
    together across segments.
    """
    names = list(table.columns)
    check_selection(names, selection, parametric)

    if table.sweep_parameter is None:
        groups = [(None, table.data)]
    else:
        # Each sweep value's rows run from one change of the value to the
        # next; slicing them copies nothing.
        sweep_col = table.data[:, names.index("sweep_value")]
        changes = np.flatnonzero(sweep_col[1:] != sweep_col[:-1]) + 1
        bounds = [0, *changes.tolist(), len(sweep_col)]
        groups = [(sweep_col[a], table.data[a:b]) for a, b in zip(bounds, bounds[1:])]

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


def emit_svg(table, selection, path, *, parametric=False):
    """Write a polyline chart of the selected columns at ``path``.

    Series mode plots each column against t; parametric mode plots the
    second selected column against the first.
    """
    series = _series_from_table(table, tuple(selection), parametric)
    margin_l, margin_r, margin_t, margin_b = 64, 16, 16, 44
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    # np.min/np.max of the per-series extremes give the same floats as over
    # the concatenated series (a NaN included) without copying them.
    x_lo = float(np.min([x.min() for _, x, _ in series]))
    x_hi = float(np.max([x.max() for _, x, _ in series]))
    y_lo = float(np.min([y.min() for _, _, y in series]))
    y_hi = float(np.max([y.max() for _, _, y in series]))
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
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
        f'<text x="{margin_l + plot_w / 2:.2f}" y="{_HEIGHT - 8}" '
        f'text-anchor="middle" {text_style}>{html.escape(x_label)}</text>'
    )

    def pieces():
        yield "\n".join(parts) + "\n"
        for i, (label, x, y) in enumerate(series):
            color = _PALETTE[i % len(_PALETTE)]
            yield (
                f'<polyline fill="none" stroke="{color}" stroke-width="1.4" '
                'points="'
            )
            yield from _format_blocks(
                lambda start, stop: np.column_stack(
                    (sx(x[start:stop]), sy(y[start:stop]))
                ),
                len(x),
                2,
                "%.2f,%.2f",
                " ",
            )
            yield (
                '"/>\n'
                f'<text x="{margin_l + plot_w - 6:.2f}" '
                f'y="{margin_t + 14 + 14 * i:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11" fill="{color}">'
                f"{html.escape(label)}</text>\n"
            )
        yield "</svg>\n"

    _write_replacing(path, pieces())
