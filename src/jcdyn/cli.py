"""Command-line front end.

Subcommands: ``run`` evaluates a scenario file and writes CSV/SVG, with an
optional cross-check against the reference integrator; ``predict-revival``
prints the closed-form revival estimate when one exists; ``compare`` runs
both solution paths and reports their disagreement.

Exit codes: 0 success, 2 invalid input or unwritable output, 3 numerical
failure, 4 oracle deviation beyond the acceptance threshold.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import InvalidInputError, NumericalFailureError
from .fields import _check_tail
from .observables import revival_time
from .output import emit_csv, emit_svg, write_csv
# format_csv is not called here; it stays importable from this module,
# where bench/run.py's tracer wraps it by name.
from .output import format_csv  # noqa: F401
from .scenario import ORACLE_DEVIATION_LIMIT, _at, parse_scenario, run

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_DEVIATION = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jcdyn",
        description="Closed-form dynamics of a resonant atom-cavity system "
        "with time-modulated coupling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--csv", action="store_true", help="write <stem>.csv")
    p_run.add_argument(
        "--svg",
        metavar="SELECTION",
        help="write <stem>.svg of columns 'A,B,...' (or 'X:Y' parametric)",
    )
    p_run.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the reference integrator",
    )
    p_run.add_argument(
        "--tail-eps",
        type=float,
        metavar="X",
        help="override the field truncation tail bound",
    )

    p_rev = sub.add_parser(
        "predict-revival", help="closed-form revival estimate for a scenario"
    )
    p_rev.add_argument("scenario", help="path to a scenario JSON file")

    p_cmp = sub.add_parser(
        "compare", help="closed form vs reference integrator deviation report"
    )
    p_cmp.add_argument("scenario", help="path to a scenario JSON file")
    return parser


def _load_scenario(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"cannot read scenario file: {exc}") from exc
    return parse_scenario(text)


def _parse_selection(text):
    if ":" in text:
        parts = [p.strip() for p in text.split(":")]
        if len(parts) != 2 or not all(parts):
            raise InvalidInputError("parametric selection must be 'X:Y'")
        return parts, True
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise InvalidInputError("empty plot selection")
    return parts, False


def _cmd_run(args):
    scenario = _load_scenario(args.scenario)
    if args.svg:
        selection, parametric = _parse_selection(args.svg)
    if args.oracle:
        scenario = replace(scenario, oracle_check=True)
    if args.tail_eps is not None:
        tail_epsilon = _at("--tail-eps", _check_tail, args.tail_eps)
        scenario = replace(scenario, tail_epsilon=tail_epsilon)

    table = run(scenario)
    stem = Path(args.scenario).stem
    out_dir = Path(args.out)
    # Each file is written under its .tmp name and moved into place only
    # once all are written, so a failed run leaves no new file behind. The
    # SVG goes first: emit_svg refuses a bad selection before it opens a file.
    targets = []
    try:
        if args.csv or args.svg:
            out_dir.mkdir(parents=True, exist_ok=True)
        if args.svg:
            targets.append(out_dir / f"{stem}.svg")
            emit_svg(table, selection, f"{targets[-1]}.tmp", parametric=parametric)
        if args.csv:
            targets.insert(0, out_dir / f"{stem}.csv")
            emit_csv(table, f"{targets[0]}.tmp")
        for target in targets:
            # A directory in a target's place would fail only its own move,
            # after the others had been made.
            if target.is_dir():
                raise IsADirectoryError(
                    errno.EISDIR, os.strerror(errno.EISDIR), str(target)
                )
        for target in targets:
            os.replace(f"{target}.tmp", target)
            print(target)
    except OSError as exc:
        for target in targets:
            with contextlib.suppress(OSError):
                os.remove(f"{target}.tmp")
        raise InvalidInputError(f"cannot write output: {exc}") from exc
    if not (args.csv or args.svg):
        write_csv(table, sys.stdout)

    if table.max_oracle_deviation is not None:
        print(
            f"max oracle deviation: {table.max_oracle_deviation:.6e}",
            file=sys.stderr,
        )
        if table.max_oracle_deviation > ORACLE_DEVIATION_LIMIT:
            print(
                f"deviation exceeds {ORACLE_DEVIATION_LIMIT:g}", file=sys.stderr
            )
            return EXIT_DEVIATION
    return EXIT_OK


def _cmd_predict_revival(args):
    scenario = _load_scenario(args.scenario)
    dist = scenario.field.build(scenario.tail_epsilon)
    t_r = revival_time(dist, scenario.profile)
    if t_r is None:
        print("no closed-form revival prediction for this coupling profile")
    else:
        print(f"{t_r:.17g}")
    return EXIT_OK


def _cmd_compare(args):
    scenario = _load_scenario(args.scenario)
    scenario = replace(scenario, oracle_check=True)
    table = run(scenario)
    for name, col in zip(table.columns, table.data.T):
        if name.startswith("dev_"):
            print(
                f"{name[4:]}: max |closed - oracle| = {col.max():.6e}, "
                f"rms = {float((col**2).mean()) ** 0.5:.6e}"
            )
    print(f"overall max deviation: {table.max_oracle_deviation:.6e}")
    if table.max_oracle_deviation > ORACLE_DEVIATION_LIMIT:
        return EXIT_DEVIATION
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": _cmd_run,
        "predict-revival": _cmd_predict_revival,
        "compare": _cmd_compare,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
        return code
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        # The handlers turn file errors into InvalidInputError, so this is
        # stdout failing: a full disk, or a reader that closed the pipe.
        print(f"invalid input: cannot write output: {exc}", file=sys.stderr)
        # What stdout still buffers goes to the null device, so that the
        # interpreter's last flush raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
