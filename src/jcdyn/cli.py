"""Command-line front end.

Subcommands: ``run`` evaluates a scenario file and writes CSV/SVG, with an
optional cross-check against the reference integrator; ``predict-revival``
prints the closed-form revival estimate when one exists; ``compare`` runs
both solution paths and reports their disagreement.

Exit codes: 0 success, 2 invalid input, 3 numerical failure, 4 oracle
deviation beyond the acceptance threshold.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import InvalidInputError, NumericalFailureError
from .observables import revival_time
from .output import emit_csv, emit_svg, format_csv
from .scenario import ORACLE_DEVIATION_LIMIT, parse_scenario, run

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
    if args.oracle:
        scenario = replace(scenario, oracle_check=True)
    if args.tail_eps is not None:
        if not 0.0 < args.tail_eps < 1.0:
            raise InvalidInputError("--tail-eps must lie in (0, 1)")
        scenario = replace(scenario, tail_epsilon=args.tail_eps)

    table = run(scenario)

    wrote_file = False
    stem = Path(args.scenario).stem
    out_dir = Path(args.out)
    if args.csv or args.svg:
        out_dir.mkdir(parents=True, exist_ok=True)
    if args.csv:
        target = out_dir / f"{stem}.csv"
        emit_csv(table, target)
        print(target)
        wrote_file = True
    if args.svg:
        selection, parametric = _parse_selection(args.svg)
        target = out_dir / f"{stem}.svg"
        emit_svg(table, selection, target, parametric=parametric)
        print(target)
        wrote_file = True
    if not wrote_file:
        sys.stdout.write(format_csv(table))

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
        return handler(args)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
