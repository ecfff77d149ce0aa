#!/usr/bin/env python3
"""Compare two sets of benchmark result files, metric by metric.

Usage: python3 bench/compare.py BASE NEW

BASE and NEW are result files written by run.py, or directories holding
them (``.jcdyn_bench/results`` of each checkout). Run both sides with the
same --seconds and the same seeds: runs with equal workload, seed and trace
flag form a pair. For every metric-workload pair the tool prints each
side's median and quartiles over its runs, the ratio NEW/BASE and a
verdict, using the bounds in BENCHMARK.json:

- improved: NEW's median is better by more than BASE's quartile spread and
  NEW wins at least 9 of 10 seed pairs (or, without pairs, every NEW run
  beats every BASE run);
- regressed: NEW's median is worse than BASE's by more than the bound;
- unchanged: within the bound;
- unresolved: the run-to-run spread (quartile distance over median) of
  either side is wider than the bound, or a side has fewer than two runs,
  and NEW does not beat BASE on every run.

Per-layer metrics carry no bound and get the verdict "no bound".
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, metric): {(seed, trace): value}} from a file or directory."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for file in files:
        result = json.loads(file.read_text(encoding="utf-8"))
        for name, metric in result["metrics"].items():
            key = (result["workload"], name)
            runs.setdefault(key, {})[(result["seed"], result["trace"])] = metric["value"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, new, better, bound):
    if bound is None:
        return "no bound"
    sign = 1.0 if better == "lower" else -1.0

    def gain(b, n):  # positive when n is better than b
        return sign * (b - n)

    b1, bm, b3 = quartiles(list(base.values()))
    n1, nm, n3 = quartiles(list(new.values()))
    all_better = min(gain(b, n) for b in base.values() for n in new.values()) > 0
    spreads = [(b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0]
    if len(base) < 2 or len(new) < 2 or max(spreads) > bound:
        return "improved" if all_better else "unresolved"
    pairs = [gain(base[k], new[k]) for k in base.keys() & new.keys()]
    wins = sum(g > 0 for g in pairs)
    paired_win = wins >= 0.9 * len(pairs) if pairs else all_better
    if gain(bm, nm) > (b3 - b1) and paired_win:
        return "improved"
    if bm and -gain(bm, nm) / abs(bm) > bound:
        return "regressed"
    return "unchanged"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(argv[1]), load(argv[2])
    header = f"{'workload':<15} {'metric':<28} {'base median [q1, q3] n':<36} " \
             f"{'new median [q1, q3] n':<36} {'new/base':>9}  verdict"
    print(header)
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        m = metrics.get(name, {})
        cells = []
        for side in (base[key], new[key]):
            q1, med, q3 = quartiles(list(side.values()))
            cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {len(side)}")
        bm, nm = quartiles(list(base[key].values()))[1], quartiles(list(new[key].values()))[1]
        ratio = f"{nm / bm:.4f}" if bm else "n/a"
        v = verdict(base[key], new[key], m.get("better", "lower"), m.get("bound"))
        print(f"{workload:<15} {name:<28} {cells[0]:<36} {cells[1]:<36} {ratio:>9}  {v}")
    for key in sorted(base.keys() ^ new.keys()):
        side = "base" if key in base else "new"
        print(f"{key[0]:<15} {key[1]:<28} only in {side}")


if __name__ == "__main__":
    main(sys.argv)
