#!/usr/bin/env python3
"""jcdyn benchmark: CLI cold start, closed-form solve and oracle compare.

Usage (from the root of a checkout):

    python3 bench/run.py --workload coherent_pulse --seed 1 --seconds 60 --trace 0

One single-threaded process runs a closed loop with one client: each
iteration spawns a set-up probe (every third iteration), then one ``jcdyn``
CLI child, then warm in-process solves for about as long as the child took,
each starting only after the previous one ended. No iteration starts that
would end past the deadline.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs the CLI in process under a span tracer (see spans.py) and reports the
per-layer metrics and the tracing overhead. Every output is checked against
an independent closed form (reference.py) and against the first output of
the run byte for byte. The last line of stdout is one JSON object; a result
file with samples, quartiles and the environment goes to .jcdyn_bench/.
"""

import os

# One BLAS thread everywhere: the sweep pool is the only parallelism measured.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Cached bytecode, as an installed package has: this process's import of jcdyn
# writes it under src/, and no child may skip it.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)

import argparse
import contextlib
import io
import json
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference
from reference import CheckFailed
from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".jcdyn_bench"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
CHILD_TIMEOUT_S = 60
SVG_SELECTION = ["W", "S"]
# setup_s is sampled on every third iteration: its median needs fewer
# samples than the timings whose run-to-run spread is bounded.
SETUP_EVERY = 3

SETUP_CODE = (
    "import sys, pathlib, jcdyn.cli\n"
    "jcdyn.cli.parse_scenario(pathlib.Path(sys.argv[1]).read_text(encoding='utf-8'))\n"
    "print('ready', flush=True)\n"
)


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reap(proc, start=None):
    """Wait at most CHILD_TIMEOUT_S for a child started in its own session.

    With ``start`` set, first read the child's "ready" line and time it from
    ``start``. Returns (exit code, seconds to the ready line or None); the
    code is None if the child's process group had to be killed.
    """
    seconds = None
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    try:
        try:
            if start is not None:
                if proc.stdout.readline() == b"ready\n":
                    seconds = time.perf_counter() - start
            code = proc.wait()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ChildTimeout:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, None
    return code, seconds


def clear(directory):
    directory.mkdir(parents=True, exist_ok=True)
    for entry in directory.iterdir():
        entry.unlink()


class Run:
    """One workload at one seed: scenario file, output folders and checks."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.doc = workload.doc(seed)
        self.dir = WORK / "work" / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.scenario = self.dir / f"{workload.name}.json"
        self.scenario.write_text(json.dumps(self.doc, indent=1), encoding="utf-8")
        self.expected = reference.expected_table(self.doc)
        self.golden = {}
        self.attempted = 0
        self.failures = []
        self.identical = True
        self.closed_form_dev = None
        self.oracle_dev = None

    @property
    def points(self):
        """Time points times sweep cases: the rows of the result table."""
        return len(self.expected[1])

    def record(self, what, code, artefact=dict):
        """Count one invocation; it fails on a non-zero exit or a failed output check.

        ``artefact`` returns the outputs as {kind: bytes}; the first output of
        each kind is checked against the reference, later ones byte for byte
        against it.
        """
        self.attempted += 1
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            for key, data in artefact().items():
                if key not in self.golden:
                    self._validate(key, data)
                    self.golden[key] = data
                elif data != self.golden[key]:
                    self.identical = False
                    raise CheckFailed(f"{key} output differs from the first one of this run")
        except (CheckFailed, OSError) as exc:
            self.failures.append(f"{what}: {exc}")

    def _validate(self, key, data):
        if key == "csv":
            closed, oracle = reference.check_csv(data.decode("utf-8"), self.doc, self.expected)
            self.closed_form_dev = closed
            if oracle is not None:
                self.oracle_dev = oracle
        elif key == "svg":
            reference.check_svg(data, len(SVG_SELECTION))
        else:
            self.oracle_dev = reference.check_compare_report(data.decode("utf-8"))

    def _outputs(self, out, stdout):
        """The outputs the CLI leaves for this workload, read lazily."""
        name = self.workload.name
        if name == "coherent_pulse":
            return lambda: {
                "csv": (out / f"{name}.csv").read_bytes(),
                "svg": (out / f"{name}.svg").read_bytes(),
            }
        if name == "thermal_sweep":
            return lambda: {"csv": stdout()}
        return lambda: {"report": stdout()}

    # --- the three ways of running the workload -------------------------

    def setup_probe(self):
        """Seconds from spawning an interpreter to jcdyn.cli imported and the scenario parsed."""
        argv = [sys.executable, "-c", SETUP_CODE, str(self.scenario)]
        with open(self.dir / "setup.err", "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=stderr, cwd=ROOT, env=child_env(),
                start_new_session=True,
            )
            with proc.stdout:
                code, seconds = reap(proc, start)
        self.record("setup probe", code if seconds is not None else f"{code} without ready line")
        return seconds

    def cli(self):
        """One `jcdyn` child through launch.py: (wall seconds, peak RSS in MB) or None."""
        out = self.dir / "cli"
        clear(out)
        report = self.dir / "cli.launch.json"
        report.unlink(missing_ok=True)
        argv = [sys.executable, "-I", "-S", str(LAUNCHER), str(report), sys.executable,
                "-m", "jcdyn.cli"] + self.workload.cli_args(self.scenario, out)
        stdout_path = self.dir / "cli.out"
        with open(stdout_path, "wb") as stdout, open(self.dir / "cli.err", "wb") as stderr:
            proc = subprocess.Popen(
                argv, stdout=stdout, stderr=stderr, cwd=ROOT, env=child_env(),
                start_new_session=True,
            )
            code, _ = reap(proc)
        if code != 0:
            self.record("cli launcher", code)
            return None
        launched = json.loads(report.read_text(encoding="utf-8"))
        self.record("cli", launched["code"], self._outputs(out, stdout_path.read_bytes))
        return launched["wall_s"], launched["maxrss_mb"]

    def solve(self, api):
        """Warm in-process parse, run and the CLI's output call: seconds, or None on error."""
        name = self.workload.name
        out = self.dir / "inproc"
        clear(out)
        try:
            start = time.perf_counter()
            scenario = api.parse_scenario(self.scenario.read_text(encoding="utf-8"))
            if name == "oracle_compare":
                scenario = replace(scenario, oracle_check=True)
            table = api.run(scenario)
            if name == "coherent_pulse":
                api.emit_csv(table, out / f"{name}.csv")
                api.emit_svg(table, SVG_SELECTION, out / f"{name}.svg")
                seconds = time.perf_counter() - start
                outputs = self._outputs(out, None)
            elif name == "thermal_sweep":
                text = api.format_csv(table)
                seconds = time.perf_counter() - start
                outputs = lambda: {"csv": text.encode("utf-8")}  # noqa: E731
            else:
                # compare prints only a few summary lines, left untimed; the
                # check reads the full table with its dev_* columns instead.
                seconds = time.perf_counter() - start
                text = api.format_csv(table)
                outputs = lambda: {"csv": text.encode("utf-8")}  # noqa: E731
        except Exception as exc:  # a failing program is counted, not fatal
            self.record("solve", f"exception {type(exc).__name__}: {exc}")
            return None
        self.record("solve", 0, outputs)
        return seconds

    def solves(self, api, budget):
        """Warm solves that fill about ``budget`` seconds: yields each one's seconds.

        Solving until the solves of an iteration take about as long as its
        CLI child gives solve_s as many seconds of samples as cli_wall_s.
        """
        spent = 0.0
        while True:
            seconds = self.solve(api)
            if seconds is None:
                return
            yield seconds
            spent += seconds
            if budget is None or spent + seconds / 2 >= budget:
                return

    def traced_main(self, api, tracer):
        """jcdyn.cli.main in process under the tracer: seconds, or None on error."""
        out = self.dir / "traced"
        clear(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = self.workload.cli_args(self.scenario, out)
        try:
            with tracer.patched(trace_targets(api)), contextlib.redirect_stdout(
                stdout
            ), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                code = tracer.call("cli.main", api.cli.main, (argv,), {})
                seconds = time.perf_counter() - start
        except Exception as exc:  # a failing program is counted, not fatal
            self.record("traced cli.main", f"exception {type(exc).__name__}: {exc}")
            return None
        self.record("traced cli.main", code,
                    self._outputs(out, lambda: stdout.getvalue().encode("utf-8")))
        return seconds


# --- tracing ------------------------------------------------------------


def _add_levels(key, offset, arg):
    def note(tracer, args, kwargs, result):
        dist = result if arg is None else args[arg]
        tracer.add(key, dist.n_max + offset)

    return note


def _add_blocks(tracer, args, kwargs, result):
    tracer.add("oracle.blocks", np.asarray(args[2]).size // 2)


def _add_text_bytes(tracer, args, kwargs, result):
    tracer.add("output.bytes", len(result.encode("utf-8")))


def _add_file_bytes(path_arg):
    def note(tracer, args, kwargs, result):
        tracer.add("output.bytes", os.path.getsize(args[path_arg]))

    return note


def trace_targets(api):
    """(module, attribute, span name, note) for every layer boundary."""
    cli, scenario, dynamics, oracle = api.cli, api.scenario, api.dynamics, api.oracle
    evolve_note = _add_levels("dynamics.level_points", 2, 1)
    build_note = _add_levels("fields.levels", 1, None)
    return [
        (cli, "parse_scenario", "scenario.parse", None),
        (cli, "run", "scenario.run", None),
        (cli, "format_csv", "output.csv", _add_text_bytes),
        (cli, "emit_csv", "output.csv", _add_file_bytes(1)),
        (cli, "emit_svg", "output.svg", _add_file_bytes(2)),
        (scenario, "coherent_amplitudes", "fields.build", build_note),
        (scenario, "thermal_weights", "fields.build", build_note),
        (scenario, "custom_distribution", "fields.build", build_note),
        (scenario, "evolve_pure", "dynamics.evolve", evolve_note),
        (scenario, "evolve_mixed", "dynamics.evolve", evolve_note),
        (scenario, "reduced_atom", "observables.reduce", None),
        (scenario, "population_inversion", "observables.obs", None),
        (scenario, "von_neumann_entropy", "observables.obs", None),
        (scenario, "bloch_vector", "observables.obs", None),
        (scenario, "coherence_xi", "observables.obs", None),
        (scenario, "atom_eigenvalues", "observables.obs", None),
        (scenario, "oracle_evolve_pure", "oracle.solve", None),
        (scenario, "oracle_evolve_mixed", "oracle.solve", None),
        (dynamics, "coupling_area", "coupling.area", None),
        (oracle, "lambda_at", "coupling.rate", None),
        (oracle, "solve_ivp", "oracle.ivp", _add_blocks),
    ]


def layer_metrics(tracer, points):
    t = tracer
    evolve_s = t.inclusive("dynamics.evolve")
    oracle_s = t.inclusive("oracle.solve")
    rate_s = t.inclusive("coupling.rate")
    level_points = t.counts["dynamics.level_points"]
    return {
        "dynamics.evolve_s": evolve_s,
        "dynamics.evolve_calls": t.calls("dynamics.evolve"),
        "dynamics.calls_per_point": t.calls("dynamics.evolve") / points,
        "dynamics.level_points": level_points,
        "dynamics.level_points_per_s": level_points / evolve_s if evolve_s else 0.0,
        "observables.reduce_s": t.inclusive("observables.reduce"),
        "observables.reduce_calls": t.calls("observables.reduce"),
        "observables.obs_s": t.inclusive("observables.obs"),
        "observables.obs_calls": t.calls("observables.obs"),
        "coupling.area_s": t.inclusive("coupling.area"),
        "coupling.area_calls": t.calls("coupling.area"),
        "coupling.rate_s": rate_s,
        "coupling.rate_calls": t.calls("coupling.rate"),
        "oracle.solve_s": oracle_s,
        "oracle.blocks": t.counts["oracle.blocks"],
        "oracle.rate_share": rate_s / oracle_s if oracle_s else 0.0,
        "fields.build_s": t.inclusive("fields.build"),
        "fields.levels": t.counts["fields.levels"],
        "scenario.parse_s": t.inclusive("scenario.parse"),
        "scenario.run_s": t.inclusive("scenario.run"),
        "scenario.self_s": t.self_time("scenario.run"),
        "scenario.cases": t.calls("fields.build"),
        "output.csv_s": t.inclusive("output.csv"),
        "output.svg_s": t.inclusive("output.svg"),
        "output.bytes": t.counts["output.bytes"],
        "cli.self_s": t.self_time("cli.main"),
    }


IMPORT_MODULES = {
    "import.total_s": "jcdyn.cli",
    "import.fields_s": "jcdyn.fields",
    "import.oracle_s": "jcdyn.oracle",
    "import.coupling_s": "jcdyn.coupling",
}


def import_times():
    """Cumulative import time of jcdyn modules, from `python -X importtime`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import jcdyn.cli"],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            cumulative.setdefault(m.group(2), int(m.group(1)) * 1e-6)
    return {key: cumulative.get(module, 0.0) for key, module in IMPORT_MODULES.items()}


# --- results ------------------------------------------------------------


def summary(samples):
    """Median, quartiles, count and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if n > 1 else samples * 3
    tail = [p for p in (50, 75, 90, 95, 99, 99.9) if n * (1 - p / 100) >= 10]
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "samples": n,
        "tail": {"percentile": tail[-1], "value": float(np.percentile(samples, tail[-1]))}
        if tail
        else None,
        "raw": samples,
    }


def environment():
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "jcdyn" / "cli.py").is_file():
        sys.exit(f"bench: no jcdyn sources at {SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False
    import jcdyn.cli
    import jcdyn.dynamics
    import jcdyn.oracle
    import jcdyn.output
    import jcdyn.scenario

    api = SimpleNamespace(
        cli=jcdyn.cli, scenario=jcdyn.scenario, dynamics=jcdyn.dynamics, oracle=jcdyn.oracle,
        parse_scenario=jcdyn.scenario.parse_scenario, run=jcdyn.scenario.run,
        format_csv=jcdyn.output.format_csv, emit_csv=jcdyn.output.emit_csv,
        emit_svg=jcdyn.output.emit_svg,
    )

    signal.signal(signal.SIGALRM, _on_alarm)
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed)

    # Untimed warm-up: the import of jcdyn above has written the bytecode
    # caches; this child fills the page cache for the first timed child, and
    # this solve pays the first-call costs of the process.
    run.cli()
    run.solve(api)

    samples = {}

    def add(metrics):
        for key, value in metrics.items():
            if value is not None:  # a failed invocation leaves no sample
                samples.setdefault(key, []).append(value)

    deadline = time.perf_counter() + args.seconds

    def iterations():
        """Count iterations; stop before one that would end past the deadline."""
        count = 0
        while True:
            began = time.perf_counter()
            yield count
            count += 1
            now = time.perf_counter()
            if now + (now - began) > deadline:
                return

    if args.trace:
        for _ in iterations():
            plain = run.solve(api)
            tracer = Tracer()
            traced = run.traced_main(api, tracer)
            if traced is not None:
                add(layer_metrics(tracer, run.points))
            add(import_times())
            if traced is not None and plain is not None:
                add({"trace.overhead_s": traced - plain})
        spans_path = WORK / "spans" / f"{workload.name}-seed{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.records()), encoding="utf-8")
    else:
        for count in iterations():
            if count % SETUP_EVERY == 0:
                add({"setup_s": run.setup_probe()})
            wall, rss = run.cli() or (None, None)
            add({"cli_wall_s": wall, "peak_rss_mb": rss})
            for solve in run.solves(api, budget=wall):
                add({"solve_s": solve, "points_per_s": run.points / solve})

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    absent = [n for n in names if n not in samples]
    if absent:
        sys.exit(f"bench: no successful sample of {absent}: " + "; ".join(run.failures))
    stats = {n: summary(samples[n]) for n in names}
    failed = len(run.failures)
    levels = reference.levels(run.doc)
    checks = {
        "closed_form_max_dev": run.closed_form_dev,
        "closed_form_tol": reference.CLOSED_FORM_TOL,
        "oracle_max_dev": run.oracle_dev,
        "oracle_tol": reference.ORACLE_TOL,
        "outputs_byte_identical": run.identical,
        "failures": run.failures,
    }
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "shape": {"T": run.doc["time"]["steps"], "N": levels, "cases": len(levels)},
        "environment": environment(),
        "attempted": run.attempted,
        "failed": failed,
        "error_rate": failed / run.attempted,
        "checks": checks,
        "metrics": {n: {"value": stats[n]["median"], "unit": units[n], **stats[n]} for n in names},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print(f"  shape T={result['shape']['T']} N={result['shape']['N']} cases={result['shape']['cases']}")
    for n in names:
        s = stats[n]
        print(f"  {n:<28} {s['median']:>14.6g} {units[n]:<6} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['samples']}]")
    if not args.trace:
        print(f"  {'error_rate':<28} {result['error_rate']:>14.6g} ratio  [{failed}/{run.attempted}]")
    print(f"  check closed form max |dev| {run.closed_form_dev} (tol {reference.CLOSED_FORM_TOL:g})")
    print(f"  check oracle max |dev| {run.oracle_dev} (tol {reference.ORACLE_TOL:g})")
    print(f"  check outputs byte-identical: {checks['outputs_byte_identical']}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print(f"  result file {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": stats[n]["median"], "unit": units[n]} for n in names},
    }))


if __name__ == "__main__":
    main()
