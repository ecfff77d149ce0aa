"""Seeded scenario generator for the three benchmark workloads.

T (time points), N (photon levels per case) and the case count are fixed
per workload. The seed draws only shape parameters, each within +-10% of
its nominal value: lambda0, zeta2, zeta3 and the values of the custom
coupling table. The table stays near 1 because the oracle's step count
grows with the coupling rate, and the seed must not change the work.
jcdyn sees only the scenario files written from these documents.
"""

from __future__ import annotations

import random

ALL_OUTPUTS = ["inversion", "entropy", "bloch", "purity", "coherence", "eigenvalues"]
SWEEP_MEAN_N = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
TABLE_POINTS = 9


class Workload:
    """One benchmark input: the scenario document and how the CLI runs it."""

    def __init__(self, name, why, make_doc, cli_args):
        self.name = name
        self.why = why
        self._make_doc = make_doc
        self._cli_args = cli_args

    def doc(self, seed):
        return self._make_doc(random.Random(f"{self.name}/{seed}"))

    def cli_args(self, scenario_path, out_dir):
        return self._cli_args(str(scenario_path), str(out_dir))


def _jitter(rng, nominal):
    return nominal * rng.uniform(0.9, 1.1)


def _coherent_pulse(rng):
    return {
        "atom": "excited",
        "field": {"coherent": 10.0},
        "profile": {"sech": {"lambda0": _jitter(rng, 1.0), "zeta2": _jitter(rng, 0.1)}},
        "time": {"t_end": 80.0, "steps": 5001},
        "outputs": ALL_OUTPUTS,
    }


def _thermal_sweep(rng):
    return {
        "atom": "plus_x",
        "field": {"thermal": 1.0},
        "profile": {
            "sinusoidal": {"lambda0": _jitter(rng, 1.0), "zeta3": _jitter(rng, 0.1), "p": 1}
        },
        "time": {"t_end": 100.0, "steps": 2001},
        "outputs": ["inversion", "entropy", "bloch", "purity", "eigenvalues"],
        "sweep": {"parameter": "mean_n", "values": SWEEP_MEAN_N},
    }


def _oracle_compare(rng):
    times = [40.0 * i / (TABLE_POINTS - 1) for i in range(TABLE_POINTS)]
    values = [_jitter(rng, 1.0) for _ in times]
    return {
        "atom": "plus_x",
        "field": {"thermal": 5.0},
        "profile": {"custom": {"times": times, "values": values}},
        "time": {"t_end": 40.0, "steps": 401},
        "outputs": ["inversion", "entropy", "bloch", "purity"],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coherent_pulse",
            "One pure case with large T and small N, so per-point Python work in "
            "dynamics/observables/scenario dominates; no oracle runs.",
            _coherent_pulse,
            lambda scen, out: ["run", scen, "--csv", "--svg", "W,S", "--out", out],
        ),
        Workload(
            "thermal_sweep",
            "Mixed path, sweep thread pool and per-case N varying 100x "
            "(26 to 2777), plus a 2.7 MB CSV on stdout.",
            _thermal_sweep,
            lambda scen, out: ["run", scen],
        ),
        Workload(
            "oracle_compare",
            "The ODE oracle dominates and lambda_at runs only here; a custom table "
            "exercises CustomCoupling in both area and rate.",
            _oracle_compare,
            lambda scen, out: ["compare", scen],
        ),
    )
}
