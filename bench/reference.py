"""Independent closed form and output checks for the benchmark workloads.

The reference evaluates the resonant Jaynes-Cummings closed form for the
whole time grid at once, from the scenario document alone: its own photon
distributions, its own coupling-area formulas (arctan(sinh) for sech,
2 sin^2 for sinusoidal, segment-wise for tables) and its own partial trace.
It imports nothing from jcdyn, so a defect shared by the program's scalar
and batched paths still shows. It covers exactly the inputs the workloads
generate.
"""

from __future__ import annotations

import io
import math
import re

import numpy as np

TAIL_EPSILON = 1e-12
CLOSED_FORM_TOL = 1e-12
ORACLE_TOL = 1e-7  # acceptance criterion 1

_COLUMNS = {
    "inversion": ("W",),
    "entropy": ("S",),
    "bloch": ("Rx", "Ry", "Rz"),
    "purity": ("R",),
    "coherence": ("xi_re", "xi_im"),
    "eigenvalues": ("mu_plus", "mu_minus"),
}
_CHUNK_ELEMENTS = 1 << 20


class CheckFailed(Exception):
    """An output disagrees with the reference or with an earlier output."""


def _atom(node):
    s = 1.0 / math.sqrt(2.0)
    return {"excited": (1.0, 0.0), "ground": (0.0, 1.0), "plus_x": (s, s)}[node]


def _coherent(alpha):
    """Poisson amplitudes, cut where the retained mass first exceeds 1 - eps."""
    a2 = alpha * alpha
    amps, total, n = [], 0.0, 0
    while True:
        log_p = -a2 + n * math.log(a2) - math.lgamma(n + 1.0)
        amps.append(math.exp(0.5 * log_p))
        total += math.exp(log_p)
        if total > 1.0 - TAIL_EPSILON:
            break
        n += 1
    amps = np.array(amps)
    return amps**2, amps


def _thermal(mean_n):
    """Geometric weights up to the first n_max with q^(n_max+1) < eps."""
    q = mean_n / (1.0 + mean_n)
    n_max = 0
    while q ** (n_max + 1) >= TAIL_EPSILON:
        n_max += 1
    return (1.0 - q) * q ** np.arange(n_max + 1.0), None


def _field(node):
    (kind, value), = node.items()
    return _coherent(float(value)) if kind == "coherent" else _thermal(float(value))


def _cases(doc):
    """(sweep value or None, weights, amplitudes or None) per case."""
    sweep = doc.get("sweep")
    if sweep is None:
        return [(None, *_field(doc["field"]))]
    (kind, _), = doc["field"].items()
    return [(float(v), *_field({kind: v})) for v in sweep["values"]]


def levels(doc):
    """Photon levels N = n_max + 1 of each case."""
    return [w.size for _, w, _ in _cases(doc)]


def coupling_area(profile, t):
    (kind, p), = profile.items()
    if kind == "sech":
        return p["lambda0"] / p["zeta2"] * np.arctan(np.sinh(p["zeta2"] * t))
    if kind == "sinusoidal":
        k = p.get("p", 1) * p["zeta3"]
        return 2.0 * p["lambda0"] * np.sin(0.5 * k * t) ** 2 / k
    if kind == "custom":
        tt, vv = np.array(p["times"]), np.array(p["values"])
        slope = np.diff(vv) / np.diff(tt)
        cum = np.concatenate(([0.0], np.cumsum(np.diff(tt) * (vv[:-1] + vv[1:]) / 2)))
        k = np.clip(np.searchsorted(tt, t, side="right") - 1, 0, tt.size - 2)
        dt = t - tt[k]
        return cum[k] + dt * (vv[k] + 0.5 * slope[k] * dt)
    raise ValueError(f"no reference area for profile {kind!r}")


def _pure_chunk(area, c_e, c_g, amps):
    """Reduced atom (ee, gg, eg) and xi for a pure field, times along axis 0."""
    theta = area[:, None] * np.sqrt(np.arange(1.0, amps.size + 1.0))
    c, s = np.cos(theta), np.sin(theta)
    a_next = np.append(amps[1:], 0.0)
    e = c * (c_e * amps) - 1j * s * (c_g * a_next)  # |e,n>, n = 0..n_max
    g_up = c * (c_g * a_next) - 1j * s * (c_e * amps)  # |g,n+1>
    g0 = c_g * amps[0]  # |g,0> is dark
    p_e = np.sum(np.abs(e) ** 2, axis=1)
    p_g = abs(g0) ** 2 + np.sum(np.abs(g_up) ** 2, axis=1)
    eg = e[:, 0] * np.conj(g0) + np.sum(e[:, 1:] * np.conj(g_up[:, :-1]), axis=1)
    xi = np.conj(e[:, 0]) * g0 + np.sum(np.conj(e[:, 1:]) * g_up[:, :-1], axis=1)
    total = p_e + p_g
    return p_e / total, p_g / total, eg / total, xi


def _mixed_chunk(area, c_e, c_g, weights):
    """Reduced atom (ee, gg, eg) for a photon-number-diagonal field."""
    n = np.arange(weights.size)
    lo = area[:, None] * np.sqrt(n)
    hi = area[:, None] * np.sqrt(n + 1.0)
    ee0, gg0 = abs(c_e) ** 2, abs(c_g) ** 2
    eg0 = c_e * np.conj(c_g) / (ee0 + gg0)
    ee0, gg0 = ee0 / (ee0 + gg0), gg0 / (ee0 + gg0)
    ee = ee0 * (np.cos(hi) ** 2 @ weights) + gg0 * (np.sin(lo) ** 2 @ weights)
    gg = ee0 * (np.sin(hi) ** 2 @ weights) + gg0 * (np.cos(lo) ** 2 @ weights)
    eg = eg0 * ((np.cos(lo) * np.cos(hi)) @ weights)
    total = ee + gg
    return ee / total, gg / total, eg / total, None


def _entropy_bits(mu):
    out = np.zeros_like(mu)
    pos = mu > 0.0
    out[pos] = -mu[pos] * np.log2(mu[pos])
    return out


def _observables(ee, gg, eg, xi):
    w = ee - gg
    r = np.sqrt(w**2 + 4.0 * np.abs(eg) ** 2)
    mu_plus = np.minimum(0.5 * (1.0 + r), 1.0)
    mu_minus = np.maximum(0.5 * (1.0 - r), 0.0)
    rx, ry = 2.0 * eg.real, -2.0 * eg.imag
    cols = {
        "W": w,
        "S": _entropy_bits(mu_plus) + _entropy_bits(mu_minus),
        "Rx": rx,
        "Ry": ry,
        "Rz": w,
        "R": np.sqrt(rx**2 + ry**2 + w**2),
        "mu_plus": mu_plus,
        "mu_minus": mu_minus,
    }
    if xi is not None:
        cols["xi_re"], cols["xi_im"] = xi.real, xi.imag
    return cols


def expected_table(doc):
    """Header (without any sweep_param column) and rows of the closed form."""
    grid = np.linspace(0.0, float(doc["time"]["t_end"]), doc["time"]["steps"])
    area = coupling_area(doc["profile"], grid)
    c_e, c_g = _atom(doc["atom"])
    names = [c for out in doc["outputs"] for c in _COLUMNS[out]]
    blocks = []
    for value, weights, amps in _cases(doc):
        rows = max(1, _CHUNK_ELEMENTS // weights.size)
        parts = []
        for i in range(0, grid.size, rows):
            if amps is not None:
                rho = _pure_chunk(area[i : i + rows], c_e, c_g, amps)
            else:
                rho = _mixed_chunk(area[i : i + rows], c_e, c_g, weights)
            cols = _observables(*rho)
            parts.append(np.column_stack([cols[n] for n in names]))
        block = np.column_stack([grid, np.concatenate(parts)])
        if value is not None:
            block = np.column_stack([np.full(grid.size, value), block])
        blocks.append(block)
    header = (["sweep_value"] if "sweep" in doc else []) + ["t"] + names
    return header, np.concatenate(blocks)


def check_csv(text, doc, expected):
    """Check a result CSV against ``expected_table(doc)``.

    Returns (closed-form deviation, oracle deviation); the oracle deviation
    is None unless the table carries dev_* columns.
    """
    header, expected = expected
    first_line = text.split("\n", 1)[0].split(",")
    lead = 0
    if "sweep" in doc:
        if first_line[0] != "sweep_param":
            raise CheckFailed(f"sweep table header starts {first_line[0]!r}")
        lead = 1
    got_header = first_line[lead:]
    dev_cols = ["dev_" + n for n in header if n not in ("sweep_value", "t")]
    if got_header not in (header, header + dev_cols):
        raise CheckFailed(f"header {got_header} != expected {header}")
    data = np.loadtxt(
        io.StringIO(text), delimiter=",", skiprows=1, ndmin=2,
        usecols=range(lead, lead + len(got_header)),
    )
    if data.shape[0] != expected.shape[0]:
        raise CheckFailed(f"{data.shape[0]} rows, expected {expected.shape[0]}")
    if lead:
        prefixes = {line.split(",", 1)[0] for line in text.splitlines()[1:]}
        if prefixes != {doc["sweep"]["parameter"]}:
            raise CheckFailed(f"sweep_param column holds {sorted(prefixes)}")
    closed_dev = float(np.max(np.abs(data[:, : len(header)] - expected)))
    if not closed_dev <= CLOSED_FORM_TOL:
        raise CheckFailed(f"closed form deviates by {closed_dev:.3e} > {CLOSED_FORM_TOL:g}")
    oracle_dev = None
    if len(got_header) > len(header):
        oracle_dev = float(np.max(data[:, len(header) :]))
        if not oracle_dev < ORACLE_TOL:
            raise CheckFailed(f"oracle deviates by {oracle_dev:.3e} >= {ORACLE_TOL:g}")
    return closed_dev, oracle_dev


def check_svg(data, n_series):
    text = data.decode("utf-8")
    if not (text.startswith("<svg ") and text.endswith("</svg>\n")):
        raise CheckFailed("SVG is not a complete <svg> document")
    if text.count("<polyline ") != n_series:
        raise CheckFailed(f"SVG has {text.count('<polyline ')} series, expected {n_series}")


def check_compare_report(text):
    """Overall deviation printed by `jcdyn compare`; must be below ORACLE_TOL."""
    match = re.search(r"^overall max deviation: (\S+)$", text, re.MULTILINE)
    if match is None:
        raise CheckFailed("compare printed no overall deviation")
    dev = float(match.group(1))
    if not dev < ORACLE_TOL:
        raise CheckFailed(f"compare reports deviation {dev:.3e} >= {ORACLE_TOL:g}")
    return dev
