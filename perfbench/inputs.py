"""Seeded input generation for the benchmark workloads.

Inputs come from numpy alone, never from ``propaux.generate_population``, so
no change to the program can change the bytes a workload measures. The same
``(workload, seed)`` always writes the same files; their sha256 digests go
into every result so two commits can be shown to have read the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

WORKLOAD_TAGS = {"mc-srswor": 1, "exact-enum": 2, "theory-scan": 3, "csv-ingest": 4}

MC_SIZE, MC_N, MC_REPS = 2000, 50, 20000
ENUM_SIZE, ENUM_N = 20, 6
SCAN_DOCS, SCAN_DIGITS = 300, 3
INGEST_SIZE, INGEST_N = 200_000, 500

# The parameter document of the README, whose PRE table is published there.
REFERENCE_DOC = {
    "n": 11, "n_population": 40,
    "p": 0.525, "xbar": 14.4, "rho_pb": 0.897,
    "cp": 0.963, "cx": 0.308,
    "lambda12": -0.118, "lambda04": 1.75, "lambda03": -0.153,
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _attribute(rng: np.random.Generator, z: np.ndarray, intercept: float,
               slope: float) -> np.ndarray:
    """Logistic attribute, redrawn until at least two units have it and lack it."""
    prob = 1.0 / (1.0 + np.exp(-(intercept + slope * z)))
    while True:
        phi = (rng.random(z.size) < prob).astype(np.int64)
        if 2 <= phi.sum() <= z.size - 2:
            return phi


def _write_csv(path: Path, phi: np.ndarray, x: np.ndarray) -> None:
    # repr round-trips, so the program parses exactly the harness's own x
    lines = [f"{a},{b!r}" for a, b in zip(phi.tolist(), x.tolist())]
    path.write_text("phi,x\n" + "\n".join(lines) + "\n", encoding="utf-8")


def moments(phi: np.ndarray, x: np.ndarray) -> dict:
    """Summary statistics under the README conventions (divisor N-1 variances,
    divisor-N standardized moment ratios)."""
    big_n = phi.size
    p = phi.mean()
    xbar = x.mean()
    dphi, dx = phi - p, x - xbar
    mu20, mu02 = np.mean(dphi**2), np.mean(dx**2)
    sp2, sx2 = mu20 * big_n / (big_n - 1), mu02 * big_n / (big_n - 1)
    return {
        "n_population": big_n, "p": float(p), "xbar": float(xbar),
        "sp2": float(sp2), "sx2": float(sx2),
        "cp": float(np.sqrt(sp2) / p), "cx": float(np.sqrt(sx2) / xbar),
        "rho_pb": float(np.mean(dphi * dx) / np.sqrt(mu20 * mu02)),
        "lambda03": float(np.mean(dx**3) / mu02**1.5),
        "lambda04": float(np.mean(dx**4) / mu02**2),
        "lambda12": float(np.mean(dphi * dx**2) / (np.sqrt(mu20) * mu02)),
    }


def _mc_srswor(rng, out: Path) -> dict:
    logx = rng.normal(3.0, 0.5, MC_SIZE)
    x = np.round(np.exp(logx), 4)
    phi = _attribute(rng, (logx - 3.0) / 0.5, -0.4, 1.5)
    csv = out / "population.csv"
    _write_csv(csv, phi, x)
    return {"csv": csv.name, "rows": MC_SIZE, "n": MC_N, "reps": MC_REPS,
            "sim_seed": int(rng.integers(2**31)), "truth": moments(phi, x)}


def _exact_enum(rng, out: Path) -> dict:
    # A mean 0.6-0.8 standard deviations above zero puts the sample mean at
    # or below zero on 0.3-5% of subsets, where the tc, t1 and t3
    # preconditions fail. Nearer zero, first-order theory breaks down: on a
    # few percent of seeds the t3 MSE that enumerate_exact reports beside the
    # exact moments comes out negative and the whole enumeration aborts.
    z = rng.standard_normal(ENUM_SIZE)
    z = (z - z.mean()) / z.std()
    x = np.round(z + rng.uniform(0.6, 0.8), 4)
    phi = _attribute(rng, z, 0.0, 1.5)
    csv = out / "population.csv"
    _write_csv(csv, phi, x)
    return {"csv": csv.name, "rows": ENUM_SIZE, "n": ENUM_N, "truth": moments(phi, x)}


def _theory_scan(rng, out: Path) -> dict:
    docs = []
    for k in range(SCAN_DOCS - 1):
        big_n = int(rng.integers(60, 3000))
        if rng.random() < 0.5:
            logx = rng.normal(rng.uniform(1.0, 4.0), rng.uniform(0.2, 0.6), big_n)
            x, z = np.exp(logx), (logx - logx.mean()) / logx.std()
        else:
            x = rng.normal(rng.uniform(20.0, 60.0), rng.uniform(2.0, 8.0), big_n)
            z = (x - x.mean()) / x.std()
        phi = _attribute(rng, z, rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.5))
        m = moments(phi, x)
        # f*cp^2, f*cx^2 and f*(lambda04-1), the relative variances of the
        # sample proportion, auxiliary mean and auxiliary variance, stay at
        # most 0.02: the regime a first-order table is meant for. Beyond it
        # the t3 weight system can turn indefinite and `theory` exits 3.
        spread = max(m["cp"] ** 2, m["cx"] ** 2, m["lambda04"] - 1.0)
        n_min = min(big_n - 1, max(5, math.ceil(1.0 / (0.02 / spread + 1.0 / big_n))))
        doc = {"n": int(rng.integers(n_min, max(n_min, big_n // 5) + 1)),
               "n_population": big_n}
        doc.update({key: round(m[key], SCAN_DIGITS) for key in
                    ("p", "xbar", "rho_pb", "cp", "cx", "lambda12", "lambda04", "lambda03")})
        docs.append(doc)
    docs.append(REFERENCE_DOC)
    names = []
    for k, doc in enumerate(docs):
        path = out / f"params-{k:03d}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        names.append(path.name)
    return {"docs": names, "digits": SCAN_DIGITS}


def _csv_ingest(rng, out: Path) -> dict:
    logx = rng.normal(2.5, 0.6, INGEST_SIZE)
    x = np.round(np.exp(logx), 4)
    phi = _attribute(rng, (logx - 2.5) / 0.6, 0.0, 1.2)
    csv = out / "population.csv"
    _write_csv(csv, phi, x)
    return {"csv": csv.name, "rows": INGEST_SIZE, "n": INGEST_N, "truth": moments(phi, x)}


_GENERATORS = {"mc-srswor": _mc_srswor, "exact-enum": _exact_enum,
               "theory-scan": _theory_scan, "csv-ingest": _csv_ingest}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files into ``out`` and describe them.

    Returns a manifest: the file names, the workload's fixed sizes, the
    harness's own truth for the output checks, and the sha256 of every file.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOAD_TAGS[workload]]))
    manifest = _GENERATORS[workload](rng, out)
    manifest["sha256"] = {path.name: sha256(path) for path in sorted(out.iterdir())}
    return manifest
