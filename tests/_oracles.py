"""Independent oracles used by the tests.

Everything here recomputes expected values through a route separate from the
package: exact rational arithmetic for the closed forms, plain Python loops
for moments, finite differences for stationarity, and grid search for optima.
The one exception is ``loop_report``, which reproduces the batched oracles of
``propaux.montecarlo`` through the package's scalar path, one sample at a time;
``floyd_loop`` is the textbook sampler that the vectorized draw must equal,
``csv_loop`` the row-at-a-time population CSV reader that the columnar
``read_population_csv`` must agree with, and ``csv_writer_loop`` the
row-at-a-time writer whose bytes ``write_population_csv`` must reproduce.
"""

import csv
from fractions import Fraction as F
import itertools
import math
from typing import NamedTuple

import numpy as np

# Reference summary statistics used throughout the suite (survey of 40 units,
# samples of 11, home-ownership attribute against income in thousands).
REF = {
    "n": 11, "n_population": 40, "p": 0.525, "xbar": 14.4, "rho_pb": 0.897,
    "cp": 0.963, "cx": 0.308, "lambda12": -0.118, "lambda04": 1.75,
    "lambda03": -0.153,
}

class Moments(NamedTuple):
    """Exact rational values of a parameter vector and its design factor."""

    P: F
    X: F
    RHO: F
    CP: F
    CX: F
    L12: F
    L04: F
    L03: F
    F: F


REF_MOMENTS = Moments(P=F("0.525"), X=F("14.4"), RHO=F("0.897"), CP=F("0.963"),
                      CX=F("0.308"), L12=F("-0.118"), L04=F("1.75"), L03=F("-0.153"),
                      F=F(1, 11) - F(1, 40))


def rational_moments(pop, f):
    """The exact values of the floats of a ``PopulationParams`` and of ``f``."""
    return Moments(P=F(pop.P), X=F(pop.xbar), RHO=F(pop.rho_pb), CP=F(pop.cp),
                   CX=F(pop.cx), L12=F(pop.lambda12), L04=F(pop.lambda04),
                   L03=F(pop.lambda03), F=F(f))


def loop_moment(phi, x, r, s):
    """Divisor-N central moment via an explicit loop (no numpy)."""
    n = len(phi)
    pbar = sum(phi) / n
    xbar = sum(x) / n
    return sum((a - pbar) ** r * (b - xbar) ** s for a, b in zip(phi, x)) / n


def rational_var_usual(m=REF_MOMENTS):
    return m.F * m.P**2 * m.CP**2


def rational_mse_ta(m=REF_MOMENTS):
    return m.F * m.P**2 * (m.CP**2 + m.CX**2 - 2 * m.RHO * m.CP * m.CX)


def rational_min_mse_tb(m=REF_MOMENTS):
    return m.F * m.P**2 * m.CP**2 * (1 - m.RHO**2)


def rational_t1_min_mse(m=REF_MOMENTS):
    gap = (m.L04 - 1) - m.L03**2
    return m.F * m.P**2 * m.CP**2 * (1 - m.RHO**2 - (m.L03 * m.RHO - m.L12) ** 2 / gap)


def rational_tc_deltas(a=F(1), b=F(0), alpha=F(1), beta=F(0), m=REF_MOMENTS):
    theta = a * m.X / (a * m.X + b)
    bc = theta * (alpha + beta / 2)
    ac = theta**2 * (alpha * (alpha + 1) / 2 + alpha * beta / 2 + beta**2 / 8 + beta / 4)
    rcx = m.RHO * m.CP * m.CX
    m1 = m.P**2 * m.F * (m.CP**2 + bc**2 * m.CX**2 - 2 * bc * rcx)
    m2 = m.X**2 * m.F * m.CX**2
    m3 = m.P**2 * m.F * (ac * m.CX**2 - bc * rcx)
    m4 = m.P * m.X * m.F * (-bc * m.CX**2 + rcx)
    m5 = m.X * m.P * m.F * (-bc * m.CX**2)
    return {
        "theta": theta, "bc": bc, "ac": ac,
        "m1": m1, "m2": m2, "m3": m3, "m4": m4, "m5": m5,
        "delta1": m.P**2 + m1 + 2 * m3,
        "delta2": -m4 - m5,
        "delta3": m2,
        "delta4": m.P**2 + m3,
        "delta5": -m5,
    }


def rational_tc_min_mse(m=REF_MOMENTS):
    d = rational_tc_deltas(m=m)
    det = d["delta1"] * d["delta3"] - d["delta2"] ** 2
    num = (d["delta1"] * d["delta5"] ** 2 + d["delta3"] * d["delta4"] ** 2
           - 2 * d["delta2"] * d["delta4"] * d["delta5"])
    return m.P**2 - num / det


def rational_t3_constants(gamma=F(1), g=F(1), delta=F(1), m=REF_MOMENTS):
    rcx = m.RHO * m.CP * m.CX
    l4m1 = m.L04 - 1
    a = 1 + m.F * (m.CP**2 - 4 * gamma * g * rcx + gamma**2 * g * (2 * g + 1) * m.CX**2)
    b = 1 - gamma * g * m.F * rcx + g * (g + 1) * gamma**2 * m.F * m.CX**2 / 2
    c = 1 + m.F * (m.CP**2 - 2 * delta * m.CP * m.L12
                   + (delta**2 + delta * (delta + 2)) * l4m1 / 4)
    d = 1 + m.F * (m.CP**2 - delta * m.CP * m.L12 + delta * (delta + 2) * l4m1 / 8
                   - 2 * gamma * g * rcx + gamma * delta * g * m.CX * m.L03 / 2
                   + g * (g + 1) * gamma**2 * m.CX**2 / 2)
    e = 1 - delta * m.F * m.CP * m.L12 / 2 + delta * (delta + 2) * m.F * l4m1 / 8
    return a, b, c, d, e


def rational_t3_min_mse(gamma=F(1), g=F(1), delta=F(1), m=REF_MOMENTS):
    a, b, c, d, e = rational_t3_constants(gamma, g, delta, m)
    det = a * c - d * d
    return m.P**2 * (1 - (b * b * c - 2 * b * d * e + a * e * e) / det)


def fd_gradient(fn, point, rel_h=1e-5):
    """Central-difference gradient (exact for quadratics up to roundoff)."""
    grads = []
    for i, value in enumerate(point):
        h = rel_h * max(1.0, abs(value))
        up = list(point)
        down = list(point)
        up[i] += h
        down[i] -= h
        grads.append((fn(up) - fn(down)) / (2.0 * h))
    return grads


def fd_curvature_scale(fn, point, rel_h=1e-3):
    """Largest diagonal second difference, the natural gradient scale."""
    center = fn(list(point))
    scale = 0.0
    for i, value in enumerate(point):
        h = rel_h * max(1.0, abs(value))
        up = list(point)
        down = list(point)
        up[i] += h
        down[i] -= h
        scale = max(scale, abs((fn(up) - 2.0 * center + fn(down)) / h**2))
    return scale


def assert_stationary(fn, point, tol=1e-6):
    grads = fd_gradient(fn, point)
    scale = fd_curvature_scale(fn, point)
    assert scale > 0.0
    span = max(1.0, max(abs(v) for v in point))
    for g in grads:
        assert abs(g) <= tol * scale * span, (grads, scale, point)


def grid_min(fn, center, rel_span=0.5, steps=101):
    """Smallest value of fn over a rectangular grid around ``center``."""
    axes = []
    for value in center:
        span = rel_span * abs(value)
        if span == 0.0:
            axes.append([value])
        else:
            axes.append([value - span + 2.0 * span * k / (steps - 1) for k in range(steps)])
    return min(fn(list(point)) for point in itertools.product(*axes))


def binomial_se(count, total, p):
    return math.sqrt(total * p * (1.0 - p))


def floyd_loop(rng, N, n):
    """One sorted n-subset of ``range(N)`` by Floyd's algorithm, one Python
    set insertion per step, drawing ``rng.integers(0, j + 1)`` for each
    ``j`` in ``N-n..N-1``."""
    subset = set()
    for j in range(N - n, N):
        t = int(rng.integers(0, j + 1))
        subset.add(j if t in subset else t)
    return sorted(subset)


def csv_loop(path):
    """A population CSV read one ``csv.reader`` row at a time: the reference
    for ``propaux.io.read_population_csv``, which accepts the same files
    except that ``x`` must also be ASCII and free of ``_``."""
    from propaux import PopulationFrame
    from propaux.errors import ParseError, SchemaError

    records = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected header 'phi,x'") from None
        if [cell.strip() for cell in header] != ["phi", "x"]:
            raise SchemaError(f"{path}: expected header 'phi,x', got {','.join(header)!r}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 fields, got {len(row)}", line=line)
            raw_phi, raw_x = row[0].strip(), row[1].strip()
            if raw_phi not in ("0", "1"):
                raise ParseError(f"attribute must be 0 or 1, got {raw_phi!r}", line=line)
            try:
                x = float(raw_x)
            except ValueError:
                raise ParseError(f"cannot parse auxiliary value {raw_x!r}", line=line) from None
            if not math.isfinite(x):
                raise ParseError(f"auxiliary value must be finite, got {raw_x!r}", line=line)
            records.append((int(raw_phi), x))
    if len(records) < 2:
        raise SchemaError(f"{path}: a population needs at least 2 records")
    phi, x = zip(*records)
    return PopulationFrame(np.array(phi), np.array(x))


def csv_writer_loop(path, frame):
    """A population CSV written through one ``csv.writer`` call per record."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["phi", "x"])
        for phi, x in frame.records():
            writer.writerow([phi, repr(x)])


def loop_report(frame, n, configs=None, reps=None, seed=None):
    """``enumerate_exact`` (``reps`` None) or ``run_experiment`` by the scalar
    path: ``sample_stats`` and ``evaluate`` on one subset or replicate at a
    time, the replicates' samples taken from ``draw_replicates``. The value
    matrix is reduced one ``REDUCE_SAMPLES`` block at a time, as the
    oracles reduce theirs."""
    from propaux import (compute_population_params, draw_replicates, evaluate,
                         montecarlo, resolve_config, sample_stats, sampling_fraction,
                         theory)
    from propaux.errors import DataError
    from propaux.montecarlo import (DEFAULT_CONFIGS, RNG_SCHEME, SimulationReport,
                                    _aggregate, _partials)

    configs = tuple(configs) if configs is not None else DEFAULT_CONFIGS
    pop = compute_population_params(frame)
    f = sampling_fraction(n, frame.size)
    resolved = [resolve_config(cfg, pop, f) for cfg in configs]
    theory_mses = [theory.FAMILIES[cfg.kind].mse(cfg.params, pop, f) for cfg in resolved]
    exact = reps is None
    if exact:
        samples = list(itertools.combinations(range(frame.size), n))
    else:
        samples = draw_replicates(frame, n, seed, 0, reps)
    values = np.zeros((len(resolved), len(samples)))
    for k, subset in enumerate(samples):
        stats = sample_stats(frame, np.array(subset, dtype=np.int64))
        for j, cfg in enumerate(resolved):
            try:
                values[j, k] = evaluate(stats, pop, cfg).value
            except DataError:
                values[j, k] = np.nan
    size = montecarlo.REDUCE_SAMPLES
    partials = np.array([_partials(values[:, first:first + size].copy(), pop.P, exact)
                         for first in range(0, len(samples), size)])
    rows = _aggregate(resolved, theory_mses, partials, len(samples), pop, exact=exact)
    return SimulationReport(
        n=n, population_size=frame.size, sampling_fraction=f, true_p=pop.P,
        replicates=len(samples), exact=exact, seed=None if exact else seed,
        rng=None if exact else RNG_SCHEME, rows=tuple(rows),
    )
