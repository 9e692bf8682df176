"""Ground-truth oracles: exact SRSWOR enumeration and seeded Monte Carlo.

Determinism contract
--------------------
Replicates fall into fixed blocks of ``max(1, BLOCK_ELEMENTS // n)`` rows;
block ``b`` draws from its own random stream,
``SeedSequence(seed, spawn_key=(2, b))`` feeding a PCG64 generator, with one
vectorized Floyd draw for all of its rows. A shorter draw from a block
stream gives a prefix of the rows of a longer one, so the sample of
replicate ``i`` depends only on ``(seed, i, N, n)``. Replicates and subsets
are evaluated in chunks of ``CHUNK_ELEMENTS`` sample indices (at least one
sample), each chunk through one batch sufficient-statistics pass and one
kernel call per estimator, and aggregation runs over all of them in index
order. A report is therefore a pure function of
``(population, n, configs, reps, seed)``, independent of the chunking.
Synthetic-population generation uses the disjoint spawn keys ``(1, attempt)``
so a shared seed never aliases replicate streams.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import theory
from .errors import (
    DataError,
    DegenerateGeneration,
    InvalidConfig,
    TooLarge,
)
from .estimators import EstimatorConfig, evaluate_batch, resolve_config
from .population import (
    PopulationFrame,
    PopulationParams,
    batch_stats,
    compute_population_params,
    sampling_fraction,
)

_LOGGER = logging.getLogger(__name__)

ENUMERATION_LIMIT = 10**7

#: Sample indices evaluated per chunk; bounds the working memory of a run.
CHUNK_ELEMENTS = 65536

#: Sample indices per random stream. Part of the RNG scheme: changing it
#: changes every seeded report.
BLOCK_ELEMENTS = 65536

RNG_SCHEME = ("pcg64:SeedSequence(seed, spawn_key=(2, replicate // max(1, "
              f"{BLOCK_ELEMENTS} // n))):floyd-int64")

#: Every kind at its default configuration; used when a caller passes none.
DEFAULT_CONFIGS: tuple[EstimatorConfig, ...] = tuple(
    EstimatorConfig(kind=kind, label=family.label) for kind, family in theory.FAMILIES.items())


def _stream(seed: int, *spawn_key: int) -> np.random.Generator:
    """The generator of one stream of the experiment ``seed``; every seeded
    draw starts here."""
    if seed < 0:
        raise InvalidConfig(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))
    )


def _floyd(rng: np.random.Generator, N: int, n: int, rows: int) -> np.ndarray:
    """``rows`` uniformly distributed n-subsets of ``range(N)``, one sorted row each.

    Floyd's algorithm (Bentley & Floyd, "A sample of brilliance", CACM 30(9),
    1987) on every row at once: draw ``k`` is uniform on ``0..N-n+k`` and is
    kept unless the row already holds it, in which case ``N-n+k`` is kept.
    The draws are consumed row by row, so fewer rows give a prefix of more.
    Needs ``2 * n * N < 2**63``.
    """
    base = N - n
    step = np.arange(n)
    draws = rng.integers(0, np.arange(base + 1, N + 1), size=(rows, n))
    flat = draws.ravel()
    # Draw k collides when its row already holds its value. It does when an
    # earlier draw had that value: sorted by one key that packs (value, draw
    # index), such a draw follows one of equal value ...
    shift = int(n).bit_length()
    key = draws << shift
    key |= step
    key.sort(axis=1)
    repeat = key[:, 1:] ^ key[:, :-1]
    repeat >>= shift
    row, pos = np.nonzero(repeat == 0)
    collided = np.zeros(rows * n, dtype=bool)
    collided[row * n + (key[row, pos + 1] & ((1 << shift) - 1))] = True
    del key, repeat  # one block-sized array fewer at the peak
    # ... and it does when its value is N-n+v, v < k, and draw v collided and
    # so took N-n+v. Pointer jumping ORs the flags along each chain k -> v -> ...
    link = np.arange(rows * n)
    top = np.flatnonzero(flat >= base)
    link[top] += flat[top] - base - top % n
    while True:
        parent = link[top]
        collided[top] |= collided[parent]
        jump = link[parent]
        if np.array_equal(jump, parent):
            break
        link[top] = jump
    np.copyto(draws, base + step, where=collided.reshape(rows, n))
    draws.sort(axis=1)
    return draws


def draw_replicates(frame: PopulationFrame, n: int, seed: int,
                    start: int, stop: int) -> np.ndarray:
    """The samples of replicates ``start..stop-1`` of the experiment ``seed``
    (as ``run_experiment`` draws them), one sorted row of unit indices each."""
    sampling_fraction(n, frame.size)
    rows = max(1, BLOCK_ELEMENTS // n)
    parts = []
    for block in range(start // rows, -(-stop // rows)):
        first = block * rows
        drawn = _floyd(_stream(seed, 2, block), frame.size, n, min(stop, first + rows) - first)
        parts.append(drawn[max(start - first, 0):])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic population with controllable moments.

    ``aux_shape`` selects the auxiliary distribution: ``skewed-positive`` is
    lognormal with log-scale ``aux_scale`` (nonzero skewness, positive values),
    ``symmetric`` is normal with mean ``aux_location`` and standard deviation
    ``aux_scale``. The attribute is 1 with probability
    ``logistic(link_intercept + link_slope * x)``, drawn by thresholding one
    uniform variate per unit.
    """

    size: int
    aux_shape: str = "skewed-positive"
    aux_scale: float = 0.4
    aux_location: float = 0.0
    link_intercept: float = -8.0
    link_slope: float = 8.0
    max_retries: int = 100

    def __post_init__(self):
        for name in ("size", "max_retries"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
        for name in ("aux_scale", "aux_location", "link_intercept", "link_slope"):
            value = getattr(self, name)
            # the comparison also rejects NaN and ints beyond the float range
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not abs(value) <= sys.float_info.max):
                raise InvalidConfig(f"{name} must be a finite number, got {value!r}")
        if self.size < 10:
            raise InvalidConfig("synthetic population size must be at least 10")
        if self.max_retries < 1:
            raise InvalidConfig("max_retries must be at least 1")
        if self.aux_shape not in ("skewed-positive", "symmetric"):
            raise InvalidConfig(f"unknown aux_shape {self.aux_shape!r}")
        if self.aux_scale <= 0.0:
            raise InvalidConfig("aux_scale must be positive")


def generate_population(spec: SyntheticSpec, seed: int) -> PopulationFrame:
    """Deterministically generate a frame satisfying 0 < P < 1.

    Draws are retried with fresh attempt streams when the attribute comes out
    constant; the retry count and the achieved moment ratios are logged.
    """
    for attempt in range(spec.max_retries):
        rng = _stream(seed, 1, attempt)
        if spec.aux_shape == "skewed-positive":
            x = rng.lognormal(mean=spec.aux_location, sigma=spec.aux_scale, size=spec.size)
        else:
            x = rng.normal(loc=spec.aux_location, scale=spec.aux_scale, size=spec.size)
        logits = np.clip(spec.link_intercept + spec.link_slope * x, -700.0, 700.0)
        prob = 1.0 / (1.0 + np.exp(-logits))
        phi = (rng.uniform(size=spec.size) < prob).astype(np.int64)
        total = int(phi.sum())
        if 0 < total < spec.size and np.unique(x).size > 1:
            frame = PopulationFrame(phi, x)
            achieved = compute_population_params(frame)
            _LOGGER.info(
                "generated population: size=%d attempt=%d P=%.4f rho_pb=%.4f "
                "lambda03=%.4f lambda04=%.4f lambda12=%.4f",
                spec.size, attempt, achieved.P, achieved.rho_pb,
                achieved.lambda03, achieved.lambda04, achieved.lambda12,
            )
            return frame
    raise DegenerateGeneration(
        f"no usable population after {spec.max_retries} attempts; the link "
        "saturates the attribute"
    )


@dataclass(frozen=True)
class EstimatorRun:
    """Aggregated result of one estimator across replicates or subsets."""

    name: str
    replicates: int
    failures: int
    mean: float
    bias: float
    mse: float
    mse_se: float
    theory_mse: float
    ratio: float


@dataclass(frozen=True)
class SimulationReport:
    n: int
    population_size: int
    sampling_fraction: float
    true_p: float
    replicates: int
    exact: bool
    seed: int | None
    rng: str | None
    rows: tuple[EstimatorRun, ...]

    def row(self, name: str) -> EstimatorRun:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


def _unique_names(configs: Sequence[EstimatorConfig]) -> list[str]:
    names = [cfg.name for cfg in configs]
    if len(set(names)) != len(names):
        raise InvalidConfig(f"estimator labels must be unique, got {names}")
    return names


def _aggregate(names: list[str], resolved: Sequence[EstimatorConfig],
               values: np.ndarray, failed: np.ndarray, pop: PopulationParams,
               f: float, true_p: float, exact: bool = False) -> list[EstimatorRun]:
    rows = []
    for j, (name, cfg) in enumerate(zip(names, resolved)):
        ok = ~failed[j]
        v = values[j, ok]
        count = int(ok.sum())
        if count == 0:
            raise DataError(f"estimator {name} failed on every replicate")
        err = v - true_p
        mean = float(v.mean())
        mse = float(np.mean(err**2))
        se = 0.0 if exact or count == 1 else float(np.std(err**2, ddof=1) / math.sqrt(count))
        tmse = theory.FAMILIES[cfg.kind].mse(cfg.params, pop, f)
        rows.append(EstimatorRun(
            name=name,
            replicates=count,
            failures=int(failed[j].sum()),
            mean=mean,
            bias=mean - true_p,
            mse=mse,
            mse_se=se,
            theory_mse=tmse,
            ratio=mse / tmse if tmse > 0 else math.nan,
        ))
    return rows


def _report(frame: PopulationFrame, n: int, configs: Sequence[EstimatorConfig] | None,
            total: int, draw: Callable[[int, int], np.ndarray],
            seed: int | None = None) -> SimulationReport:
    """Every estimator of ``configs`` over samples ``0..total-1``, aggregated
    exactly over equally weighted subsets when ``seed`` is None, else as
    Monte Carlo replicates of that seed.

    The samples are taken in order, in chunks of ``CHUNK_ELEMENTS`` indices
    (at least one sample): ``draw(start, stop)`` returns the index rows of
    samples ``start..stop-1``.
    """
    configs = tuple(configs) if configs is not None else DEFAULT_CONFIGS
    names = _unique_names(configs)
    pop = compute_population_params(frame)
    f = sampling_fraction(n, frame.size)
    resolved = [resolve_config(cfg, pop, f) for cfg in configs]

    values = np.zeros((len(resolved), total))
    failed = np.zeros((len(resolved), total), dtype=bool)
    rows = max(1, CHUNK_ELEMENTS // n)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        stats = batch_stats(frame, draw(start, stop))
        for j, cfg in enumerate(resolved):
            chunk_values, codes = evaluate_batch(cfg, pop, *stats)
            values[j, start:stop] = chunk_values
            failed[j, start:stop] = codes != 0

    exact = seed is None
    return SimulationReport(
        n=n, population_size=frame.size, sampling_fraction=f, true_p=pop.P,
        replicates=total, exact=exact, seed=seed, rng=None if exact else RNG_SCHEME,
        rows=tuple(_aggregate(names, resolved, values, failed, pop, f, pop.P, exact)),
    )


def enumerate_exact(frame: PopulationFrame, n: int,
                    configs: Sequence[EstimatorConfig] | None = None) -> SimulationReport:
    """Exact expectation and MSE of each estimator over every n-subset.

    Refuses populations with more than ``ENUMERATION_LIMIT`` subsets. Subsets
    where an estimator's precondition fails are tallied per estimator and the
    moments are taken over the remaining subsets.
    """
    sampling_fraction(n, frame.size)
    total = math.comb(frame.size, n)
    if total > ENUMERATION_LIMIT:
        raise TooLarge(f"{total} subsets exceed the enumeration limit {ENUMERATION_LIMIT}")
    subsets = itertools.chain.from_iterable(itertools.combinations(range(frame.size), n))

    def draw(start: int, stop: int) -> np.ndarray:
        size = (stop - start) * n
        flat = np.fromiter(itertools.islice(subsets, size), dtype=np.intp, count=size)
        return flat.reshape(stop - start, n)

    return _report(frame, n, configs, total, draw)


def run_experiment(frame: PopulationFrame, n: int,
                   configs: Sequence[EstimatorConfig] | None = None,
                   reps: int = 1000, seed: int = 0) -> SimulationReport:
    """Seeded Monte Carlo over independent SRSWOR replicates.

    The report is bit-identical for a given seed: replicate ``i`` always
    takes the sample ``draw_replicates(frame, n, seed, i, i + 1)`` and the
    final reduction runs in replicate order.
    """
    if reps < 100:
        raise InvalidConfig(f"need at least 100 replicates, got {reps}")
    sampling_fraction(n, frame.size)

    def draw(start: int, stop: int) -> np.ndarray:
        return draw_replicates(frame, n, seed, start, stop)

    return _report(frame, n, configs, reps, draw, seed)
