"""Ground-truth oracles: exact SRSWOR enumeration and seeded Monte Carlo.

Determinism contract
--------------------
Replicates fall into fixed blocks of ``max(1, BLOCK_ELEMENTS // n)`` rows;
block ``b`` draws from its own random stream,
``SeedSequence(seed, spawn_key=(2, b))`` feeding a PCG64 generator, with one
vectorized Floyd draw for all of its rows. The draw's bounded integers are
the bits of numpy's ``Generator.integers``, computed from the stream's raw
words by numpy's own rule; a numpy release that changes its bounded-integer
algorithm fails the contract test instead of silently moving seeded reports.
A shorter draw from a block stream gives a prefix of the rows of a longer
one, so the sample of replicate ``i`` depends only on ``(seed, i, N, n)``.
Exact enumeration takes the subsets in lexicographic order, the order of
``itertools.combinations``; each chunk unranks its own range of ranks, so
subset ``i`` also depends only on ``(i, N, n)``. Its chunks are
column-major, one contiguous run per sample position; the batch statistics
have the same bits in either layout. Replicates and subsets are
evaluated in chunks of ``CHUNK_ELEMENTS`` sample indices (at least one
sample), each chunk through one batch sufficient-statistics pass. The
statistics fill fixed reduction blocks of ``REDUCE_SAMPLES`` samples, whose
edges depend only on the sample index; a chunk that straddles an edge fills
two blocks. Each estimator kernel is called once per block and works row by
row, so an estimate depends only on its sample; a failed sample is NaN, and
every other estimate is finite. Each block reduces to per-estimator partials
(see ``_partials``), merged in block order. A report is therefore a pure
function of ``(population, n, configs, reps, seed)``, independent of the
chunking, and memory is bounded by the chunk and the block, not by ``reps``.
Synthetic-population generation uses the disjoint spawn keys ``(1, attempt)``
so a shared seed never aliases replicate streams.
"""

from __future__ import annotations

import ctypes
import functools
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
from .population import PopulationFrame, _stats, compute_population_params

_LOGGER = logging.getLogger(__name__)

#: Index of the low 32-bit half of a uint64 viewed as two uint32s.
_LOW_HALF = 0 if sys.byteorder == "little" else 1

#: The most samples one report takes: subsets to enumerate or replicates to draw.
ENUMERATION_LIMIT = 10**7

#: Largest ``SyntheticSpec.max_retries``. Each attempt draws a whole
#: population, so this bounds the run time of a spec whose link saturates
#: the attribute.
MAX_RETRIES = 1000

#: Sample indices evaluated per chunk; bounds the per-chunk temporaries.
CHUNK_ELEMENTS = 65536

#: Samples per reduction block. The estimates of block ``b``, samples ``b *
#: REDUCE_SAMPLES`` up to the next edge, reduce to one set of partials, so
#: this fixes the last bits of every report's aggregates.
REDUCE_SAMPLES = 8192

#: glibc ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: Sample indices per random stream. Part of the RNG scheme: changing it
#: changes every seeded report.
BLOCK_ELEMENTS = 65536

#: Names the draw in every seeded report. The Floyd draws are numpy's
#: ``integers`` bits taken from raw words (``_bounded``), so a numpy release
#: that changes its bounded-integer algorithm fails the contract test
#: rather than silently moving seeded reports under this name.
RNG_SCHEME = ("pcg64:SeedSequence(seed, spawn_key=(2, replicate // max(1, "
              f"{BLOCK_ELEMENTS} // n))):floyd-int64")

#: Every kind at its default configuration; used when a caller passes none.
DEFAULT_CONFIGS: tuple[EstimatorConfig, ...] = tuple(
    EstimatorConfig(kind=kind, label=family.label) for kind, family in theory.FAMILIES.items())


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    return int(value)


def _stream(seed: int, *spawn_key: int) -> np.random.Generator:
    """The generator of one stream of the experiment ``seed``; every seeded
    draw starts here."""
    if seed < 0:
        raise InvalidConfig(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))
    )


def _words(bitgen: np.random.BitGenerator, count: int) -> np.ndarray:
    """The next ``count`` (rounded up to even) 32-bit words of ``bitgen``:
    its raw outputs, the low half of each first, on any byte order."""
    return bitgen.random_raw(-(-count // 2)).astype("<u8", copy=False).view("<u4")


def _bounded(bitgen: np.random.BitGenerator, high: np.ndarray, rows: int) -> np.ndarray:
    """``rows`` rows of entries uniform on ``0..high[k]-1`` in column ``k``:
    the int64 values of ``Generator(bitgen).integers(0, high, size=(rows,
    high.size))`` on a fresh ``bitgen``, bit for bit. Needs ``1 <= high <
    2**32``.

    numpy's 32-bit bounded draw (Lemire, "Fast random integer generation in
    an interval", ACM TOMACS 2019), taken from ``random_raw`` words: the
    entries, row by row, take the stream's 32-bit words, the low half of
    each raw output first. An entry's value is ``(word * high) >> 32``; it
    is rejected, and takes the next word instead, when the low 32 bits of
    that product are below ``2**32 % high``, so each rejection shifts every
    later entry by one word. An entry with ``high == 1`` is 0 and takes no
    word. The products are formed in place in one uint64 buffer, and each
    rejection recomputes entries after it in the same buffer, at most one
    pass over the rows after it.
    """
    live = high > 1
    if not live.all():
        out = np.zeros((rows, high.size), dtype=np.int64)
        if live.any():
            out[:, live] = _bounded(bitgen, high[live], rows)
        return out
    high = high.astype(np.uint64)
    m = high.size
    total = rows * m
    # each entry's two 32-bit halves side by side: the low one is compared
    # with the entry's threshold, the high one with 0, which nothing is below
    threshold = np.zeros(2 * m, dtype=np.uint32)
    threshold[_LOW_HALF::2] = np.uint64(2**32) % high
    # after a rejection, entries are recomputed one window at a time, of
    # about the rows one rejection is expected in
    window = max(1, 2**32 // max(1, int(threshold.sum(dtype=np.uint64))))
    buf = np.empty(total, dtype=np.uint64)
    product = buf.reshape(rows, m)
    halves = buf.view(np.uint32).reshape(rows, 2 * m)
    words = _words(bitgen, total)
    pos = offset = 0  # entries before `pos` are final; entry e >= pos takes word e + offset
    while pos < total:
        row, col = divmod(pos, m)
        stop = rows if offset == 0 else min(rows, row + window)
        if words.size < stop * m + offset:
            words = np.concatenate((words, _words(bitgen, total // 8 + 16)))
        buf[pos:stop * m] = words[pos + offset:stop * m + offset]
        product[row, col:] *= high[col:]
        product[row + 1:stop] *= high
        # the final entries of `row` before `col` were accepted, so the first
        # rejection in these rows is the first at or after `pos`
        rejected = (halves[row:stop] < threshold).ravel()
        hit = int(rejected.argmax())
        if rejected[hit]:
            pos = row * m + hit // 2
            offset += 1
        else:
            pos = stop * m
    buf >>= 32
    return product.view(np.int64)


def _floyd(rng: np.random.Generator, N: int, n: int, rows: int) -> np.ndarray:
    """``rows`` uniformly distributed n-subsets of ``range(N)``, one sorted
    int64 row each.

    Floyd's algorithm (Bentley & Floyd, "A sample of brilliance", CACM 30(9),
    1987) on every row at once: draw ``k`` is uniform on ``0..N-n+k`` and is
    kept unless the row already holds it, in which case ``N-n+k`` is kept.
    The draws are ``rng.integers(0, [N-n+1, ..., N], size=(rows, n))``,
    taken by ``_bounded`` from the raw words of a fresh ``rng``, and are
    consumed row by row, so fewer rows give a prefix of more. Needs ``N <
    2**32`` for ``_bounded``. The collision pass and the sort run on int32
    when ``N << n.bit_length() < 2**31``, which holds every key that packs a
    value and a draw index, and on int64 otherwise, which needs that bound
    below ``2**63``; an int32 row sorts in about half the time.
    """
    base = N - n
    shift = int(n).bit_length()
    dtype = np.int32 if N << shift < 2**31 else np.int64
    step = np.arange(n, dtype=dtype)
    draws = _bounded(rng.bit_generator, np.arange(base + 1, N + 1), rows)
    draws = draws.astype(dtype, copy=False)
    flat = draws.ravel()
    # Draw k collides when its row already holds its value. It does when an
    # earlier draw had that value: sorted by one key that packs (value, draw
    # index), such a draw follows one of equal value in its row ...
    key = draws << shift
    key |= step
    key.sort(axis=1)
    key = key.ravel()
    later = np.flatnonzero(key[1:] ^ key[:-1] < 1 << shift) + 1
    later = later[later % n != 0]  # not a pair straddling two rows
    collided = np.zeros(rows * n, dtype=bool)
    collided[later - later % n + (key[later] & ((1 << shift) - 1))] = True
    del key  # one block-sized array fewer at the peak
    # ... and it does when its value is N-n+v, v < k, and draw v collided and
    # so took N-n+v. Each pass carries the flags one step along the chains
    # k -> v -> ...; a chain runs to smaller draw indices, so it ends.
    top = np.flatnonzero(flat >= base)
    parent = top + (flat[top] - base - top % n)
    while (new := collided[parent] & ~collided[top]).any():
        collided[top[new]] = True
    np.copyto(draws, base + step, where=collided.reshape(rows, n))
    draws.sort(axis=1)
    return draws.astype(np.int64, copy=False)


def draw_replicates(frame: PopulationFrame, n: int, seed: int,
                    start: int, stop: int) -> np.ndarray:
    """The samples of replicates ``start..stop-1`` of the experiment ``seed``
    (as ``run_experiment`` draws them), one sorted int64 row of unit indices each."""
    theory.sampling_fraction(n, frame.size)
    seed, start, stop = _integer("seed", seed), _integer("start", start), _integer("stop", stop)
    if not 0 <= start <= stop:
        raise InvalidConfig(f"need 0 <= start <= stop, got start={start}, stop={stop}")
    if start == stop:
        return np.empty((0, n), dtype=np.int64)
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
            _integer(name, getattr(self, name))
        for name in ("aux_scale", "aux_location", "link_intercept", "link_slope"):
            value = getattr(self, name)
            # the comparison also rejects NaN and ints beyond the float range
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not abs(value) <= sys.float_info.max):
                raise InvalidConfig(f"{name} must be a finite number, got {value!r}")
        if self.size < 10:
            raise InvalidConfig("synthetic population size must be at least 10")
        if self.size >= 2**32:  # every Monte Carlo draw needs N < 2**32 (``_bounded``)
            raise InvalidConfig(f"synthetic population size must be below 2**32, got {self.size}")
        if not 1 <= self.max_retries <= MAX_RETRIES:
            raise InvalidConfig(f"max_retries must lie in [1, {MAX_RETRIES}], "
                                f"got {self.max_retries}")
        if self.aux_shape not in ("skewed-positive", "symmetric"):
            raise InvalidConfig(f"unknown aux_shape {self.aux_shape!r}")
        if self.aux_scale <= 0.0:
            raise InvalidConfig("aux_scale must be positive")


def generate_population(spec: SyntheticSpec, seed: int) -> PopulationFrame:
    """Deterministically generate a frame satisfying 0 < P < 1.

    Draws are retried with fresh attempt streams when the attribute comes out
    constant; the retry count and the achieved moment ratios are logged. A
    spec whose auxiliary draws overflow is an ``InvalidConfig``.
    """
    seed = _integer("seed", seed)
    for attempt in range(spec.max_retries):
        rng = _stream(seed, 1, attempt)
        if spec.aux_shape == "skewed-positive":
            x = rng.lognormal(mean=spec.aux_location, sigma=spec.aux_scale, size=spec.size)
        else:
            x = rng.normal(loc=spec.aux_location, scale=spec.aux_scale, size=spec.size)
        if not np.isfinite(x).all():
            raise InvalidConfig(f"aux_location={spec.aux_location!r} and aux_scale="
                                f"{spec.aux_scale!r} draw auxiliary values that overflow")
        with np.errstate(over="ignore"):  # an infinite logit is clipped
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
    ratio: float | None


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
        return {row.name: row for row in self.rows}[name]


@functools.cache
def _pin_heap() -> None:
    """Fix glibc's malloc thresholds for the whole process, once: blocks of
    4 MiB and up are mmapped, and the heap is trimmed only when more than
    8 MiB is free at its top. Does nothing where ``gnu_get_libc_version`` or
    ``mallopt`` is missing.

    Left to itself, glibc sets the mmap threshold to the largest mmapped
    block freed so far and the trim threshold to twice that. The oracles'
    per-chunk temporaries, up to about 1 MB, then go on a heap that is
    trimmed after every chunk and faulted in again by the next. With fixed
    thresholds a warm run reuses its pages, and arrays of 4 MiB and up, such
    as a large frame's columns, still go back to the system when freed.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no process-wide symbol table
        return
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 8 << 20)


def _partials(values: np.ndarray, P: float, exact: bool) -> tuple[np.ndarray, ...]:
    """The partials of one reduction block, a row each, one entry per
    estimator: the count of its estimates, their sum and the sum of their
    squared errors about ``P``, and for Monte Carlo also the mean and M2 of
    those squared errors. Row j of the C-ordered ``values``, which this
    overwrites, holds estimator j's estimates, NaN where the sample failed.
    """
    failed = np.isnan(values)
    count = values.shape[1] - np.count_nonzero(failed, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # the report shows the inf and NaN
        np.copyto(values, 0.0, where=failed)
        total = values.sum(axis=1)
        values -= P
        values *= values
        np.copyto(values, 0.0, where=failed)
        sq = values.sum(axis=1)
        if exact:
            return count, total, sq
        mean = sq / np.maximum(count, 1)  # 0 where the whole block failed
        values -= mean[:, None]
        np.copyto(values, 0.0, where=failed)
        values *= values
        return count, total, sq, mean, values.sum(axis=1)


def _fsum(parts: list[float]) -> float:
    """The correctly rounded sum of ``parts``. ``math.fsum`` raises where a
    running sum leaves the float range (``inf + -inf``, or finite parts
    whose sum overflows); there the left-to-right float sum gives ±inf or
    NaN, as an overflowing numpy sum does."""
    try:
        return math.fsum(parts)
    except (OverflowError, ValueError):
        return functools.reduce(float.__add__, parts, 0.0)


def _chan_m2(counts: list[int], means: list[float], m2s: list[float]) -> float:
    """The M2 of the union of blocks with these counts, means and M2s, merged
    in block order by the pairwise update of Chan, Golub & LeVeque
    ("Algorithms for computing the sample variance", The American
    Statistician 37(3), 1983). Empty blocks are skipped."""
    n, mean, m2 = 0, 0.0, 0.0
    for nb, mb, m2b in zip(counts, means, m2s):
        if nb == 0:
            continue
        if n == 0:
            n, mean, m2 = nb, mb, m2b
            continue
        total = n + nb
        delta = mb - mean
        mean += delta * nb / total
        m2 += m2b + delta * delta * n * nb / total
        n = total
    return m2


def _aggregate(resolved: Sequence[EstimatorConfig], theory_mses: Sequence[float],
               partials: np.ndarray, samples: int, pop: theory.PopulationParams,
               exact: bool = False) -> list[EstimatorRun]:
    """One row per estimator over ``samples`` samples, from the ``_partials``
    of their reduction blocks, ``partials[b]`` those of block ``b``: the mean
    and MSE from ``math.fsum`` over the blocks' sums, and ``mse_se`` from the
    blocks' M2s merged in block order by Chan's update. ``theory_mses[j]`` is
    the first-order MSE of ``resolved[j]``."""
    rows = []
    for j, (cfg, tmse) in enumerate(zip(resolved, theory_mses)):
        counts, totals, sqs, *moments = partials[:, :, j].T.tolist()
        count = int(sum(counts))
        if count == 0:
            raise DataError(f"estimator {cfg.name} failed on every replicate")
        mean = _fsum(totals) / count
        mse = _fsum(sqs) / count
        se = 0.0
        if not exact and count > 1:
            se = math.sqrt(_chan_m2(counts, *moments) / (count - 1)) / math.sqrt(count)
        rows.append(EstimatorRun(
            name=cfg.name,
            replicates=count,
            failures=samples - count,
            mean=mean,
            bias=mean - pop.P,
            mse=mse,
            mse_se=se,
            theory_mse=tmse,
            ratio=mse / tmse if tmse > 0 else None,
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
    samples ``start..stop-1``. Those rows are sorted, distinct and in range
    by construction, so their statistics skip ``batch_stats``' checks. The
    statistics fill one reduction block at a time, and each full block is
    evaluated and reduced to its partials.
    """
    _pin_heap()
    configs = tuple(configs) if configs is not None else DEFAULT_CONFIGS
    names = [cfg.name for cfg in configs]
    if len(set(names)) != len(names):
        raise InvalidConfig(f"estimator labels must be unique, got {names}")
    pop = compute_population_params(frame)
    f = theory.sampling_fraction(n, frame.size)
    resolved = [resolve_config(cfg, pop, f) for cfg in configs]
    # before the first draw: the theory names a transform it rejects, where
    # the kernels would only fail on every sample
    theory_mses = [theory.FAMILIES[cfg.kind].mse(cfg.params, pop, f) for cfg in resolved]
    exact = seed is None

    rows = max(1, CHUNK_ELEMENTS // n)
    block = np.empty((3, min(REDUCE_SAMPLES, total)))
    partials = np.empty((-(-total // REDUCE_SAMPLES), 3 if exact else 5, len(resolved)))
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        chunk = _stats(frame, draw(start, stop))
        pos = start
        while pos < stop:  # a chunk that straddles block edges fills each block
            first = pos - pos % REDUCE_SAMPLES
            last = min(first + REDUCE_SAMPLES, total)
            end = min(stop, last)
            for row, stat in zip(block, chunk):
                row[pos - first:end - first] = stat[pos - start:end - start]
            if end == last:
                stats = block[:, :last - first]
                values = np.empty((len(resolved), last - first))
                for j, cfg in enumerate(resolved):
                    values[j] = evaluate_batch(cfg, pop, *stats)[0]
                partials[first // REDUCE_SAMPLES] = _partials(values, pop.P, exact)
                del values  # not held through the next chunk's draw
            pos = end

    return SimulationReport(
        n=n, population_size=frame.size, sampling_fraction=f, true_p=pop.P,
        replicates=total, exact=exact, seed=seed, rng=None if exact else RNG_SCHEME,
        rows=tuple(_aggregate(resolved, theory_mses, partials, total, pop, exact)),
    )


def _lex_subsets(N: int, n: int) -> Callable[[int, int], np.ndarray]:
    """``draw(start, stop)``: the n-subsets of ``range(N)`` of lexicographic
    ranks ``start..stop-1``, the order of ``itertools.combinations``, one
    sorted row each. The rows are the transpose of a C-ordered n×R array,
    so each sample position is one contiguous run.

    Lexicographic rank r of subset c is colexicographic rank C(N, n)-1-r of
    the reflected subset N-1-c, which the combinatorial number system
    unranks greedily, largest element first (Knuth, TAOCP 7.2.1.3): that
    gives c in ascending order. The search table is built once: row j-1
    holds C(c, j) for c in j-1 .. j-1+N-n, so n * (N-n+1) entries, each at
    most C(N-1, n) < C(N, n). Needs ``C(N, n) < 2**63``, which
    ``enumerate_exact``'s ``ENUMERATION_LIMIT`` ensures.
    """
    last = math.comb(N, n) - 1
    table = np.zeros((n, N - n + 1), dtype=np.int64)
    table[0] = np.arange(N - n + 1)
    for j in range(2, n + 1):
        # C(j-1+t, j) is the sum of C(k, j-1) over k < j-1+t
        np.cumsum(table[j - 2, 1:], out=table[j - 1, 1:])

    def draw(start: int, stop: int) -> np.ndarray:
        rank = np.arange(last - start, last - stop, -1, dtype=np.int64)
        cols = np.empty((n, stop - start), dtype=np.intp)
        for i in range(n):
            step = table[n - 1 - i]
            k = np.searchsorted(step, rank, side="right") - 1
            rank -= step[k]
            np.subtract(N - n + i, k, out=cols[i])
        return cols.T

    return draw


def enumerate_exact(frame: PopulationFrame, n: int,
                    configs: Sequence[EstimatorConfig] | None = None) -> SimulationReport:
    """Exact expectation and MSE of each estimator over every n-subset.

    Refuses populations with more than ``ENUMERATION_LIMIT`` subsets. Subsets
    where an estimator's precondition fails are tallied per estimator and the
    moments are taken over the remaining subsets.
    """
    theory.sampling_fraction(n, frame.size)
    total = math.comb(frame.size, n)
    if total > ENUMERATION_LIMIT:
        raise TooLarge(f"{total} subsets exceed the enumeration limit {ENUMERATION_LIMIT}")
    return _report(frame, n, configs, total, _lex_subsets(frame.size, n))


def run_experiment(frame: PopulationFrame, n: int,
                   configs: Sequence[EstimatorConfig] | None = None,
                   reps: int = 1000, seed: int = 0) -> SimulationReport:
    """Seeded Monte Carlo over independent SRSWOR replicates.

    The report is bit-identical for a given seed: replicate ``i`` always
    takes the sample ``draw_replicates(frame, n, seed, i, i + 1)`` and the
    final reduction runs in replicate order.
    """
    reps, seed = _integer("reps", reps), _integer("seed", seed)
    if reps < 100:
        raise InvalidConfig(f"need at least 100 replicates, got {reps}")
    if reps > ENUMERATION_LIMIT:
        raise TooLarge(f"{reps} replicates exceed the sample limit {ENUMERATION_LIMIT}")
    theory.sampling_fraction(n, frame.size)
    draw = functools.partial(draw_replicates, frame, n, seed)
    return _report(frame, n, configs, reps, draw, seed)
