"""Population frames, samples, and the moments the estimator theory consumes.

A population is a list of records ``(phi, x)`` where ``phi`` is a binary
attribute (the study variable) and ``x`` a quantitative auxiliary variable.
Conventions used throughout:

- ``P = A/N`` is the population proportion with the attribute and
  ``p = a/n`` its sample counterpart.
- Variances ``sp2``, ``sx2`` (population) and ``sx2_s`` (sample) use the
  survey-sampling divisor ``N-1`` (resp. ``n-1``), under which the usual
  estimator's variance identity ``Var(p) = (1/n - 1/N) * sp2`` is exact.
- The standardized moment ratios use divisor-``N`` central moments
  ``mu_rs = mean((phi-P)^r * (x-xbar)^s)``:
  ``rho_pb = mu_11 / sqrt(mu_20*mu_02)`` (point-biserial correlation),
  ``lambda03 = mu_03 / mu_02^1.5`` (auxiliary skewness),
  ``lambda04 = mu_04 / mu_02^2`` (auxiliary kurtosis), and
  ``lambda12 = mu_12 / (sqrt(mu_20) * mu_02)``.

All values are immutable after construction and safe to share across threads.
``PopulationParams`` and ``Design``, which hold no arrays, live in ``theory``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAttribute,
    DegenerateAuxiliary,
    DuplicateIndex,
    IndexOutOfRange,
    InvalidDesign,
    SchemaError,
    ZeroMean,
)
# the numpy-free half of the data model, re-exported here
from .theory import Design, PopulationParams, check_realizable, sampling_fraction  # noqa: F401


@dataclass(frozen=True, eq=False)
class PopulationFrame:
    """The full finite population: parallel arrays of ``phi`` and ``x``.

    The frame keeps read-only, C-contiguous copies of what it is given, so
    later writes to the caller's arrays do not reach it and the caller's own
    arrays stay writable.
    """

    phi: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=np.int64, order="C")
        x = np.array(self.x, dtype=np.float64, order="C")
        if phi.ndim != 1 or x.ndim != 1 or phi.shape != x.shape:
            raise SchemaError("phi and x must be one-dimensional and equally long")
        if phi.size < 2:
            raise SchemaError("a population needs at least 2 units")
        if not np.all((phi == 0) | (phi == 1)):
            raise SchemaError("every attribute value must be exactly 0 or 1")
        if not np.all(np.isfinite(x)):
            raise SchemaError("every auxiliary value must be finite")
        phi.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "x", x)

    @property
    def size(self) -> int:
        return int(self.phi.size)

    def records(self) -> list[tuple[int, float]]:
        return [(int(a), float(b)) for a, b in zip(self.phi, self.x)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PopulationFrame):
            return NotImplemented
        return np.array_equal(self.phi, other.phi) and np.array_equal(self.x, other.x)


@dataclass(frozen=True)
class SampleStats:
    """Sufficient statistics of one SRSWOR draw."""

    n: int
    p: float
    xbar_s: float
    sx2_s: float

    def __post_init__(self):
        if self.n < 2:
            raise InvalidDesign("a sample needs at least 2 units")
        if not 0.0 <= self.p <= 1.0:
            raise SchemaError(f"sample proportion must lie in [0, 1], got {float(self.p)}")
        a = self.p * self.n
        if abs(a - np.round(a)) > 1e-9:
            raise SchemaError(f"p*n = {float(a)} is not an integer attribute count")
        _check_variance(np.array([self.sx2_s]))


def _check_variance(sx2_s: np.ndarray) -> None:
    """Every sample variance of a batch is finite and nonnegative: an
    overflowed squared deviation makes one ``inf``."""
    if not np.all(np.isfinite(sx2_s) & (sx2_s >= 0.0)):
        raise SchemaError("sample auxiliary variance must be finite and nonnegative")


def compute_population_params(frame: PopulationFrame) -> PopulationParams:
    """Compute the full summary-statistic vector of a population.

    One pass forms the deviations and takes the six moments as means of
    their IEEE products (``dx*dx``, ``(dx*dx)*dx``, ...), never of numpy's
    vectorized ``power``, whose bits vary with the SIMD target.

    Raises
    ------
    DegenerateAttribute
        If every unit has (or lacks) the attribute.
    DegenerateAuxiliary
        If the auxiliary variable is constant, so nearly constant that its
        standardized moments underflow, or so spread that they overflow.
    ZeroMean
        If the auxiliary mean is zero.
    """
    N = frame.size
    A = int(frame.phi.sum())
    if A == 0 or A == N:
        raise DegenerateAttribute(f"attribute count {A} of {N} leaves no variation")
    P = A / N
    # an overflow is reported below as a data error, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        xbar = float(frame.x.mean())
        dphi = frame.phi - P
        dx = frame.x - xbar
        dx2 = dx * dx
        mu02 = float(np.mean(dx2))
        mu04 = float(np.mean(dx2 * dx2))
    # the kurtosis divides by mu02^2 and mu04 holds dx^4: both overflow for
    # too wide a spread, and mu02^2 underflows for a sub-normal one
    if not math.isfinite(mu04) or math.isinf(mu02 * mu02):
        raise DegenerateAuxiliary("auxiliary variable is too spread to standardize "
                                  f"(variance {mu02})")
    if mu02**2 < sys.float_info.min:
        raise DegenerateAuxiliary("auxiliary variable is constant or too nearly constant "
                                  f"to standardize (variance {mu02})")
    if xbar == 0.0:
        raise ZeroMean("auxiliary mean is zero")
    mu20 = float(np.mean(dphi * dphi))
    mu11 = float(np.mean(dphi * dx))
    mu03 = float(np.mean(dx2 * dx))
    mu12 = float(np.mean(dphi * dx2))
    sx2 = mu02 * N / (N - 1)
    sp2 = mu20 * N / (N - 1)
    return PopulationParams(
        N=N,
        P=P,
        xbar=xbar,
        sx2=sx2,
        sp2=sp2,
        cp=math.sqrt(sp2) / P,
        cx=math.sqrt(sx2) / xbar,
        rho_pb=mu11 / math.sqrt(mu20 * mu02),
        lambda03=mu03 / mu02**1.5,
        lambda04=mu04 / mu02**2,
        lambda12=mu12 / (math.sqrt(mu20) * mu02),
    )


def batch_stats(frame: PopulationFrame,
                indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sufficient statistics ``(p, xbar_s, sx2_s)`` of every row of an R×n
    index matrix, one sample per row.

    Indices must be integer-valued, distinct within a row and in range; order
    within a row is irrelevant. Every row must satisfy the ``SampleStats``
    preconditions. These checks are for a caller's indices: the oracles call
    ``_stats`` on their own draws, which are valid by construction.
    """
    idx = np.asarray(indices)
    if idx.ndim != 2 or idx.shape[1] < 2:
        raise InvalidDesign("a sample needs at least 2 distinct indices")
    if idx.dtype.kind == "f":
        if not np.all(np.isfinite(idx) & (idx == np.floor(idx))):
            raise SchemaError("sample indices must be integers")
    elif idx.dtype.kind not in "iu":
        raise SchemaError(f"sample indices must be integers, got dtype {idx.dtype}")
    if (np.diff(np.sort(idx, axis=1), axis=1) == 0).any():
        raise DuplicateIndex("sample indices must be distinct")
    if idx.size and (idx.min() < 0 or idx.max() >= frame.size):
        raise IndexOutOfRange(
            f"indices must lie in [0, {frame.size - 1}], got range "
            f"[{idx.min()}, {idx.max()}]"
        )
    return _stats(frame, idx)


def _stats(frame: PopulationFrame,
           idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``batch_stats`` of an index matrix of at least two columns whose rows
    are distinct and in range, without checking it.

    The statistics have the bits of numpy's ``mean`` and ``var`` of each
    C-ordered row in any memory layout of ``idx``. numpy sums a row of
    fewer than 8 terms left to right, the order it takes along the rows of a
    column-major batch too, so exact enumeration's column-major chunks of
    short samples keep their layout; a batch of longer samples is made
    C-ordered first, where numpy sums it pairwise.
    """
    idx = idx.astype(np.intp, copy=False)
    n = idx.shape[1]
    if n >= 8:  # numpy's sum order of 8 or more terms follows the layout
        idx = np.ascontiguousarray(idx)
    # an integer count of 0/1 values is exact in any order, so p has the bits
    # of the float mean; the variance takes np.var's steps, reusing the mean
    p = frame.phi[idx].sum(axis=1) / n
    xs = frame.x[idx]
    with np.errstate(over="ignore", invalid="ignore"):  # _check_variance reports it
        xbar_s = xs.mean(axis=1)
        xs -= xbar_s[:, None]
        xs *= xs
        sx2_s = xs.sum(axis=1) / (n - 1)
    _check_variance(sx2_s)
    return p, xbar_s, sx2_s


def sample_stats(frame: PopulationFrame, indices: Sequence[int]) -> SampleStats:
    """Sufficient statistics of the sample addressed by ``indices``.

    Indices must be integer-valued, distinct and in range; order is
    irrelevant.
    """
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise InvalidDesign("a sample needs at least 2 distinct indices")
    p, xbar_s, sx2_s = batch_stats(frame, idx[np.newaxis, :])
    return SampleStats(n=int(idx.size), p=float(p[0]), xbar_s=float(xbar_s[0]),
                       sx2_s=float(sx2_s[0]))
