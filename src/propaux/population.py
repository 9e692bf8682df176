"""Finite-population data model and the moments the estimator theory consumes.

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
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

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

_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PopulationFrame:
    """The full finite population: parallel arrays of ``phi`` and ``x``."""

    phi: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.int64)
        x = np.asarray(self.x, dtype=np.float64)
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
class PopulationParams:
    """Summary-statistic vector consumed by every closed-form expression."""

    N: int
    P: float
    xbar: float
    sx2: float
    sp2: float
    cp: float
    cx: float
    rho_pb: float
    lambda03: float
    lambda04: float
    lambda12: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if name != "N" and not math.isfinite(value):
                raise SchemaError(f"population parameter {name} must be finite")
        if self.N < 2:
            raise SchemaError("population size must be at least 2")
        if not 0.0 < self.P < 1.0:
            raise DegenerateAttribute(f"proportion must lie strictly in (0, 1), got {self.P}")
        # cx = sqrt(sx2)/xbar carries the sign of the auxiliary mean; the
        # cross-moment identities need the signed value
        if self.sx2 <= 0.0 or self.cx == 0.0:
            raise DegenerateAuxiliary("auxiliary variance must be strictly positive")
        if self.xbar == 0.0:
            raise ZeroMean("auxiliary population mean must be nonzero")
        if self.sp2 <= 0.0 or self.cp <= 0.0:
            raise DegenerateAttribute("attribute variance must be strictly positive")
        if abs(self.rho_pb) > 1.0 + 1e-12:
            raise SchemaError(f"|rho_pb| must not exceed 1, got {self.rho_pb}")
        if self.lambda04 - 1.0 - self.lambda03**2 < -_REL_TOL:
            raise SchemaError(
                "lambda04 >= 1 + lambda03^2 must hold for any real distribution "
                f"(got lambda04={self.lambda04}, lambda03={self.lambda03})"
            )


def check_realizable(p: PopulationParams) -> None:
    """Reject moments that no population has: the correlation matrix of the
    relative deviations of (p, xbar_s, sx2_s) must be positive semidefinite.

    With its auxiliary block positive definite (gap > 0), that holds exactly
    when the block's Schur complement is nonnegative. A singular block
    (gap <= 0) is PSD only when ``d = lambda12 - rho_pb*lambda03`` is zero:
    the direction ``(-d, -lambda03, 1)`` has the quadratic form ``-d^2``.
    Either slack is rejected below ``-_REL_TOL``.
    """
    gap = p.lambda04 - 1.0 - p.lambda03**2
    d = p.lambda12 - p.rho_pb * p.lambda03
    slack = 1.0 - p.rho_pb**2 - d**2 / gap if gap > 0.0 else -d**2
    if slack < -_REL_TOL:
        raise SchemaError("rho_pb, lambda03, lambda04 and lambda12 are not the moments of "
                          "any population: their correlation matrix is not positive "
                          "semidefinite")


@dataclass(frozen=True)
class Design:
    """SRSWOR design: sample size, population size, and the factor f."""

    n: int
    N: int
    f: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "f", sampling_fraction(self.n, self.N))


@dataclass(frozen=True)
class SampleStats:
    """Sufficient statistics of one SRSWOR draw."""

    n: int
    p: float
    xbar_s: float
    sx2_s: float

    def __post_init__(self):
        _check_stats(self.n, np.array([self.p]), np.array([self.sx2_s]))


def _check_stats(n: int, p: np.ndarray, sx2_s: np.ndarray) -> None:
    """The preconditions of ``SampleStats``, over every row of a batch."""
    if n < 2:
        raise InvalidDesign("a sample needs at least 2 units")
    bad = ~((0.0 <= p) & (p <= 1.0))
    if bad.any():
        raise SchemaError(f"sample proportion must lie in [0, 1], got {float(p[bad][0])}")
    a = p * n
    bad = np.abs(a - np.round(a)) > 1e-9
    if bad.any():
        raise SchemaError(f"p*n = {float(a[bad][0])} is not an integer attribute count")
    if not np.all(np.isfinite(sx2_s) & (sx2_s >= 0.0)):
        raise SchemaError("sample auxiliary variance must be finite and nonnegative")


def central_moment(frame: PopulationFrame, r: int, s: int) -> float:
    """Divisor-N bivariate central moment ``mean((phi-P)^r * (x-xbar)^s)``.

    Only orders with ``r + s <= 4`` are meaningful here; higher orders are a
    contract violation.
    """
    if r < 0 or s < 0 or r + s > 4:
        raise ValueError(f"moment order ({r}, {s}) outside the supported range")
    dphi = frame.phi - frame.phi.mean()
    dx = frame.x - frame.x.mean()
    return float(np.mean(dphi**r * dx**s))


def compute_population_params(frame: PopulationFrame) -> PopulationParams:
    """Compute the full summary-statistic vector of a population.

    Raises
    ------
    DegenerateAttribute
        If every unit has (or lacks) the attribute.
    DegenerateAuxiliary
        If the auxiliary variable is constant, or so nearly constant that its
        standardized moments underflow.
    ZeroMean
        If the auxiliary mean is zero.
    """
    N = frame.size
    A = int(frame.phi.sum())
    if A == 0 or A == N:
        raise DegenerateAttribute(f"attribute count {A} of {N} leaves no variation")
    P = A / N
    xbar = float(frame.x.mean())
    mu02 = central_moment(frame, 0, 2)
    # the kurtosis divides by mu02^2, which underflows for a sub-normal spread
    if mu02**2 < sys.float_info.min:
        raise DegenerateAuxiliary("auxiliary variable is constant or too nearly constant "
                                  f"to standardize (variance {mu02})")
    if xbar == 0.0:
        raise ZeroMean("auxiliary mean is zero")
    mu20 = central_moment(frame, 2, 0)
    mu11 = central_moment(frame, 1, 1)
    mu03 = central_moment(frame, 0, 3)
    mu04 = central_moment(frame, 0, 4)
    mu12 = central_moment(frame, 1, 2)
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


def sampling_fraction(n: int, N: int) -> float:
    """Design factor ``f = 1/n - 1/N`` for an SRSWOR sample of n from N."""
    if not (isinstance(n, (int, np.integer)) and isinstance(N, (int, np.integer))):
        raise InvalidDesign(f"sample and population sizes must be integers, got {n!r}, {N!r}")
    if not 2 <= n <= N:
        raise InvalidDesign(f"need 2 <= n <= N, got n={n}, N={N}")
    return 1.0 / n - 1.0 / N


def batch_stats(frame: PopulationFrame,
                indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sufficient statistics ``(p, xbar_s, sx2_s)`` of every row of an R×n
    index matrix, one sample per row.

    Indices must be integer-valued, distinct within a row and in range; order
    within a row is irrelevant. Every row must satisfy the ``SampleStats``
    preconditions.
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
    idx = idx.astype(np.intp, copy=False)
    n = idx.shape[1]
    xs = frame.x[idx]
    p = frame.phi[idx].mean(axis=1)
    sx2_s = xs.var(axis=1, ddof=1)
    _check_stats(n, p, sx2_s)
    return p, xs.mean(axis=1), sx2_s


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
