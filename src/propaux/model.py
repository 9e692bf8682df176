"""The population summary and the SRSWOR design, in plain Python.

``PopulationParams`` is the summary-statistic vector that every closed-form
expression consumes, and ``Design`` the sample and population sizes with
their factor ``f = 1/n - 1/N``. Both are immutable. The conventions of the
moments are those of ``population``, which computes them from a frame.

Nothing here imports numpy, so the table commands (``theory``, ``pre``,
``sensitivity``), which need only these types and float arithmetic, start
without it.

Both are ``NamedTuple``s whose checks sit in ``__new__`` on a thin subclass:
namedtuple's own ``_make`` and ``_replace`` build with ``tuple.__new__``, so
each class routes ``_make``, and with it ``_replace``, through its
constructor. Every way of making one is checked.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import NamedTuple

from .errors import (
    DegenerateAttribute,
    DegenerateAuxiliary,
    InvalidDesign,
    SchemaError,
    ZeroMean,
)

_REL_TOL = 1e-9


class _PopulationFields(NamedTuple):
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


class PopulationParams(_PopulationFields):
    """Summary-statistic vector consumed by every closed-form expression."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(cls._fields[1:], self[1:]):
            if not math.isfinite(value):
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
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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


class _DesignFields(NamedTuple):
    n: int
    N: int
    f: float


class Design(_DesignFields):
    """SRSWOR design: sample size, population size, and the factor f, which
    the constructor derives from them. ``_make`` and ``_replace`` derive it
    again and do not read a given f."""

    __slots__ = ()

    def __new__(cls, n: int, N: int):
        return super().__new__(cls, n, N, sampling_fraction(n, N))

    @classmethod
    def _make(cls, iterable):
        n, N, _ = iterable
        return cls(n, N)

    def __getnewargs__(self):  # copy and pickle call the constructor
        return self[:2]


def sampling_fraction(n: int, N: int) -> float:
    """Design factor ``f = 1/n - 1/N`` for an SRSWOR sample of n from N.

    Any ``Integral`` size is accepted, numpy's integer scalars included.
    """
    if not (isinstance(n, Integral) and isinstance(N, Integral)):
        raise InvalidDesign(f"sample and population sizes must be integers, got {n!r}, {N!r}")
    if not 2 <= n <= N:
        raise InvalidDesign(f"need 2 <= n <= N, got n={n}, N={N}")
    return 1.0 / n - 1.0 / N
