"""First-order bias/MSE theory, optimal constants, efficiency, and conditioning.

Every expression here is a first-order Taylor approximation in the relative
deviations of (p, xbar_s, sx2_s) around their population values (the delta
method; Cochran, *Sampling Techniques*, 1977, ch. 6-7). Their second moments
form one 3x3 matrix, Sigma = f*C with ``f = 1/n - 1/N`` and

        | cp^2            rho_pb*cp*cx    cp*lambda12  |
    C = | rho_pb*cp*cx    cx^2            cx*lambda03  |
        | cp*lambda12     cx*lambda03     lambda04 - 1 |

C is the single source of every moment below. The MSEs of ``ta``, ``tb``,
``t1`` and ``t2`` are quadratic forms in it; the optima of ``tb``, ``t1`` and
``t2`` regress the proportion channel on its auxiliary block, and the shared
``t1``/``t2`` minimum is the Schur complement of that block; ``ta`` is ``t1``
at (alpha, beta) = (1, 0), and ``tb`` is ``t2`` at h2 = 0. The ``tc`` and
``t3`` constants are the moments of their two channels, read from C as plain
tuples, and share one two-weight system.

``FAMILIES`` is the registry of estimator kinds and the theory API: each
kind's parameter class, report name, and its ``mse``, ``min_mse``,
``optimum`` and ``bias``, each called as ``(cfg, pop, f)``, and each one flat
function of the kind's terms: C, or the tuple its ``terms`` reads off C.
``Family.bind`` binds a table row to ``(cfg, pop, f)`` once, forming all
that reads no C; a report, the comparison conditions and each point of a
sensitivity scan then form C once and pass it to every bound row. Every MSE
that evaluates materially negative raises ``NegativeMse``, except
``FAMILIES["tc"].mse`` at given weights, which returns its value unchecked.

Every record here is a ``NamedTuple``, as are the configurations, so that
importing the module loads no ``dataclasses``. ``PopulationParams`` and
``Design`` keep their checks in ``__new__`` on a thin subclass and route
``_make``, and with it ``_replace``, through the constructor (namedtuple's own
build with ``tuple.__new__``): every way of making one is checked.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from operator import add
from typing import Callable, NamedTuple

from .config import T1Config, T2Config, T3Config, TableConfig, TbConfig, TcConfig
from .errors import (
    DataError,
    DegenerateAttribute,
    DegenerateAuxiliary,
    DegenerateMoments,
    InvalidConfig,
    InvalidDesign,
    NegativeMse,
    NonpositiveMse,
    NonpositiveTransform,
    NumericalError,
    SchemaError,
    SingularSystem,
    ToolkitError,
    ZeroMean,
    overflow_message,
)

_SINGULAR_RTOL = 1e-12
_MSE_NEG_RTOL = 1e-12


def _check_mse(value: float, scale: float, what: str) -> float:
    """Clamp roundoff-negative MSE to zero; reject materially negative ones."""
    if value < -_MSE_NEG_RTOL * max(scale, 1e-300):
        raise NegativeMse(f"{what} evaluated negative ({value}); the first-order "
                          "expansion is invalid for these parameters")
    return max(value, 0.0)


# --- the population summary, the design and the moment matrix -------------------

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
        _check_fields(*self)
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _check_fields(N, P, xbar, sx2, sp2, cp, cx, rho_pb, lambda03, lambda04, lambda12) -> None:
    """The rules of every ``PopulationParams``, and of every point a
    sensitivity scan moves it to, in their order."""
    values = (P, xbar, sx2, sp2, cp, cx, rho_pb, lambda03, lambda04, lambda12)
    if not all(map(math.isfinite, values)):
        name = next(name for name, value in zip(_PopulationFields._fields[1:], values)
                    if not math.isfinite(value))
        raise SchemaError(f"population parameter {name} must be finite")
    if N < 2:
        raise SchemaError("population size must be at least 2")
    if not 0.0 < P < 1.0:
        raise DegenerateAttribute(f"proportion must lie strictly in (0, 1), got {P}")
    # cx = sqrt(sx2)/xbar carries the sign of the auxiliary mean; the
    # cross-moment identities need the signed value
    if sx2 <= 0.0 or cx == 0.0:
        raise DegenerateAuxiliary("auxiliary variance must be strictly positive")
    if xbar == 0.0:
        raise ZeroMean("auxiliary population mean must be nonzero")
    if sp2 <= 0.0 or cp <= 0.0:
        raise DegenerateAttribute("attribute variance must be strictly positive")
    if abs(rho_pb) > 1.0 + 1e-12:
        raise SchemaError(f"|rho_pb| must not exceed 1, got {rho_pb}")
    if lambda04 - 1.0 - lambda03**2 < -_REL_TOL:
        raise SchemaError(
            "lambda04 >= 1 + lambda03^2 must hold for any real distribution "
            f"(got lambda04={lambda04}, lambda03={lambda03})"
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
    if not (isinstance(n, numbers.Integral) and isinstance(N, numbers.Integral)):
        raise InvalidDesign(f"sample and population sizes must be integers, got {n!r}, {N!r}")
    if not 2 <= n <= N:
        raise InvalidDesign(f"need 2 <= n <= N, got n={n}, N={N}")
    return 1.0 / n - 1.0 / N


def _matrix(cp, cx, rho_pb, lambda03, lambda04, lambda12) -> tuple[float, ...]:
    """The upper triangle ``(c00, c01, c02, c11, c12, c22)`` of C = Sigma/f."""
    return (cp**2, rho_pb * cp * cx, cp * lambda12, cx**2, cx * lambda03, lambda04 - 1.0)


def _moments(pop: PopulationParams) -> tuple[float, float, float, float, float, float]:
    return _matrix(*pop[5:])  # cp, cx, rho_pb, lambda03, lambda04, lambda12


def _form(c: tuple[float, ...], w0: float, w1: float, w2: float) -> float:
    """The quadratic form w'Cw at w = (w0, w1, w2)."""
    c00, c01, c02, c11, c12, c22 = c
    return (w0 * w0 * c00 + w1 * w1 * c11 + w2 * w2 * c22
            + 2.0 * (w0 * w1 * c01 + w0 * w2 * c02 + w1 * w2 * c12))


def _regression(c: tuple[float, ...]) -> tuple[float, float]:
    """Coefficients ``(alpha, beta)`` of the proportion channel regressed on the
    auxiliary block of C. They are the optimal ``t1`` exponents,

        alpha* = cp*(rho*(lambda04-1) - lambda03*lambda12) / (cx*gap),
        beta*  = cp*(lambda12 - rho*lambda03) / gap,

    with gap = (lambda04-1) - lambda03^2; the optimal ``t2`` offsets are -P
    times them, so the two families share one minimum."""
    _, c01, c02, c11, c12, c22 = c
    det = c11 * c22 - c12**2
    if det <= 0.0:
        raise DegenerateMoments(
            f"(lambda04 - 1) - lambda03^2 must be positive, got {det / c11}"
        )
    return (c22 * c01 - c12 * c02) / det, (c11 * c02 - c12 * c01) / det


def var_usual(pop: PopulationParams, f: float) -> float:
    """First-order (here: exact) variance of the sample proportion, f*P^2*cp^2."""
    return f * pop.P**2 * pop.cp**2


# --- the forms in C: t1 (alpha, beta) and ta at (1, 0); t2 (h1, h2) and tb at h2 = 0
# (each takes the moment tuple c; f*P^2*c00 is var_usual). ``_power_at`` and the
# ``_*_least`` take (cfg, pop, f) and return an MSE as a function of C, f*P^2 formed once.


def _power_at(cfg, pop: PopulationParams, f: float) -> Callable[[tuple], float]:
    """First-order MSE of the power-transform estimator, f*P^2*w'Cw at
    w = (1, -alpha, -beta), as a function of C."""
    scale, w1, w2 = f * pop.P**2, -cfg.alpha, -cfg.beta
    return lambda c: _check_mse(scale * _form(c, 1.0, w1, w2), scale * c[0],
                                "power-transform MSE")


def _power_bias(cfg, pop: PopulationParams, f: float, c=None) -> float:
    """First-order bias of the power-transform estimator at given exponents."""
    alpha, beta = cfg.alpha, cfg.beta
    _, c01, c02, c11, c12, c22 = c or _moments(pop)
    return f * pop.P * (
        alpha * (alpha + 1.0) / 2.0 * c11
        + beta * (beta + 1.0) / 2.0 * c22
        + alpha * beta * c12
        - alpha * c01
        - beta * c02
    )


def _schur_least(cfg, pop: PopulationParams, f: float) -> Callable[[tuple], float]:
    """Minimum MSE of ``t1`` and ``t2``,
    f*P^2*cp^2*(1 - rho^2 - (lambda03*rho - lambda12)^2/gap):
    f*P^2 times the Schur complement of the auxiliary block of C."""
    scale = f * pop.P**2

    def least(c):
        alpha, beta = _regression(c)
        return _check_mse(scale * (c[0] - (alpha * c[1] + beta * c[2])), scale * c[0],
                          "power-transform minimum MSE")
    return least


def _linear_mse(cfg, pop: PopulationParams, f: float, c=None) -> float:
    """MSE of the two-channel linear member, f*w'Cw at w = (P, h1, h2)."""
    c, P = c or _moments(pop), pop.P
    return _check_mse(f * _form(c, P, cfg.h1, cfg.h2), f * P**2 * c[0],
                      "two-channel linear MSE")


def _tb_optimum(cfg, pop: PopulationParams, f: float, c=None) -> tuple[float]:
    """Optimal slope of the linear regression-type member, -P*rho_pb*cp/cx."""
    c = c or _moments(pop)
    return (-pop.P * c[1] / c[3],)


def _tb_least(cfg, pop: PopulationParams, f: float) -> Callable[[tuple], float]:
    """Class minimum MSE over mean-only transforms, f*P^2*cp^2*(1 - rho_pb^2)."""
    scale = f * pop.P**2
    return lambda c: _check_mse(scale * (c[0] - c[1] / c[3] * c[1]), scale * c[0],
                                "regression-class minimum MSE")


# --- the two-weight system of tc (q1, q2) and t3 (m1, m2) ---------------------------
# w1*Y1 + w2*Y2 has mse = scale*(const + w'Aw - 2*b'w), A = [[a11, a12], [a12, a22]],
# b = (b1, b2): scale*A holds the channels' second moments and scale*b is P times
# their means, so the bias is -gap*scale/P with gap = const - b'w. The terms begin
# with (a11, a12, a22, b1, b2); the shape (relative, pair, family) names the weights
# and family in errors. Relative to P^2: scale = P^2 and const = 1; otherwise
# scale = 1 and const = P^2.

_TC = (False, "(q1, q2)", "family")
_T3 = (True, "(m1, m2)", "two-term family")


def _det(a11: float, a12: float, a22: float, pair: str) -> float:
    """det A; a singular A has no stationary pair."""
    det = a11 * a22 - a12**2
    if abs(det) <= _SINGULAR_RTOL * max(abs(a11 * a22), a12**2, 1e-300):
        raise SingularSystem(f"the {pair} optimality system is singular "
                             "(the two channels are indistinguishable)")
    return det


def _pair_mse(t: tuple[float, ...], P: float, shape: tuple, w1: float, w2: float) -> float:
    """The MSE at an arbitrary weight pair."""
    a11, a12, a22, b1, b2 = t[:5]
    scale, const = (P**2, 1.0) if shape[0] else (1.0, P**2)
    return scale * (const + w1**2 * a11 + w2**2 * a22 + 2.0 * w1 * w2 * a12
                    - 2.0 * w1 * b1 - 2.0 * w2 * b2)


def _pair_bias(t: tuple[float, ...], P: float, shape: tuple, w1: float, w2: float) -> float:
    """The bias at an arbitrary weight pair."""
    b1, b2 = t[3:5]
    gap = (1.0 if shape[0] else P**2) - w1 * b1 - w2 * b2
    return -P * gap if shape[0] else -gap / P


def _pair_optimum(t: tuple[float, ...], shape: tuple) -> tuple[float, float]:
    """The stationary weight pair A^-1 b, where the gradient vanishes."""
    a11, a12, a22, b1, b2 = t[:5]
    det = _det(a11, a12, a22, shape[1])
    return (b1 * a22 - a12 * b2) / det, (a11 * b2 - b1 * a12) / det


def _pair_min_mse(t: tuple[float, ...], P: float, shape: tuple) -> float:
    """The minimum MSE, scale*(const - b'A^-1 b), of a positive definite A."""
    relative, pair, family = shape
    a11, a12, a22, b1, b2 = t[:5]
    det = _det(a11, a12, a22, pair)
    if det < 0.0:
        raise SingularSystem(f"the {pair} quadratic form is indefinite")
    scale, const = (P**2, 1.0) if relative else (1.0, P**2)
    value = scale * (const - (b1**2 * a22 - 2.0 * b1 * a12 * b2 + a11 * b2**2) / det)
    if value < 0.0:
        raise NegativeMse(f"{family} minimum MSE evaluated negative ({value})")
    return value


def _tc_terms(cfg: TcConfig, pop: PopulationParams, f: float) -> Callable[[tuple], tuple]:
    """The terms of the weighted ratio/exponential transform family at the
    transform ((a*X+b)/(a*x+b))^alpha * exp-tilt^beta that ``cfg`` picks (its
    weights are not read), as a function of C: ``(d1, d2, d3, d4, d5, theta,
    bc, ac)``. The transform is checked, and every product that reads no C is
    formed, here.

    ``theta`` locates the transform, and ``bc``/``ac`` are its first/second-order
    expansion coefficients: the transform is R = 1 - bc*e1 + ac*e1^2 in the
    relative deviation e1 of the sample mean. The estimator is q1*Y1 + q2*Y2
    with the channels Y1 = p*R and Y2 = (X - xbar)*R, and ``d1..d5`` are their
    moments: d1 = E[Y1^2], d2 = E[Y1*Y2], d3 = E[Y2^2], d4 = P*E[Y1] and
    d5 = P*E[Y2], so that

        mse(q1, q2) = P^2 + q1^2*d1 + q2^2*d3 + 2*q1*q2*d2 - 2*q1*d4 - 2*q2*d5.
    """
    a, b, alpha, beta = cfg.a, cfg.b, cfg.alpha, cfg.beta
    P, X = pop.P, pop.xbar
    base = a * X + b
    if not 0.0 < base < math.inf:
        raise NonpositiveTransform(f"a*xbar + b must be positive and finite, got {base}")
    theta = a * X / base
    bc = theta * (alpha + beta / 2.0)
    ac = theta**2 * (alpha * (alpha + 1.0) / 2.0 + alpha * beta / 2.0
                     + beta**2 / 8.0 + beta / 4.0)
    P2, bc4, bc2, bc2ac = P**2, 4.0 * bc, 2.0 * bc, bc**2 + 2.0 * ac
    PXf, X2f = P * X * f, X**2 * f
    PXfbc = PXf * bc

    def terms(c):
        cp2, rcx, _, cx2, _, _ = c
        return (P2 * (1.0 + f * (cp2 - bc4 * rcx + bc2ac * cx2)),
                PXf * (bc2 * cx2 - rcx),
                X2f * cx2,
                P2 * (1.0 + f * (ac * cx2 - bc * rcx)),
                PXfbc * cx2,
                theta, bc, ac)
    return terms


def _t3_terms(cfg: T3Config, pop: PopulationParams, f: float) -> Callable[[tuple], tuple]:
    """The terms ``(a, d, c, b, e)`` of the two-term weighted family at the
    switches (gamma, g, delta) of ``cfg`` (its weights are not read), as a
    function of C; every product of the switches and f is formed here.

    ``a`` and ``c`` are the second moments of the ratio and exponential
    channels, ``d`` their cross moment, ``b`` and ``e`` the channel means:

        mse(m1, m2) = P^2 * (1 + m1^2*a + m2^2*c + 2*m1*m2*d - 2*m1*b - 2*m2*e).

    Each channel mean pairs with the moments of its own deviation channel:
    ``b`` with the mean channel (rho_pb*cp*cx, cx^2), ``e`` with the variance
    channel (cp*lambda12, lambda04 - 1).
    """
    gamma, g, delta = cfg.gamma, cfg.g, cfg.delta
    a1, a2 = 4.0 * gamma * g, gamma**2 * g * (2.0 * g + 1.0)
    b1, d5 = gamma * g * f, g * (g + 1.0) / 2.0 * gamma**2
    c1, c2 = 2.0 * delta, delta**2 + delta * (delta + 2.0)
    d2, d3, d4 = delta * (delta + 2.0) / 8.0, 2.0 * gamma * g, gamma * delta * g / 2.0
    b2, e1, e2 = d5 * f, delta / 2.0 * f, d2 * f

    def terms(c):
        cp2, rcx, cl12, cx2, cl03, l4m1 = c
        return (1.0 + f * (cp2 - a1 * rcx + a2 * cx2),
                1.0 + f * (cp2 - delta * cl12 + d2 * l4m1 - d3 * rcx + d4 * cl03 + d5 * cx2),
                1.0 + f * (cp2 - c1 * cl12 + c2 * l4m1 / 4.0),
                1.0 - b1 * rcx + b2 * cx2,
                1.0 - e1 * cl12 + e2 * l4m1)
    return terms


# --- the per-family table ----------------------------------------------------------


class Family(NamedTuple):
    """One estimator kind: its configuration class ``params`` (None for
    ``usual`` and ``ta``), its report name ``label`` where that is not the
    kind, and its first-order theory. ``mse`` at the constants ``cfg`` holds,
    ``min_mse`` at the optimum, ``bias``, and the ``optimum`` of
    ``constants`` (the fields of ``params`` that default to None) are
    functions of ``(cfg, pop, f, t=None)`` with terms t: C itself, or the
    tuple ``terms(cfg, pop, f)(c)`` reads off C. ``least(cfg, pop, f)`` is the
    minimum as a function of t.

    ``census`` holds the limits of ``constants`` under a census design
    (f = 0), where a family whose weight system is then singular (there is no
    auxiliary contrast to weigh) has no optimum; both limits reproduce the
    sample proportion exactly. An efficiency table reports ``bias`` and
    ``shown`` at the resolved configuration, quoting ``formulas`` (see
    ``table_formulas``), or ``census_formulas`` for a census row of a family
    with census limits.
    """

    mse: Callable[..., float]
    least: Callable[..., Callable[[tuple], float]]
    params: type | None = None
    label: str | None = None
    optimum: Callable[..., tuple[float, ...]] = lambda cfg, pop, f, t=None: ()
    census: tuple[float, ...] = ()
    bias: Callable[..., float] = lambda cfg, pop, f, t=None: 0.0
    shown: Callable[..., dict[str, float]] = (
        lambda cfg, t: {} if cfg is None else cfg._asdict())
    terms: Callable[..., Callable[[tuple], tuple]] = lambda cfg, pop, f: _same
    formulas: dict[str, str] = {}
    fixed_formulas: dict[str, str] = {}
    census_formulas: dict[str, str] = {}

    @property
    def constants(self) -> tuple[str, ...]:
        return _none_defaults(self.params)

    def min_mse(self, cfg, pop: PopulationParams, f: float, t=None) -> float:
        """The MSE with every constant of ``constants`` at its optimum."""
        least = self.least(cfg, pop, f)
        return least(t or self.terms(cfg, pop, f)(_moments(pop)))

    def resolve(self, cfg, pop: PopulationParams, f: float, t=None):
        """``cfg`` with every ``None`` constant replaced by its optimum, or by
        its census limit when f = 0. The terms t are read either way, so a
        census rejects what they reject (``tc``'s transform) as any design does."""
        given = [getattr(cfg, name) for name in self.constants]
        if None not in given:
            return cfg
        t = t or self.terms(cfg, pop, f)(_moments(pop))
        best = self.census if f == 0.0 and self.census else self.optimum(cfg, pop, f, t)
        return cfg._replace(**{name: limit if value is None else value
                               for name, value, limit in zip(self.constants, given, best)})

    def _free(self, cfg) -> bool:
        return all(getattr(cfg, name) is None for name in self.constants)

    def bind(self, cfg, pop: PopulationParams, f: float) -> tuple[Callable, Callable]:
        """The efficiency-table row of ``cfg``, bound to ``(pop, f)``: the pair
        ``(terms, mse)``, where ``terms(c)`` reads the row's terms off the
        moment tuple c and ``mse(terms(c))`` is the MSE the table reports
        there: the minimum when every constant is free, else the MSE at the
        given constants (the free ones at their optimum). Whatever reads no C
        is formed here, once."""
        terms = self.terms(cfg, pop, f)
        if self._free(cfg):
            return terms, self.least(cfg, pop, f)
        mse, resolve = self.mse, self.resolve
        return terms, lambda t: mse(resolve(cfg, pop, f, t), pop, f, t)

    def table_formulas(self, cfg) -> dict[str, str]:
        """The formulas a table row for ``cfg`` quotes: ``formulas``, updated
        by ``fixed_formulas`` when ``bind`` reports the MSE at given
        constants."""
        return self.formulas if self._free(cfg) else {**self.formulas, **self.fixed_formulas}


@functools.cache
def _none_defaults(params: type | None) -> tuple[str, ...]:
    """The fields of a parameter class that default to None, in field order."""
    defaults = {} if params is None else params._field_defaults
    return tuple(name for name, value in defaults.items() if value is None)


def _pair_least(shape: tuple) -> Callable[..., Callable[[tuple], float]]:
    """The ``least`` of a two-weight family of this shape."""
    return lambda cfg, pop, f: lambda t, P=pop.P: _pair_min_mse(t, P, shape)


_RATIO = T1Config(alpha=1.0, beta=0.0)  # the ratio estimate ta is t1 at (1, 0)
_UNBIASED_LINEAR = "0 (linear member is first-order unbiased)"
_same = lambda c: c  # the terms of a form in C
_usual = lambda cfg, pop, f, t=None: var_usual(pop, f)
_usual_least = lambda cfg, pop, f: lambda c, scale=f * pop.P**2: scale * c[0]
_power_mse = lambda cfg, pop, f, c=None: _power_at(cfg, pop, f)(c or _moments(pop))
_ratio = lambda cfg, pop, f, c=None: _power_mse(_RATIO, pop, f, c)
_tc = lambda cfg, pop, f, t: t or _tc_terms(cfg, pop, f)(_moments(pop))
_t3 = lambda cfg, pop, f, t: t or _t3_terms(cfg, pop, f)(_moments(pop))

FAMILIES: dict[str, Family] = {
    "usual": Family(_usual, _usual_least, label="p",
                    formulas={"mse": "var_usual: f*P^2*cp^2",
                              "bias": "0 (exactly unbiased)"}),
    "ta": Family(_ratio, lambda cfg, pop, f: _power_at(_RATIO, pop, f),
                 bias=lambda cfg, pop, f, c=None: _power_bias(_RATIO, pop, f, c),
                 formulas={"mse": "mse_ta: f*P^2*(cp^2+cx^2-2*rho_pb*cp*cx)",
                           "bias": "bias_ta: f*P*(cx^2-rho_pb*cp*cx)"}),
    "tb": Family(lambda cfg, pop, f, c=None: _linear_mse(T2Config(h1=cfg.h1, h2=0.0), pop, f, c),
                 _tb_least, TbConfig, optimum=_tb_optimum,
                 formulas={"mse": "min_mse_tb: f*P^2*cp^2*(1-rho_pb^2)",
                           "bias": _UNBIASED_LINEAR}),
    "tc": Family(lambda cfg, pop, f, t=None: _pair_mse(_tc(cfg, pop, f, t), pop.P, _TC,
                                                        cfg.q1, cfg.q2),
                 _pair_least(_TC), TcConfig, census=(1.0, 0.0), terms=_tc_terms,
                 optimum=lambda cfg, pop, f, t=None: _pair_optimum(_tc(cfg, pop, f, t), _TC),
                 bias=lambda cfg, pop, f, t=None: _pair_bias(_tc(cfg, pop, f, t), pop.P, _TC,
                                                             cfg.q1, cfg.q2),
                 shown=lambda cfg, t: {"q1": cfg.q1, "q2": cfg.q2,
                                       "theta": t[5], "bc": t[6], "ac": t[7]},
                 formulas={"mse": "tc_min_mse: P^2-(d1*d5^2+d3*d4^2-2*d2*d4*d5)/(d1*d3-d2^2)",
                           "bias": "tc_bias: P*(q1-1)+f*((q2*X*bc+q1*P*ac)*cx^2"
                                   "-q1*P*bc*rho_pb*cp*cx)"},
                 # the one family whose table weights can be fixed (--tc)
                 fixed_formulas={"mse": "tc_mse: P^2+q1^2*d1+q2^2*d3+2*q1*q2*d2"
                                        "-2*q1*d4-2*q2*d5"},
                 census_formulas={"mse": "census: f=0 collapses every first-order MSE",
                                  "bias": "census"}),
    "t1": Family(_power_mse, _schur_least, T1Config, bias=_power_bias,
                 optimum=lambda cfg, pop, f, c=None: _regression(c or _moments(pop)),
                 formulas={"mse": "t1_min_mse: f*P^2*cp^2*(1-rho^2-(lambda03*rho-lambda12)^2/gap)",
                           "bias": "t1_bias at the optimal exponents"}),
    "t2": Family(_linear_mse, _schur_least, T2Config,
                 optimum=lambda cfg, pop, f, c=None: tuple(
                     -pop.P * w for w in _regression(c or _moments(pop))),
                 formulas={"mse": "t2_min_mse == t1_min_mse (identical closed forms)",
                           "bias": _UNBIASED_LINEAR}),
    "t3": Family(lambda cfg, pop, f, t=None: _check_mse(
                     _pair_mse(_t3(cfg, pop, f, t), pop.P, _T3, cfg.m1, cfg.m2),
                     pop.P**2, "two-term family MSE"),
                 _pair_least(_T3), T3Config, census=(0.5, 0.5), terms=_t3_terms,
                 optimum=lambda cfg, pop, f, t=None: _pair_optimum(_t3(cfg, pop, f, t), _T3),
                 bias=lambda cfg, pop, f, t=None: _pair_bias(_t3(cfg, pop, f, t), pop.P, _T3,
                                                             cfg.m1, cfg.m2),
                 shown=lambda cfg, t: {**cfg._asdict(), "a": t[0], "b": t[3], "c": t[2],
                                       "d": t[1], "e": t[4]},
                 formulas={"mse": "t3_min_mse: P^2*(1-(b^2*c-2*b*d*e+a*e^2)/(a*c-d^2))",
                           "bias": "t3_bias: -P*(1-m1*b-m2*e)"},
                 census_formulas={"mse": "census", "bias": "census"}),
}


# --- efficiency and report ---------------------------------------------------------


def pre(mse_baseline: float, mse: float) -> float:
    """Percent relative efficiency, 100 * mse_baseline / mse."""
    if not mse > 0.0:
        raise NonpositiveMse(f"efficiency needs a positive MSE, got {mse}")
    return 100.0 * (mse_baseline / mse)


class EstimatorTheory(NamedTuple):
    """One report row: first-order bias, MSE, efficiency, resolved constants."""

    name: str
    bias: float
    mse: float
    pre: float | None
    constants: dict[str, float]
    formulas: dict[str, str]


class TheoryReport(NamedTuple):
    design: Design
    entries: tuple[EstimatorTheory, ...]

    def entry(self, name: str) -> EstimatorTheory:
        return {row.name: row for row in self.entries}[name]


def _table(config: TableConfig) -> list[tuple[str, str, object]]:
    """Name, kind and configuration of every row of an efficiency table: one
    row per kind at its default configuration, except that ``tc`` takes
    ``config.tc`` and ``t3`` has one row per switch variant."""
    given = {"tc": (config.tc,), "t3": config.t3_configs()}
    return [(f"t3(g={cfg.g:g},d={cfg.delta:g})" if kind == "t3" else family.label or kind,
             kind, cfg)
            for kind, family in FAMILIES.items()
            for cfg in given.get(kind, (family.params and family.params(),))]


def theory_report(pop: PopulationParams, design: Design,
                  config: TableConfig | None = None) -> TheoryReport:
    """Bias, MSE, optimal constants and efficiency for the whole estimator set.

    Under a census design (f = 0) every first-order MSE collapses to zero and
    efficiencies are undefined (reported as None).
    """
    f = design.f
    census = f == 0.0
    baseline = var_usual(pop, f)
    try:
        c = _moments(pop)
    except OverflowError:  # p's row, the first, reads c00 alone and fails first
        if not census:
            pre(baseline, baseline)
        raise
    entries: list[EstimatorTheory] = []
    for name, kind, cfg in _table(config or TableConfig()):
        family = FAMILIES[kind]
        # the row bound once and its terms read once, on a census too, so that
        # a census rejects what the terms reject (see ``Family.resolve``)
        terms, mse_at = family.bind(cfg, pop, f)
        t = terms(c)
        if census and family.census:
            bias, mse, constants, formulas = 0.0, 0.0, {}, family.census_formulas
        else:
            resolved = family.resolve(cfg, pop, f, t)
            bias, mse = family.bias(resolved, pop, f, t), mse_at(t)
            constants, formulas = family.shown(resolved, t), family.table_formulas(cfg)
        entries.append(EstimatorTheory(name, bias, mse, None if census else pre(baseline, mse),
                                       constants, {**formulas, "pre": "100*mse(p)/mse"}))
    return TheoryReport(design=design, entries=tuple(entries))


# --- efficiency comparison predicates ---------------------------------------------


class ConditionResult(NamedTuple):
    """One dominance predicate ``mse_candidate <= mse_reference`` with slack.

    ``holds`` is None when one side could not be evaluated (for example an
    indefinite quadratic form at a large design factor); ``error`` says why.
    """

    name: str
    candidate_mse: float
    reference_mse: float
    holds: bool | None
    slack: float
    guaranteed: bool | None = None
    error: str | None = None


#: The names of ``comparison_conditions``' results, in order.
_CONDITIONS = ("t1_t2_vs_usual", "t3_vs_usual", "t3_vs_t2", "t3_vs_tc")


def comparison_conditions(pop: PopulationParams, f: float,
                          config: TableConfig | None = None) -> tuple[ConditionResult, ...]:
    """Numeric evaluation of the pairwise dominance conditions.

    Each side is the MSE the efficiency table reports for that row
    (``Family.bind``), so fixed ``tc`` weights are compared as given.
    The first condition (power-transform/two-channel class against the usual
    estimator) carries an analytic guarantee: its slack equals
    ``f*P^2*cp^2*(rho^2 + (lambda03*rho - lambda12)^2/gap)``, a sum of squares
    whenever the moment gap is positive. The ``guaranteed`` flag reports that
    the subtracted term is indeed nonnegative. Conditions never raise: an
    unevaluable side is recorded on the result instead, and a population
    whose usual variance or C overflows records the overflow on every one.
    """
    config = config or TableConfig()
    try:
        v, c = var_usual(pop, f), _moments(pop)
    except OverflowError as exc:  # every side reads one of them
        return tuple(ConditionResult(name, math.nan, math.nan, None, math.nan, None,
                                     overflow_message(exc)) for name in _CONDITIONS)
    tol = 1e-12 * max(v, 1.0)
    try:
        alpha, beta = _regression(c)
        guaranteed = f * pop.P**2 * (alpha * c[1] + beta * c[2]) >= -tol
    except DegenerateMoments:
        guaranteed = None

    def side(kind: str, cfg) -> float | str:
        """The table MSE of ``cfg``, evaluated once, or the text of its error."""
        try:
            terms, mse = FAMILIES[kind].bind(cfg, pop, f)
            return mse(terms(c))
        except (NumericalError, DataError, OverflowError) as exc:
            return overflow_message(exc) if isinstance(exc, OverflowError) else str(exc)

    def build(name: str, cand: float | str, ref: float | str,
              guaranteed: bool | None = None) -> ConditionResult:
        error = next((x for x in (cand, ref) if isinstance(x, str)), None)
        if error is not None:
            return ConditionResult(name, math.nan, math.nan, None, math.nan, guaranteed, error)
        return ConditionResult(name, cand, ref, cand <= ref + tol, ref - cand, guaranteed)

    mse_t1 = side("t1", T1Config())
    mse_t3 = side("t3", config.t3_configs()[0])
    mse_tc = side("tc", config.tc)
    sides = ((mse_t1, v, guaranteed), (mse_t3, v), (mse_t3, mse_t1), (mse_t3, mse_tc))
    return tuple(build(name, *pair) for name, pair in zip(_CONDITIONS, sides))


# --- rounding-sensitivity scan ------------------------------------------------------


class PreInterval(NamedTuple):
    """Efficiency range of one estimator over the perturbation scan."""

    name: str
    point: float | None
    low: float | None
    high: float | None
    unstable: int
    points: int


class SensitivityReport(NamedTuple):
    digits: int
    step: float
    intervals: tuple[PreInterval, ...]

    def interval(self, name: str) -> PreInterval:
        return {row.name: row for row in self.intervals}[name]


@functools.cache
def _scan_points(digits: int) -> tuple[tuple[float, ...], ...]:
    """Deterministic scan offsets: center, axis points, then all corners."""
    h = 0.5 * 10.0**-digits
    axes = [tuple(sign * h if i == axis else 0.0 for i in range(6))
            for axis in range(6) for sign in (-1.0, 1.0)]
    corners = [tuple(s * h for s in corner) for corner in itertools.product((-1.0, 1.0), repeat=6)]
    return ((0.0,) * 6, *axes, *corners)


def sensitivity(pop: PopulationParams, f: float, config: TableConfig | None = None,
                digits: int = 3) -> SensitivityReport:
    """Efficiency intervals under last-digit rounding of the moment inputs.

    Each of (cp, cx, rho_pb, lambda03, lambda04, lambda12) is perturbed within
    plus/minus half a unit of its last reported digit (``0.5 * 10**-digits``),
    independently (axis points) and jointly (corners). Each row is bound once
    (``Family.bind``) and takes, at each point, the MSE the efficiency table
    reports. Points where a theory expression fails (negative MSE, singular
    system, invalid moments, overflow) are counted as unstable rather than
    aborting the scan; a point whose moved fields, or the ``sx2`` and ``sp2``
    derived from them, break a rule of ``PopulationParams`` is unstable for
    every estimator.
    """
    if (isinstance(digits, bool) or not isinstance(digits, numbers.Integral)
            or not 1 <= digits <= 323):
        # from 324 digits on, the half step 0.5 * 10.0**-digits is 0.0
        raise InvalidConfig(f"digits must be an integer from 1 to 323, got {digits!r}")
    digits = int(digits)
    rows = _table(config or TableConfig())
    bound, minima = [], {}
    for j, (_, kind, cfg) in enumerate(rows):
        family = FAMILIES[kind]
        try:
            terms, mse = family.bind(cfg, pop, f)
        except (ToolkitError, OverflowError):  # reads no C: unstable at every point
            continue
        if family._free(cfg) and len(cfg or ()) == len(family.constants):  # no setting read:
            mse = minima.setdefault(family.least, mse)  # t1 and t2 share one minimum
        bound.append((j, terms, mse))
    (_, _, base), *bound = bound  # p, the baseline, is 100 everywhere
    points = _scan_points(digits)
    found: list[list[float]] = [[] for _ in rows]
    center: list[float | None] = [None] * len(rows)
    (N, P, xbar), moments = pop[:3], pop[5:]
    for k, offsets in enumerate(points):
        moved = tuple(map(add, moments, offsets))
        cp, cx = moved[:2]
        try:
            _check_fields(N, P, xbar, (cx * xbar) ** 2, (cp * P) ** 2, *moved)
            c = _matrix(*moved)
        except (ToolkitError, OverflowError):
            continue
        baseline, last = base(c), None
        for j, terms, mse in bound:
            if mse is not last:  # and so is computed once for t1 and t2
                last = mse
                try:
                    value = pre(baseline, mse(terms(c)))
                except (ToolkitError, OverflowError):
                    value = None
            if value is not None:
                found[j].append(value)
                if k == 0:
                    center[j] = value
    return SensitivityReport(digits, 0.5 * 10.0**-digits, tuple(
        PreInterval(name, point, min(values, default=None), max(values, default=None),
                    len(points) - len(values), len(points))
        for (name, _, _), point, values in zip(rows[1:], center[1:], found[1:])))
