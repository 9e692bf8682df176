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
at (alpha, beta) = (1, 0). The ``tc`` and ``t3`` expansion constants read
their moments from C and share one two-weight MSE form (``_TwoWeight``).
``FAMILIES`` is the registry of estimator kinds: each kind's parameter class,
report name and formulas.

A negative computed MSE is always reported as an error, never as a value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from functools import partial
from operator import attrgetter
from typing import Callable

from .config import T1Config, T2Config, T3Config, TableConfig, TbConfig, TcConfig
from .errors import (
    DataError,
    DegenerateMoments,
    InvalidConfig,
    NegativeMse,
    NonpositiveMse,
    NonpositiveTransform,
    NumericalError,
    SingularSystem,
    ToolkitError,
)
from .population import Design, PopulationParams

_SINGULAR_RTOL = 1e-12
_MSE_NEG_RTOL = 1e-12


def _check_mse(value: float, scale: float, what: str) -> float:
    """Clamp roundoff-negative MSE to zero; reject materially negative ones."""
    if value < -_MSE_NEG_RTOL * max(scale, 1e-300):
        raise NegativeMse(f"{what} evaluated negative ({value}); the first-order "
                          "expansion is invalid for these parameters")
    return max(value, 0.0)


# --- the moment matrix ----------------------------------------------------------


def _moments(pop: PopulationParams) -> tuple[float, float, float, float, float, float]:
    """The upper triangle ``(c00, c01, c02, c11, c12, c22)`` of C = Sigma/f."""
    cp, cx = pop.cp, pop.cx
    return (cp**2, pop.rho_pb * cp * cx, cp * pop.lambda12,
            cx**2, cx * pop.lambda03, pop.lambda04 - 1.0)


def _form(c: tuple[float, ...], w0: float, w1: float, w2: float) -> float:
    """The quadratic form w'Cw at w = (w0, w1, w2)."""
    c00, c01, c02, c11, c12, c22 = c
    return (w0 * w0 * c00 + w1 * w1 * c11 + w2 * w2 * c22
            + 2.0 * (w0 * w1 * c01 + w0 * w2 * c02 + w1 * w2 * c12))


def _regression(pop: PopulationParams) -> tuple[float, float, tuple[float, ...]]:
    """Coefficients ``(alpha, beta)`` of the proportion channel regressed on the
    auxiliary block of C, and C itself."""
    c = _moments(pop)
    _, c01, c02, c11, c12, c22 = c
    det = c11 * c22 - c12**2
    if det <= 0.0:
        raise DegenerateMoments(
            f"(lambda04 - 1) - lambda03^2 must be positive, got {det / c11}"
        )
    return (c22 * c01 - c12 * c02) / det, (c11 * c02 - c12 * c01) / det, c


# --- usual estimator ------------------------------------------------------------


def var_usual(pop: PopulationParams, f: float) -> float:
    """First-order (here: exact) variance of the sample proportion, f*P^2*cp^2."""
    return f * pop.P**2 * pop.cp**2


# --- regression-type class ------------------------------------------------------


def tb_optimal_h1(pop: PopulationParams) -> float:
    """Optimal slope of the linear regression-type member, -P*rho_pb*cp/cx."""
    c = _moments(pop)
    return -pop.P * c[1] / c[3]


def min_mse_tb(pop: PopulationParams, f: float) -> float:
    """Class minimum MSE over mean-only transforms, f*P^2*cp^2*(1 - rho_pb^2)."""
    c = _moments(pop)
    value = f * pop.P**2 * (c[0] - c[1] / c[3] * c[1])
    return _check_mse(value, var_usual(pop, f), "regression-class minimum MSE")


def class_bias_tb(pop: PopulationParams, f: float, h2: float, h3: float, h4: float) -> float:
    """First-order class bias as a linear form in the second-derivative values.

    ``h2``, ``h3``, ``h4`` are half second derivatives of the class function at
    the population point (pure auxiliary, mixed, pure proportion).
    """
    return f * (pop.P * pop.rho_pb * pop.cp * pop.cx * h3
                + pop.cx**2 * h2
                + pop.P**2 * pop.cp**2 * h4)


# --- the two-weight MSE form of the tc and t3 families ----------------------------


class _TwoWeight:
    """The MSE of a family with a weight pair w = (w1, w2),

        scale * (const + w'Aw - 2*b'w),  A = [[a11, a12], [a12, a22]],  b = (b1, b2).

    A subclass reads (a11, a12, a22, b1, b2) off an instance with
    ``_terms``, and names its weights (``_pair``) and itself (``_family``)
    for error messages. When ``_relative``, its constants are relative to
    P^2: scale = P^2 and const = 1; otherwise scale = 1 and const = P^2.
    """

    def _scale_const(self, pop: PopulationParams) -> tuple[float, float]:
        return (pop.P**2, 1.0) if self._relative else (1.0, pop.P**2)

    def _system(self) -> tuple[float, ...]:
        """(a11, a12, a22, b1, b2, det A); a singular A has no stationary pair."""
        a11, a12, a22, b1, b2 = self._terms(self)
        det = a11 * a22 - a12**2
        if abs(det) <= _SINGULAR_RTOL * max(abs(a11 * a22), a12**2, 1e-300):
            raise SingularSystem(f"the {self._pair} optimality system is singular "
                                 "(the two channels are indistinguishable)")
        return a11, a12, a22, b1, b2, det

    def mse(self, pop: PopulationParams, w1: float, w2: float) -> float:
        """The MSE at an arbitrary weight pair."""
        a11, a12, a22, b1, b2 = self._terms(self)
        scale, const = self._scale_const(pop)
        return scale * (const + w1**2 * a11 + w2**2 * a22 + 2.0 * w1 * w2 * a12
                        - 2.0 * w1 * b1 - 2.0 * w2 * b2)

    def optimum(self) -> tuple[float, float]:
        """The stationary weight pair A^-1 b, where the gradient vanishes."""
        a11, a12, a22, b1, b2, det = self._system()
        return (b1 * a22 - a12 * b2) / det, (a11 * b2 - b1 * a12) / det

    def _reduction(self) -> float:
        """b'A^-1 b, what the optimal weights take off the MSE bracket; only a
        positive definite A has a minimum."""
        a11, a12, a22, b1, b2, det = self._system()
        if det < 0.0:
            raise SingularSystem(f"the {self._pair} quadratic form is indefinite")
        return (b1**2 * a22 - 2.0 * b1 * a12 * b2 + a11 * b2**2) / det

    def min_mse(self, pop: PopulationParams) -> float:
        """The minimum MSE, scale * (const - b'A^-1 b)."""
        scale, const = self._scale_const(pop)
        value = scale * (const - self._reduction())
        if value < 0.0:
            raise NegativeMse(f"{self._family} minimum MSE evaluated negative ({value})")
        return value


# --- weighted transform family (q1, q2) -----------------------------------------


@dataclass(frozen=True)
class TcConstants(_TwoWeight):
    """Expansion constants of the weighted ratio/exponential transform family.

    ``theta`` locates the transform, ``bc``/``ac`` are its first/second-order
    expansion coefficients, and ``delta1..delta5`` the coefficients of the
    MSE quadratic form

        mse(q1, q2) = P^2 + q1^2*d1 + q2^2*d3 + 2*q1*q2*d2 - 2*q1*d4 - 2*q2*d5.
    """

    theta: float
    bc: float
    ac: float
    delta1: float
    delta2: float
    delta3: float
    delta4: float
    delta5: float

    _terms = attrgetter("delta1", "delta2", "delta3", "delta4", "delta5")
    _pair, _family, _relative = "(q1, q2)", "family", False


def tc_constants(pop: PopulationParams, f: float, a: float, b: float,
                 alpha: float, beta: float) -> TcConstants:
    """Expansion constants for the transform ((a*X+b)/(a*x+b))^alpha * exp-tilt^beta."""
    base = a * pop.xbar + b
    if base <= 0.0:
        raise NonpositiveTransform(f"a*xbar + b must be positive, got {base}")
    theta = a * pop.xbar / base
    bc = theta * (alpha + beta / 2.0)
    ac = theta**2 * (alpha * (alpha + 1.0) / 2.0 + alpha * beta / 2.0
                     + beta**2 / 8.0 + beta / 4.0)
    P, X = pop.P, pop.xbar
    cp2, rcx, _, cx2, _, _ = _moments(pop)
    m1 = P**2 * f * (cp2 + bc**2 * cx2 - 2.0 * bc * rcx)
    m2 = X**2 * f * cx2
    m3 = P**2 * f * (ac * cx2 - 2.0 * bc * rcx)
    m4 = P * X * f * (-bc * cx2 + rcx)
    m5 = X * P * f * (-bc * cx2)
    return TcConstants(
        theta=theta, bc=bc, ac=ac,
        delta1=P**2 + m1 + 2.0 * m3,
        delta2=-m4 - m5,
        delta3=m2,
        delta4=P**2 + m3,
        delta5=-m5,
    )


def tc_bias(pop: PopulationParams, f: float, tc: TcConstants, q1: float, q2: float) -> float:
    """First-order bias of the family at a weight pair."""
    P, X = pop.P, pop.xbar
    _, rcx, _, cx2, _, _ = _moments(pop)
    return P * (q1 - 1.0) + f * ((q2 * X * tc.bc + q1 * P * tc.ac) * cx2
                                 - q1 * P * tc.bc * rcx)


# --- power-transform estimator (alpha, beta) -------------------------------------


def t1_optimal(pop: PopulationParams) -> tuple[float, float]:
    """Optimal exponent pair of the power-transform estimator.

    alpha* = cp*(rho*(lambda04-1) - lambda03*lambda12) / (cx*gap) and
    beta*  = cp*(lambda12 - rho*lambda03) / gap, with
    gap = (lambda04-1) - lambda03^2: the regression coefficients of the
    proportion channel on the auxiliary block of C.
    """
    alpha, beta, _ = _regression(pop)
    return alpha, beta


def t1_mse(pop: PopulationParams, f: float, alpha: float, beta: float) -> float:
    """First-order MSE of the power-transform estimator, f*P^2*w'Cw at
    w = (1, -alpha, -beta)."""
    value = f * pop.P**2 * _form(_moments(pop), 1.0, -alpha, -beta)
    return _check_mse(value, var_usual(pop, f), "power-transform MSE")


def t1_min_mse(pop: PopulationParams, f: float) -> float:
    """Minimum MSE, f*P^2*cp^2*(1 - rho^2 - (lambda03*rho - lambda12)^2/gap):
    f*P^2 times the Schur complement of the auxiliary block of C."""
    alpha, beta, c = _regression(pop)
    return _check_mse(f * pop.P**2 * (c[0] - (alpha * c[1] + beta * c[2])),
                      var_usual(pop, f), "power-transform minimum MSE")


def t1_bias(pop: PopulationParams, f: float, alpha: float, beta: float) -> float:
    """First-order bias of the power-transform estimator at given exponents."""
    _, c01, c02, c11, c12, c22 = _moments(pop)
    return f * pop.P * (
        alpha * (alpha + 1.0) / 2.0 * c11
        + beta * (beta + 1.0) / 2.0 * c22
        + alpha * beta * c12
        - alpha * c01
        - beta * c02
    )


# --- two-channel linear class (h1, h2) -------------------------------------------


def t2_optimal(pop: PopulationParams) -> tuple[float, float]:
    """Optimal absolute offsets of the linear two-channel member.

    Equal to ``-P`` times the optimal power-transform exponents, so the two
    families share one minimum.
    """
    alpha, beta = t1_optimal(pop)
    return -pop.P * alpha, -pop.P * beta


def t2_mse(pop: PopulationParams, f: float, h1: float, h2: float) -> float:
    """MSE of the two-channel linear member, f*w'Cw at w = (P, h1, h2)."""
    value = f * _form(_moments(pop), pop.P, h1, h2)
    return _check_mse(value, var_usual(pop, f), "two-channel linear MSE")


def class_bias_t2(pop: PopulationParams, f: float, h3: float, h4: float, h5: float,
                  h6: float, h7: float, h8: float) -> float:
    """First-order class bias as a linear form in six second-derivative values."""
    return f * (
        pop.P * pop.cp**2 * h3
        + pop.cx**2 * h4
        + (pop.lambda04 - 1.0) * h5
        + pop.P * pop.rho_pb * pop.cp * pop.cx * h6
        + pop.cx * pop.lambda03 * h7
        + pop.P * pop.cp * pop.lambda12 * h8
    )


# --- two-term weighted family (m1, m2) --------------------------------------------


@dataclass(frozen=True)
class T3Constants(_TwoWeight):
    """Quadratic-form coefficients of the two-term weighted family.

    ``a`` and ``c`` are the second moments of the ratio and exponential
    channels, ``d`` their cross moment, ``b`` and ``e`` the channel means:

        mse(m1, m2) = P^2 * (1 + m1^2*a + m2^2*c + 2*m1*m2*d - 2*m1*b - 2*m2*e).
    """

    a: float
    b: float
    c: float
    d: float
    e: float

    _terms = attrgetter("a", "d", "c", "b", "e")
    _pair, _family, _relative = "(m1, m2)", "two-term family", True


def t3_constants(pop: PopulationParams, f: float, gamma: float, g: float,
                 delta: float) -> T3Constants:
    """Expansion constants of the two-term family at switches (gamma, g, delta).

    Each channel mean pairs with the moments of its own deviation channel:
    ``b`` with the mean channel (rho_pb*cp*cx, cx^2), ``e`` with the variance
    channel (cp*lambda12, lambda04 - 1).
    """
    cp2, rcx, cl12, cx2, cl03, l4m1 = _moments(pop)
    a = 1.0 + f * (cp2 - 4.0 * gamma * g * rcx + gamma**2 * g * (2.0 * g + 1.0) * cx2)
    b = 1.0 - gamma * g * f * rcx + g * (g + 1.0) / 2.0 * gamma**2 * f * cx2
    c = 1.0 + f * (cp2 - 2.0 * delta * cl12
                   + (delta**2 + delta * (delta + 2.0)) * l4m1 / 4.0)
    d = 1.0 + f * (cp2 - delta * cl12 + delta * (delta + 2.0) / 8.0 * l4m1
                   - 2.0 * gamma * g * rcx + gamma * delta * g / 2.0 * cl03
                   + g * (g + 1.0) / 2.0 * gamma**2 * cx2)
    e = 1.0 - delta / 2.0 * f * cl12 + delta * (delta + 2.0) / 8.0 * f * l4m1
    return T3Constants(a=a, b=b, c=c, d=d, e=e)


def t3_bias(t3c: T3Constants, pop: PopulationParams, m1: float, m2: float) -> float:
    """First-order bias of the two-term family, -P*(1 - m1*b - m2*e)."""
    return -pop.P * (1.0 - m1 * t3c.b - m2 * t3c.e)


def t3_bias_min(t3c: T3Constants, pop: PopulationParams) -> float:
    """Bias at the optimal weights, -P*(1 - (b^2*c - 2*b*d*e + a*e^2)/det).

    This equals ``-min_mse/P``: at the stationary pair the quadratic form
    collapses so that the first-order bias and MSE share one bracket.
    """
    return -pop.P * (1.0 - t3c._reduction())


# --- the per-family table ----------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One estimator kind: its configuration class ``params`` (None for
    ``usual`` and ``ta``), its report name ``label`` where that is not the
    kind, and its first-order theory.

    ``constants`` names the fields of ``params`` that default to None, which
    have a population-optimal value. Every function takes a configuration,
    the population and the design factor: ``mse`` returns the MSE at the
    constants the configuration holds, ``min_mse`` the MSE at the optimum,
    and ``optimum`` the optimal values of ``constants``.

    ``census`` holds the limits of ``constants`` under a census design
    (f = 0), where a family whose weight system is then singular (there is no
    auxiliary contrast to weigh) has no optimum; both limits reproduce the
    sample proportion exactly. An efficiency table reports ``bias`` and
    ``shown`` at the resolved configuration, quoting ``formulas`` (see
    ``table_formulas``), or ``census_formulas`` for a census row of a family
    with census limits.
    """

    mse: Callable[..., float]
    min_mse: Callable[..., float]
    params: type | None = None
    label: str | None = None
    optimum: Callable[..., tuple[float, ...]] = lambda cfg, pop, f: ()
    census: tuple[float, ...] = ()
    bias: Callable[..., float] = lambda cfg, pop, f: 0.0
    shown: Callable[..., dict[str, float]] = (
        lambda cfg, pop, f: {} if cfg is None else dict(vars(cfg)))
    formulas: dict[str, str] = field(default_factory=dict)
    fixed_formulas: dict[str, str] = field(default_factory=dict)
    census_formulas: dict[str, str] = field(default_factory=dict)
    constants: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "constants", () if self.params is None else tuple(
            f.name for f in fields(self.params) if f.default is None))

    def resolve(self, cfg, pop: PopulationParams, f: float):
        """``cfg`` with every ``None`` constant replaced by its optimum, or by
        its census limit when f = 0."""
        given = [getattr(cfg, name) for name in self.constants]
        if None not in given:
            return cfg
        best = self.census if f == 0.0 and self.census else self.optimum(cfg, pop, f)
        return replace(cfg, **{name: limit if value is None else value
                               for name, value, limit in zip(self.constants, given, best)})

    def _free(self, cfg) -> bool:
        return all(getattr(cfg, name) is None for name in self.constants)

    def table_mse(self, cfg) -> Callable[[PopulationParams, float], float]:
        """The MSE an efficiency table reports for ``cfg``, as a function of
        the population and the design factor: the minimum when every constant
        is free, else the MSE at the given constants (the free ones at their
        optimum)."""
        if self._free(cfg):
            return partial(self.min_mse, cfg)
        return lambda pop, f: self.mse(self.resolve(cfg, pop, f), pop, f)

    def table_formulas(self, cfg) -> dict[str, str]:
        """The formulas a table row for ``cfg`` quotes: ``formulas``, updated
        by ``fixed_formulas`` when ``table_mse`` reports the MSE at given
        constants."""
        return self.formulas if self._free(cfg) else {**self.formulas, **self.fixed_formulas}


def _tc(cfg, pop: PopulationParams, f: float) -> TcConstants:
    return tc_constants(pop, f, cfg.a, cfg.b, cfg.alpha, cfg.beta)


def _t3(cfg, pop: PopulationParams, f: float) -> T3Constants:
    return t3_constants(pop, f, cfg.gamma, cfg.g, cfg.delta)


def _tc_shown(cfg, pop: PopulationParams, f: float) -> dict[str, float]:
    tcc = _tc(cfg, pop, f)
    return {"q1": cfg.q1, "q2": cfg.q2, "theta": tcc.theta, "bc": tcc.bc, "ac": tcc.ac}


_UNBIASED_LINEAR = "0 (linear member is first-order unbiased)"

FAMILIES: dict[str, Family] = {
    "usual": Family(lambda cfg, pop, f: var_usual(pop, f),
                    lambda cfg, pop, f: var_usual(pop, f), label="p",
                    formulas={"mse": "var_usual: f*P^2*cp^2",
                              "bias": "0 (exactly unbiased)"}),
    # the ratio estimate is t1 at (alpha, beta) = (1, 0)
    "ta": Family(lambda cfg, pop, f: t1_mse(pop, f, 1.0, 0.0),
                 lambda cfg, pop, f: t1_mse(pop, f, 1.0, 0.0),
                 bias=lambda cfg, pop, f: t1_bias(pop, f, 1.0, 0.0),
                 formulas={"mse": "mse_ta: f*P^2*(cp^2+cx^2-2*rho_pb*cp*cx)",
                           "bias": "bias_ta: f*P*(cx^2-rho_pb*cp*cx)"}),
    "tb": Family(lambda cfg, pop, f: t2_mse(pop, f, cfg.h1, 0.0),
                 lambda cfg, pop, f: min_mse_tb(pop, f),
                 TbConfig, optimum=lambda cfg, pop, f: (tb_optimal_h1(pop),),
                 formulas={"mse": "min_mse_tb: f*P^2*cp^2*(1-rho_pb^2)",
                           "bias": _UNBIASED_LINEAR}),
    "tc": Family(lambda cfg, pop, f: _tc(cfg, pop, f).mse(pop, cfg.q1, cfg.q2),
                 lambda cfg, pop, f: _tc(cfg, pop, f).min_mse(pop),
                 TcConfig, optimum=lambda cfg, pop, f: _tc(cfg, pop, f).optimum(),
                 census=(1.0, 0.0),
                 bias=lambda cfg, pop, f: tc_bias(pop, f, _tc(cfg, pop, f), cfg.q1, cfg.q2),
                 shown=_tc_shown,
                 formulas={"mse": "tc_min_mse: P^2-(d1*d5^2+d3*d4^2-2*d2*d4*d5)/(d1*d3-d2^2)",
                           "bias": "tc_bias: P*(q1-1)+f*((q2*X*bc+q1*P*ac)*cx^2"
                                   "-q1*P*bc*rho_pb*cp*cx)"},
                 # the one family whose table weights can be fixed (--tc)
                 fixed_formulas={"mse": "tc_mse: P^2+q1^2*d1+q2^2*d3+2*q1*q2*d2"
                                        "-2*q1*d4-2*q2*d5"},
                 census_formulas={"mse": "census: f=0 collapses every first-order MSE",
                                  "bias": "census"}),
    "t1": Family(lambda cfg, pop, f: t1_mse(pop, f, cfg.alpha, cfg.beta),
                 lambda cfg, pop, f: t1_min_mse(pop, f),
                 T1Config, optimum=lambda cfg, pop, f: t1_optimal(pop),
                 bias=lambda cfg, pop, f: t1_bias(pop, f, cfg.alpha, cfg.beta),
                 formulas={"mse": "t1_min_mse: f*P^2*cp^2*(1-rho^2-(lambda03*rho-lambda12)^2/gap)",
                           "bias": "t1_bias at the optimal exponents"}),
    "t2": Family(lambda cfg, pop, f: t2_mse(pop, f, cfg.h1, cfg.h2),
                 lambda cfg, pop, f: t1_min_mse(pop, f),
                 T2Config, optimum=lambda cfg, pop, f: t2_optimal(pop),
                 formulas={"mse": "t2_min_mse == t1_min_mse (identical closed forms)",
                           "bias": _UNBIASED_LINEAR}),
    # A table cannot fix the t3 weights (TableConfig builds them free), so
    # its rows sit at the optimum, where bias and MSE share one bracket.
    "t3": Family(lambda cfg, pop, f: _check_mse(_t3(cfg, pop, f).mse(pop, cfg.m1, cfg.m2),
                                                pop.P**2, "two-term family MSE"),
                 lambda cfg, pop, f: _t3(cfg, pop, f).min_mse(pop),
                 T3Config, optimum=lambda cfg, pop, f: _t3(cfg, pop, f).optimum(),
                 census=(0.5, 0.5),
                 bias=lambda cfg, pop, f: t3_bias_min(_t3(cfg, pop, f), pop),
                 shown=lambda cfg, pop, f: {**vars(cfg), **vars(_t3(cfg, pop, f))},
                 formulas={"mse": "t3_min_mse: P^2*(1-(b^2*c-2*b*d*e+a*e^2)/(a*c-d^2))",
                           "bias": "t3_bias_min: -P*(1-(b^2*c-2*b*d*e+a*e^2)/(a*c-d^2))"},
                 census_formulas={"mse": "census", "bias": "census"}),
}


# --- efficiency ------------------------------------------------------------------


def pre(mse_baseline: float, mse: float) -> float:
    """Percent relative efficiency, 100 * mse_baseline / mse."""
    if mse <= 0.0:
        raise NonpositiveMse(f"efficiency needs a positive MSE, got {mse}")
    return 100.0 * (mse_baseline / mse)


# --- report ----------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorTheory:
    """One report row: first-order bias, MSE, efficiency, resolved constants."""

    name: str
    bias: float
    mse: float
    pre: float | None
    constants: dict[str, float]
    formulas: dict[str, str]


@dataclass(frozen=True)
class TheoryReport:
    design: Design
    entries: tuple[EstimatorTheory, ...]

    def entry(self, name: str) -> EstimatorTheory:
        for row in self.entries:
            if row.name == name:
                return row
        raise KeyError(name)


def _t3_label(cfg: T3Config) -> str:
    def fmt(v: float) -> str:
        return str(int(v)) if float(v).is_integer() else f"{v:g}"

    return f"t3(g={fmt(cfg.g)},d={fmt(cfg.delta)})"


def _table(config: TableConfig) -> list[tuple[str, str, object]]:
    """Name, kind and configuration of every row of an efficiency table: one
    row per kind at its default configuration, except that ``tc`` takes
    ``config.tc`` and ``t3`` has one row per switch variant."""
    given = {"tc": (config.tc,), "t3": config.t3_configs()}
    return [(_t3_label(cfg) if kind == "t3" else family.label or kind, kind, cfg)
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
    entries: list[EstimatorTheory] = []
    for name, kind, cfg in _table(config or TableConfig()):
        family = FAMILIES[kind]
        if census and family.census:
            bias, mse, constants, formulas = 0.0, 0.0, {}, family.census_formulas
        else:
            resolved = family.resolve(cfg, pop, f)
            bias = family.bias(resolved, pop, f)
            mse = family.table_mse(cfg)(pop, f)
            constants, formulas = family.shown(resolved, pop, f), family.table_formulas(cfg)
        entries.append(EstimatorTheory(
            name=name, bias=bias, mse=mse,
            pre=None if census else pre(baseline, mse),
            constants=constants,
            formulas={**formulas, "pre": "100*mse(p)/mse"},
        ))
    return TheoryReport(design=design, entries=tuple(entries))


# --- efficiency comparison predicates ---------------------------------------------


@dataclass(frozen=True)
class ConditionResult:
    """One dominance predicate ``mse_candidate <= mse_reference`` with slack.

    ``holds`` is None when one side could not be evaluated (for example an
    indefinite quadratic form at a large design factor); ``error`` then says
    why.
    """

    name: str
    candidate_mse: float
    reference_mse: float
    holds: bool | None
    slack: float
    guaranteed: bool | None = None
    error: str | None = None


def comparison_conditions(pop: PopulationParams, f: float,
                          config: TableConfig | None = None) -> tuple[ConditionResult, ...]:
    """Numeric evaluation of the pairwise dominance conditions.

    Each side is the MSE the efficiency table reports for that row
    (``Family.table_mse``), so fixed ``tc`` weights are compared as given.
    The first condition (power-transform/two-channel class against the usual
    estimator) carries an analytic guarantee: its slack equals
    ``f*P^2*cp^2*(rho^2 + (lambda03*rho - lambda12)^2/gap)``, a sum of squares
    whenever the moment gap is positive. The ``guaranteed`` flag reports that
    the subtracted term is indeed nonnegative. Conditions never raise: an
    unevaluable side is recorded on the result instead.
    """
    config = config or TableConfig()
    v = var_usual(pop, f)
    tol = 1e-12 * max(v, 1.0)

    def build(name: str, candidate: Callable[[], float],
              reference: Callable[[], float],
              guaranteed: bool | None = None) -> ConditionResult:
        try:
            cand = candidate()
            ref = reference()
        except (NumericalError, DataError) as exc:
            return ConditionResult(name=name, candidate_mse=math.nan,
                                   reference_mse=math.nan, holds=None,
                                   slack=math.nan, guaranteed=guaranteed,
                                   error=str(exc))
        return ConditionResult(name=name, candidate_mse=cand, reference_mse=ref,
                               holds=cand <= ref + tol, slack=ref - cand,
                               guaranteed=guaranteed)

    def first_guarantee() -> bool | None:
        try:
            alpha, beta, c = _regression(pop)
        except DegenerateMoments:
            return None
        return f * pop.P**2 * (alpha * c[1] + beta * c[2]) >= -tol

    mse_t1 = partial(FAMILIES["t1"].table_mse(T1Config()), pop, f)
    mse_t3 = partial(FAMILIES["t3"].table_mse(config.t3_configs()[0]), pop, f)
    mse_tc = partial(FAMILIES["tc"].table_mse(config.tc), pop, f)

    return (
        build("t1_t2_vs_usual", mse_t1, lambda: v, guaranteed=first_guarantee()),
        build("t3_vs_usual", mse_t3, lambda: v),
        build("t3_vs_t2", mse_t3, mse_t1),
        build("t3_vs_tc", mse_t3, mse_tc),
    )


# --- rounding-sensitivity scan ------------------------------------------------------


@dataclass(frozen=True)
class PreInterval:
    """Efficiency range of one estimator over the perturbation scan."""

    name: str
    point: float | None
    low: float | None
    high: float | None
    unstable: int
    points: int


@dataclass(frozen=True)
class SensitivityReport:
    digits: int
    step: float
    intervals: tuple[PreInterval, ...]

    def interval(self, name: str) -> PreInterval:
        for row in self.intervals:
            if row.name == name:
                return row
        raise KeyError(name)


_SCAN_FIELDS = ("cp", "cx", "rho_pb", "lambda03", "lambda04", "lambda12")


def _scan_points(digits: int) -> list[tuple[float, ...]]:
    """Deterministic scan offsets: center, axis points, then all corners."""
    h = 0.5 * 10.0**-digits
    points: list[tuple[float, ...]] = [(0.0,) * 6]
    for i in range(6):
        for sign in (-1.0, 1.0):
            offsets = [0.0] * 6
            offsets[i] = sign * h
            points.append(tuple(offsets))
    points.extend(
        tuple(s * h for s in corner)
        for corner in itertools.product((-1.0, 1.0), repeat=6)
    )
    return points


def _perturbed(pop: PopulationParams, offsets: tuple[float, ...]) -> PopulationParams:
    moved = {name: getattr(pop, name) + d for name, d in zip(_SCAN_FIELDS, offsets)}
    return replace(pop, **moved, sp2=(moved["cp"] * pop.P) ** 2,
                   sx2=(moved["cx"] * pop.xbar) ** 2)


def sensitivity(pop: PopulationParams, f: float, config: TableConfig | None = None,
                digits: int = 3) -> SensitivityReport:
    """Efficiency intervals under last-digit rounding of the moment inputs.

    Each of (cp, cx, rho_pb, lambda03, lambda04, lambda12) is perturbed within
    plus/minus half a unit of its last reported digit (``0.5 * 10**-digits``),
    independently (axis points) and jointly (corners). Each point takes the
    MSE the efficiency table reports (``Family.table_mse``). Points where a
    theory expression fails (negative MSE, singular system, invalid moments)
    are counted as unstable rather than aborting the scan; a point whose
    perturbed parameters are invalid is unstable for every estimator.
    """
    if not isinstance(digits, int) or digits < 1:
        raise InvalidConfig(f"digits must be an integer >= 1, got {digits!r}")
    rows = _table(config or TableConfig())[1:]  # p, the baseline, is 100 everywhere
    mses = [FAMILIES[kind].table_mse(cfg) for _, kind, cfg in rows]
    points = _scan_points(digits)
    found: list[list[float]] = [[] for _ in rows]
    center: list[float | None] = [None] * len(rows)
    for k, offsets in enumerate(points):
        try:
            q = _perturbed(pop, offsets)
        except ToolkitError:
            continue
        baseline = var_usual(q, f)
        for j, mse in enumerate(mses):
            try:
                value = pre(baseline, mse(q, f))
            except ToolkitError:
                continue
            found[j].append(value)
            if k == 0:
                center[j] = value
    return SensitivityReport(
        digits=digits, step=0.5 * 10.0**-digits,
        intervals=tuple(
            PreInterval(name=name, point=point,
                        low=min(values, default=None), high=max(values, default=None),
                        unstable=len(points) - len(values), points=len(points))
            for (name, _, _), point, values in zip(rows, center, found)))
