"""Point evaluation of every estimator of the population proportion.

An estimator maps the sufficient statistics of an SRSWOR sample, the known
auxiliary population parameters, and a configuration of one kind to a single
number. Every kind has one array kernel. ``evaluate_batch`` runs it over many
samples at once, with the configuration already resolved, and reports a
failure code per sample. ``evaluate`` is the single-sample entry point: it
resolves the constants left as ``None`` to their population-optimal values,
runs the kernel on a batch of one, and returns the estimate with the
resolved configuration or raises the error the failure code names. All
functions are pure.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import theory
from .errors import (
    DataError,
    InvalidConfig,
    NonpositiveBase,
    NonpositiveTransform,
    SchemaError,
    ZeroSampleMean,
)
from .population import PopulationParams, SampleStats, sampling_fraction


@dataclass(frozen=True)
class EstimatorConfig:
    """An estimator kind and its parameters.

    ``params`` must be an instance of ``theory.FAMILIES[kind].params``, and
    is created with defaults when omitted; ``usual`` and ``ta`` take none.
    ``label`` overrides the report name, which is useful when several
    variants of one family run side by side.
    """

    kind: str
    params: object | None = None
    label: str | None = None

    def __post_init__(self):
        if self.kind not in theory.FAMILIES:
            raise InvalidConfig(f"unknown estimator kind {self.kind!r}")
        cls = theory.FAMILIES[self.kind].params
        if self.params is None:
            if cls is not None:
                object.__setattr__(self, "params", cls())
        elif cls is None or not isinstance(self.params, cls):
            raise InvalidConfig(f"estimator kind {self.kind!r} does not take a "
                                f"{type(self.params).__name__} configuration")

    @property
    def name(self) -> str:
        return self.label or self.kind


@dataclass(frozen=True)
class Estimate:
    """A point estimate together with the fully resolved configuration."""

    value: float
    config_used: EstimatorConfig

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise SchemaError(f"estimate is not finite: {self.value}")


def resolve_config(cfg: EstimatorConfig, pop: PopulationParams, f: float) -> EstimatorConfig:
    """Replace every ``None`` constant with its population-optimal value, or
    with its census limit under a census design (f = 0; see
    ``theory.Family``)."""
    resolved = theory.FAMILIES[cfg.kind].resolve(cfg.params, pop, f)
    return cfg if resolved is cfg.params else replace(cfg, params=resolved)


# Failure codes of ``evaluate_batch``: 0 is success, and every other code
# indexes the error class and message that ``evaluate`` raises for it.
_FAILURES: tuple[tuple[type[DataError], str] | None, ...] = (
    None,
    (ZeroSampleMean, "sample auxiliary mean is zero"),
    (NonpositiveTransform,
     "a*mean + b must stay positive (population {pop_t}, sample {smp_t})"),
    (NonpositiveBase, "mean ratio must be positive, sample mean {xbar_s}"),
    (NonpositiveBase, "sample auxiliary variance must be positive, got {sx2_s}"),
    (NonpositiveBase, "shifted mean must stay positive, got {shifted}"),
    (NonpositiveBase, "sum of auxiliary variances must be positive"),
    (SchemaError, "estimate is not finite: {value}"),
)
(ZERO_MEAN, NONPOSITIVE_TRANSFORM, MEAN_RATIO, SAMPLE_VARIANCE, SHIFTED_MEAN,
 VARIANCE_SUM, NOT_FINITE) = range(1, len(_FAILURES))

#: The error class each nonzero failure code of ``evaluate_batch`` stands for.
FAILURE_CLASSES: tuple[type[DataError] | None, ...] = tuple(
    entry and entry[0] for entry in _FAILURES)


class _Rows:
    """Failure codes of a batch; the first precondition a row fails wins.

    ``detail`` keeps the quantities the failure messages quote.
    """

    def __init__(self, size: int):
        self.codes = np.zeros(size, dtype=np.int8)
        self.detail: dict[str, object] = {}

    def fail(self, mask: np.ndarray, code: int, **detail) -> None:
        self.codes[mask & (self.codes == 0)] = code
        self.detail.update(detail)

    @property
    def ok(self) -> np.ndarray:
        return self.codes == 0


def _libm(ok: np.ndarray, fn, *args) -> np.ndarray:
    """``fn`` over the rows of ``ok`` as Python floats, 1.0 elsewhere.

    numpy's SIMD ``power`` and ``exp`` differ from libm in the last bit on a
    few percent of inputs; float ``**`` and ``math.exp`` call libm, as the
    scalar arithmetic always has. Both raise ``OverflowError``; only then is
    each row evaluated on its own, an overflowed one as ``inf``, which fails
    it as not finite. Rows that failed a precondition are skipped.
    """
    out = np.ones(ok.shape)
    try:
        out[ok] = np.fromiter(map(fn, *args), dtype=np.float64, count=int(ok.sum()))
    except OverflowError:
        out[ok] = [_inf_on_overflow(fn, *row) for row in zip(*args)]
    return out


def _inf_on_overflow(fn, *args) -> float:
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _pow(base: np.ndarray, exponent: float, ok: np.ndarray) -> np.ndarray:
    return _libm(ok, operator.pow, base[ok].tolist(), itertools.repeat(exponent))


def _exp(arg: np.ndarray, ok: np.ndarray) -> np.ndarray:
    return _libm(ok, math.exp, arg[ok].tolist())


def _usual(cfg, pop, rows, p, xbar_s, sx2_s):
    return p


def _ta(cfg, pop, rows, p, xbar_s, sx2_s):
    rows.fail(xbar_s == 0.0, ZERO_MEAN)
    # grouping p * (xbar/xbar_s) keeps the power-transform reduction bit-exact
    return p * (pop.xbar / xbar_s)


def _tb(cfg, pop, rows, p, xbar_s, sx2_s):
    return p + cfg.params.h1 * (xbar_s / pop.xbar - 1.0)


def _tc(cfg, pop, rows, p, xbar_s, sx2_s):
    # (q1*p + q2*(xbar - xbar_s)) * (T/t)**alpha * exp(beta*(T - t)/(T + t))
    # with T = a*xbar + b and t = a*xbar_s + b
    tc = cfg.params
    pop_t = tc.a * pop.xbar + tc.b
    smp_t = tc.a * xbar_s + tc.b
    rows.fail((pop_t <= 0.0) | (smp_t <= 0.0), NONPOSITIVE_TRANSFORM,
              pop_t=pop_t, smp_t=smp_t)
    ok = rows.ok
    return ((tc.q1 * p + tc.q2 * (pop.xbar - xbar_s))
            * _pow(pop_t / smp_t, tc.alpha, ok)
            * _exp(tc.beta * (pop_t - smp_t) / (pop_t + smp_t), ok))


def _t1(cfg, pop, rows, p, xbar_s, sx2_s):
    mean_ratio = pop.xbar / xbar_s
    rows.fail((xbar_s <= 0.0) | (mean_ratio <= 0.0), MEAN_RATIO, xbar_s=xbar_s)
    rows.fail(sx2_s <= 0.0, SAMPLE_VARIANCE, sx2_s=sx2_s)
    ok = rows.ok
    return (p * _pow(mean_ratio, cfg.params.alpha, ok)
            * _pow(pop.sx2 / sx2_s, cfg.params.beta, ok))


def _t2(cfg, pop, rows, p, xbar_s, sx2_s):
    u = xbar_s / pop.xbar
    v = sx2_s / pop.sx2
    return p + cfg.params.h1 * (u - 1.0) + cfg.params.h2 * (v - 1.0)


def _t3(cfg, pop, rows, p, xbar_s, sx2_s):
    # m1*p*(xbar/(gamma*xbar_s + (1-gamma)*xbar))**g
    #   + m2*p*exp(delta*(sx2 - sx2_s)/(sx2 + sx2_s))
    t3 = cfg.params
    shifted = t3.gamma * xbar_s + (1.0 - t3.gamma) * pop.xbar
    base = pop.xbar / shifted
    rows.fail((shifted <= 0.0) | (base <= 0.0), SHIFTED_MEAN, shifted=shifted)
    rows.fail(pop.sx2 + sx2_s <= 0.0, VARIANCE_SUM)
    ok = rows.ok
    return (t3.m1 * p * _pow(base, t3.g, ok)
            + t3.m2 * p * _exp(t3.delta * (pop.sx2 - sx2_s) / (pop.sx2 + sx2_s), ok))


_KERNELS = {"usual": _usual, "ta": _ta, "tb": _tb, "tc": _tc,
            "t1": _t1, "t2": _t2, "t3": _t3}


def _kernel(cfg: EstimatorConfig, pop: PopulationParams, p: np.ndarray,
            xbar_s: np.ndarray, sx2_s: np.ndarray) -> tuple[np.ndarray, _Rows]:
    rows = _Rows(p.size)
    with np.errstate(all="ignore"):
        values = _KERNELS[cfg.kind](cfg, pop, rows, p, xbar_s, sx2_s)
    rows.fail(~np.isfinite(values), NOT_FINITE, value=values)
    return np.where(rows.ok, values, np.nan), rows


def evaluate_batch(cfg: EstimatorConfig, pop: PopulationParams, p: np.ndarray,
                   xbar_s: np.ndarray, sx2_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One estimator over many samples given as equally long arrays of
    sufficient statistics.

    ``cfg`` must already be resolved (see ``resolve_config``). Returns the
    estimates and a per-row failure code: 0 where the estimate exists,
    otherwise a code whose ``FAILURE_CLASSES`` entry is the error ``evaluate``
    raises for that sample. Failed rows hold NaN.
    """
    if cfg.params is not None and None in vars(cfg.params).values():
        raise InvalidConfig(f"the {cfg.kind} configuration has unresolved constants")
    values, rows = _kernel(cfg, pop, np.asarray(p, dtype=np.float64),
                           np.asarray(xbar_s, dtype=np.float64),
                           np.asarray(sx2_s, dtype=np.float64))
    return values, rows.codes


def evaluate(s: SampleStats, pop: PopulationParams, cfg: EstimatorConfig) -> Estimate:
    """The estimate of the configured kind, with its constants resolved: a
    batch of one, or the error its failure code names."""
    cfg = resolve_config(cfg, pop, sampling_fraction(s.n, pop.N))
    values, rows = _kernel(cfg, pop, np.array([s.p]), np.array([s.xbar_s]),
                           np.array([s.sx2_s]))
    code = rows.codes[0]
    if code:
        cls, template = _FAILURES[code]
        detail = {key: float(np.asarray(value).reshape(-1)[0])
                  for key, value in rows.detail.items()}
        raise cls(template.format(**detail))
    return Estimate(value=float(values[0]), config_used=cfg)
