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

A kernel records the precondition each row fails and computes every row
anyway, under ``np.errstate(all="ignore")``; ``_kernel`` is the one place
where a failed row becomes NaN.

The kernels give the bits of scalar float arithmetic, whose powers and
exponentials call libm. Powers (``tc``, ``t1``, ``t3``) run as one
``np.float_power`` call, whose loop is libm ``pow``, or none at exponent 1.
The exponentials of ``tc`` and ``t3`` run as one complex ``np.exp`` call,
whose loop is libm ``cexp``; only rows above 709 call ``math.exp`` one at a
time. ``tc`` at ``beta = 0`` calls none.
"""

from __future__ import annotations

import math
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
from .population import SampleStats


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


def resolve_config(cfg: EstimatorConfig, pop: theory.PopulationParams, f: float) -> EstimatorConfig:
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
     "a*mean + b must stay positive and finite (population {pop_t}, sample {smp_t})"),
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


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` on every row.

    numpy's float64 ``float_power`` loop calls C ``pow`` on each element and
    has no SIMD variant, so it returns the bits of float ``**``, which calls
    the same libm. ``power`` differs from libm in the last bit on a few
    percent of inputs. An overflowed row comes out as ``inf``, which fails
    it as not finite. ``pow(x, 1)`` is exactly ``x``, so exponent 1 (the
    default ``tc`` and ``t3``) calls no ``pow``.
    """
    return base if exponent == 1.0 else np.float_power(base, exponent)


def _exp(arg: np.ndarray) -> np.ndarray:
    """``math.exp`` on every row.

    numpy's SIMD ``exp`` differs from libm in the last bit on a few percent
    of inputs. Its ``complex128`` loop has no SIMD variant and calls libm
    ``cexp``, which glibc computes at imaginary part 0 as the ``exp`` that
    ``math.exp`` calls, up to 709; above that it rescales by ``exp(709)``.
    Rows above 709, and NaN rows, call ``math.exp`` one at a time, an
    overflowed one giving ``inf``, which fails it as not finite.
    """
    exact = arg <= 709.0
    out = np.exp(arg.astype(np.complex128)).real
    for i in np.flatnonzero(~exact):
        try:
            out[i] = math.exp(arg[i])
        except OverflowError:
            out[i] = math.inf
    return out


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
    rows.fail(~((0.0 < pop_t) & (pop_t < math.inf) & (0.0 < smp_t) & (smp_t < math.inf)),
              NONPOSITIVE_TRANSFORM, pop_t=pop_t, smp_t=smp_t)
    value = (tc.q1 * p + tc.q2 * (pop.xbar - xbar_s)) * _pow(pop_t / smp_t, tc.alpha)
    arg = tc.beta * (pop_t - smp_t) / (pop_t + smp_t)
    # at beta = 0 (the default) each arg is ±0, or NaN on a row that fails the
    # check, so exp(arg) is arg + 1 on every row
    return value * (arg + 1.0 if tc.beta == 0.0 else _exp(arg))


def _t1(cfg, pop, rows, p, xbar_s, sx2_s):
    mean_ratio = pop.xbar / xbar_s
    rows.fail((xbar_s <= 0.0) | (mean_ratio <= 0.0), MEAN_RATIO, xbar_s=xbar_s)
    rows.fail(sx2_s <= 0.0, SAMPLE_VARIANCE, sx2_s=sx2_s)
    return p * _pow(mean_ratio, cfg.params.alpha) * _pow(pop.sx2 / sx2_s, cfg.params.beta)


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
    return (t3.m1 * p * _pow(base, t3.g)
            + t3.m2 * p * _exp(t3.delta * (pop.sx2 - sx2_s) / (pop.sx2 + sx2_s)))


_KERNELS = {"usual": _usual, "ta": _ta, "tb": _tb, "tc": _tc,
            "t1": _t1, "t2": _t2, "t3": _t3}


def _kernel(cfg: EstimatorConfig, pop: theory.PopulationParams, p: np.ndarray,
            xbar_s: np.ndarray, sx2_s: np.ndarray) -> tuple[np.ndarray, _Rows]:
    rows = _Rows(p.size)
    with np.errstate(all="ignore"):
        values = _KERNELS[cfg.kind](cfg, pop, rows, p, xbar_s, sx2_s)
    rows.fail(~np.isfinite(values), NOT_FINITE, value=values)
    return np.where(rows.codes == 0, values, np.nan), rows


def evaluate_batch(cfg: EstimatorConfig, pop: theory.PopulationParams, p: np.ndarray,
                   xbar_s: np.ndarray, sx2_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One estimator over many samples given as equally long arrays of
    sufficient statistics.

    ``cfg`` must already be resolved (see ``resolve_config``). Returns the
    estimates and a per-row failure code: 0 where the estimate exists,
    otherwise a code whose ``FAILURE_CLASSES`` entry is the error ``evaluate``
    raises for that sample. Failed rows hold NaN, and every other row is
    finite.
    """
    if cfg.params is not None and None in cfg.params:
        raise InvalidConfig(f"the {cfg.kind} configuration has unresolved constants")
    values, rows = _kernel(cfg, pop, np.asarray(p, dtype=np.float64),
                           np.asarray(xbar_s, dtype=np.float64),
                           np.asarray(sx2_s, dtype=np.float64))
    return values, rows.codes


def evaluate(s: SampleStats, pop: theory.PopulationParams, cfg: EstimatorConfig) -> Estimate:
    """The estimate of the configured kind, with its constants resolved: a
    batch of one, or the error its failure code names."""
    cfg = resolve_config(cfg, pop, theory.sampling_fraction(s.n, pop.N))
    values, rows = _kernel(cfg, pop, np.array([s.p]), np.array([s.xbar_s]),
                           np.array([s.sx2_s]))
    code = rows.codes[0]
    if code:
        cls, template = _FAILURES[code]
        detail = {key: float(np.asarray(value).reshape(-1)[0])
                  for key, value in rows.detail.items()}
        raise cls(template.format(**detail))
    return Estimate(value=float(values[0]), config_used=cfg)
