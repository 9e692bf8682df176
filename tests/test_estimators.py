import dataclasses
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from propaux import (
    FAILURE_CLASSES,
    estimators,
    montecarlo,
    EstimatorConfig,
    PopulationFrame,
    SampleStats,
    compute_population_params,
    batch_stats,
    evaluate,
    evaluate_batch,
    resolve_config,
    sample_stats,
    sampling_fraction,
    theory,
)
from propaux.config import T1Config, T2Config, T3Config, TbConfig, TcConfig
from propaux.errors import (
    DataError,
    InvalidConfig,
    InvalidDesign,
    NonpositiveBase,
    NonpositiveTransform,
    SchemaError,
    ZeroSampleMean,
    ToolkitError,
)
from propaux.estimators import NOT_FINITE


@pytest.fixture(scope="module")
def pop():
    rng = np.random.default_rng(7)
    x = rng.lognormal(mean=1.0, sigma=0.4, size=60)
    prob = 1.0 / (1.0 + np.exp(-(3.0 * x - 8.0)))
    phi = (rng.uniform(size=60) < prob).astype(np.int64)
    frame = PopulationFrame(phi, x)
    return compute_population_params(frame)


TB, T2 = theory.FAMILIES["tb"], theory.FAMILIES["t2"]


def balanced_sample(pop, n=10, p=0.5):
    """A sample whose auxiliary statistics equal the population values."""
    return SampleStats(n=n, p=p, xbar_s=pop.xbar, sx2_s=pop.sx2)


class TestUsual:
    def test_identity(self, pop):
        stats = SampleStats(n=8, p=0.625, xbar_s=3.0, sx2_s=1.0)
        assert evaluate(stats, pop, EstimatorConfig(kind="usual")).value == 0.625

    def test_census_returns_population_proportion(self, rng):
        x = rng.lognormal(size=25)
        phi = (rng.uniform(size=25) < 0.5).astype(np.int64)
        if not 0 < phi.sum() < 25:
            phi[0] = 1 - phi[0]
        frame = PopulationFrame(phi, x)
        params = compute_population_params(frame)
        stats = sample_stats(frame, np.arange(25))
        assert evaluate(stats, params, EstimatorConfig(kind="usual")).value == params.P


class TestRatio:
    def test_balanced_sample_returns_p(self, pop):
        stats = balanced_sample(pop)
        assert evaluate(stats, pop, EstimatorConfig(kind="ta")).value == stats.p

    def test_direct_arithmetic(self, pop):
        pop10 = pop._replace(xbar=10.0, sx2=(pop.cx * 10.0) ** 2)
        stats = SampleStats(n=4, p=0.5, xbar_s=8.0, sx2_s=2.0)
        assert evaluate(stats, pop10, EstimatorConfig(kind="ta")).value == pytest.approx(
            0.625, rel=1e-15)

    def test_zero_sample_mean(self, pop):
        stats = SampleStats(n=4, p=0.5, xbar_s=0.0, sx2_s=2.0)
        with pytest.raises(ZeroSampleMean):
            evaluate(stats, pop, EstimatorConfig(kind="ta"))


class TestRegression:
    def test_balanced_sample_returns_p(self, pop):
        stats = balanced_sample(pop)
        assert evaluate(stats, pop, EstimatorConfig(kind="tb")).value == stats.p

    def test_zero_correlation_is_inert(self, pop):
        pop0 = pop._replace(rho_pb=0.0)
        stats = SampleStats(n=10, p=0.3, xbar_s=pop0.xbar * 1.3, sx2_s=pop0.sx2)
        assert evaluate(stats, pop0, EstimatorConfig(kind="tb")).value == stats.p

    def test_records_resolved_slope(self, pop):
        stats = balanced_sample(pop)
        estimate = evaluate(stats, pop, EstimatorConfig(kind="tb"))
        assert estimate.config_used.params.h1 == pytest.approx(
            TB.optimum(TbConfig(), pop, sampling_fraction(stats.n, pop.N))[0], rel=1e-15)


class TestTcFamily:
    def test_reduces_to_ratio_estimator(self, pop):
        cfg = EstimatorConfig(kind="tc", params=TcConfig(a=1.0, b=0.0, alpha=1.0,
                                                     beta=0.0, q1=1.0, q2=0.0))
        stats = SampleStats(n=10, p=0.4, xbar_s=0.8 * pop.xbar, sx2_s=pop.sx2)
        assert evaluate(stats, pop, cfg).value == evaluate(
            stats, pop, EstimatorConfig(kind="ta")).value

    def test_fully_inert_transform_returns_p(self, pop):
        cfg = EstimatorConfig(kind="tc", params=TcConfig(a=1.0, b=0.0, alpha=0.0,
                                                     beta=0.0, q1=1.0, q2=0.0))
        stats = SampleStats(n=10, p=0.4, xbar_s=0.8 * pop.xbar, sx2_s=pop.sx2)
        assert evaluate(stats, pop, cfg).value == 0.4

    def test_balanced_sample_gives_q1_p(self, pop):
        cfg = EstimatorConfig(kind="tc", params=TcConfig(q1=0.9, q2=4.2))
        stats = balanced_sample(pop, p=0.4)
        assert evaluate(stats, pop, cfg).value == pytest.approx(0.9 * 0.4, rel=1e-15)

    def test_nonpositive_transform(self, pop):
        cfg = EstimatorConfig(kind="tc", params=TcConfig(q1=1.0, q2=0.0))
        stats = SampleStats(n=4, p=0.5, xbar_s=-1.0, sx2_s=1.0)
        with pytest.raises(NonpositiveTransform):
            evaluate(stats, pop, cfg)

    @pytest.mark.parametrize("a, b, xbar_s", [
        (1e300, 0.0, 1e10),        # the sample side overflows to inf
        (1e308, 1e308, 1.0),       # the population side overflows to inf
        (1.0, 0.0, math.nan),
    ])
    @pytest.mark.parametrize("beta", [0.0, 0.7])
    def test_transform_that_is_not_finite(self, pop, a, b, xbar_s, beta):
        cfg = EstimatorConfig(kind="tc", params=TcConfig(a=a, b=b, beta=beta, q1=1.0, q2=0.0))
        with pytest.raises(NonpositiveTransform, match="positive and finite"):
            evaluate(SampleStats(n=4, p=0.5, xbar_s=xbar_s, sx2_s=1.0), pop, cfg)

    def test_optimal_weights_resolved_and_recorded(self, pop):
        cfg = EstimatorConfig(kind="tc")
        stats = balanced_sample(pop)
        estimate = evaluate(stats, pop, cfg)
        f = sampling_fraction(stats.n, pop.N)
        q1, q2 = theory.FAMILIES["tc"].optimum(TcConfig(), pop, f)
        assert estimate.config_used.params.q1 == pytest.approx(q1, rel=1e-15)
        assert estimate.config_used.params.q2 == pytest.approx(q2, rel=1e-15)


class TestT1:
    def test_zero_exponents_return_p(self, pop):
        cfg = EstimatorConfig(kind="t1", params=T1Config(alpha=0.0, beta=0.0))
        stats = SampleStats(n=10, p=0.7, xbar_s=0.5 * pop.xbar, sx2_s=2.0 * pop.sx2)
        assert evaluate(stats, pop, cfg).value == 0.7

    def test_balanced_sample_returns_p_for_any_exponents(self, pop):
        cfg = EstimatorConfig(kind="t1", params=T1Config(alpha=2.7, beta=-1.3))
        stats = balanced_sample(pop, p=0.3)
        assert evaluate(stats, pop, cfg).value == 0.3

    def test_reduces_to_ratio_estimator(self, pop):
        cfg = EstimatorConfig(kind="t1", params=T1Config(alpha=1.0, beta=0.0))
        stats = SampleStats(n=10, p=0.4, xbar_s=0.8 * pop.xbar, sx2_s=0.5 * pop.sx2)
        assert evaluate(stats, pop, cfg).value == evaluate(
            stats, pop, EstimatorConfig(kind="ta")).value

    def test_nonpositive_bases(self, pop):
        cfg = EstimatorConfig(kind="t1", params=T1Config(alpha=0.5, beta=0.5))
        with pytest.raises(NonpositiveBase):
            evaluate(SampleStats(n=4, p=0.5, xbar_s=-2.0, sx2_s=1.0), pop, cfg)
        with pytest.raises(NonpositiveBase):
            evaluate(SampleStats(n=4, p=0.5, xbar_s=2.0, sx2_s=0.0), pop, cfg)


class TestT2:
    def test_balanced_sample_returns_p(self, pop):
        cfg = EstimatorConfig(kind="t2")
        stats = balanced_sample(pop, p=0.4)
        assert evaluate(stats, pop, cfg).value == 0.4

    def test_nests_the_regression_member(self, pop):
        h1 = TB.optimum(TbConfig(), pop, sampling_fraction(10, pop.N))[0]
        cfg = EstimatorConfig(kind="t2", params=T2Config(h1=h1, h2=0.0))
        stats = SampleStats(n=10, p=0.4, xbar_s=1.2 * pop.xbar, sx2_s=0.7 * pop.sx2)
        assert evaluate(stats, pop, cfg).value == evaluate(
            stats, pop, EstimatorConfig(kind="tb")).value

    def test_optimal_offsets_recorded(self, pop):
        stats = balanced_sample(pop)
        estimate = evaluate(stats, pop, EstimatorConfig(kind="t2"))
        h1, h2 = T2.optimum(T2Config(), pop, sampling_fraction(stats.n, pop.N))
        assert estimate.config_used.params.h1 == pytest.approx(h1, rel=1e-15)
        assert estimate.config_used.params.h2 == pytest.approx(h2, rel=1e-15)


class TestT3:
    def test_inert_switches_with_half_weights(self, pop):
        cfg = EstimatorConfig(kind="t3", params=T3Config(gamma=1.0, g=0.0, delta=0.0,
                                                     m1=0.5, m2=0.5))
        stats = SampleStats(n=10, p=0.6, xbar_s=0.4 * pop.xbar, sx2_s=3.0 * pop.sx2)
        assert evaluate(stats, pop, cfg).value == 0.6

    def test_balanced_sample_gives_weight_sum_times_p(self, pop):
        cfg = EstimatorConfig(kind="t3", params=T3Config(m1=0.7, m2=0.4))
        stats = balanced_sample(pop, p=0.5)
        assert evaluate(stats, pop, cfg).value == pytest.approx(
            (0.7 + 0.4) * 0.5, rel=1e-15)

    def test_nonpositive_shifted_mean(self, pop):
        cfg = EstimatorConfig(kind="t3", params=T3Config(gamma=2.0, m1=0.5, m2=0.5))
        stats = SampleStats(n=4, p=0.5, xbar_s=-pop.xbar, sx2_s=pop.sx2)
        with pytest.raises(NonpositiveBase):
            evaluate(stats, pop, cfg)

    def test_optimal_weights_recorded(self, pop):
        stats = balanced_sample(pop)
        estimate = evaluate(stats, pop, EstimatorConfig(kind="t3"))
        f = sampling_fraction(stats.n, pop.N)
        m1, m2 = theory.FAMILIES["t3"].optimum(T3Config(), pop, f)
        assert estimate.config_used.params.m1 == pytest.approx(m1, rel=1e-15)
        assert estimate.config_used.params.m2 == pytest.approx(m2, rel=1e-15)


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidConfig):
            EstimatorConfig(kind="bogus")

    def test_mismatched_subconfig(self):
        with pytest.raises(InvalidConfig):
            EstimatorConfig(kind="t1", params=T3Config())

    def test_plain_kinds_take_no_subconfig(self):
        with pytest.raises(InvalidConfig):
            EstimatorConfig(kind="usual", params=TcConfig())

    def test_params_must_be_a_config(self):
        with pytest.raises(InvalidConfig):
            EstimatorConfig(kind="tc", params={"q1": 1.0})
        with pytest.raises(InvalidConfig):
            EstimatorConfig(kind="ta", params=T1Config())

    def test_one_parameter_slot(self):
        assert [f.name for f in dataclasses.fields(EstimatorConfig)] == [
            "kind", "params", "label"]
        assert EstimatorConfig(kind="t3").params == T3Config()
        assert EstimatorConfig(kind="usual").params is None

    def test_dispatcher_and_kind_guards(self, pop):
        stats = balanced_sample(pop)
        cfg = EstimatorConfig(kind="t1")
        assert evaluate(stats, pop, cfg).value == stats.p

    def test_evaluate_keeps_the_label_of_every_kind(self, pop):
        stats = balanced_sample(pop)
        for kind in theory.FAMILIES:
            cfg = EstimatorConfig(kind=kind, label="L")
            assert evaluate(stats, pop, cfg).config_used.name == "L"
            # every kind reads the design factor, so a sample larger than
            # the population is rejected whatever the kind
            with pytest.raises(InvalidDesign):
                evaluate(balanced_sample(pop, n=pop.N + 1, p=0.0), pop, cfg)

    def test_batch_needs_resolved_constants(self, pop):
        with pytest.raises(InvalidConfig):
            evaluate_batch(EstimatorConfig(kind="t1"), pop, [0.5], [pop.xbar], [pop.sx2])

    def test_resolution_is_idempotent(self, pop):
        f = sampling_fraction(10, pop.N)
        for kind in ("usual", "ta", "tb", "tc", "t1", "t2", "t3"):
            cfg = resolve_config(EstimatorConfig(kind=kind), pop, f)
            assert resolve_config(cfg, pop, f) == cfg

    def test_kv_parsing_round_trip(self):
        cfg = TcConfig.from_kv("a=1,b=0.5,alpha=2,beta=0,q1=optimal,q2=3.5")
        assert cfg == TcConfig(a=1.0, b=0.5, alpha=2.0, beta=0.0, q1=None, q2=3.5)
        with pytest.raises(ValueError):
            TcConfig.from_kv("bogus=1")
        with pytest.raises(ValueError):
            T3Config.from_kv("gamma=x")
        assert TcConfig.from_kv("a=1,,b=0") == TcConfig(a=1.0, b=0.0)

    def test_estimate_must_be_finite(self):
        with pytest.raises(SchemaError):
            estimators.Estimate(value=math.inf, config_used=EstimatorConfig(kind="usual"))


class TestRegistry:
    def test_kernels_follow_the_families(self):
        assert list(estimators._KERNELS) == list(theory.FAMILIES)

    def test_constants_are_the_none_defaults_of_the_parameter_class(self):
        for kind, family in theory.FAMILIES.items():
            free = () if family.params is None else tuple(
                name for name, value in family.params()._asdict().items() if value is None)
            assert family.constants == free, kind
            assert EstimatorConfig(kind=kind).params == (family.params and family.params())

    def test_default_configs_cover_every_kind_under_its_report_name(self):
        assert [(cfg.kind, cfg.name) for cfg in montecarlo.DEFAULT_CONFIGS] == [
            (kind, family.label or kind) for kind, family in theory.FAMILIES.items()]


class TestOverflow:
    """float ``**`` and ``math.exp`` raise on overflow; such a row fails as
    not finite, and the other rows of its batch keep their values."""

    CASES = [
        (EstimatorConfig(kind="tc", params=TcConfig(alpha=3000.0, q1=1.0, q2=0.0)),
         lambda pop: ([pop.xbar, 0.5 * pop.xbar, 1.1 * pop.xbar], [pop.sx2] * 3)),
        (EstimatorConfig(kind="t3", params=T3Config(delta=5000.0, m1=0.5, m2=0.5)),
         lambda pop: ([pop.xbar] * 3, [pop.sx2, 0.5 * pop.sx2, 1.5 * pop.sx2])),
    ]

    @pytest.mark.parametrize("cfg, stats", CASES)
    def test_overflowed_row_fails_alone(self, pop, cfg, stats):
        xbar_s, sx2_s = stats(pop)
        p = [0.5, 0.5, 0.5]
        values, codes = evaluate_batch(cfg, pop, p, xbar_s, sx2_s)
        assert codes.tolist() == [0, NOT_FINITE, 0]
        assert FAILURE_CLASSES[NOT_FINITE] is SchemaError
        assert np.isnan(values[1])
        keep = [0, 2]
        alone, alone_codes = evaluate_batch(cfg, pop, np.take(p, keep),
                                            np.take(xbar_s, keep), np.take(sx2_s, keep))
        assert alone_codes.tolist() == [0, 0]
        assert values[keep].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("cfg, stats", CASES)
    def test_scalar_overflow_is_not_finite(self, pop, cfg, stats):
        xbar_s, sx2_s = stats(pop)
        sample = SampleStats(n=10, p=0.5, xbar_s=xbar_s[1], sx2_s=sx2_s[1])
        with pytest.raises(SchemaError, match="estimate is not finite"):
            evaluate(sample, pop, cfg)


def _libm_pow(base: float, exponent: float) -> float:
    try:
        return operator.pow(base, exponent)
    except OverflowError:
        return math.inf


_EDGE_BASES = (5e-324, 1e-310, sys.float_info.min, 1.0, math.nextafter(1.0, 0.0),
               math.nextafter(1.0, 2.0), sys.float_info.max, math.inf)
_EDGE_EXPONENTS = (0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.37, 1.4, 3000.0, -3000.0, 1e300)


class TestPow:
    """The power kernel returns the bits of float ``**``: libm ``pow``."""

    @given(base=st.lists(st.one_of(st.sampled_from(_EDGE_BASES),
                                   st.floats(min_value=0.0, exclude_min=True)),
                         min_size=1, max_size=40),
           exponent=st.one_of(st.sampled_from(_EDGE_EXPONENTS),
                              st.floats(min_value=-5000.0, max_value=5000.0)),
           seed=st.integers(0, 2**32 - 1))
    @example(base=[1e300, 1.0001, 5e-324], exponent=3000.0, seed=0)
    @example(base=[5e-324, sys.float_info.max, math.inf], exponent=-3000.0, seed=0)
    @example(base=list(_EDGE_BASES), exponent=1.0, seed=0)
    @example(base=[5e-324, 1e-310, sys.float_info.max, math.inf], exponent=1.0, seed=1)
    @settings(max_examples=300, deadline=None)
    def test_rows_match_operator_pow(self, base, exponent, seed):
        # the drawn edge cases, then bulk bases of the kernels' scale, where
        # numpy's SIMD power differs from libm in the last bit
        rng = np.random.default_rng(seed)
        base = np.concatenate((base, rng.lognormal(0.0, 0.5, 200)))
        expect = [_libm_pow(b, exponent) for b in base.tolist()]
        with np.errstate(all="ignore"):  # as in the kernels
            got = estimators._pow(base, exponent)
        assert got.tobytes() == np.array(expect).tobytes()

    def test_overflowed_row_is_inf(self):
        with pytest.raises(OverflowError):
            operator.pow(1e300, 3000.0)
        with np.errstate(all="ignore"):
            got = estimators._pow(np.array([1e300, 1.0001]), 3000.0)
        assert got.tolist() == [math.inf, 1.0001 ** 3000.0]


def _libm_exp(arg: float) -> float:
    try:
        return math.exp(arg)
    except OverflowError:
        return math.inf


# zero and subnormal results, both sides of the 709 gate, the overflow edge
_EDGE_ARGS = (0.0, -0.0, -745.2, -708.5, 709.0, math.nextafter(709.0896, math.inf),
              709.5, 709.78, 709.79, math.inf, -math.inf, math.nan)


class TestExp:
    """The exponential kernel returns the bits of ``math.exp``: libm ``exp``."""

    @given(arg=st.lists(st.one_of(st.sampled_from(_EDGE_ARGS), st.floats()),
                        min_size=1, max_size=40),
           seed=st.integers(0, 2**32 - 1))
    @example(arg=list(_EDGE_ARGS), seed=0)
    @settings(max_examples=300, deadline=None)
    def test_rows_match_math_exp(self, arg, seed):
        # the drawn edge cases, bulk arguments of the kernels' scale, where
        # numpy's SIMD exp differs from libm in the last bit, and arguments
        # about the gate, where glibc's cexp rescales above 709
        rng = np.random.default_rng(seed)
        arg = np.concatenate((arg, rng.normal(0.0, 2.0, 200), rng.uniform(708.0, 710.0, 40)))
        expect = [_libm_exp(a) for a in arg.tolist()]
        with np.errstate(all="ignore"):  # as in the kernels
            got = estimators._exp(arg)
        assert got.tobytes() == np.array(expect).tobytes()


class TestCensusInertness:
    def test_every_estimator_returns_p_on_census_with_inert_config(self):
        rng = np.random.default_rng(12)
        x = rng.lognormal(mean=0.5, sigma=0.5, size=30)
        phi = (rng.uniform(size=30) < 0.4).astype(np.int64)
        if not 0 < phi.sum() < 30:
            phi[0] = 1 - phi[0]
        frame = PopulationFrame(phi, x)
        params = compute_population_params(frame)
        stats = sample_stats(frame, np.arange(30))
        p = params.P
        assert evaluate(stats, params, EstimatorConfig(kind="usual")).value == p
        assert evaluate(stats, params, EstimatorConfig(kind="ta")).value == p
        assert evaluate(stats, params, EstimatorConfig(kind="tb")).value == p
        inert_tc = EstimatorConfig(kind="tc", params=TcConfig(q1=1.0, q2=0.0))
        assert evaluate(stats, params, inert_tc).value == p
        cfg1 = EstimatorConfig(kind="t1", params=T1Config(alpha=1.4, beta=-0.2))
        assert evaluate(stats, params, cfg1).value == p
        assert evaluate(stats, params, EstimatorConfig(kind="t2")).value == p
        cfg3 = EstimatorConfig(kind="t3", params=T3Config(g=0.0, delta=0.0, m1=0.5, m2=0.5))
        assert evaluate(stats, params, cfg3).value == p


_CONSTANT = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
_SUBCONFIGS = {"tb": (TbConfig, ("h1",)),
               "tc": (TcConfig, ("a", "b", "alpha", "beta", "q1", "q2")),
               "t1": (T1Config, ("alpha", "beta")),
               "t2": (T2Config, ("h1", "h2")),
               "t3": (T3Config, ("gamma", "g", "delta", "m1", "m2"))}


@st.composite
def configs(draw):
    """Every estimator kind, with default (optimal) or explicit constants."""
    kind = draw(st.sampled_from(("usual", "ta", "tb", "tc", "t1", "t2", "t3")))
    if kind not in _SUBCONFIGS or draw(st.booleans()):
        return EstimatorConfig(kind=kind)
    cls, names = _SUBCONFIGS[kind]
    return EstimatorConfig(kind=kind, params=cls(**{name: draw(_CONSTANT)
                                                    for name in names}))


def assert_rows_match_evaluate(samples, pop, cfg, resolved):
    """Each batch row is bit-equal to ``evaluate``, or fails with its class.

    A row whose power or exponential overflows fails as ``NOT_FINITE`` on
    either path; the loop checks its class like any other failure.
    """
    p, xbar_s, sx2_s = (np.array([getattr(s, name) for s in samples])
                        for name in ("p", "xbar_s", "sx2_s"))
    values, codes = evaluate_batch(resolved, pop, p, xbar_s, sx2_s)
    for sample, code, value in zip(samples, codes, values):
        if code == 0:
            assert value == evaluate(sample, pop, cfg).value
        else:
            with pytest.raises(DataError) as caught:
                evaluate(sample, pop, cfg)
            assert type(caught.value) is FAILURE_CLASSES[code]
            assert np.isnan(value)


class TestBatchMatchesScalar:
    @given(x=st.lists(st.integers(-16, 48).map(lambda v: v / 4.0),
                      min_size=6, max_size=30),
           seed=st.integers(0, 2**32 - 1), cfg=configs())
    @settings(max_examples=300, deadline=None)
    def test_sampled_rows(self, x, seed, cfg):
        # a mixed-sign auxiliary on quarter steps, which sum exactly, gives
        # samples whose mean is zero or negative
        rng = np.random.default_rng(seed)
        phi = (rng.uniform(size=len(x)) < 0.5).astype(np.int64)
        try:
            frame = PopulationFrame(phi, np.array(x))
            pop = compute_population_params(frame)
            n = int(rng.integers(2, len(x) + 1))
            resolved = resolve_config(cfg, pop, sampling_fraction(n, pop.N))
        except ToolkitError:
            assume(False)
        indices = np.array([rng.choice(len(x), size=n, replace=False) for _ in range(20)])
        samples = [sample_stats(frame, row) for row in indices]
        assert np.array_equal(np.array([[s.p, s.xbar_s, s.sx2_s] for s in samples]).T,
                              np.array(batch_stats(frame, indices)))
        assert_rows_match_evaluate(samples, pop, cfg, resolved)

    @given(means=st.lists(st.sampled_from((0.0, -1.0, 5e-324, -5e-324, 1e-300, 3.0))
                          | st.floats(-20.0, 20.0), min_size=1, max_size=12),
           variances=st.lists(st.sampled_from((0.0, 5e-324)) | st.floats(0.0, 50.0),
                              min_size=12, max_size=12),
           cfg=configs())
    @settings(max_examples=300, deadline=None)
    def test_edge_statistics(self, pop, means, variances, cfg):
        # exact zeros, nonpositive and sub-normal means reach every failure class
        n = 8
        try:
            resolved = resolve_config(cfg, pop, sampling_fraction(n, pop.N))
        except ToolkitError:
            assume(False)
        samples = [SampleStats(n=n, p=k % (n + 1) / n, xbar_s=m, sx2_s=v)
                   for k, (m, v) in enumerate(zip(means, variances))]
        assert_rows_match_evaluate(samples, pop, cfg, resolved)


def _tc_with_exp(cfg, pop, rows, p, xbar_s, sx2_s):
    """The ``tc`` kernel with its exponential at every ``beta``: the
    reference for ``estimators._tc``, which calls none at ``beta = 0``."""
    tc = cfg.params
    pop_t = tc.a * pop.xbar + tc.b
    smp_t = tc.a * xbar_s + tc.b
    rows.fail(~((0.0 < pop_t) & (pop_t < math.inf) & (0.0 < smp_t) & (smp_t < math.inf)),
              estimators.NONPOSITIVE_TRANSFORM, pop_t=pop_t, smp_t=smp_t)
    return ((tc.q1 * p + tc.q2 * (pop.xbar - xbar_s))
            * estimators._pow(pop_t / smp_t, tc.alpha)
            * estimators._exp(tc.beta * (pop_t - smp_t) / (pop_t + smp_t)))


def _no_exp(arg):
    raise AssertionError("the tc kernel called _exp at beta = 0")


class TestTcAtBetaZero:
    """At ``beta = 0`` the ``tc`` kernel calls no exponential and keeps the
    bits and failure codes of the kernel that does."""

    @given(means=st.lists(st.sampled_from((0.0, -1.0, 5e-324, 1e10, math.inf, math.nan))
                          | st.floats(-20.0, 20.0), min_size=1, max_size=12),
           a=_CONSTANT | st.sampled_from((1e300, -1e300, 5e-324)),
           b=_CONSTANT | st.sampled_from((1e300, -1e300)),
           alpha=st.sampled_from((1.0, 0.0, 3000.0)) | _CONSTANT,
           q1=_CONSTANT, q2=_CONSTANT, beta=st.sampled_from((0.0, -0.0)))
    @example(means=[1e10, 2.0], a=1e300, b=0.0, alpha=1.0, q1=1.0, q2=0.0, beta=0.0)
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_exponential_form(self, pop, means, a, b, alpha, q1, q2, beta):
        # sample means that fail the transform check, overflow its sample
        # side to inf (which fails it too) or are not numbers at all
        cfg = EstimatorConfig(kind="tc", params=TcConfig(a=a, b=b, alpha=alpha, beta=beta,
                                                         q1=q1, q2=q2))
        xbar_s = np.array(means)
        p = np.linspace(0.0, 1.0, xbar_s.size)
        sx2_s = np.full(xbar_s.size, pop.sx2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(estimators._KERNELS, "tc", _tc_with_exp)
            expect, expect_rows = estimators._kernel(cfg, pop, p, xbar_s, sx2_s)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimators, "_exp", _no_exp)
            got, got_rows = estimators._kernel(cfg, pop, p, xbar_s, sx2_s)
        assert got.tobytes() == expect.tobytes()
        assert got_rows.codes.tolist() == expect_rows.codes.tolist()
        assert got_rows.detail.keys() == expect_rows.detail.keys()
        for key, value in expect_rows.detail.items():
            assert np.array_equal(got_rows.detail[key], value, equal_nan=True), key
