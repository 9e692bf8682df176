import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from propaux import theory
from propaux.config import T1Config, T2Config, T3Config, TableConfig, TbConfig, TcConfig
from propaux.estimators import EstimatorConfig, evaluate_batch
from propaux.errors import (
    DegenerateMoments,
    InvalidConfig,
    NegativeMse,
    NonpositiveMse,
    SingularSystem,
    ToolkitError,
)
from propaux.io import ParamsDocument
from propaux.population import Design, PopulationParams

from conftest import random_frame, random_params, well_posed_params
from propaux.population import compute_population_params
from _oracles import (
    REF,
    assert_stationary,
    fd_gradient,
    grid_min,
    rational_min_mse_tb,
    rational_moments,
    rational_mse_ta,
    rational_t1_min_mse,
    rational_t3_constants,
    rational_t3_min_mse,
    rational_tc_deltas,
    rational_tc_min_mse,
    rational_var_usual,
)


@pytest.fixture(scope="module")
def plain_pop() -> PopulationParams:
    """A hand-valid parameter vector for algebra-only checks."""
    return PopulationParams(
        N=100, P=0.4, xbar=10.0, sx2=4.0, sp2=100 * 0.4 * 0.6 / 99,
        cp=math.sqrt(100 * 0.4 * 0.6 / 99) / 0.4, cx=0.2,
        rho_pb=0.5, lambda03=0.3, lambda04=2.0, lambda12=0.1,
    )


F_PLAIN = 1 / 20 - 1 / 100

TB, T1, T2, TC, T3 = (theory.FAMILIES[kind] for kind in ("tb", "t1", "t2", "tc", "t3"))


def pair_terms(family, cfg, pop, f) -> tuple:
    """The terms of a two-weight family at ``cfg``, read off the population's C:
    the system (a11, a12, a22, b1, b2) first, then (for tc) theta, bc and ac."""
    return family.terms(cfg, pop, f)(theory._moments(pop))


class TestVarUsual:
    def test_reference_value(self, ref_pop, ref_design):
        expect = float(rational_var_usual())
        assert theory.var_usual(ref_pop, ref_design.f) == pytest.approx(expect, rel=1e-13)

    def test_census_collapses(self, ref_pop):
        assert theory.var_usual(ref_pop, 0.0) == 0.0


class TestRatio:
    def test_reference_mse(self, ref_pop, ref_design):
        assert theory.FAMILIES["ta"].mse(None, ref_pop, ref_design.f) == pytest.approx(
            float(rational_mse_ta()), rel=1e-13)

    def test_reference_pre_band(self, ref_pop, ref_design):
        value = theory.pre(theory.var_usual(ref_pop, ref_design.f),
                           theory.FAMILIES["ta"].mse(None, ref_pop, ref_design.f))
        assert value == pytest.approx(189.21, abs=0.01)

    def test_breakeven_correlation(self, plain_pop):
        # at rho = cx/(2*cp) the ratio estimate ties the usual one
        pop = plain_pop._replace(rho_pb=plain_pop.cx / (2 * plain_pop.cp))
        assert theory.FAMILIES["ta"].mse(None, pop, F_PLAIN) == pytest.approx(
            theory.var_usual(pop, F_PLAIN), rel=1e-12)

    def test_inert_auxiliary_bias(self, plain_pop):
        pop = plain_pop._replace(rho_pb=0.0)
        bias = theory.FAMILIES["ta"].bias(None, pop, F_PLAIN)
        assert bias == pytest.approx(F_PLAIN * pop.P * pop.cx**2, rel=1e-12)


class TestRegressionClass:
    def test_reference_minimum_matches_rational_oracle(self, ref_pop, ref_design):
        assert TB.min_mse(TbConfig(), ref_pop, ref_design.f) == pytest.approx(
            float(rational_min_mse_tb()), rel=1e-13)

    def test_reference_pre(self, ref_pop, ref_design):
        value = theory.pre(theory.var_usual(ref_pop, ref_design.f),
                           TB.min_mse(TbConfig(), ref_pop, ref_design.f))
        assert value == pytest.approx(511.79, abs=0.05)

    def test_zero_correlation_matches_usual(self, plain_pop):
        pop = plain_pop._replace(rho_pb=0.0)
        assert TB.min_mse(TbConfig(), pop, F_PLAIN) == theory.var_usual(pop, F_PLAIN)

    def test_perfect_correlation_vanishes(self, plain_pop):
        pop = plain_pop._replace(rho_pb=1.0)
        assert TB.min_mse(TbConfig(), pop, F_PLAIN) == pytest.approx(0.0, abs=1e-15)


class TestTcFamily:
    def test_plain_ratio_transform(self, ref_pop, ref_design):
        theta, bc, ac = pair_terms(TC, TcConfig(), ref_pop, ref_design.f)[5:]
        assert theta == 1.0
        assert bc == 1.0
        assert ac == 1.0

    def test_inert_transform(self, ref_pop, ref_design):
        d1, _, _, _, _, _, bc, ac = pair_terms(TC, TcConfig(alpha=0.0), ref_pop, ref_design.f)
        assert bc == 0.0
        assert ac == 0.0
        # with R = 1, E[Y1^2] = E[p^2] = P^2*(1 + f*cp^2)
        assert d1 - ref_pop.P**2 == pytest.approx(
            ref_pop.P**2 * ref_design.f * ref_pop.cp**2, rel=1e-13)

    def test_reference_deltas_match_rational_oracle(self, ref_pop, ref_design):
        t = pair_terms(TC, TcConfig(), ref_pop, ref_design.f)
        expect = rational_tc_deltas()
        for name, value in zip(("delta1", "delta2", "delta3", "delta4", "delta5"), t):
            assert value == pytest.approx(float(expect[name]), rel=1e-12), name

    def test_reference_min_mse_and_pre(self, ref_pop, ref_design):
        mse = TC.min_mse(TcConfig(), ref_pop, ref_design.f)
        assert mse == pytest.approx(float(rational_tc_min_mse()), rel=1e-12)
        value = theory.pre(theory.var_usual(ref_pop, ref_design.f), mse)
        assert 505.0 <= value <= 525.0

    def test_optimal_q_is_stationary(self, ref_pop, ref_design):
        f = ref_design.f
        q1, q2 = TC.optimum(TcConfig(), ref_pop, f)
        fn = lambda q: TC.mse(TcConfig(q1=q[0], q2=q[1]), ref_pop, f)
        assert_stationary(fn, [q1, q2])
        assert all(abs(g) <= 1e-8 for g in fd_gradient(fn, [q1, q2]))

    def test_optimal_q_beats_grid(self, ref_pop, ref_design):
        f = ref_design.f
        d1, d2, d3, d4, d5 = pair_terms(TC, TcConfig(), ref_pop, f)[:5]
        q1, q2 = TC.optimum(TcConfig(), ref_pop, f)
        best = TC.min_mse(TcConfig(), ref_pop, f)
        # 401x401 grid spanning half the optimum in each coordinate
        q1s = np.linspace(q1 - 0.5 * abs(q1), q1 + 0.5 * abs(q1), 401)
        q2s = np.linspace(q2 - 0.5 * abs(q2), q2 + 0.5 * abs(q2), 401)
        g1, g2 = np.meshgrid(q1s, q2s)
        surface = (ref_pop.P**2
                   + g1**2 * d1 + g2**2 * d3 + 2 * g1 * g2 * d2
                   - 2 * g1 * d4 - 2 * g2 * d5)
        assert surface.min() >= best - 1e-12

    def test_substitution_closure(self, ref_pop, ref_design):
        f = ref_design.f
        q1, q2 = TC.optimum(TcConfig(), ref_pop, f)
        assert TC.mse(TcConfig(q1=q1, q2=q2), ref_pop, f) == pytest.approx(
            TC.min_mse(TcConfig(), ref_pop, f), rel=1e-10)

    # hand-built systems (d1, d2, d3, d4, d5)
    def test_decoupled_system(self):
        q1, q2 = theory._pair_optimum((2.0, 0.0, 1.5, 0.5, 0.0), theory._TC)
        assert q1 == pytest.approx(0.5 / 2.0, rel=1e-15)
        assert q2 == 0.0

    def test_no_linear_terms_gives_p_squared(self, ref_pop):
        value = theory._pair_min_mse((2.0, 0.1, 1.5, 0.0, 0.0), ref_pop.P, theory._TC)
        assert value == pytest.approx(ref_pop.P**2, rel=1e-15)

    def test_singular_system(self):
        with pytest.raises(SingularSystem):
            theory._pair_optimum((1.0, 1.0, 1.0, 0.5, 0.5), theory._TC)

    def test_indefinite_form_has_no_minimum(self, ref_pop):
        # d1*d3 - d2^2 = -3: the stationary pair is a saddle point
        t = (1.0, 2.0, 1.0, 0.5, 0.5)
        assert theory._pair_optimum(t, theory._TC) == pytest.approx((1 / 6, 1 / 6), rel=1e-15)
        with pytest.raises(SingularSystem):
            theory._pair_min_mse(t, ref_pop.P, theory._TC)

    def test_ratio_config_bias_reduction(self, ref_pop, ref_design):
        f = ref_design.f
        bc, ac = pair_terms(TC, TcConfig(), ref_pop, f)[6:]
        bias = TC.bias(TcConfig(q1=1.0, q2=0.0), ref_pop, f)
        expect = f * ref_pop.P * (ac * ref_pop.cx**2
                                  - bc * ref_pop.rho_pb * ref_pop.cp * ref_pop.cx)
        assert bias == pytest.approx(expect, rel=1e-12)

    def test_nonpositive_transform(self, ref_pop, ref_design):
        with pytest.raises(theory.NonpositiveTransform):
            pair_terms(TC, TcConfig(a=-1.0), ref_pop, ref_design.f)

    @pytest.mark.parametrize("a, b", [(1e308, 1e308), (math.inf, 0.0), (math.nan, 1.0)])
    def test_transform_that_is_not_finite(self, ref_pop, ref_design, a, b):
        with pytest.raises(theory.NonpositiveTransform, match="positive and finite"):
            pair_terms(TC, TcConfig(a=a, b=b), ref_pop, ref_design.f)


class TestT1:
    def test_uncorrelated_variance_channel(self, plain_pop):
        pop = plain_pop._replace(lambda03=0.0, lambda12=0.0)
        alpha, beta = T1.optimum(T1Config(), pop, F_PLAIN)
        assert alpha == pytest.approx(pop.cp * pop.rho_pb / pop.cx, rel=1e-12)
        assert beta == 0.0

    def test_no_exploitable_correlation(self, plain_pop):
        pop = plain_pop._replace(rho_pb=0.0, lambda12=0.0)
        alpha, beta = T1.optimum(T1Config(), pop, F_PLAIN)
        assert alpha == pytest.approx(0.0, abs=1e-15)
        assert beta == pytest.approx(0.0, abs=1e-15)

    def test_reference_minimum_matches_rational_oracle(self, ref_pop, ref_design):
        assert T1.min_mse(T1Config(), ref_pop, ref_design.f) == pytest.approx(
            float(rational_t1_min_mse()), rel=1e-13)

    def test_reference_pre_band(self, ref_pop, ref_design):
        value = theory.pre(theory.var_usual(ref_pop, ref_design.f),
                           T1.min_mse(T1Config(), ref_pop, ref_design.f))
        assert value == pytest.approx(513.13, abs=0.01)

    def test_zero_exponents_match_usual(self, ref_pop, ref_design):
        assert T1.mse(T1Config(0.0, 0.0), ref_pop, ref_design.f) == pytest.approx(
            theory.var_usual(ref_pop, ref_design.f), rel=1e-15)

    def test_substitution_closure(self, ref_pop, ref_design):
        alpha, beta = T1.optimum(T1Config(), ref_pop, ref_design.f)
        assert T1.mse(T1Config(alpha, beta), ref_pop, ref_design.f) == pytest.approx(
            T1.min_mse(T1Config(), ref_pop, ref_design.f), rel=1e-12)

    def test_optimum_is_stationary(self, ref_pop, ref_design):
        alpha, beta = T1.optimum(T1Config(), ref_pop, ref_design.f)
        fn = lambda v: T1.mse(T1Config(v[0], v[1]), ref_pop, ref_design.f)
        assert_stationary(fn, [alpha, beta])
        assert all(abs(g) <= 1e-8 for g in fd_gradient(fn, [alpha, beta]))

    def test_mean_channel_only_recovers_regression_class(self, ref_pop, ref_design):
        # optimizing alpha alone (beta pinned at 0) lands on the regression minimum
        alpha = ref_pop.cp * ref_pop.rho_pb / ref_pop.cx
        assert T1.mse(T1Config(alpha, 0.0), ref_pop, ref_design.f) == pytest.approx(
            TB.min_mse(TbConfig(), ref_pop, ref_design.f), rel=1e-12)

    def test_grid_domination(self, ref_pop, ref_design):
        alpha, beta = T1.optimum(T1Config(), ref_pop, ref_design.f)
        best = T1.min_mse(T1Config(), ref_pop, ref_design.f)
        worst = grid_min(lambda v: T1.mse(T1Config(v[0], v[1]), ref_pop, ref_design.f),
                         [alpha, beta], steps=101)
        assert worst >= best - 1e-12

    def test_degenerate_moments(self, plain_pop):
        # two-point auxiliary marginal: kurtosis 1, no skewness, zero gap
        pop = plain_pop._replace(lambda03=0.0, lambda04=1.0)
        with pytest.raises(DegenerateMoments):
            T1.optimum(T1Config(), pop, F_PLAIN)

    def test_unrealizable_parameters_raise_negative_mse(self, plain_pop):
        pop = plain_pop._replace(rho_pb=0.0, lambda03=0.0,
                                 lambda04=2.0, lambda12=1.5)
        with pytest.raises(NegativeMse):
            T1.min_mse(T1Config(), pop, F_PLAIN)

    def test_perturbing_optimum_never_improves(self, ref_pop, ref_design):
        alpha, beta = T1.optimum(T1Config(), ref_pop, ref_design.f)
        best = T1.min_mse(T1Config(), ref_pop, ref_design.f)
        for da in (-0.1, 0.0, 0.1):
            for db in (-0.1, 0.0, 0.1):
                value = T1.mse(T1Config(alpha * (1 + da), beta * (1 + db)), ref_pop, ref_design.f)
                assert value >= best - 1e-15


class TestT2:
    def test_minimum_identical_to_t1(self, ref_pop, ref_design):
        assert theory.FAMILIES["t2"].min_mse(T2Config(), ref_pop, ref_design.f) == (
            T1.min_mse(T1Config(), ref_pop, ref_design.f))

    def test_identity_on_random_vectors(self, rng):
        for _ in range(50):
            pop = random_params(rng)
            f = 1 / 30 - 1 / pop.N if pop.N > 30 else 1 / 2 - 1 / pop.N
            t1 = T1.min_mse(T1Config(), pop, f)
            t2 = theory.FAMILIES["t2"].min_mse(T2Config(), pop, f)
            assert t2 == pytest.approx(t1, rel=1e-12)

    def test_inert_variance_channel(self, plain_pop):
        pop = plain_pop._replace(lambda03=0.0, lambda12=0.0)
        h1, h2 = T2.optimum(T2Config(), pop, F_PLAIN)
        assert h2 == 0.0
        assert theory.FAMILIES["t2"].min_mse(T2Config(), pop, F_PLAIN) == pytest.approx(
            TB.min_mse(TbConfig(), pop, F_PLAIN), rel=1e-12)

    def test_offsets_are_negative_p_times_exponents(self, ref_pop, ref_design):
        alpha, beta = T1.optimum(T1Config(), ref_pop, ref_design.f)
        h1, h2 = T2.optimum(T2Config(), ref_pop, ref_design.f)
        assert h1 == pytest.approx(-ref_pop.P * alpha, rel=1e-15)
        assert h2 == pytest.approx(-ref_pop.P * beta, rel=1e-15)

    def test_optimum_is_stationary(self, ref_pop, ref_design):
        h1, h2 = T2.optimum(T2Config(), ref_pop, ref_design.f)
        assert_stationary(
            lambda v: T2.mse(T2Config(v[0], v[1]), ref_pop, ref_design.f), [h1, h2])


class TestT3:
    def test_inert_switches(self, ref_pop, ref_design):
        a, d, c, b, e = pair_terms(T3, T3Config(g=0.0, delta=0.0), ref_pop, ref_design.f)
        shrink = 1.0 + ref_design.f * ref_pop.cp**2
        assert a == pytest.approx(shrink, rel=1e-15)
        assert c == pytest.approx(shrink, rel=1e-15)
        assert d == pytest.approx(shrink, rel=1e-15)
        assert b == 1.0
        assert e == 1.0

    def test_zero_gamma_kills_ratio_channel(self, ref_pop, ref_design):
        a, _, _, b, _ = pair_terms(T3, T3Config(gamma=0.0), ref_pop, ref_design.f)
        assert b == 1.0
        assert a == pytest.approx(1.0 + ref_design.f * ref_pop.cp**2, rel=1e-15)

    def test_reference_constants_match_rational_oracle(self, ref_pop, ref_design):
        a, d, c, b, e = pair_terms(T3, T3Config(), ref_pop, ref_design.f)
        expect = rational_t3_constants()
        for value, target in zip((a, b, c, d, e), expect):
            assert value == pytest.approx(float(target), rel=1e-13)

    def test_reference_min_mse_matches_rational_oracle(self, ref_pop, ref_design):
        assert T3.min_mse(T3Config(), ref_pop, ref_design.f) == pytest.approx(
            float(rational_t3_min_mse()), rel=1e-11)

    def test_optimal_m_is_stationary(self, ref_pop, ref_design):
        f = ref_design.f
        m1, m2 = T3.optimum(T3Config(), ref_pop, f)
        fn = lambda v: T3.mse(T3Config(m1=v[0], m2=v[1]), ref_pop, f)
        assert_stationary(fn, [m1, m2])
        assert all(abs(g) <= 1e-8 for g in fd_gradient(fn, [m1, m2]))

    def test_bias_at_optimum_equals_negative_mse_over_p(self, ref_pop, ref_design):
        f = ref_design.f
        t3 = theory.FAMILIES["t3"]
        mse = t3.min_mse(T3Config(), ref_pop, f)
        bias = t3.bias(t3.resolve(T3Config(), ref_pop, f), ref_pop, f)
        assert bias == pytest.approx(-mse / ref_pop.P, rel=1e-12)
        m1, m2 = t3.optimum(T3Config(), ref_pop, f)
        assert t3.bias(T3Config(m1=m1, m2=m2), ref_pop, f) == pytest.approx(bias, rel=1e-10)

    def test_bias_at_given_weights(self, ref_pop, ref_design):
        _, _, _, b, e = pair_terms(T3, T3Config(), ref_pop, ref_design.f)
        bias = T3.bias(T3Config(m1=0.6, m2=0.4), ref_pop, ref_design.f)
        assert bias == pytest.approx(-ref_pop.P * (1.0 - 0.6 * b - 0.4 * e), rel=1e-15)
        assert bias == pytest.approx(0.0011250, abs=5e-8)

    def test_rank_deficient_system(self):
        # the hand-built system (a, d, c, b, e)
        with pytest.raises(SingularSystem):
            theory._pair_optimum((1.2, 1.2, 1.2, 0.9, 0.9), theory._T3)

    def test_inert_case_is_flagged_singular(self, ref_pop, ref_design):
        with pytest.raises(SingularSystem):
            T3.optimum(T3Config(g=0.0, delta=0.0), ref_pop, ref_design.f)

    def test_inert_case_shrinkage_line(self, ref_pop, ref_design):
        # with both channels inert any split of the optimal total weight
        # m1 + m2 = 1/(1 + f*cp^2) reaches the same shrinkage MSE
        inert = T3Config(g=0.0, delta=0.0)
        shrink = 1.0 + ref_design.f * ref_pop.cp**2
        total = 1.0 / shrink
        expect = ref_pop.P**2 * ref_design.f * ref_pop.cp**2 / shrink
        for m1 in (-0.25, 0.0, 0.4, total, 1.0):
            value = T3.mse(inert._replace(m1=m1, m2=total - m1), ref_pop, ref_design.f)
            assert value == pytest.approx(expect, rel=1e-9)

    def test_inert_routes_agree(self, ref_pop, ref_design):
        # building the system (a, d, c, b, e) directly gives the same shrinkage value
        shrink = 1.0 + ref_design.f * ref_pop.cp**2
        t = (shrink, shrink, shrink, 1.0, 1.0)
        total = 1.0 / shrink
        expect = ref_pop.P**2 * ref_design.f * ref_pop.cp**2 / shrink
        assert theory._pair_mse(t, ref_pop.P, theory._T3, total, 0.0) == pytest.approx(
            expect, rel=1e-12)


class TestBiasReadsItsConfiguration:
    @pytest.mark.parametrize("kind", ["tc", "t1", "t3"])
    def test_moving_a_constant_moves_the_bias(self, kind, ref_pop, ref_design):
        f = ref_design.f
        family = theory.FAMILIES[kind]
        cfg = family.resolve(family.params(), ref_pop, f)
        name = family.constants[0]
        moved = cfg._replace(**{name: getattr(cfg, name) + 0.1})
        assert family.bias(moved, ref_pop, f) != pytest.approx(
            family.bias(cfg, ref_pop, f), rel=1e-6)


#: Fixed constants of every kind; tc with two transforms and t3 with two
#: switch sets, each at weights away from (1, 0).
EXPANSION_CASES = {
    "usual": None,
    "ta": None,
    "tb": TbConfig(h1=-1.2),
    "tc": TcConfig(q1=1.2, q2=0.05),
    "tc-transform": TcConfig(a=2.0, b=1.0, alpha=2.0, beta=1.0, q1=0.9, q2=0.03),
    "t1": T1Config(alpha=0.8, beta=0.1),
    "t2": T2Config(h1=-1.1, h2=0.05),
    "t3": T3Config(m1=0.6, m2=0.4),
    "t3-switched": T3Config(gamma=0.5, g=1.0, delta=-1.0, m1=0.7, m2=0.2),
}


def kernel_expansion(cfg: EstimatorConfig, pop: PopulationParams, h: float = 1e-4):
    """``t0``, gradient ``g`` and Hessian ``H`` of the estimate that
    ``evaluate_batch`` computes at (P(1+e0), X(1+e1), S^2(1+e2)), in e at
    e = 0, by central differences on the 27-point grid of steps -h, 0, h."""
    grid = np.array(list(itertools.product((-h, 0.0, h), repeat=3)))
    values, codes = evaluate_batch(cfg, pop, pop.P * (1.0 + grid[:, 0]),
                                   pop.xbar * (1.0 + grid[:, 1]), pop.sx2 * (1.0 + grid[:, 2]))
    assert not codes.any()
    t = values.reshape(3, 3, 3)

    def at(*steps):
        index = [1, 1, 1]
        for axis, sign in steps:
            index[axis] += sign
        return t[tuple(index)]

    g = np.array([(at((i, 1)) - at((i, -1))) / (2.0 * h) for i in range(3)])
    hess = np.empty((3, 3))
    for i in range(3):
        hess[i, i] = (at((i, 1)) - 2.0 * at() + at((i, -1))) / h**2
        for j in range(i + 1, 3):
            corners = (at((i, 1), (j, 1)) - at((i, 1), (j, -1))
                       - at((i, -1), (j, 1)) + at((i, -1), (j, -1)))
            hess[i, j] = hess[j, i] = corners / (4.0 * h * h)
    return at(), g, hess


def moment_matrix(pop: PopulationParams) -> np.ndarray:
    """C, the second moments of (e0, e1, e2) over f."""
    cp, cx = pop.cp, pop.cx
    return np.array([[cp**2, pop.rho_pb * cp * cx, cp * pop.lambda12],
                     [pop.rho_pb * cp * cx, cx**2, cx * pop.lambda03],
                     [cp * pop.lambda12, cx * pop.lambda03, pop.lambda04 - 1.0]])


class TestTheoryIsTheKernelsExpansion:
    """Each kind's first-order bias and MSE at fixed constants are the
    second-order expansion of its kernel, E[e e'] = f*C:

        bias = t0 - P + f/2*sum(H*C),
        mse  = (t0 - P)^2 + f*(g'Cg + (t0 - P)*sum(H*C)).

    Both agree within 1e-5 relative; a bias that is zero in theory (the
    linear kinds) within 1e-8, the roundoff of the second differences."""

    @pytest.mark.parametrize("case", EXPANSION_CASES)
    @pytest.mark.parametrize("population", ["readme", 0, 1, 2])
    def test_bias_and_mse(self, case, population, ref_pop, ref_design):
        if population == "readme":
            pop, f = ref_pop, ref_design.f
        else:
            pop, f = well_posed_params(np.random.default_rng(population))
        params = EXPANSION_CASES[case]
        kind = case.split("-")[0]
        family = theory.FAMILIES[kind]
        t0, g, hess = kernel_expansion(EstimatorConfig(kind=kind, params=params), pop)
        c = moment_matrix(pop)
        offset, curvature = t0 - pop.P, float(np.sum(hess * c))
        assert family.bias(params, pop, f) == pytest.approx(
            offset + f / 2.0 * curvature, rel=1e-5, abs=1e-8)
        assert family.mse(params, pop, f) == pytest.approx(
            offset**2 + f * (g @ c @ g + offset * curvature), rel=1e-5)


class TestPre:
    def test_equal_mse_is_exactly_100(self):
        assert theory.pre(0.0123456, 0.0123456) == 100.0

    def test_direct_ratio(self):
        assert theory.pre(0.0168, 0.0033) == pytest.approx(509.0909, abs=0.01)

    def test_reference_regression_pre(self, ref_pop, ref_design):
        assert theory.pre(theory.var_usual(ref_pop, ref_design.f),
                          TB.min_mse(TbConfig(), ref_pop, ref_design.f)) == pytest.approx(
            511.79, abs=0.05)

    def test_nonpositive_mse(self):
        with pytest.raises(NonpositiveMse):
            theory.pre(0.01, 0.0)

    def test_nan_mse(self):
        with pytest.raises(NonpositiveMse):
            theory.pre(0.01, math.nan)

    def test_antitone_in_mse(self):
        values = [theory.pre(1.0, m) for m in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)


class TestOrderingChain:
    def test_reference(self, ref_pop, ref_design):
        f = ref_design.f
        t1 = T1.min_mse(T1Config(), ref_pop, f)
        tb = TB.min_mse(TbConfig(), ref_pop, f)
        v = theory.var_usual(ref_pop, f)
        assert t1 <= tb + 1e-12 * v
        assert tb <= v + 1e-12 * v

    def test_random_vectors(self, rng):
        for _ in range(100):
            pop = random_params(rng)
            f = 1 / 25 - 1 / pop.N if pop.N > 25 else 1 / 2 - 1 / pop.N
            v = theory.var_usual(pop, f)
            t1 = T1.min_mse(T1Config(), pop, f)
            tb = TB.min_mse(TbConfig(), pop, f)
            assert t1 <= tb + 1e-12 * v
            assert tb <= v + 1e-12 * v


class TestComparisonConditions:
    def test_reference(self, ref_pop, ref_design):
        results = theory.comparison_conditions(ref_pop, ref_design.f)
        by_name = {r.name: r for r in results}
        first = by_name["t1_t2_vs_usual"]
        assert first.holds
        assert first.guaranteed
        expect_slack = theory.var_usual(ref_pop, ref_design.f) - T1.min_mse(
            T1Config(), ref_pop, ref_design.f)
        assert first.slack == pytest.approx(expect_slack, rel=1e-12)
        assert by_name["t3_vs_usual"].holds

    def test_zero_slack_case(self, plain_pop):
        pop = plain_pop._replace(rho_pb=0.0, lambda03=0.0, lambda12=0.0)
        results = theory.comparison_conditions(pop, F_PLAIN)
        first = results[0]
        assert first.holds
        assert first.slack == pytest.approx(0.0, abs=1e-15)

    def test_overflow_is_recorded_on_the_condition(self, ref_pop, ref_design):
        # float ** overflows in the tc constants at alpha = 1e200
        config = TableConfig(tc=TcConfig(alpha=1e200))
        by_name = {r.name: r for r in theory.comparison_conditions(ref_pop, ref_design.f,
                                                                   config)}
        assert by_name["t3_vs_tc"].holds is None
        assert by_name["t3_vs_tc"].error
        assert by_name["t3_vs_usual"].error is None
        # the wording ``cli.main`` prints after "numerical error: "
        assert by_name["t3_vs_tc"].error == "overflow: Numerical result out of range"

    def test_overflowing_moments_are_recorded_on_every_condition(self, plain_pop):
        # cx**2 overflows forming C, which every side reads
        xbar = 1e-10
        pop = plain_pop._replace(cx=1e155, xbar=xbar, sx2=(1e155 * xbar) ** 2)
        results = theory.comparison_conditions(pop, F_PLAIN)
        assert [r.name for r in results] == ["t1_t2_vs_usual", "t3_vs_usual", "t3_vs_t2",
                                             "t3_vs_tc"]
        for result in results:
            assert result.error == "overflow: Numerical result out of range"
            assert result.holds is None and result.guaranteed is None
            assert math.isnan(result.candidate_mse) and math.isnan(result.slack)

    def test_first_condition_never_false_on_random_frames(self, rng):
        for _ in range(60):
            pop = compute_population_params(random_frame(rng))
            n = max(2, pop.N // 5)
            f = 1 / n - 1 / pop.N
            assert theory.comparison_conditions(pop, f)[0].holds

    def test_singular_moments_record_the_error_on_the_t1_rows(self):
        # zero moment gap: realizable moments without a t1 optimum; the rows
        # that need it say why, and the first carries no guarantee
        doc = ParamsDocument.from_dict(dict(REF, lambda03=0.0, lambda04=1.0, lambda12=0.0))
        by_name = {r.name: r for r in theory.comparison_conditions(doc.params, doc.design.f)}
        for name in ("t1_t2_vs_usual", "t3_vs_t2"):
            assert by_name[name].holds is None
            assert "must be positive" in by_name[name].error
        assert by_name["t1_t2_vs_usual"].guaranteed is None
        assert by_name["t3_vs_usual"].error is None


    def test_each_side_is_evaluated_once(self, ref_pop, ref_design, monkeypatch):
        # t3 sits on three conditions and t1 on two; each is evaluated once
        evaluated = []
        bind = theory.Family.bind

        def counted(family, cfg, pop, f):
            terms, mse = bind(family, cfg, pop, f)
            return terms, lambda t: evaluated.append(type(cfg).__name__) or mse(t)

        monkeypatch.setattr(theory.Family, "bind", counted)
        theory.comparison_conditions(ref_pop, ref_design.f, TableConfig(tc=TcConfig(q1=1.0)))
        assert sorted(evaluated) == ["T1Config", "T3Config", "TcConfig"]


class TestTheoryReport:
    def test_reference_report(self, ref_pop, ref_design):
        report = theory.theory_report(ref_pop, ref_design)
        names = [e.name for e in report.entries]
        assert names == ["p", "ta", "tb", "tc", "t1", "t2",
                         "t3(g=1,d=1)", "t3(g=1,d=-1)", "t3(g=0,d=1)"]
        assert report.entry("p").pre == 100.0
        assert report.entry("p").bias == 0.0
        assert report.entry("tb").pre == pytest.approx(511.79, abs=0.05)
        assert report.entry("t1").pre == pytest.approx(report.entry("t2").pre, rel=1e-12)
        assert report.entry("tb").constants["h1"] == pytest.approx(
            TB.optimum(TbConfig(), ref_pop, ref_design.f)[0], rel=1e-15)
        for entry in report.entries:
            assert entry.mse >= 0.0
            assert "mse" in entry.formulas

    def test_census_report(self, ref_pop):
        report = theory.theory_report(ref_pop, Design(n=40, N=40))
        for entry in report.entries:
            assert entry.mse == 0.0
            assert entry.bias == 0.0
            assert entry.pre is None
        # the weight systems of tc and t3 are singular at f = 0: their rows
        # show no constants and say why
        assert report.entry("tc").constants == {}
        assert report.entry("tc").formulas == {
            "mse": "census: f=0 collapses every first-order MSE",
            "bias": "census", "pre": "100*mse(p)/mse"}
        for entry in report.entries[6:]:
            assert entry.constants == {}
            assert entry.formulas == {"mse": "census", "bias": "census",
                                      "pre": "100*mse(p)/mse"}

    def test_fixed_constants_are_respected(self, ref_pop, ref_design):
        config = TableConfig(tc=TcConfig(q1=1.0, q2=0.0))
        report = theory.theory_report(ref_pop, ref_design, config)
        entry = report.entry("tc")
        assert entry.constants["q1"] == 1.0
        assert entry.constants["q2"] == 0.0
        # with q1=1, q2=0 and the plain ratio transform the family reduces to
        # the plain ratio estimator, so its first-order MSE must match
        assert entry.mse == pytest.approx(theory.FAMILIES["ta"].mse(None, ref_pop, ref_design.f), rel=1e-12)

    def test_unknown_entry_name(self, ref_pop, ref_design):
        with pytest.raises(KeyError):
            theory.theory_report(ref_pop, ref_design).entry("t3")

    def test_the_usual_row_fails_before_c_is_formed(self):
        # var_usual underflows to 0 and cx**2 overflows: p's row, which comes
        # first, raises; under a census it has no PRE, and C raises
        pop = PopulationParams(N=100, P=1e-170, xbar=1e-150, sx2=1e10, sp2=0.25, cp=1.0,
                               cx=1e155, rho_pb=0.0, lambda03=0.0, lambda04=2.0, lambda12=0.0)
        with pytest.raises(NonpositiveMse):
            theory.theory_report(pop, Design(n=10, N=100))
        with pytest.raises(OverflowError):
            theory.theory_report(pop, Design(n=100, N=100))


_TC_WEIGHT = st.one_of(st.none(), st.floats(min_value=-1.0, max_value=2.0))


class TestOneTableMse:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), q1=_TC_WEIGHT, q2=_TC_WEIGHT)
    def test_every_consumer_reads_the_table_mse(self, seed, q1, q2):
        # free, half-fixed and fixed tc weights: the sensitivity point and
        # the t3_vs_tc reference are the MSE the theory report prints
        pop, f = well_posed_params(np.random.default_rng(seed))
        design = Design(n=max(5, pop.N // 6), N=pop.N)
        config = TableConfig(tc=TcConfig(q1=q1, q2=q2))
        try:
            report = theory.theory_report(pop, design, config)
        except theory.ToolkitError:
            assume(False)
        for interval in theory.sensitivity(pop, design.f, config).intervals:
            assert interval.point == report.entry(interval.name).pre
        conditions = theory.comparison_conditions(pop, design.f, config)
        assert conditions[3].name == "t3_vs_tc"
        assert conditions[3].reference_mse == report.entry("tc").mse
        assert conditions[3].candidate_mse == report.entries[6].mse


def _flat_tc_terms(cfg, pop, f, c):
    """``tc``'s terms as one flat expression each, nothing formed ahead of C."""
    a, b, alpha, beta = cfg.a, cfg.b, cfg.alpha, cfg.beta
    P, X = pop.P, pop.xbar
    base = a * X + b
    if not 0.0 < base < math.inf:
        raise theory.NonpositiveTransform(base)
    theta = a * X / base
    bc = theta * (alpha + beta / 2.0)
    ac = theta**2 * (alpha * (alpha + 1.0) / 2.0 + alpha * beta / 2.0
                     + beta**2 / 8.0 + beta / 4.0)
    cp2, rcx, _, cx2, _, _ = c
    return (P**2 * (1.0 + f * (cp2 - 4.0 * bc * rcx + (bc**2 + 2.0 * ac) * cx2)),
            P * X * f * (2.0 * bc * cx2 - rcx),
            X**2 * f * cx2,
            P**2 * (1.0 + f * (ac * cx2 - bc * rcx)),
            P * X * f * bc * cx2,
            theta, bc, ac)


def _flat_t3_terms(cfg, pop, f, c):
    """``t3``'s terms (a, d, c, b, e) as one flat expression each."""
    gamma, g, delta = cfg.gamma, cfg.g, cfg.delta
    cp2, rcx, cl12, cx2, cl03, l4m1 = c
    return (1.0 + f * (cp2 - 4.0 * gamma * g * rcx + gamma**2 * g * (2.0 * g + 1.0) * cx2),
            1.0 + f * (cp2 - delta * cl12 + delta * (delta + 2.0) / 8.0 * l4m1
                       - 2.0 * gamma * g * rcx + gamma * delta * g / 2.0 * cl03
                       + g * (g + 1.0) / 2.0 * gamma**2 * cx2),
            1.0 + f * (cp2 - 2.0 * delta * cl12
                       + (delta**2 + delta * (delta + 2.0)) * l4m1 / 4.0),
            1.0 - gamma * g * f * rcx + g * (g + 1.0) / 2.0 * gamma**2 * f * cx2,
            1.0 - delta / 2.0 * f * cl12 + delta * (delta + 2.0) / 8.0 * f * l4m1)


_SETTING = st.floats(min_value=-3.0, max_value=3.0)


class TestBoundTermsKeepTheirBits:
    # a binding forms the products that read no C ahead of it; each is a
    # left-associated prefix of the flat expression, so every bit stays
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), a=_SETTING, b=_SETTING, alpha=_SETTING,
           beta=_SETTING, small_sample=st.booleans())
    def test_tc(self, seed, a, b, alpha, beta, small_sample):
        pop, f = well_posed_params(np.random.default_rng(seed))
        f = 1 / 2 - 1 / pop.N if small_sample else f
        cfg, c = TcConfig(a=a, b=b, alpha=alpha, beta=beta), theory._moments(pop)
        assert (_outcome(lambda: theory._tc_terms(cfg, pop, f)(c))
                == _outcome(_flat_tc_terms, cfg, pop, f, c))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gamma=_SETTING, g=_SETTING, delta=_SETTING,
           small_sample=st.booleans())
    def test_t3(self, seed, gamma, g, delta, small_sample):
        pop, f = well_posed_params(np.random.default_rng(seed))
        f = 1 / 2 - 1 / pop.N if small_sample else f
        cfg, c = T3Config(gamma=gamma, g=g, delta=delta), theory._moments(pop)
        assert repr(theory._t3_terms(cfg, pop, f)(c)) == repr(_flat_t3_terms(cfg, pop, f, c))


class TestEachRowIsBoundOnce:
    @pytest.fixture
    def bound(self, monkeypatch):
        """The (kind, configuration) of every ``Family.bind`` call, and the
        count of ``PopulationParams`` constructions, from here on."""
        calls, built = [], []
        kinds = {id(family): kind for kind, family in theory.FAMILIES.items()}
        bind, new = theory.Family.bind, theory.PopulationParams.__new__

        def counted_bind(family, cfg, pop, f):
            calls.append((kinds[id(family)], cfg))
            return bind(family, cfg, pop, f)

        def counted_new(cls, *args, **kwargs):
            built.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(theory.Family, "bind", counted_bind)
        monkeypatch.setattr(theory.PopulationParams, "__new__", counted_new)
        return calls, built

    CONFIG = TableConfig(tc=TcConfig(q1=1.0), t3_gamma=0.5)

    def rows(self):
        return sorted((kind, cfg) for _, kind, cfg in theory._table(self.CONFIG))

    def test_a_scan_binds_each_row_once_and_builds_no_point(self, bound, ref_pop,
                                                            ref_design):
        calls, built = bound
        report = theory.sensitivity(ref_pop, ref_design.f, self.CONFIG, digits=3)
        assert sorted(calls) == self.rows()
        assert built == []
        assert all(interval.points == 77 for interval in report.intervals)

    def test_the_report_binds_each_row_once(self, bound, ref_pop, ref_design):
        calls, _ = bound
        theory.theory_report(ref_pop, ref_design, self.CONFIG)
        assert sorted(calls) == self.rows()

    def test_the_conditions_bind_each_side_once(self, bound, ref_pop, ref_design):
        calls, _ = bound
        theory.comparison_conditions(ref_pop, ref_design.f, self.CONFIG)
        assert sorted(calls) == [("t1", T1Config()), ("t3", self.CONFIG.t3_configs()[0]),
                                 ("tc", self.CONFIG.tc)]


def _point(pop, offsets):
    """``pop`` moved by ``offsets`` along the six fields C is formed from,
    with ``sx2`` and ``sp2`` derived from the moved ``cx`` and ``cp``, through
    the checked constructor."""
    moved = {name: getattr(pop, name) + d
             for name, d in zip(("cp", "cx", "rho_pb", "lambda03", "lambda04", "lambda12"),
                                offsets)}
    return pop._replace(**moved, sp2=(moved["cp"] * pop.P) ** 2,
                        sx2=(moved["cx"] * pop.xbar) ** 2)


def _scan_oracle(pop, f, config, digits):
    """The scan as each row composed it on its own through the public API: at
    every point built by the checked constructor, the PRE of the row's table
    MSE (``_public_table_mse``), which forms its own terms."""
    rows = theory._table(config)[1:]
    points = theory._scan_points(digits)
    found, center = [[] for _ in rows], [None] * len(rows)
    for k, offsets in enumerate(points):
        try:
            q = _point(pop, offsets)
        except (ToolkitError, OverflowError):
            continue
        baseline = theory.var_usual(q, f)
        for j, (_, kind, cfg) in enumerate(rows):
            try:
                value = theory.pre(baseline, _public_table_mse(kind, cfg, q, f))
            except (ToolkitError, OverflowError):
                continue
            found[j].append(value)
            if k == 0:
                center[j] = value
    return [(name, point, min(values, default=None), max(values, default=None),
             len(points) - len(values), len(points))
            for (name, _, _), point, values in zip(rows, center, found)]


def _scanned(pop, f, config, digits):
    report = theory.sensitivity(pop, f, config, digits)
    return [(i.name, i.point, i.low, i.high, i.unstable, i.points) for i in report.intervals]


def _boundary_cases(plain_pop, ref_pop, ref_design):
    """The boundary populations of ``TestSensitivity``: unstable corners,
    overflowing and invalid points, an overflowing transform, a null step."""
    xbar = math.sqrt(sys.float_info.max) / plain_pop.cx * (1.0 - 1e-5)
    return [
        (plain_pop._replace(rho_pb=0.0, lambda03=0.0, lambda04=2.0,
                            lambda12=0.99999), F_PLAIN, TableConfig(), 1),
        (plain_pop._replace(xbar=xbar, sx2=(plain_pop.cx * xbar) ** 2),
         F_PLAIN, TableConfig(), 3),
        (plain_pop._replace(rho_pb=1.0), F_PLAIN, TableConfig(), 3),
        (ref_pop, ref_design.f, TableConfig(tc=TcConfig(alpha=1e200)), 3),
        (ref_pop, ref_design.f, TableConfig(tc=TcConfig(a=-1.0, q1=1.0)), 2),
        (ref_pop, ref_design.f, TableConfig(), 50),
    ]


def _outcome(mse, *args):
    try:
        return repr(mse(*args))
    except (ToolkitError, OverflowError) as exc:
        return type(exc)


def _public_table_mse(kind, cfg, q, f):
    """A row's table MSE through the public API alone."""
    family = theory.FAMILIES[kind]
    if all(getattr(cfg, name) is None for name in family.constants):
        return family.min_mse(cfg, q, f)
    return family.mse(family.resolve(cfg, q, f), q, f)


def _bound_table_mse(kind, cfg, pop, f, c):
    """A row's table MSE at the moment tuple c, bound to ``(pop, f)`` as a
    scan binds it."""
    terms, mse = theory.FAMILIES[kind].bind(cfg, pop, f)
    return mse(terms(c))


class TestSensitivity:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), q1=_TC_WEIGHT, q2=_TC_WEIGHT,
           digits=st.integers(1, 3), small_sample=st.booleans())
    def test_scan_matches_the_per_row_composition(self, seed, q1, q2, digits, small_sample):
        # free, half-fixed and fixed tc weights; at n = 2 many points fail
        pop, f = well_posed_params(np.random.default_rng(seed))
        if small_sample:
            f = 1 / 2 - 1 / pop.N
        config = TableConfig(tc=TcConfig(q1=q1, q2=q2))
        assert repr(_scanned(pop, f, config, digits)) == repr(
            _scan_oracle(pop, f, config, digits))

    def test_boundary_scans_match_the_per_row_composition(self, plain_pop, ref_pop,
                                                          ref_design):
        for pop, f, config, digits in _boundary_cases(plain_pop, ref_pop, ref_design):
            assert repr(_scanned(pop, f, config, digits)) == repr(
                _scan_oracle(pop, f, config, digits))

    def test_flat_rows_fail_as_the_public_api_does(self, plain_pop, ref_pop, ref_design):
        # each row bound to the center and given a point's C returns the value,
        # or raises the class, that the public API gives at that point
        rng = np.random.default_rng(7)
        cases = _boundary_cases(plain_pop, ref_pop, ref_design)
        for _ in range(6):
            pop, _ = well_posed_params(rng)
            cases.append((pop, 1 / 2 - 1 / pop.N, TableConfig(tc=TcConfig(q2=0.5)), 1))
        gapless = ParamsDocument.from_dict(dict(REF, lambda03=0.0, lambda04=1.0, lambda12=0.0))
        cases.append((gapless.params, gapless.design.f, TableConfig(), 3))
        failed = set()
        for pop, f, config, digits in cases:
            for offsets in theory._scan_points(digits):
                try:
                    q = _point(pop, offsets)
                    c = theory._moments(q)
                except (ToolkitError, OverflowError):
                    continue
                for _, kind, cfg in theory._table(config)[1:]:
                    flat = _outcome(_bound_table_mse, kind, cfg, pop, f, c)
                    assert flat == _outcome(_public_table_mse, kind, cfg, q, f), (kind, cfg)
                    if isinstance(flat, type):
                        failed.add(flat.__name__)
        assert failed == {"DegenerateMoments", "NegativeMse", "NonpositiveTransform",
                          "OverflowError", "SingularSystem"}

    def test_negligible_perturbation_degenerates(self, ref_pop, ref_design):
        report = theory.sensitivity(ref_pop, ref_design.f, digits=50)
        for interval in report.intervals:
            assert interval.low == interval.point == interval.high
            assert interval.unstable == 0

    def test_regression_interval_follows_closed_form(self, ref_pop, ref_design):
        report = theory.sensitivity(ref_pop, ref_design.f, digits=3)
        interval = report.interval("tb")
        # the regression class depends on rho alone, so the envelope is exact
        lo = 100.0 / (1.0 - (ref_pop.rho_pb - 0.0005) ** 2)
        hi = 100.0 / (1.0 - (ref_pop.rho_pb + 0.0005) ** 2)
        assert interval.low == pytest.approx(lo, abs=0.01)
        assert interval.high == pytest.approx(hi, abs=0.01)
        assert interval.high - interval.low < 5.0

    def test_intervals_bracket_points(self, ref_pop, ref_design):
        report = theory.sensitivity(ref_pop, ref_design.f, digits=3)
        assert report.step == pytest.approx(0.0005)
        for interval in report.intervals:
            assert interval.points == 77
            assert interval.low <= interval.point <= interval.high

    def test_invalid_digits(self, ref_pop, ref_design):
        with pytest.raises(InvalidConfig):
            theory.sensitivity(ref_pop, ref_design.f, digits=0)
        with pytest.raises(InvalidConfig):  # a bool is no count, as in the oracles
            theory.sensitivity(ref_pop, ref_design.f, digits=True)

    @pytest.mark.parametrize("digits", [324, 10**400], ids=["324", "401-digit-count"])
    def test_digits_whose_step_is_zero(self, ref_pop, ref_design, digits):
        # 0.5 * 10.0**-324 is 0.0, and 10.0**-(10**400) raises OverflowError
        with pytest.raises(InvalidConfig):
            theory.sensitivity(ref_pop, ref_design.f, digits=digits)

    def test_numpy_integer_digits(self, ref_pop, ref_design):
        report = theory.sensitivity(ref_pop, ref_design.f, digits=np.int64(3))
        assert report == theory.sensitivity(ref_pop, ref_design.f, digits=3)
        assert type(report.digits) is int

    def test_last_digits_with_a_nonzero_step(self, ref_pop, ref_design):
        report = theory.sensitivity(ref_pop, ref_design.f, digits=323)
        assert report.step > 0.0

    def test_overflow_is_unstable(self, ref_pop, ref_design):
        config = TableConfig(tc=TcConfig(alpha=1e200))
        interval = theory.sensitivity(ref_pop, ref_design.f, config, digits=3).interval("tc")
        assert (interval.point, interval.low, interval.high) == (None, None, None)
        assert interval.unstable == interval.points == 77

    def test_unknown_interval_name(self, ref_pop, ref_design):
        with pytest.raises(KeyError):
            theory.sensitivity(ref_pop, ref_design.f, digits=3).interval("t3")

    def test_unstable_corners_are_counted_not_fatal(self, plain_pop):
        # parameters sitting on the boundary of realizability go negative at
        # some corners; the scan must record, not raise
        pop = plain_pop._replace(rho_pb=0.0, lambda03=0.0,
                                 lambda04=2.0, lambda12=0.99999)
        report = theory.sensitivity(pop, F_PLAIN, digits=1)
        interval = report.interval("t1")
        assert interval.unstable > 0
        assert interval.points == 77

    @given(seed=st.integers(0, 2**32 - 1),
           case=st.sampled_from(("drawn", "rho_pb=1", "rho_pb=-1", "overflowing xbar")))
    @settings(max_examples=30, deadline=None)
    def test_points_for_every_row_are_those_the_constructor_accepts(self, seed, case):
        # a scan forms C, and so evaluates its rows, at exactly the points
        # whose moved fields the checked constructor accepts, from the same
        # bits; at every other point each row is unstable. At |rho_pb| = 1, 33
        # of the 77 points are invalid; at the overflowing xbar, building sx2
        # overflows at 33.
        pop, f = well_posed_params(np.random.default_rng(seed))
        if case.startswith("rho_pb"):
            pop = pop._replace(rho_pb=float(case[7:]))
        elif case == "overflowing xbar":
            xbar = math.sqrt(sys.float_info.max) / pop.cx * (1.0 - 1e-5)
            pop = pop._replace(xbar=xbar, sx2=(pop.cx * xbar) ** 2)
        formed = []
        matrix = theory._matrix
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(theory, "_matrix", lambda *moved: formed.append(moved) or matrix(*moved))
            for digits in (1, 2, 3):
                expected = []
                for offsets in theory._scan_points(digits):
                    try:
                        expected.append(_point(pop, offsets)[5:])
                    except (ToolkitError, OverflowError):
                        continue
                formed.clear()
                report = theory.sensitivity(pop, f, digits=digits)
                assert repr(formed) == repr(expected)
                invalid = 77 - len(expected)
                assert case == "drawn" or invalid >= 33
                assert min(interval.unstable for interval in report.intervals) >= invalid

    def test_overflowing_parameters_are_unstable_for_every_estimator(self, plain_pop):
        # (cx*xbar)**2 sits just under the largest float, so the +cx axis
        # point and the 32 corners with +cx overflow building sx2
        xbar = math.sqrt(sys.float_info.max) / plain_pop.cx * (1.0 - 1e-5)
        pop = plain_pop._replace(xbar=xbar, sx2=(plain_pop.cx * xbar) ** 2)
        report = theory.sensitivity(pop, F_PLAIN, digits=3)
        assert report.interval("ta").unstable == 33
        for interval in report.intervals:
            assert interval.unstable >= 33

    def test_invalid_parameters_are_unstable_for_every_estimator(self, plain_pop):
        # rho_pb + h exceeds 1 on the +rho axis point and 32 corners, where
        # the perturbed parameter vector itself is rejected
        pop = plain_pop._replace(rho_pb=1.0)
        report = theory.sensitivity(pop, F_PLAIN, digits=3)
        assert report.interval("ta").unstable == 33
        for interval in report.intervals:
            assert interval.unstable >= 33


class TestRationalMinima:
    def test_every_family_on_random_vectors(self, rng):
        # exact arithmetic on the same floats; each bound is set by the scale
        # the minimum cancels from: var_usual for the forms in C, and P^2
        # times the condition of the weight system for tc and t3
        for _ in range(60):
            pop, f = well_posed_params(rng)
            m = rational_moments(pop, f)
            scale = rational_var_usual(m)
            for value, exact in ((theory.FAMILIES["ta"].mse(None, pop, f), rational_mse_ta(m)),
                                 (TB.min_mse(TbConfig(), pop, f), rational_min_mse_tb(m)),
                                 (T1.min_mse(T1Config(), pop, f), rational_t1_min_mse(m)),
                                 (theory.FAMILIES["t2"].min_mse(T2Config(), pop, f),
                                  rational_t1_min_mse(m))):
                assert abs(Fraction(value) - exact) <= Fraction(1e-12) * scale
            for family, exact in ((TC, rational_tc_min_mse(m)),
                                  (T3, rational_t3_min_mse(m=m))):
                t = pair_terms(family, family.params(), pop, f)
                value, (a11, a12, a22) = family.min_mse(family.params(), pop, f, t), t[:3]
                condition = abs(a11 * a22) / (a11 * a22 - a12**2)
                assert abs(Fraction(value) - exact) <= (
                    Fraction(1e-14) * Fraction(pop.P)**2 * Fraction(condition))


class TestStationaritySweep:
    def test_all_four_optimality_systems(self, rng):
        from conftest import well_posed_params
        checked_tc = 0
        for _ in range(30):
            pop, f = well_posed_params(rng)
            alpha, beta = T1.optimum(T1Config(), pop, f)
            assert_stationary(lambda v: T1.mse(T1Config(v[0], v[1]), pop, f),
                              [alpha, beta])
            h1, h2 = T2.optimum(T2Config(), pop, f)
            assert_stationary(lambda v: T2.mse(T2Config(v[0], v[1]), pop, f), [h1, h2])
            if pop.xbar > 0:
                q1, q2 = TC.optimum(TcConfig(), pop, f)
                assert_stationary(lambda v: TC.mse(TcConfig(q1=v[0], q2=v[1]), pop, f),
                                  [q1, q2])
                checked_tc += 1
            m1, m2 = T3.optimum(T3Config(), pop, f)
            assert_stationary(lambda v: T3.mse(T3Config(m1=v[0], m2=v[1]), pop, f), [m1, m2])
        assert checked_tc > 0
