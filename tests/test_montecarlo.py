import itertools
import math
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propaux import (
    EstimatorConfig,
    PopulationFrame,
    SyntheticSpec,
    compute_population_params,
    draw_replicates,
    enumerate_exact,
    generate_population,
    montecarlo,
    run_experiment,
)
from propaux.config import TcConfig
from propaux.errors import DegenerateGeneration, InvalidConfig, InvalidDesign, TooLarge

from _oracles import binomial_se, floyd_loop, loop_report


TINY = PopulationFrame(np.array([1, 0, 0, 1, 0, 1]),
                       np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))


def _block_stream(seed: int, block: int) -> np.random.Generator:
    """The random stream of block ``block`` as ``RNG_SCHEME`` spells it."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(2, block))))


class TestDraw:
    def test_census_draw_is_full_index_set(self):
        assert draw_replicates(TINY, 6, 0, 0, 1).tolist() == [[0, 1, 2, 3, 4, 5]]

    def test_indices_are_distinct_and_sorted(self):
        for idx in draw_replicates(TINY, 3, 5, 0, 50):
            assert len(set(idx.tolist())) == 3
            assert idx.tolist() == sorted(idx.tolist())

    def test_invalid_sizes(self):
        with pytest.raises(InvalidDesign):
            draw_replicates(TINY, 1, 0, 0, 1)
        with pytest.raises(InvalidDesign):
            draw_replicates(TINY, 7, 0, 0, 1)

    def test_subset_frequencies_are_uniform(self):
        # all 6 pairs from a population of 4, over two block streams
        frame = PopulationFrame(np.array([1, 0, 1, 0]), np.array([1.0, 2.0, 3.0, 4.0]))
        draws = 60_000
        counts = Counter(map(tuple, draw_replicates(frame, 2, 123, 0, draws).tolist()))
        assert len(counts) == 6
        expect = draws / 6
        allow = 3.0 * binomial_se(None, draws, 1.0 / 6.0)
        for subset, count in counts.items():
            assert abs(count - expect) <= allow, (subset, count)

    def test_fixed_seed_reproduces_subset_sequence(self):
        first = draw_replicates(TINY, 3, 9, 0, 40).tolist()
        second = draw_replicates(TINY, 3, 9, 0, 40).tolist()
        assert first == second


def _frame(size: int) -> PopulationFrame:
    return PopulationFrame(np.arange(size) % 2, np.arange(1.0, size + 1.0))


class TestBlockDraw:
    """The vectorized block draw against the textbook sampler, and the
    determinism contract of block streams."""

    @pytest.mark.parametrize("size", (6, 40, 300))
    @pytest.mark.parametrize("shape", ("n=2", "n=N-1", "census"))
    def test_block_draw_equals_scalar_floyd(self, monkeypatch, size, shape):
        n = {"n=2": 2, "n=N-1": size - 1, "census": size}[shape]
        rows, reps = 7, 31  # four full blocks and a partial fifth
        monkeypatch.setattr(montecarlo, "BLOCK_ELEMENTS", rows * n)
        expect = []
        for block in range(5):
            rng = _block_stream(11, block)
            expect += [floyd_loop(rng, size, n) for _ in range(min(rows, reps - block * rows))]
        assert draw_replicates(_frame(size), n, 11, 0, reps).tolist() == expect

    @pytest.mark.parametrize("n", (2, 50, 1000, 1999))
    def test_single_draw_is_a_batch_of_one(self, monkeypatch, n):
        # one-row blocks: each replicate is a single draw from its own stream
        monkeypatch.setattr(montecarlo, "BLOCK_ELEMENTS", n)
        drawn = draw_replicates(_frame(2000), n, 3, 0, 5)
        assert drawn.tolist() == [floyd_loop(_block_stream(3, block), 2000, n)
                                  for block in range(5)]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), k=st.integers(1, 60), block_rows=st.integers(1, 25),
           seed=st.integers(0, 2**32 - 1))
    def test_fewer_replicates_draw_a_prefix(self, n, k, block_rows, seed):
        frame = _frame(12)
        with patch.object(montecarlo, "BLOCK_ELEMENTS", block_rows * n):
            short = draw_replicates(frame, n, seed, 0, k)
            long = draw_replicates(frame, n, seed, 0, 5 * k)
            middle = draw_replicates(frame, n, seed, k, 3 * k)
        assert np.array_equal(long[:k], short)
        assert np.array_equal(long[k:3 * k], middle)

    def test_prefix_across_default_blocks(self):
        # 30,000 replicates of n=3 span two blocks of 21,845 rows
        frame = _frame(6)
        short = draw_replicates(frame, 3, 8, 0, 30_000)
        assert np.array_equal(draw_replicates(frame, 3, 8, 0, 150_000)[:30_000], short)

    @settings(max_examples=25, deadline=None)
    @given(which=st.sampled_from((1, 2)), block_rows=st.integers(1, 60),
           chunk_rows=st.integers(1, 250), reps=st.integers(100, 250),
           seed=st.integers(0, 2**32 - 1))
    @example(which=2, block_rows=50, chunk_rows=7, reps=230, seed=5)
    @example(which=2, block_rows=7, chunk_rows=50, reps=230, seed=5)
    @example(which=1, block_rows=40, chunk_rows=40, reps=100, seed=0)
    def test_report_does_not_depend_on_chunking(self, which, block_rows, chunk_rows, reps,
                                                 seed):
        # chunks smaller and larger than a block, straddling block edges, and
        # a partial last block; the report must equal the one-chunk run
        frame = TestLoopEquivalence.FRAMES[which]
        with patch.object(montecarlo, "BLOCK_ELEMENTS", block_rows * 4):
            with patch.object(montecarlo, "CHUNK_ELEMENTS", reps * 4):
                whole = run_experiment(frame, 4, reps=reps, seed=seed)
            with patch.object(montecarlo, "CHUNK_ELEMENTS", chunk_rows * 4):
                assert run_experiment(frame, 4, reps=reps, seed=seed) == whole

    def test_subsets_are_uniform_across_blocks(self):
        # all C(6,3) = 20 subsets; 70,000 replicates fill three blocks of
        # 21,845 rows and part of a fourth
        reps = 70_000
        assert reps > 3 * (montecarlo.BLOCK_ELEMENTS // 3)
        drawn = draw_replicates(_frame(6), 3, 2024, 0, reps)
        _, counts = np.unique((1 << drawn).sum(axis=1), return_counts=True)
        assert counts.size == 20
        expect = reps / 20
        chi2 = float(((counts - expect) ** 2 / expect).sum())
        assert chi2 < 43.82, chi2  # the 0.999 quantile of chi-square, 19 df


class TestEnumeration:
    def test_mean_of_p_is_exactly_the_proportion(self, rng):
        from conftest import random_frame
        frame = random_frame(rng, size=9)
        report = enumerate_exact(frame, 3, (EstimatorConfig(kind="usual", label="p"),))
        params = compute_population_params(frame)
        assert report.row("p").mean == pytest.approx(params.P, rel=1e-12)

    def test_variance_identity_on_hand_frame(self):
        report = enumerate_exact(TINY, 2, (EstimatorConfig(kind="usual", label="p"),))
        assert report.replicates == 15
        f = 1 / 2 - 1 / 6
        expect = f * 6 * 0.5 * 0.5 / 5
        assert report.row("p").mse == pytest.approx(expect, rel=1e-12)
        assert report.row("p").bias == pytest.approx(0.0, abs=1e-15)

    def test_rejects_oversized_enumerations(self):
        rng = np.random.default_rng(0)
        x = rng.lognormal(size=40)
        phi = (rng.uniform(size=40) < 0.5).astype(np.int64)
        frame = PopulationFrame(phi, x)
        with pytest.raises(TooLarge):
            enumerate_exact(frame, 20)

    def test_monte_carlo_agrees_with_enumeration(self):
        configs = (EstimatorConfig(kind="usual", label="p"), EstimatorConfig(kind="ta"))
        exact = enumerate_exact(TINY, 2, configs)
        mc = run_experiment(TINY, 2, configs, reps=100_000, seed=31)
        for name in ("p", "ta"):
            se = mc.row(name).mse_se
            assert abs(mc.row(name).mse - exact.row(name).mse) <= 3.0 * se
        # the sample proportion stays unbiased within Monte Carlo noise
        p_row = mc.row("p")
        se_mean = math.sqrt(p_row.mse / p_row.replicates)
        assert abs(p_row.mean - exact.true_p) <= 3.0 * se_mean

    def test_exact_moments_track_first_order_theory(self):
        # moderate frame, every subset enumerated: the linear estimators hit
        # their closed forms exactly, the nonlinear ones stay inside the band
        frame = generate_population(
            SyntheticSpec(size=16, link_intercept=-3.0, link_slope=3.0), seed=8)
        report = enumerate_exact(frame, 8)
        assert report.row("p").ratio == pytest.approx(1.0, rel=1e-9)
        assert report.row("tb").ratio == pytest.approx(1.0, rel=1e-9)
        for row in report.rows:
            assert 0.85 <= row.ratio <= 1.15, (row.name, row.ratio)

    def test_failure_tallies_match_hand_count(self):
        # mixed-sign auxiliary: some pairs have zero or negative means
        frame = PopulationFrame(
            np.array([1, 0, 1, 0, 1, 0, 1, 0]),
            np.array([-5.0, -4.0, -3.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
        )
        configs = (EstimatorConfig(kind="ta"),
                   EstimatorConfig(kind="t1"))
        report = enumerate_exact(frame, 2, configs)
        zero_mean = sum(1 for a, b in itertools.combinations(frame.x.tolist(), 2)
                        if a + b == 0)
        nonpositive = sum(1 for a, b in itertools.combinations(frame.x.tolist(), 2)
                          if a + b <= 0)
        assert report.row("ta").failures == zero_mean
        assert report.row("t1").failures == nonpositive
        assert report.row("ta").replicates == 28 - zero_mean


class TestLoopEquivalence:
    """The batched oracles equal the one-sample-at-a-time scalar loop exactly."""

    FRAMES = (
        TINY,
        PopulationFrame(np.array([1, 0, 1, 0, 1, 0, 1, 0]),
                        np.array([-5.0, -4.0, -3.0, 3.0, 4.0, 5.0, 6.0, 7.0])),
        generate_population(SyntheticSpec(size=16, link_intercept=-3.0,
                                          link_slope=3.0), seed=8),
    )

    @pytest.mark.parametrize("index", range(len(FRAMES)))
    def test_enumeration_matches_loop(self, index):
        frame = self.FRAMES[index]
        assert enumerate_exact(frame, 4) == loop_report(frame, 4)

    @pytest.mark.parametrize("index", range(len(FRAMES)))
    def test_monte_carlo_matches_loop(self, index):
        frame = self.FRAMES[index]
        for seed in (0, 17):
            assert (run_experiment(frame, 4, reps=300, seed=seed)
                    == loop_report(frame, 4, reps=300, seed=seed))

    def test_mean_near_zero_fails_some_subsets(self):
        report = enumerate_exact(self.FRAMES[1], 4)
        for name in ("tc", "t1", "t3"):
            assert 0 < report.row(name).failures < report.replicates, name


class TestRunExperiment:
    def test_census_replicates_are_constant(self):
        report = run_experiment(TINY, 6, reps=150, seed=4)
        assert report.row("p").mse == 0.0
        for row in report.rows:
            assert row.mse == pytest.approx(0.0, abs=1e-28)
            assert row.failures == 0

    # the aggregates of the replicates that did not overflow can themselves
    # overflow; making them finite is a separate open item
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_replicates_count_as_failures(self):
        frame = generate_population(SyntheticSpec(size=40), seed=3)
        configs = [EstimatorConfig(kind="usual", label="p"),
                   EstimatorConfig(kind="tc", params=TcConfig(alpha=3000.0))]
        report = run_experiment(frame, 5, configs, reps=200, seed=1)
        loop = loop_report(frame, 5, configs, reps=200, seed=1)
        tc = report.row("tc")
        assert 0 < tc.failures < 200
        assert tc.failures == loop.row("tc").failures
        assert tc.replicates + tc.failures == 200
        assert report.row("p") == loop.row("p")

    def test_rejects_tiny_replicate_counts(self):
        with pytest.raises(InvalidConfig):
            run_experiment(TINY, 2, reps=10, seed=0)

    def test_same_seed_is_bit_identical(self, rng):
        from conftest import random_frame
        frame = random_frame(rng, size=80)
        a = run_experiment(frame, 12, reps=300, seed=99)
        b = run_experiment(frame, 12, reps=300, seed=99)
        assert a == b

    def test_chunk_size_does_not_change_the_report(self, rng, monkeypatch):
        from conftest import random_frame
        frame = random_frame(rng, size=80)
        reports = []
        for rows in (1, 7, 400):  # 400 rows hold every replicate and subset
            monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", rows * 12)
            mc = run_experiment(frame, 12, reps=400, seed=5)
            monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", rows * 3)
            reports.append((mc, enumerate_exact(TINY, 3)))
        assert reports[0] == reports[1] == reports[2]

    def test_report_carries_rng_provenance(self):
        report = run_experiment(TINY, 3, reps=120, seed=8)
        assert report.seed == 8
        assert "pcg64" in report.rng.lower()
        assert not report.exact

    def test_duplicate_labels_rejected(self):
        configs = (EstimatorConfig(kind="usual"), EstimatorConfig(kind="usual"))
        with pytest.raises(InvalidConfig):
            run_experiment(TINY, 2, configs, reps=100, seed=0)

    def test_regression_band_small_population(self):
        frame = generate_population(SyntheticSpec(size=600), seed=17)
        report = run_experiment(frame, 40, reps=4000, seed=11)
        row = report.row("tb")
        assert row.failures == 0
        assert 0.85 <= row.ratio <= 1.15

    def test_regression_theory_within_ten_percent_at_scale(self, experiment):
        # the first-order regression-class MSE tracks 20000 replicates closely
        _, report = experiment
        assert abs(report.row("tb").ratio - 1.0) <= 0.10


class TestGeneratePopulation:
    def test_determinism(self):
        spec = SyntheticSpec(size=200)
        assert generate_population(spec, seed=3) == generate_population(spec, seed=3)

    def test_flat_link_gives_near_zero_correlation(self):
        spec = SyntheticSpec(size=2000, link_intercept=0.0, link_slope=0.0)
        params = compute_population_params(generate_population(spec, seed=21))
        assert abs(params.rho_pb) < 0.05

    def test_steep_link_gives_strong_correlation(self):
        spec = SyntheticSpec(size=2000)
        params = compute_population_params(generate_population(spec, seed=21))
        assert params.rho_pb > 0.5

    def test_symmetric_shape_has_small_skewness(self):
        spec = SyntheticSpec(size=4000, aux_shape="symmetric", aux_location=10.0,
                             aux_scale=1.0, link_intercept=-20.0, link_slope=2.0)
        params = compute_population_params(generate_population(spec, seed=2))
        assert abs(params.lambda03) < 0.2

    def test_retry_budget_exhaustion(self):
        spec = SyntheticSpec(size=10, link_intercept=-1000.0, link_slope=0.0,
                             max_retries=3)
        with pytest.raises(DegenerateGeneration):
            generate_population(spec, seed=0)

    def test_invalid_specs(self):
        with pytest.raises(InvalidConfig):
            SyntheticSpec(size=5)
        with pytest.raises(InvalidConfig):
            SyntheticSpec(size=100, aux_shape="uniform")

    def test_no_correlation_target(self):
        # the attribute/auxiliary link is set by link_intercept/link_slope;
        # there is no separate correlation setting to ignore
        with pytest.raises(TypeError):
            SyntheticSpec(size=100, target_rho=0.65)
