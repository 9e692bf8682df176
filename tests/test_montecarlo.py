import itertools
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
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
    population,
    run_experiment,
    theory,
)
from propaux.config import TcConfig
from propaux.io import simulation_report_dict
from propaux.estimators import evaluate_batch, resolve_config
from propaux.errors import (
    DataError,
    DegenerateGeneration,
    InvalidConfig,
    InvalidDesign,
    NonpositiveTransform,
    TooLarge,
)

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

    @pytest.mark.parametrize("start", (0, 3, 70_000))
    def test_empty_range_is_an_empty_int64_array(self, start):
        drawn = draw_replicates(TINY, 3, 9, start, start)
        assert drawn.shape == (0, 3)
        assert drawn.dtype == np.int64

    @pytest.mark.parametrize("start, stop", ((-1, 2), (5, 3)))
    def test_bad_range_is_invalid(self, start, stop):
        with pytest.raises(InvalidConfig):
            draw_replicates(TINY, 3, 9, start, stop)

    @pytest.mark.parametrize("start, stop, name", [
        (0.5, 2, "start"), (True, 2, "start"), (0, 2.0, "stop"), (0, "2", "stop")])
    def test_non_integer_range_is_invalid(self, start, stop, name):
        with pytest.raises(InvalidConfig, match=f"{name} must be an integer"):
            draw_replicates(TINY, 3, 9, start, stop)

    def test_numpy_integer_range_reads_as_int(self):
        drawn = draw_replicates(TINY, 3, 9, np.int64(1), np.uint8(4))
        assert drawn.tolist() == draw_replicates(TINY, 3, 9, 1, 4).tolist()

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


# high vectors of the bounded draw: anywhere in its domain, in its top half,
# where up to half of the words are rejected, and 3 * 2**30, which rejects
# exactly a quarter
_HIGHS = st.lists(st.one_of(st.integers(1, 2**32 - 1), st.integers(2**31, 2**32 - 1),
                            st.just(3 * 2**30)), min_size=1, max_size=60)


class TestBoundedDraw:
    """``_bounded`` is ``Generator.integers(0, high, size=(rows, k))`` bit for
    bit, and the block draw takes its integers from it alone."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 50), high=_HIGHS, leading_one=st.booleans(),
           seed=st.integers(0, 2**32 - 1), block=st.integers(0, 2**16))
    @example(rows=7, high=[3 * 2**30] * 9, leading_one=False, seed=0, block=0)
    @example(rows=13, high=[2**32 - 1, 2**31 + 1, 3 * 2**30, 5], leading_one=True,
             seed=1, block=2)
    @example(rows=50, high=[3 * 2**30] * 59, leading_one=True, seed=2, block=3)
    @example(rows=1, high=[1], leading_one=False, seed=3, block=4)
    # this stream rejects six words, so the two entries need more words
    # than the first draw took
    @example(rows=2, high=[2**31 + 1], leading_one=False, seed=1, block=0)
    # two rejections inside the rows
    @example(rows=5, high=[1_000_000_007, 12345, 99991, 65537, 3], leading_one=False,
             seed=29, block=0)
    def test_equals_numpy_integers(self, rows, high, leading_one, seed, block):
        high = np.array([1] * leading_one + high, dtype=np.int64)
        expect = montecarlo._stream(seed, 2, block).integers(0, high, size=(rows, high.size))
        drawn = montecarlo._bounded(montecarlo._stream(seed, 2, block).bit_generator,
                                    high, rows)
        assert drawn.dtype == expect.dtype
        assert np.array_equal(drawn, expect)

    def test_block_with_a_rejection_equals_scalar_floyd(self):
        # block 4 of the 1,310-row blocks of this seed rejects one word
        drawn = draw_replicates(_frame(2000), 50, 2045767613, 5240, 6550)
        rng = _block_stream(2045767613, 4)
        assert drawn.tolist() == [floyd_loop(rng, 2000, 50) for _ in range(1310)]

    def test_block_draw_calls_no_integers(self, monkeypatch):
        class RawOnly:
            def __init__(self, rng):
                self.bit_generator = rng.bit_generator

            def integers(self, *args, **kwargs):
                raise AssertionError("the block draw called Generator.integers")

        stream = montecarlo._stream
        frame = _frame(300)
        expect = (draw_replicates(frame, 40, 6, 0, 3000), run_experiment(frame, 40, seed=6),
                  run_experiment(frame, 300, reps=100, seed=6))
        monkeypatch.setattr(montecarlo, "_stream", lambda seed, *key: RawOnly(stream(seed, *key)))
        drawn = (draw_replicates(frame, 40, 6, 0, 3000), run_experiment(frame, 40, seed=6),
                 run_experiment(frame, 300, reps=100, seed=6))
        assert np.array_equal(drawn[0], expect[0])
        assert drawn[1:] == expect[1:]

    @pytest.mark.parametrize("N", (2**25 - 1, 2**25, 2**26))
    def test_block_equals_scalar_floyd_about_the_int32_keys(self, N):
        # at n = 50 a key packs a value and a 6-bit draw index: int32 up to
        # N = 2**25 - 1, int64 from N = 2**25 on; at 2**26 half the values
        # would overflow an int32 key
        drawn = montecarlo._floyd(_block_stream(4, 1), N, 50, 300)
        rng = _block_stream(4, 1)
        assert drawn.dtype == np.int64
        assert drawn.tolist() == [floyd_loop(rng, N, 50) for _ in range(300)]

    def test_large_frame_block_equals_scalar_floyd(self):
        # N = 10**8 rejects about one word in 45, so 300 rows of n = 50
        # reject hundreds of words, about one a row
        drawn = montecarlo._floyd(_block_stream(5, 7), 10**8, 50, 300)
        rng = _block_stream(5, 7)
        assert drawn.tolist() == [floyd_loop(rng, 10**8, 50) for _ in range(300)]


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

    def test_rejects_more_replicates_than_the_sample_limit(self):
        # the bound is checked before any draw; no report is built
        limit = montecarlo.ENUMERATION_LIMIT
        with patch.object(montecarlo, "_report", lambda *args: args[3]):
            assert run_experiment(TINY, 2, reps=limit) == limit
            for reps in (limit + 1, 10**12, 10**23):
                with pytest.raises(TooLarge):
                    run_experiment(TINY, 2, reps=reps)

    def test_a_transform_the_theory_rejects_stops_before_the_first_draw(self):
        # fixed weights leave no free constant, so only the theory MSE reads the transform
        frame = generate_population(SyntheticSpec(size=20), seed=1)
        cfg = EstimatorConfig(kind="tc", params=TcConfig(a=0, q1=1, q2=0))
        with patch.object(montecarlo, "_stats", side_effect=AssertionError("a sample was drawn")):
            with pytest.raises(NonpositiveTransform,
                               match=r"^a\*xbar \+ b must be positive and finite, got 0\.0$"):
                enumerate_exact(frame, 6, [cfg])

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

    @pytest.mark.parametrize("N", range(2, 15))
    def test_subset_rows_follow_combinations(self, N):
        # every n, cut at random chunk edges: each chunk holds the subsets
        # of its lexicographic ranks, in itertools.combinations order
        rng = np.random.default_rng(N)
        for n in range(2, N + 1):
            total = math.comb(N, n)
            draw = montecarlo._lex_subsets(N, n)
            edges = np.unique(np.concatenate(([0, total], rng.integers(0, total + 1, 6))))
            for start, stop in zip(edges[:-1].tolist(), edges[1:].tolist()):
                expect = itertools.islice(itertools.combinations(range(N), n), start, stop)
                assert draw(start, stop).tolist() == [list(c) for c in expect], (n, start)

    def test_subset_rows_of_a_long_search_table(self):
        # C(4473, 2) = 10,001,628 subsets, just past ENUMERATION_LIMIT: a
        # 2 x 4472 search table whose last entry is C(4472, 2)
        N, n, total = 4473, 2, math.comb(4473, 2)
        draw = montecarlo._lex_subsets(N, n)
        for start in (0, 4471, total // 2 - 7, total - 500):
            expect = itertools.islice(itertools.combinations(range(N), n), start, start + 500)
            assert draw(start, start + 500).tolist() == [list(c) for c in expect], start

    @settings(max_examples=25, deadline=None)
    @given(which=st.sampled_from((0, 1)), n=st.integers(2, 5),
           chunk_rows=st.integers(1, 80))
    @example(which=1, n=4, chunk_rows=1)
    @example(which=2, n=4, chunk_rows=97)
    def test_report_does_not_depend_on_chunking(self, which, n, chunk_rows):
        # chunks of one subset, a partial last chunk, and subsets that fail
        # preconditions; the report must equal the one-chunk run
        frame = TestLoopEquivalence.FRAMES[which]
        with patch.object(montecarlo, "CHUNK_ELEMENTS", math.comb(frame.size, n) * n):
            whole = enumerate_exact(frame, n)
        with patch.object(montecarlo, "CHUNK_ELEMENTS", chunk_rows * n):
            assert enumerate_exact(frame, n) == whole

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

    def test_estimator_failing_every_subset_is_rejected(self):
        frame = PopulationFrame(np.array([1, 0, 1, 0, 1, 0]),
                                -np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.5]))
        with pytest.raises(DataError, match="t1 failed on every replicate"):
            enumerate_exact(frame, 3, [EstimatorConfig(kind="t1")])


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

    @pytest.mark.parametrize("size, n", [(12, 9), (131, 130)])
    def test_enumeration_of_long_samples_matches_loop(self, size, n):
        # numpy sums a row of 8 or more terms in 8 accumulators and one of
        # more than 128 by halves; the column-major chunks take that order
        frame = generate_population(SyntheticSpec(size=size), seed=size)
        assert enumerate_exact(frame, n) == loop_report(frame, n)

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
        assert (tc.failures, tc.replicates) == (35, 165)
        assert tc.failures == loop.row("tc").failures
        assert tc.replicates + tc.failures == 200
        assert report.row("p") == loop.row("p")

    def test_rejects_tiny_replicate_counts(self):
        with pytest.raises(InvalidConfig):
            run_experiment(TINY, 2, reps=10, seed=0)

    @pytest.mark.parametrize("reps, seed", ((100, True), (100, 1.5), (100.0, 1)))
    def test_non_integer_reps_or_seed_is_invalid(self, reps, seed):
        with pytest.raises(InvalidConfig):
            run_experiment(TINY, 2, reps=reps, seed=seed)

    def test_numpy_integer_arguments_pass(self):
        report = run_experiment(TINY, 3, reps=np.int64(120), seed=np.uint32(8))
        assert report == run_experiment(TINY, 3, reps=120, seed=8)
        # the report holds them as Python ints, so it serializes
        assert json.loads(json.dumps(simulation_report_dict(report)))["seed"] == 8
        drawn = draw_replicates(TINY, 3, np.int64(8), np.int32(2), np.int64(9))
        assert np.array_equal(drawn, draw_replicates(TINY, 3, 8, 2, 9))

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
        # n = 50 groups 12 chunks a kernel call: 2,000 replicates in 7-row
        # chunks end in a partial group, nine 7-row chunks and a 5-row one
        monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", 2000 * 50)
        whole = run_experiment(frame, 50, reps=2000, seed=5)
        monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", 7 * 50)
        assert run_experiment(frame, 50, reps=2000, seed=5) == whole

    def test_oracles_take_no_callers_checks(self, rng, monkeypatch):
        # the oracles' own rows are sorted, distinct and in range, so their
        # statistics come from the arithmetic alone, with the same bits
        from conftest import random_frame
        frame, small = random_frame(rng, size=80), random_frame(rng, size=12)
        expect = [run_experiment(frame, n, reps=300, seed=3) for n in (5, 12)]
        expect += [enumerate_exact(TINY, 3), enumerate_exact(small, 9)]

        def refused(*args):
            raise AssertionError("batch_stats checks caller input only")

        monkeypatch.setattr(population, "batch_stats", refused)
        monkeypatch.setattr(montecarlo, "batch_stats", refused, raising=False)
        got = [run_experiment(frame, n, reps=300, seed=3) for n in (5, 12)]
        got += [enumerate_exact(TINY, 3), enumerate_exact(small, 9)]
        assert got == expect

    def test_kernels_run_once_per_group_of_chunks(self, monkeypatch):
        # 20,000 replicates of n = 50 in chunks of 1,310 fill three reduction
        # blocks, of 8,192, 8,192 and 3,616 samples: three calls per
        # estimator, not 16
        calls = Counter()

        def counted(cfg, *args):
            calls[cfg.name] += 1
            return evaluate_batch(cfg, *args)

        monkeypatch.setattr(montecarlo, "evaluate_batch", counted)
        run_experiment(_frame(2000), 50, reps=20_000, seed=1)
        assert calls == {cfg.name: 3 for cfg in montecarlo.DEFAULT_CONFIGS}

    def test_report_carries_rng_provenance(self):
        report = run_experiment(TINY, 3, reps=120, seed=8)
        assert report.seed == 8
        assert "pcg64" in report.rng.lower()
        assert not report.exact

    def test_unknown_row_name(self):
        with pytest.raises(KeyError):
            run_experiment(TINY, 3, reps=120, seed=8).row("t4")

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


class TestBlockReduction:
    """Each reduction block of ``REDUCE_SAMPLES`` samples reduces to partials,
    merged in block order; the scalar loop reduces its matrix the same way."""

    @settings(max_examples=25, deadline=None)
    @given(which=st.sampled_from((1, 2)), block=st.integers(1, 60),
           chunk_rows=st.integers(1, 120), reps=st.integers(100, 250),
           seed=st.integers(0, 2**32 - 1))
    @example(which=2, block=7, chunk_rows=50, reps=230, seed=5)
    @example(which=1, block=60, chunk_rows=1, reps=100, seed=0)
    def test_monte_carlo_blocks_match_loop_under_any_chunking(self, which, block,
                                                              chunk_rows, reps, seed):
        # chunks that straddle one block edge or several, and partial last blocks
        frame = TestLoopEquivalence.FRAMES[which]
        with patch.object(montecarlo, "REDUCE_SAMPLES", block):
            with patch.object(montecarlo, "CHUNK_ELEMENTS", chunk_rows * 4):
                report = run_experiment(frame, 4, reps=reps, seed=seed)
            assert report == loop_report(frame, 4, reps=reps, seed=seed)

    @settings(max_examples=25, deadline=None)
    @given(which=st.sampled_from((0, 1)), n=st.integers(2, 5), block=st.integers(1, 30),
           chunk_rows=st.integers(1, 80))
    @example(which=1, n=4, block=3, chunk_rows=7)
    def test_enumeration_blocks_match_loop_under_any_chunking(self, which, n, block,
                                                              chunk_rows):
        frame = TestLoopEquivalence.FRAMES[which]
        with patch.object(montecarlo, "REDUCE_SAMPLES", block):
            with patch.object(montecarlo, "CHUNK_ELEMENTS", chunk_rows * n):
                report = enumerate_exact(frame, n)
            assert report == loop_report(frame, n)

    def test_block_size_moves_only_the_last_bits(self):
        frame = generate_population(SyntheticSpec(size=300), seed=4)
        whole = run_experiment(frame, 12, reps=2000, seed=9)
        with patch.object(montecarlo, "REDUCE_SAMPLES", 7):
            small = run_experiment(frame, 12, reps=2000, seed=9)
        for a, b in zip(whole.rows, small.rows):
            assert (a.name, a.replicates, a.failures) == (b.name, b.replicates, b.failures)
            for field in ("mean", "mse", "mse_se"):
                assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-12)

    def test_chan_merge_equals_exact_m2(self, rng):
        x = rng.lognormal(size=1000)
        edges = [0, 1, 1, 2, 300, 301, 777, 1000]  # one empty block
        counts, means, m2s = [], [], []
        for a, b in zip(edges, edges[1:]):
            part = x[a:b]
            counts.append(part.size)
            means.append(float(part.mean()) if part.size else 0.0)
            m2s.append(float(((part - part.mean())**2).sum()) if part.size else 0.0)
        exact = [Fraction(v) for v in x.tolist()]
        mean = sum(exact) / len(exact)
        m2 = float(sum((v - mean)**2 for v in exact))
        assert montecarlo._chan_m2(counts, means, m2s) == pytest.approx(m2, rel=1e-13)

    def test_sums_beyond_the_float_range_do_not_raise(self):
        assert montecarlo._fsum([0.1] * 10) == 1.0
        assert montecarlo._fsum([1.5e308, 1.5e308, -1.0]) == math.inf
        assert math.isnan(montecarlo._fsum([math.inf, 1.0, -math.inf]))
        # two finite block sums whose total overflows: math.fsum raises there
        pop = compute_population_params(TINY)
        f = population.sampling_fraction(3, TINY.size)
        cfg = resolve_config(montecarlo.DEFAULT_CONFIGS[0], pop, f)
        tmse = theory.FAMILIES[cfg.kind].mse(cfg.params, pop, f)
        with np.errstate(over="ignore", invalid="ignore"):
            block = montecarlo._partials(np.array([[1.5e308, np.nan]]), pop.P, False)
            row, = montecarlo._aggregate([cfg], [tmse], np.array([block, block]), 4, pop)
        assert (row.replicates, row.failures, row.mean, row.mse) == (2, 2, math.inf, math.inf)


def _glibc() -> bool:
    return sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


class TestBoundedMemory:
    """A run's memory is bounded by the chunk and the reduction block, and a
    warm run reuses its heap."""

    def test_peak_does_not_grow_with_reps(self):
        # the mc-srswor recipe: N = 2000, lognormal auxiliary, n = 50
        frame = generate_population(SyntheticSpec(size=2000), seed=1)
        peaks = []
        for reps in (20_000, 200_000):
            tracemalloc.start()
            try:
                run_experiment(frame, 50, reps=reps, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**19, peaks

    @pytest.mark.skipif(not _glibc(), reason="the heap pinning acts on glibc only")
    def test_warm_runs_take_no_page_faults(self):
        script = (
            "import resource\n"
            "from propaux import SyntheticSpec, generate_population, run_experiment\n"
            "frame = generate_population(SyntheticSpec(size=2000), seed=1)\n"
            "faults = []\n"
            "for _ in range(5):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    run_experiment(frame, 50, reps=20_000, seed=1)\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(*faults[2:])\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        faults = [int(word) for word in done.stdout.split()]
        assert max(faults) <= 64, faults


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

    @pytest.mark.parametrize("seed", [True, 2.0, "3"])
    def test_non_integer_seed_is_invalid(self, seed):
        with pytest.raises(InvalidConfig, match="seed must be an integer"):
            generate_population(SyntheticSpec(size=20), seed=seed)

    def test_numpy_integer_seed_passes(self):
        spec = SyntheticSpec(size=20)
        assert generate_population(spec, np.int64(3)) == generate_population(spec, 3)

    @pytest.mark.parametrize("settings", [
        {"aux_location": 800.0},
        {"aux_scale": 800.0},
        {"aux_shape": "symmetric", "aux_scale": 1e308},
    ], ids=["location", "scale", "symmetric-scale"])
    def test_overflowing_auxiliary_draws_are_invalid(self, settings):
        # raised before the link is evaluated: no retries and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfig, match="aux_location=.* and aux_scale=.* "
                                                    "draw auxiliary values that overflow"):
                generate_population(SyntheticSpec(size=50, **settings), seed=1)

    def test_invalid_specs(self):
        with pytest.raises(InvalidConfig):
            SyntheticSpec(size=5)
        with pytest.raises(InvalidConfig):
            SyntheticSpec(size=100, aux_shape="uniform")

    def test_size_is_one_a_draw_can_sample(self):
        # every Monte Carlo draw needs N < 2**32; constructing a spec draws nothing
        assert SyntheticSpec(size=2**32 - 1).size == 2**32 - 1
        with pytest.raises(InvalidConfig, match=r"^synthetic population size must be below "
                                                r"2\*\*32, got 4294967296$"):
            SyntheticSpec(size=2**32)
        with pytest.raises(InvalidConfig, match="^synthetic population size must be at least 10$"):
            SyntheticSpec(size=9)

    def test_no_correlation_target(self):
        # the attribute/auxiliary link is set by link_intercept/link_slope;
        # there is no separate correlation setting to ignore
        with pytest.raises(TypeError):
            SyntheticSpec(size=100, target_rho=0.65)
