import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from propaux import (
    Design,
    PopulationFrame,
    SampleStats,
    batch_stats,
    compute_population_params,
    sample_stats,
    sampling_fraction,
)
from propaux.errors import (
    DegenerateAttribute,
    DegenerateAuxiliary,
    DuplicateIndex,
    IndexOutOfRange,
    InvalidDesign,
    SchemaError,
    ZeroMean,
)
from propaux.population import check_realizable

from conftest import random_frame
from _oracles import loop_moment


ALIGNED = PopulationFrame(np.array([1, 1, 0, 0]), np.array([2.0, 2.0, 1.0, 1.0]))

#: ``x = round(exp(N(2.5, 0.6)), 4)`` from ``np.random.default_rng(21)``, with
#: the attribute on ``x > 14``. On an AVX-512 host numpy's vectorized
#: ``power`` gives ``mean(dx**3)`` other bits than ``mean((dx*dx)*dx)``, and
#: other bits again under ``NPY_DISABLE_CPU_FEATURES``.
LOGNORMAL_X = [
    15.1086, 30.1567, 4.1712, 33.5142, 11.8415, 7.5384, 7.525, 6.3618, 10.6527, 20.0922,
    17.2954, 17.8673, 4.4067, 4.7466, 30.9472, 21.7874, 45.1472, 25.176, 6.5888, 26.342,
    17.7616, 13.8584, 7.449, 12.2028, 11.154, 20.8118, 13.1274, 31.5271, 7.6546, 16.162,
    16.4332, 7.2529, 5.9969, 22.3796, 16.6176, 11.0507, 15.4347, 8.1238, 14.0554, 8.4733,
]
#: Thirty units with distinct auxiliary values, so any sample has a variance.
_THIRTY = PopulationFrame(np.arange(30) % 2, np.arange(1.0, 31.0))

LOGNORMAL = PopulationFrame(np.array([int(v > 14.0) for v in LOGNORMAL_X]),
                            np.array(LOGNORMAL_X))


class TestFrame:
    def test_rejects_non_binary_attribute(self):
        with pytest.raises(SchemaError):
            PopulationFrame(np.array([0, 2]), np.array([1.0, 2.0]))

    def test_rejects_unequal_lengths(self):
        with pytest.raises(SchemaError):
            PopulationFrame(np.array([0, 1, 0]), np.array([1.0, 2.0]))

    def test_rejects_single_unit(self):
        with pytest.raises(SchemaError):
            PopulationFrame(np.array([1]), np.array([1.0]))

    def test_rejects_non_finite_auxiliary(self):
        with pytest.raises(SchemaError):
            PopulationFrame(np.array([1, 0]), np.array([1.0, np.inf]))

    def test_records_round_trip(self):
        records = [(1, 2.5), (0, 1.25), (1, -3.0)]
        frame = PopulationFrame(np.array([1, 0, 1]), np.array([2.5, 1.25, -3.0]))
        assert frame.records() == records

    def test_arrays_are_immutable(self):
        with pytest.raises(ValueError):
            ALIGNED.phi[0] = 0

    def test_callers_arrays_stay_writable(self):
        phi, x = np.array([1, 0, 1]), np.array([2.5, 1.25, -3.0])
        frame = PopulationFrame(phi, x)
        assert frame.phi is not phi and frame.x is not x
        x[0] = 7.0
        phi[0] = 0
        assert frame.records() == [(1, 2.5), (0, 1.25), (1, -3.0)]

    def test_frame_of_a_column_owns_a_contiguous_copy(self):
        a = np.array([[1.0, 1.0], [0.0, 2.0], [1.0, 4.0]])
        frame = PopulationFrame(a[:, 0], a[:, 1])
        a[0, 1] = 100.0
        a[1, 0] = 5.0
        assert frame.records() == [(1, 1.0), (0, 2.0), (1, 4.0)]
        assert frame.phi.flags.c_contiguous and frame.x.flags.c_contiguous
        assert frame.phi.flags.owndata and frame.x.flags.owndata


class TestMomentRoute:
    """The six moments are means of IEEE products of one set of deviations,
    never numpy's vectorized ``power``, whose bits depend on the SIMD target."""

    def test_skewness_and_kurtosis_are_product_means(self):
        params = compute_population_params(LOGNORMAL)
        dx = LOGNORMAL.x - LOGNORMAL.x.mean()
        mu02 = float(np.mean(dx * dx))
        assert params.lambda03 == float(np.mean((dx * dx) * dx)) / mu02**1.5
        assert params.lambda04 == float(np.mean((dx * dx) * (dx * dx))) / mu02**2

    @pytest.mark.parametrize("frame", [LOGNORMAL, ALIGNED], ids=["lognormal", "aligned"])
    def test_central_moment_has_the_bits_the_params_use(self, frame):
        dphi = frame.phi - frame.phi.mean()
        dx = frame.x - frame.x.mean()
        dx2 = dx * dx
        mu = {(2, 0): dphi * dphi, (1, 1): dphi * dx, (0, 2): dx2, (0, 3): dx2 * dx,
              (0, 4): dx2 * dx2, (1, 2): dphi * dx2}
        mu = {rs: float(np.mean(product)) for rs, product in mu.items()}
        params = compute_population_params(frame)
        N = frame.size
        assert params.sp2 == mu[2, 0] * N / (N - 1)
        assert params.sx2 == mu[0, 2] * N / (N - 1)
        assert params.rho_pb == mu[1, 1] / math.sqrt(mu[2, 0] * mu[0, 2])
        assert params.lambda03 == mu[0, 3] / mu[0, 2]**1.5
        assert params.lambda04 == mu[0, 4] / mu[0, 2]**2
        assert params.lambda12 == mu[1, 2] / (math.sqrt(mu[2, 0]) * mu[0, 2])


class TestPopulationParams:
    def test_two_point_symmetric_auxiliary(self):
        params = compute_population_params(ALIGNED)
        assert params.P == 0.5
        assert params.xbar == 1.5
        assert params.rho_pb == pytest.approx(1.0, rel=1e-12)
        assert params.lambda03 == pytest.approx(0.0, abs=1e-15)
        assert params.lambda04 == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_attribute(self):
        with pytest.raises(DegenerateAttribute):
            compute_population_params(
                PopulationFrame(np.array([1, 1, 1]), np.array([1.0, 2.0, 3.0])))

    def test_degenerate_auxiliary(self):
        with pytest.raises(DegenerateAuxiliary):
            compute_population_params(
                PopulationFrame(np.array([1, 0, 1]), np.array([2.0, 2.0, 2.0])))

    def test_subnormal_auxiliary_spread(self):
        # the variance is about 5.6e-185, so its square underflows to zero
        with pytest.raises(DegenerateAuxiliary):
            compute_population_params(PopulationFrame(
                np.array([1, 0, 1, 0, 1, 0]), np.array([0.0, 0.0, 0.0, 0.0, 0.0, 2e-92])))

    @pytest.mark.parametrize("exponent", [100, 170, 308])
    def test_overflowing_auxiliary_spread(self, exponent):
        # at 1e100 the fourth moment overflows, at 1e170 the variance too,
        # and at 1e308 the sum behind the mean
        x = np.array([1.0, 1.5, 1.7, 1.0]) * 10.0**exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateAuxiliary, match="too spread to standardize"):
                compute_population_params(PopulationFrame(np.array([1, 0, 1, 0]), x))

    def test_constant_zero_auxiliary_is_degenerate_before_zero_mean(self):
        with pytest.raises(DegenerateAuxiliary):
            compute_population_params(PopulationFrame(np.array([1, 0]), np.zeros(2)))

    def test_zero_mean(self):
        with pytest.raises(ZeroMean):
            compute_population_params(
                PopulationFrame(np.array([1, 0, 1, 0]), np.array([-1.0, 1.0, -2.0, 2.0])))

    def test_hand_frame_matches_direct_definitions(self):
        phi = [1, 0, 0, 1, 1, 0, 1, 0]
        x = [3.5, 1.0, 2.0, 4.5, 5.0, 1.5, 6.0, 2.5]
        params = compute_population_params(PopulationFrame(np.array(phi), np.array(x)))
        n = 8
        p = sum(phi) / n
        xbar = sum(x) / n
        sx2 = sum((v - xbar) ** 2 for v in x) / (n - 1)
        sp2 = sum((v - p) ** 2 for v in phi) / (n - 1)
        mu = lambda r, s: loop_moment(phi, x, r, s)
        assert params.P == pytest.approx(p, rel=1e-12)
        assert params.xbar == pytest.approx(xbar, rel=1e-12)
        assert params.sx2 == pytest.approx(sx2, rel=1e-12)
        assert params.sp2 == pytest.approx(sp2, rel=1e-12)
        assert params.cp == pytest.approx(math.sqrt(sp2) / p, rel=1e-12)
        assert params.cx == pytest.approx(math.sqrt(sx2) / xbar, rel=1e-12)
        assert params.rho_pb == pytest.approx(
            mu(1, 1) / math.sqrt(mu(2, 0) * mu(0, 2)), rel=1e-12)
        assert params.lambda03 == pytest.approx(mu(0, 3) / mu(0, 2) ** 1.5, rel=1e-12)
        assert params.lambda04 == pytest.approx(mu(0, 4) / mu(0, 2) ** 2, rel=1e-12)
        assert params.lambda12 == pytest.approx(
            mu(1, 2) / (math.sqrt(mu(2, 0)) * mu(0, 2)), rel=1e-12)


class TestSamplingFraction:
    def test_reference_design(self):
        assert sampling_fraction(11, 40) == pytest.approx(float(Fraction(29, 440)), rel=1e-15)

    def test_census_is_zero(self):
        assert sampling_fraction(40, 40) == 0.0

    def test_small_design(self):
        assert sampling_fraction(2, 4) == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("n,N", [(1, 10), (0, 5), (11, 10), (-2, 8)])
    def test_invalid_designs(self, n, N):
        with pytest.raises(InvalidDesign):
            sampling_fraction(n, N)

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidDesign):
            sampling_fraction(2.5, 10)


class TestCheckRealizable:
    def test_two_point_auxiliaries_pass_and_their_neighbours_fail(self, rng):
        # a two-point auxiliary has a singular (p, xbar_s, sx2_s) block, so
        # its lambda12 is pinned to rho_pb*lambda03 up to rounding
        checked = 0
        while checked < 200:
            size = int(rng.integers(4, 300))
            x = np.where(rng.random(size) < rng.uniform(0.1, 0.9),
                         rng.uniform(-5.0, 5.0), rng.uniform(5.0, 50.0))
            phi = (rng.random(size) < 0.5).astype(np.int64)
            if phi.sum() in (0, size) or np.unique(x).size < 2:
                continue
            params = compute_population_params(PopulationFrame(phi, x))
            check_realizable(params)
            with pytest.raises(SchemaError):
                check_realizable(params._replace(lambda12=params.lambda12 + 1e-3))
            checked += 1


class TestDesign:
    def test_factor_is_derived_only(self):
        design = Design(n=11, N=40)
        assert design.f == sampling_fraction(11, 40)
        assert design == Design(n=11, N=40)
        assert repr(design) == f"Design(n=11, N=40, f={design.f!r})"
        with pytest.raises(TypeError):
            Design(n=11, N=40, f=design.f)


class TestSampleStats:
    FRAME = PopulationFrame(np.array([1, 0, 1, 0]), np.array([4.0, 2.0, 6.0, 0.0]))

    def test_two_point_sample(self):
        stats = sample_stats(self.FRAME, [0, 1])
        assert stats.p == 0.5
        assert stats.xbar_s == 3.0
        assert stats.sx2_s == pytest.approx(2.0, rel=1e-15)

    def test_census_reproduces_population(self, rng):
        frame = random_frame(rng)
        params = compute_population_params(frame)
        stats = sample_stats(frame, np.arange(frame.size))
        assert stats.p == params.P
        assert stats.xbar_s == params.xbar
        assert stats.sx2_s == pytest.approx(params.sx2, rel=1e-12)

    def test_random_subset_matches_loop(self, rng):
        frame = random_frame(rng, size=30)
        idx = rng.choice(30, size=12, replace=False)
        stats = sample_stats(frame, idx)
        phi = frame.phi[idx].tolist()
        x = frame.x[idx].tolist()
        xbar = sum(x) / len(x)
        assert stats.p == pytest.approx(sum(phi) / len(phi), rel=1e-12)
        assert stats.xbar_s == pytest.approx(xbar, rel=1e-12)
        assert stats.sx2_s == pytest.approx(
            sum((v - xbar) ** 2 for v in x) / (len(x) - 1), rel=1e-12)

    def test_duplicate_indices(self):
        with pytest.raises(DuplicateIndex):
            sample_stats(self.FRAME, [0, 0, 1])

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            sample_stats(self.FRAME, [0, 4])

    def test_too_small(self):
        with pytest.raises(InvalidDesign):
            sample_stats(self.FRAME, [2])

    def test_non_integer_indices(self):
        with pytest.raises(SchemaError):
            sample_stats(self.FRAME, [0.9, 1.2, 2.7])
        with pytest.raises(SchemaError):
            sample_stats(self.FRAME, [True, False])
        assert sample_stats(self.FRAME, [0.0, 1.0]) == sample_stats(self.FRAME, [0, 1])

    def test_non_integer_count_rejected(self):
        with pytest.raises(SchemaError):
            SampleStats(n=4, p=0.3, xbar_s=1.0, sx2_s=1.0)

    @pytest.mark.parametrize("fields, error", [
        (dict(n=1, p=0.0), InvalidDesign),
        (dict(p=1.2), SchemaError),
        (dict(sx2_s=-1.0), SchemaError),
        (dict(sx2_s=math.inf), SchemaError),
    ])
    def test_invalid_statistics_rejected(self, fields, error):
        with pytest.raises(error):
            SampleStats(**dict(dict(n=5, p=0.4, xbar_s=1.0, sx2_s=1.0), **fields))

    def test_index_matrix_rejected(self):
        with pytest.raises(InvalidDesign):
            sample_stats(self.FRAME, [[0, 1], [2, 3]])


class TestBatchStats:
    def test_duplicate_in_an_unsorted_row(self, rng):
        frame = random_frame(rng, size=30)
        rows = np.sort(rng.permuted(np.tile(np.arange(30), (5, 1)), axis=1)[:, :8], axis=1)
        rows[3] = [9, 2, 17, 2, 25, 0, 11, 4]
        with pytest.raises(DuplicateIndex):
            batch_stats(frame, rows)

    def test_unsorted_rows_do_not_change_the_bits(self, rng):
        """A batch with an unsorted row takes the sorting duplicate check; the
        statistics of its other rows keep their bits. Reordering a row itself
        may move ``xbar_s`` and ``sx2_s`` in the last bit: their sums run in
        row order."""
        frame = random_frame(rng, size=40)
        rows = np.sort(rng.permuted(np.tile(np.arange(40), (200, 1)), axis=1)[:, :11], axis=1)
        shuffled = rng.permuted(rows, axis=1)
        assert not (shuffled[:, 1:] > shuffled[:, :-1]).all(axis=1).any()
        fast = batch_stats(frame, rows)
        mixed = batch_stats(frame, np.concatenate([rows, shuffled]))
        for alone, beside in zip(fast, mixed):
            assert alone.tobytes() == beside[:200].tobytes()
        p, xbar_s, sx2_s = batch_stats(frame, shuffled)
        assert p.tobytes() == fast[0].tobytes()
        np.testing.assert_allclose(xbar_s, fast[1], rtol=1e-14, atol=0)
        np.testing.assert_allclose(sx2_s, fast[2], rtol=1e-14, atol=0)

    #: An index batch in C order, in Fortran order (exact enumeration's
    #: column-major chunks) and as a view neither C- nor Fortran-ordered.
    LAYOUTS = {
        "C": lambda idx: idx,
        "F": np.asfortranarray,
        "strided": lambda idx: np.repeat(idx, 2, axis=1)[:, ::2],
    }

    @pytest.mark.parametrize("n", [2, 6, 7, 8, 9, 50, 129])
    def test_bits_of_numpy_mean_and_var(self, rng, n):
        """The statistics have the bits of numpy's own ``mean`` and ``var``
        of each C-ordered row, sorted rows and shuffled ones alike, in every
        layout of the index batch. The sizes include the block edges of
        numpy's pairwise summation (8 and 128 terms)."""
        frame = random_frame(rng, size=300)
        rows = np.sort(rng.permuted(np.tile(np.arange(300), (40, 1)), axis=1)[:, :n], axis=1)
        idx = np.concatenate([rows, rng.permuted(rows, axis=1)])
        xs = frame.x[idx]
        expect = (frame.phi[idx].mean(axis=1), xs.mean(axis=1), xs.var(axis=1, ddof=1))
        for layout, arrange in self.LAYOUTS.items():
            batch = arrange(idx)
            assert np.array_equal(batch, idx)
            assert batch.flags.c_contiguous == (layout == "C")
            for name, got, want in zip(("p", "xbar_s", "sx2_s"), batch_stats(frame, batch), expect):
                assert got.tobytes() == want.tobytes(), (layout, name)

    #: Rows of three indices, each batch with whether some row repeats an
    #: index. Every batch but the last has a row whose first index is below
    #: the previous row's last.
    ORDERS = {
        "increasing": ([[3, 8, 20], [0, 1, 2], [4, 25, 29]], False),
        "a repeat": ([[3, 8, 20], [0, 1, 1], [4, 25, 29]], True),
        "a repeat first": ([[3, 8, 20], [0, 1, 2], [4, 4, 29]], True),
        "a descending pair": ([[3, 8, 20], [0, 2, 1], [4, 25, 29]], False),
        "a descending last pair": ([[3, 8, 20], [0, 1, 2], [4, 29, 25]], False),
        "an equal pair across rows": ([[3, 8, 20], [20, 21, 22]], False),
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("order", ORDERS)
    def test_duplicate_check_in_every_layout(self, layout, order):
        rows, repeats = self.ORDERS[order]
        batch = self.LAYOUTS[layout](np.array(rows))
        if repeats:
            with pytest.raises(DuplicateIndex):
                batch_stats(_THIRTY, batch)
        else:
            batch_stats(_THIRTY, batch)

    @given(rows=st.integers(1, 6), n=st.integers(2, 9), seed=st.integers(0, 2**32 - 1),
           flaws=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7),
                                    st.sampled_from(("repeat", "descending"))), max_size=3),
           layout=st.sampled_from(sorted(LAYOUTS)))
    @settings(max_examples=200, deadline=None)
    def test_duplicate_check_matches_the_row_sets(self, rows, n, seed, flaws, layout):
        # sorted rows of distinct indices, a few pairs then made equal or
        # swapped; DuplicateIndex exactly when some row's set is short
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.permuted(np.tile(np.arange(30), (rows, 1)), axis=1)[:, :n], axis=1)
        for row, pos, flaw in flaws:
            row, pos = row % rows, pos % (n - 1)
            if flaw == "repeat":
                idx[row, pos + 1] = idx[row, pos]
            else:
                idx[row, [pos, pos + 1]] = idx[row, [pos + 1, pos]]
        batch = self.LAYOUTS[layout](idx)
        if any(len(set(row)) < n for row in idx.tolist()):
            with pytest.raises(DuplicateIndex):
                batch_stats(_THIRTY, batch)
        else:
            batch_stats(_THIRTY, batch)

    def test_overflowed_variance_rejected(self):
        # the squared deviations of ±1e200 overflow to inf in every layout
        frame = PopulationFrame(np.array([1, 0, 1, 0]), np.array([-1e200, 1e200, 1.0, 2.0]))
        for arrange in self.LAYOUTS.values():
            with pytest.raises(SchemaError, match="variance"):
                batch_stats(frame, arrange(np.array([[2, 3], [0, 1], [3, 2]])))


@st.composite
def frames(draw):
    n = draw(st.integers(min_value=4, max_value=40))
    phi = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    assume(0 < sum(phi) < n)
    x = draw(st.lists(
        st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
        min_size=n, max_size=n))
    assume(len(set(x)) > 1)
    assume(abs(sum(x)) > 1e-3)
    return PopulationFrame(np.array(phi), np.array(x, dtype=float))


class TestFrameProperties:
    @given(frames())
    @settings(max_examples=150, deadline=None)
    def test_attribute_variance_identity(self, frame):
        params = compute_population_params(frame)
        n = frame.size
        expect = n * params.P * (1.0 - params.P) / (n - 1)
        assert params.sp2 == pytest.approx(expect, rel=1e-12)

    @given(frames())
    @settings(max_examples=150, deadline=None)
    def test_pearson_inequality(self, frame):
        params = compute_population_params(frame)
        assert params.lambda04 - params.lambda03**2 - 1.0 >= -1e-9

    @given(frames())
    @settings(max_examples=150, deadline=None)
    def test_point_biserial_bounded(self, frame):
        params = compute_population_params(frame)
        assert abs(params.rho_pb) <= 1.0 + 1e-12

    @given(frames())
    @settings(max_examples=100, deadline=None)
    def test_divisor_conversion(self, frame):
        params = compute_population_params(frame)
        dphi = frame.phi - frame.phi.mean()
        mu20 = float(np.mean(dphi * dphi))
        assert mu20 == pytest.approx(params.sp2 * (frame.size - 1) / frame.size, rel=1e-12)
