"""Response-range partitioning and per-slice statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgerec.core import SampleSet
from ridgerec.slicing import (
    SlicePartition,
    default_slice_count,
    partition_equal_count,
    partition_fixed,
    slice_stats,
)

from oracles import slice_membership


def members_by_value(outputs, partition):
    """Sets of response values per slice, for order-free comparisons."""
    outputs = np.asarray(outputs, dtype=float)
    return [set(outputs[idx]) for idx in partition.membership]


class TestFixedPartition:
    def test_hand_bucketing(self):
        p = partition_fixed([0.0, 1.0, 2.0, 3.0], 2)
        np.testing.assert_allclose(p.boundaries, [0.0, 1.5, 3.0])
        np.testing.assert_array_equal(p.counts, [2, 2])
        assert p.scheme == "fixed"

    def test_constant_outputs_collapse_to_one_slice(self):
        p = partition_fixed([5.0, 5.0, 5.0], 4)
        assert p.n_slices == 1
        assert p.counts[0] == 3
        assert p.degenerate
        np.testing.assert_array_equal(p.boundaries, [5.0, 5.0])

    def test_empty_slices_merged(self):
        """A wide gap in the outputs empties interior buckets."""
        p = partition_fixed([0.0, 0.1, 0.2, 10.0], 5)
        assert np.all(p.counts >= 1)
        assert p.n_slices < 5
        assert p.boundaries[0] == 0.0
        assert p.boundaries[-1] == 10.0
        assert np.all(np.diff(p.boundaries) > 0)

    def test_boundary_tie_goes_to_lower_slice(self):
        # y = 2 sits exactly on the interior boundary of [0,4] split in 2
        p = partition_fixed([0.0, 2.0, 4.0], 2)
        np.testing.assert_allclose(p.boundaries, [0.0, 2.0, 4.0])
        assert members_by_value([0.0, 2.0, 4.0], p) == [{0.0, 2.0}, {4.0}]

    def test_matches_interval_scan(self):
        """Vectorized assignment equals the first-match interval scan."""
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            y = np.round(rng.standard_normal(n), 1)  # force some ties
            r = int(rng.integers(1, 9))
            p = partition_fixed(y, r)
            expected = slice_membership(y, p.boundaries)
            got = [sorted(idx.tolist()) for idx in p.membership]
            assert got == [sorted(e) for e in expected]


class TestEqualCountPartition:
    def test_sort_and_split(self):
        p = partition_equal_count([3.0, 1.0, 2.0, 5.0, 4.0, 6.0], 3)
        np.testing.assert_array_equal(p.counts, [2, 2, 2])
        assert members_by_value([3, 1, 2, 5, 4, 6], p) == [
            {1.0, 2.0},
            {3.0, 4.0},
            {5.0, 6.0},
        ]

    def test_ties_kept_together(self):
        p = partition_equal_count([1.0, 1.0, 1.0, 2.0], 2)
        np.testing.assert_array_equal(p.counts, [3, 1])

    def test_single_slice(self):
        p = partition_equal_count(np.arange(9.0), 1)
        assert p.n_slices == 1
        assert p.counts[0] == 9

    def test_more_slices_than_samples_rejected(self):
        with pytest.raises(ValueError, match="more slices than samples"):
            partition_equal_count([1.0, 2.0], 3)

    def test_balanced_on_distinct_values(self):
        """With distinct values and R | N the split is exactly even."""
        rng = np.random.default_rng(5)
        y = rng.standard_normal(60)
        for r in (2, 3, 5, 6):
            p = partition_equal_count(y, r)
            np.testing.assert_array_equal(p.counts, np.full(r, 60 // r))

    def test_near_balanced_otherwise(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(53)
        p = partition_equal_count(y, 7)
        assert p.counts.max() - p.counts.min() <= 1

    def test_value_never_straddles_boundary(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            y = rng.integers(0, 6, size=int(rng.integers(5, 40))).astype(float)
            r = int(rng.integers(1, min(6, len(y)) + 1))
            p = partition_equal_count(y, r)
            value_sets = members_by_value(y, p)
            for a, b in zip(value_sets[:-1], value_sets[1:]):
                assert not (a & b)

    def test_membership_matches_interval_scan(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(3, 80))
            y = np.round(rng.standard_normal(n), 1)
            r = int(rng.integers(1, min(8, n) + 1))
            p = partition_equal_count(y, r)
            expected = slice_membership(y, p.boundaries)
            got = [sorted(idx.tolist()) for idx in p.membership]
            assert got == [sorted(e) for e in expected]


@pytest.mark.parametrize("partition", [partition_fixed, partition_equal_count])
def test_adjacent_doubles_split_at_the_lower_value(partition):
    """No double lies strictly between them, so the first slice collapses to [a, a]."""
    a = -1e6
    y = np.array([np.nextafter(a, 0.0), a])
    p = partition(y, 2)
    np.testing.assert_array_equal(p.boundaries, [a, a, y[0]])
    assert [ix.tolist() for ix in p.membership] == [[1], [0]]


class TestPartitionInvariants:
    @staticmethod
    def _random_partitions(rng, count=30):
        for _ in range(count):
            n = int(rng.integers(2, 100))
            y = rng.standard_normal(n)
            if rng.random() < 0.3:
                y = np.round(y, 1)
            r = int(rng.integers(1, min(10, n) + 1))
            scheme = "fixed" if rng.random() < 0.5 else "equal-count"
            if scheme == "fixed":
                yield y, partition_fixed(y, r)
            else:
                yield y, partition_equal_count(y, r)

    def test_indices_partition_the_sample(self):
        rng = np.random.default_rng(31)
        for y, p in self._random_partitions(rng):
            flat = np.concatenate(p.membership)
            assert len(flat) == len(y)
            np.testing.assert_array_equal(np.sort(flat), np.arange(len(y)))

    def test_responses_contained_in_intervals(self):
        rng = np.random.default_rng(32)
        for y, p in self._random_partitions(rng):
            for r, idx in enumerate(p.membership):
                assert np.all(y[idx] >= p.boundaries[r])
                assert np.all(y[idx] <= p.boundaries[r + 1])

    def test_no_empty_slices(self):
        rng = np.random.default_rng(33)
        for _, p in self._random_partitions(rng):
            assert np.all(p.counts >= 1)

    def test_monotone_map_leaves_equal_count_membership(self):
        """Strictly increasing output transforms preserve the grouping."""
        rng = np.random.default_rng(34)
        for _ in range(20):
            y = rng.standard_normal(int(rng.integers(4, 50)))
            r = int(rng.integers(1, 5))
            base = partition_equal_count(y, r)
            mapped = partition_equal_count(np.exp(y) + y**3, r)
            for a, b in zip(base.membership, mapped.membership):
                np.testing.assert_array_equal(np.sort(a), np.sort(b))

    def test_partition_rejects_empty_membership(self):
        with pytest.raises(ValueError):
            SlicePartition(
                boundaries=np.array([0.0, 1.0, 2.0]),
                order=np.array([0, 1]),
                offsets=np.array([0, 2, 2]),
                scheme="fixed",
            )

    def test_partition_rejects_descending_boundaries(self):
        with pytest.raises(ValueError):
            SlicePartition(
                boundaries=np.array([1.0, 0.0]),
                order=np.array([0]),
                offsets=np.array([0, 1]),
                scheme="fixed",
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_partition_rejects_nan_boundaries(self):
        """A response range that overflows makes NaN cuts, which must not pass."""
        with pytest.raises(ValueError, match="ascending"):
            partition_fixed([-1.5e308, 1.5e308], 2)


@st.composite
def responses_and_slice_count(draw, ties):
    """A response vector, tied on a coarse integer grid or all distinct, and R <= N."""
    n = draw(st.integers(1, 80))
    if ties:
        values = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    else:
        finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        values = st.lists(finite, min_size=n, max_size=n, unique=True)
    return np.array(draw(values), dtype=float), draw(st.integers(1, n))


ANY_RESPONSES = st.booleans().flatmap(responses_and_slice_count)


@pytest.mark.parametrize("partition", [partition_fixed, partition_equal_count])
class TestLayoutProperties:
    """The flat layout's invariants over random responses, with and without ties."""

    @staticmethod
    def _slices(y, p):
        return [y[p.order[a:b]] for a, b in zip(p.offsets[:-1], p.offsets[1:])]

    @settings(deadline=None)
    @given(case=ANY_RESPONSES)
    def test_order_is_a_permutation(self, partition, case):
        y, r = case
        p = partition(y, r)
        np.testing.assert_array_equal(np.sort(p.order), np.arange(len(y)))

    @settings(deadline=None)
    @given(case=ANY_RESPONSES)
    def test_offsets_strictly_ascend_from_zero_to_n(self, partition, case):
        y, r = case
        p = partition(y, r)
        assert p.offsets[0] == 0 and p.offsets[-1] == len(y)
        assert np.all(np.diff(p.offsets) > 0)
        assert 1 <= p.n_slices <= r

    @settings(deadline=None)
    @given(case=ANY_RESPONSES)
    def test_responses_lie_in_their_closed_intervals(self, partition, case):
        y, r = case
        p = partition(y, r)
        for k, ys in enumerate(self._slices(y, p)):
            assert p.boundaries[k] <= ys.min() and ys.max() <= p.boundaries[k + 1]

    @settings(deadline=None)
    @given(case=ANY_RESPONSES)
    def test_membership_matches_interval_scan(self, partition, case):
        y, r = case
        p = partition(y, r)
        expected = [sorted(e) for e in slice_membership(y, p.boundaries)]
        assert [sorted(ix.tolist()) for ix in p.membership] == expected

    @settings(deadline=None)
    @given(case=responses_and_slice_count(ties=True))
    def test_no_tie_run_straddles_a_cut(self, partition, case):
        y, r = case
        slices = self._slices(y, partition(y, r))
        for lower, upper in zip(slices[:-1], slices[1:]):
            assert lower.max() < upper.min()


@settings(deadline=None)
@given(case=responses_and_slice_count(ties=False))
def test_equal_count_balanced_without_ties(case):
    y, r = case
    counts = partition_equal_count(y, r).counts
    assert counts.max() - counts.min() <= 1


class TestDefaultSliceCount:
    def test_square_root_rule(self):
        assert default_slice_count(400) == 20
        assert default_slice_count(900) == 30

    def test_lower_cap(self):
        assert default_slice_count(10) == 5
        assert default_slice_count(26) == 5

    def test_upper_cap(self):
        assert default_slice_count(10_000) == 50
        assert default_slice_count(1_000_000) == 50

    def test_never_exceeds_sample_count(self):
        assert default_slice_count(3) == 3
        assert default_slice_count(1) == 1


class TestSliceStats:
    def test_one_slice_hand_case(self):
        s = SampleSet(inputs=[[1.0], [-1.0]], outputs=[0.0, 1.0], standardized=True)
        p = partition_equal_count(s.outputs, 1)
        stats = slice_stats(s, p)
        assert stats.means[0, 0] == 0.0
        assert stats.covariances[0][0, 0] == pytest.approx(2.0)
        np.testing.assert_array_equal(stats.weights, [1.0])

    def test_singleton_slice_degenerate(self):
        s = SampleSet(inputs=[[7.0]], outputs=[3.0], standardized=True)
        p = partition_equal_count(s.outputs, 1)
        stats = slice_stats(s, p)
        assert stats.means[0, 0] == 7.0
        assert stats.covariances[0][0, 0] == 0.0
        assert stats.degenerate_slices == (0,)

    def test_four_point_hand_case(self):
        s = SampleSet(
            inputs=[[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 4.0]],
            outputs=[0.1, 0.2, 0.9, 1.0],
            standardized=True,
        )
        p = partition_equal_count(s.outputs, 2)
        stats = slice_stats(s, p)
        np.testing.assert_allclose(stats.means[0], [2.0, 0.0])
        np.testing.assert_allclose(stats.means[1], [0.0, 3.0])
        np.testing.assert_allclose(stats.weights, [0.5, 0.5])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            n = int(rng.integers(5, 60))
            s = SampleSet(
                inputs=rng.standard_normal((n, 3)),
                outputs=rng.standard_normal(n),
                standardized=True,
            )
            p = partition_equal_count(s.outputs, int(rng.integers(1, 6)))
            stats = slice_stats(s, p)
            assert np.sum(stats.weights) == pytest.approx(1.0, abs=1e-15)

    def test_pooled_mean_identity(self):
        """Weighted slice means recombine into the global mean."""
        rng = np.random.default_rng(42)
        for scheme_fn in (partition_fixed, partition_equal_count):
            n = 57
            s = SampleSet(
                inputs=rng.standard_normal((n, 4)),
                outputs=rng.standard_normal(n),
                standardized=True,
            )
            stats = slice_stats(s, scheme_fn(s.outputs, 6))
            pooled = stats.weights @ stats.means
            np.testing.assert_allclose(pooled, s.inputs.mean(axis=0), atol=1e-12)

    def test_covariances_symmetric_psd(self):
        rng = np.random.default_rng(43)
        n = 80
        s = SampleSet(
            inputs=rng.standard_normal((n, 3)),
            outputs=rng.standard_normal(n),
            standardized=True,
        )
        stats = slice_stats(s, partition_equal_count(s.outputs, 5))
        for sigma in stats.covariances:
            np.testing.assert_allclose(sigma, sigma.T, atol=1e-14)
            assert np.linalg.eigvalsh(sigma).min() >= -1e-10

    def test_permutation_invariance(self):
        """Shuffling sample order changes no slice statistic."""
        rng = np.random.default_rng(44)
        n = 40
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        perm = rng.permutation(n)
        a = slice_stats(
            SampleSet(inputs=x, outputs=y, standardized=True),
            partition_equal_count(y, 4),
        )
        b = slice_stats(
            SampleSet(inputs=x[perm], outputs=y[perm], standardized=True),
            partition_equal_count(y[perm], 4),
        )
        np.testing.assert_allclose(a.means, b.means, atol=1e-14)
        np.testing.assert_array_equal(a.counts, b.counts)
        for sa, sb in zip(a.covariances, b.covariances):
            np.testing.assert_allclose(sa, sb, atol=1e-13)

    @pytest.mark.parametrize("order, match", [
        ([0, 0, 2], "index coverage"),
        ([-1, 1, 2], "index coverage"),
        ([0, 1, 3], "index coverage"),
        ([2, 1, 0], "responses out of slice"),
    ])
    def test_partition_not_matching_the_samples_rejected(self, order, match):
        s = SampleSet(inputs=np.ones((3, 1)), outputs=[1.0, 2.0, 3.0], standardized=True)
        p = SlicePartition(boundaries=np.array([1.0, 1.5, 3.0]), order=np.array(order),
                           offsets=np.array([0, 1, 3]), scheme="fixed")
        with pytest.raises(ValueError, match=match):
            slice_stats(s, p)

    def test_partition_from_other_outputs_rejected(self):
        s = SampleSet(
            inputs=np.ones((4, 2)), outputs=[1.0, 2.0, 3.0, 4.0], standardized=True
        )
        p = partition_equal_count([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            slice_stats(s, p)
