"""Response-range partitioning and per-slice statistics."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ridgerec import core, slicing
from ridgerec.slicing import (
    SlicePartition,
    SliceRuleError,
    default_slice_count,
    partition_equal_count,
    partition_fixed,
    slice_moments,
    slice_stats,
)

from oracles import (equal_count_by_argsort, slice_covariance, slice_mean, slice_membership,
                     standardized_set)


def members(partition):
    """Each slice's sample indices, ascending, read off the labels."""
    return [np.flatnonzero(partition.labels == k).tolist() for k in range(partition.n_slices)]


def members_by_value(outputs, partition):
    """Sets of response values per slice, for order-free comparisons."""
    outputs = np.asarray(outputs, dtype=float)
    return [set(outputs[idx]) for idx in members(partition)]


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
            assert members(p) == slice_membership(y, p.boundaries)


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
            assert members(p) == slice_membership(y, p.boundaries)


@pytest.mark.parametrize("partition", [partition_fixed, partition_equal_count])
def test_adjacent_doubles_split_at_the_lower_value(partition):
    """No double lies strictly between them, so the first slice collapses to [a, a]."""
    a = -1e6
    y = np.array([np.nextafter(a, 0.0), a])
    p = partition(y, 2)
    np.testing.assert_array_equal(p.boundaries, [a, a, y[0]])
    assert p.labels.tolist() == [1, 0]


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
            assert len(p.labels) == len(y)
            assert p.labels.max() < p.n_slices

    def test_responses_contained_in_intervals(self):
        rng = np.random.default_rng(32)
        for y, p in self._random_partitions(rng):
            assert np.all(y >= p.boundaries[p.labels])
            assert np.all(y <= p.boundaries[p.labels + 1])

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
            np.testing.assert_array_equal(base.labels, mapped.labels)

    def test_partition_rejects_empty_membership(self):
        with pytest.raises(ValueError, match="at least one sample"):
            SlicePartition(boundaries=np.array([0.0, 1.0, 2.0]), labels=np.array([0, 0]),
                           scheme="fixed")

    @pytest.mark.parametrize("labels", [[[0, 1]], [0.0, 1.0]])
    def test_partition_rejects_labels_that_are_not_an_integer_vector(self, labels):
        with pytest.raises(ValueError, match="vector of slice indices"):
            SlicePartition(boundaries=np.array([0.0, 1.0, 2.0]), labels=np.array(labels),
                           scheme="fixed")

    def test_partition_rejects_fewer_than_two_boundaries(self):
        with pytest.raises(ValueError, match="at least two boundaries"):
            SlicePartition(boundaries=np.array([0.0]), labels=np.array([0]), scheme="fixed")

    def test_partition_rejects_descending_boundaries(self):
        with pytest.raises(ValueError):
            SlicePartition(boundaries=np.array([1.0, 0.0]), labels=np.array([0]), scheme="fixed")

    def test_partition_rejects_nan_boundaries(self):
        """A response range that overflows would make NaN cuts; it is refused first,
        without a numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SliceRuleError, match=r"y_max - y_min = 1.5e\+308 - "
                                                     r"\(-1.5e\+308\) overflows"):
                partition_fixed([-1.5e308, 1.5e308], 2)
        assert partition_fixed([-8e307, 8e307], 2).boundaries.tolist() == [-8e307, 0.0, 8e307]


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


@st.composite
def constant_responses(draw):
    """A constant response vector, possibly mixing 0.0 and -0.0, and R <= N."""
    n = draw(st.integers(1, 80))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    zeros = st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)
    y = draw(st.one_of(finite.map(lambda v: [v] * n), zeros))
    return np.array(y, dtype=float), draw(st.integers(1, n))


@pytest.mark.parametrize("partition", [partition_fixed, partition_equal_count])
class TestLayoutProperties:
    """The labels' invariants over random responses, with and without ties."""

    @staticmethod
    def _slices(y, p):
        return [y[p.labels == k] for k in range(p.n_slices)]

    @given(case=ANY_RESPONSES)
    def test_labels_are_frozen_slice_indices_in_the_narrowest_type(self, partition, case):
        y, r = case
        p = partition(y, r)
        assert len(p.labels) == len(y) and not p.labels.flags.writeable
        assert p.labels.dtype == np.min_scalar_type(p.n_slices - 1)
        assert p.labels.max() < p.n_slices

    @given(case=ANY_RESPONSES)
    def test_counts_tally_the_labels_and_none_is_zero(self, partition, case):
        y, r = case
        p = partition(y, r)
        np.testing.assert_array_equal(p.counts, np.bincount(p.labels))
        assert np.all(p.counts > 0) and p.counts.sum() == len(y)
        assert 1 <= p.n_slices <= r

    @given(case=ANY_RESPONSES)
    def test_responses_lie_in_their_closed_intervals(self, partition, case):
        y, r = case
        p = partition(y, r)
        for k, ys in enumerate(self._slices(y, p)):
            assert p.boundaries[k] <= ys.min() and ys.max() <= p.boundaries[k + 1]

    @given(case=ANY_RESPONSES)
    def test_membership_matches_interval_scan(self, partition, case):
        y, r = case
        p = partition(y, r)
        assert members(p) == slice_membership(y, p.boundaries)

    @given(case=st.one_of(constant_responses(), ANY_RESPONSES))
    def test_degenerate_exactly_when_constant(self, partition, case):
        y, r = case
        p = partition(y, r)
        assert p.degenerate == (y.min() == y.max())
        if p.degenerate:
            assert p.n_slices == 1
            assert not p.labels.any()
            np.testing.assert_array_equal(p.counts, [len(y)])
            assert p.boundaries.tolist() == [y[0], y[0]]  # equal as values: -0.0 == 0.0

    @given(case=responses_and_slice_count(ties=True))
    def test_no_tie_run_straddles_a_cut(self, partition, case):
        y, r = case
        slices = self._slices(y, partition(y, r))
        for lower, upper in zip(slices[:-1], slices[1:]):
            assert lower.max() < upper.min()


@st.composite
def tie_heavy_responses(draw):
    """Up to a few thousand responses made to tie, and R <= N.

    The values are a few integer levels, a mix of 0.0, -0.0 and 1.0, one
    repeated value, or neighbouring doubles a few ulps apart; distinct
    values are drawn too.
    """
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["levels", "signed zeros", "constant", "ulps", "distinct"]))
    if kind == "levels":
        y = rng.integers(0, draw(st.integers(1, 30)), n).astype(float)
    elif kind == "signed zeros":
        y = rng.choice([0.0, -0.0, 1.0], n)
    elif kind == "constant":
        y = np.full(n, draw(st.floats(allow_nan=False, allow_infinity=False)))
    elif kind == "ulps":
        y = 1.0 + rng.integers(0, 4, n) * np.spacing(1.0)
    else:
        y = rng.standard_normal(n)
    return y, draw(st.integers(1, min(n, 60)))


@pytest.mark.parametrize("partition", [partition_fixed, partition_equal_count])
@given(case=tie_heavy_responses(), seed=st.integers(0, 2**32 - 1))
def test_permuting_the_responses_permutes_the_labels(partition, case, seed):
    """Cuts never split a tie run, so how a sort orders ties cannot reach the labels."""
    y, r = case
    perm = np.random.default_rng(seed).permutation(len(y))
    p, q = partition(y, r), partition(y[perm], r)
    np.testing.assert_array_equal(q.labels, p.labels[perm])
    np.testing.assert_array_equal(q.boundaries, p.boundaries)  # -0.0 equals 0.0


@st.composite
def zeros_at_the_ends(draw):
    """0.0 and -0.0 mixed at the low end, the high end or throughout, and R <= N."""
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    others = draw(st.sampled_from([[1.0, 2.5, 7.0], [-1.0, -2.5, -7.0], [], [-1.0, 1.0]]))
    y = rng.choice([0.0, -0.0], n)
    if others:
        moved = rng.random(n) < draw(st.floats(0.0, 0.9))
        y[moved] = rng.choice(others, moved.sum())
    return y, draw(st.integers(1, n))


@pytest.mark.parametrize("partition", [partition_fixed, partition_equal_count])
@given(case=zeros_at_the_ends(), seed=st.integers(0, 2**32 - 1))
def test_permuting_zeros_at_the_ends_keeps_every_byte(partition, case, seed):
    """An end boundary at zero is 0.0, whichever zero a sort or a minimum meets first."""
    y, r = case
    perm = np.random.default_rng(seed).permutation(len(y))
    p, q = partition(y, r), partition(y[perm], r)
    assert q.boundaries.tobytes() == p.boundaries.tobytes()
    assert q.labels.tobytes() == p.labels[perm].tobytes()
    assert not np.signbit(p.boundaries[p.boundaries == 0]).any()


@pytest.mark.parametrize("partition", [partition_fixed, partition_equal_count])
@pytest.mark.parametrize("n_slices, dtype", [(255, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_slice_counts_at_the_label_width_edge(partition, n_slices, dtype):
    """Labels up to 255 fit in uint8; the loop oracle checks the moments either side."""
    rng = np.random.default_rng(n_slices)
    n = 3 * n_slices + 7
    y = rng.permutation(n).astype(float)  # evenly spread: no fixed-width slice is empty
    s = standardized_set(rng.standard_normal((n, 2)), y)
    p = partition(y, n_slices)
    assert p.n_slices == n_slices and p.labels.dtype == dtype
    stats = slice_stats(s, p)
    for k, idx in enumerate(slice_membership(y, p.boundaries)):
        assert stats.counts[k] == len(idx)
        np.testing.assert_allclose(stats.means[k], slice_mean(s.inputs, idx), rtol=0, atol=1e-12)
        np.testing.assert_allclose(stats.covariances[k], slice_covariance(s.inputs, idx),
                                   rtol=0, atol=1e-12)


@given(case=responses_and_slice_count(ties=False))
def test_equal_count_balanced_without_ties(case):
    y, r = case
    counts = partition_equal_count(y, r).counts
    assert counts.max() - counts.min() <= 1


@st.composite
def cut_stress_responses(draw):
    """Up to a few thousand responses that stress the cuts, and R <= N.

    Integer levels put tie runs across the cuts; 0.0 and -0.0 mix, alone
    or with 1.0 or -1.0; neighbouring doubles sit a few ulps apart, at
    magnitudes from 1e-300 to 1e300 and among the subnormals around
    zero; magnitudes spread over 1e-300 to 1e300; a response may be
    constant.  R is N, up to 60, or past 256 (uint16 labels).
    """
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["levels", "signed zeros", "ulps", "subnormals", "magnitudes",
                                 "constant"]))
    if kind == "levels":
        y = rng.integers(-3, draw(st.integers(-2, 30)), n).astype(float)
    elif kind == "signed zeros":
        y = rng.choice([0.0, -0.0, draw(st.sampled_from([1.0, -1.0, 0.0]))], n)
    elif kind == "ulps":
        base = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.integers(-300, 300))
        y = base + rng.integers(0, 6, n) * np.spacing(base)
    elif kind == "subnormals":
        y = rng.integers(-3, 4, n) * np.nextafter(0.0, 1.0)
    elif kind == "magnitudes":
        y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    else:
        y = np.full(n, draw(st.floats(allow_nan=False, allow_infinity=False)))
    r = draw(st.one_of(st.just(n), st.integers(1, min(n, 60)),
                       st.integers(min(n, 257), min(n, 300))))
    return y, r


@given(case=cut_stress_responses())
def test_equal_count_equals_the_argsort_reference_byte_for_byte(case):
    """The value sort and the labelling give the argsort partition's bytes."""
    y, r = case
    p, ref = partition_equal_count(y, r), equal_count_by_argsort(y, r)
    assert p.labels.dtype == ref.labels.dtype
    assert p.labels.tobytes() == ref.labels.tobytes()
    assert p.boundaries.tobytes() == ref.boundaries.tobytes()


@pytest.mark.parametrize("partition", [partition_fixed, partition_equal_count])
@given(case=cut_stress_responses(), probes=st.lists(st.floats(allow_nan=False), max_size=50))
def test_labelling_counts_the_inner_boundaries_below(partition, case, probes):
    """The labels are ``searchsorted(side="left")`` over the inner boundaries, for the
    responses and for values between and on the boundaries."""
    y, r = case
    try:
        b = partition(y, r).boundaries
    except SliceRuleError:  # a range too wide for fixed-width slices
        b = np.array([y.min(), y.max()])
    for values in (y, np.concatenate((b, probes))):
        labels = slicing._slice_of(values, b)
        assert labels.dtype == np.min_scalar_type(len(b) - 2)
        np.testing.assert_array_equal(labels, np.searchsorted(b[1:-1], values, side="left"))


def test_equal_count_allocates_no_index_array():
    """numpy reports its buffers to tracemalloc: the sorted copy is N doubles and the
    labels N bytes; a permutation of the responses would add N intp.  The labels span
    several blocks, the last one short."""
    n = 200_000
    y = np.random.default_rng(5).standard_normal(n)
    tracemalloc.start()
    try:
        p = partition_equal_count(y, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * (8 + 1) + (1 << 20)
    assert n % slicing.BLOCK_ROWS and n > 2 * slicing.BLOCK_ROWS
    np.testing.assert_array_equal(p.labels, np.searchsorted(p.boundaries[1:-1], y))


def test_a_response_outside_its_slice_in_the_last_block_is_refused():
    n = 2 * slicing.BLOCK_ROWS + 3
    y = np.arange(n, dtype=float)
    p = partition_equal_count(y, 4)
    s = standardized_set(np.ones((n, 1)), np.concatenate((y[:-1], [-1.0])))
    with pytest.raises(ValueError, match="responses out of slice"):
        slice_stats(s, p)


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
        s = standardized_set([[1.0], [-1.0]], [0.0, 1.0])
        p = partition_equal_count(s.outputs, 1)
        stats = slice_stats(s, p)
        assert stats.means[0, 0] == 0.0
        assert stats.covariances[0][0, 0] == pytest.approx(2.0)
        np.testing.assert_array_equal(stats.weights, [1.0])

    def test_singleton_slice_degenerate(self):
        s = standardized_set([[7.0]], [3.0])
        p = partition_equal_count(s.outputs, 1)
        stats = slice_stats(s, p)
        assert stats.means[0, 0] == 7.0
        assert stats.covariances[0][0, 0] == 0.0
        assert stats.degenerate_slices == (0,)

    def test_four_point_hand_case(self):
        s = standardized_set([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 4.0]],
                             [0.1, 0.2, 0.9, 1.0])
        p = partition_equal_count(s.outputs, 2)
        stats = slice_stats(s, p)
        np.testing.assert_allclose(stats.means[0], [2.0, 0.0])
        np.testing.assert_allclose(stats.means[1], [0.0, 3.0])
        np.testing.assert_allclose(stats.weights, [0.5, 0.5])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            n = int(rng.integers(5, 60))
            s = standardized_set(rng.standard_normal((n, 3)), rng.standard_normal(n))
            p = partition_equal_count(s.outputs, int(rng.integers(1, 6)))
            stats = slice_stats(s, p)
            assert np.sum(stats.weights) == pytest.approx(1.0, abs=1e-15)

    def test_pooled_mean_identity(self):
        """Weighted slice means recombine into the global mean."""
        rng = np.random.default_rng(42)
        for scheme_fn in (partition_fixed, partition_equal_count):
            n = 57
            s = standardized_set(rng.standard_normal((n, 4)), rng.standard_normal(n))
            stats = slice_stats(s, scheme_fn(s.outputs, 6))
            pooled = stats.weights @ stats.means
            np.testing.assert_allclose(pooled, s.inputs.mean(axis=0), atol=1e-12)

    def test_covariances_symmetric_psd(self):
        rng = np.random.default_rng(43)
        n = 80
        s = standardized_set(rng.standard_normal((n, 3)), rng.standard_normal(n))
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
            standardized_set(x, y),
            partition_equal_count(y, 4),
        )
        b = slice_stats(
            standardized_set(x[perm], y[perm]),
            partition_equal_count(y[perm], 4),
        )
        np.testing.assert_allclose(a.means, b.means, atol=1e-14)
        np.testing.assert_array_equal(a.counts, b.counts)
        for sa, sb in zip(a.covariances, b.covariances):
            np.testing.assert_allclose(sa, sb, atol=1e-13)

    @pytest.mark.parametrize("labels, match", [
        ([0, 1], "different sample count"),
        ([0, 1, 1, 1], "different sample count"),
        ([0, 0, 1], "responses out of slice"),
        ([1, 0, 1], "responses out of slice"),
    ])
    def test_partition_not_matching_the_samples_rejected(self, labels, match):
        s = standardized_set(np.ones((3, 1)), [1.0, 2.0, 3.0])
        p = SlicePartition(boundaries=np.array([1.0, 1.5, 3.0]), labels=np.array(labels),
                           scheme="fixed")
        with pytest.raises(ValueError, match=match):
            slice_stats(s, p)

    @pytest.mark.parametrize("labels, match", [([-1, 1, 1], "negative"),
                                               ([0, 1, 2], "not below the slice count")])
    def test_labels_refuse_an_index_outside_the_samples(self, labels, match):
        """Refused at construction, before a gather could wrap -1 or run past slice R."""
        with pytest.raises(ValueError, match=match):
            SlicePartition(boundaries=np.array([1.0, 1.5, 3.0]), labels=np.array(labels),
                           scheme="fixed")

    def test_partition_from_other_outputs_rejected(self):
        s = standardized_set(np.ones((4, 2)), [1.0, 2.0, 3.0, 4.0])
        p = partition_equal_count([1.0, 2.0], 2)
        with pytest.raises(ValueError, match="different sample count"):
            slice_stats(s, p)


def per_slice_moments(rows, labels, n_slices):
    """The slice moments one slice at a time, each slice's rows taken afresh in
    ascending row order: the kernel's reference."""
    m = rows.shape[1]
    means, scatter = np.zeros((n_slices, m)), np.zeros((n_slices, m, m))
    for r in range(n_slices):
        xs = rows[np.flatnonzero(labels == r)]
        if len(xs):
            means[r] = xs.mean(axis=0)
        if len(xs) > 1:
            xs = xs - means[r]
            scatter[r] = xs.T @ xs
    return means, scatter


class TestSliceMoments:
    @given(st.integers(1, 12), st.integers(1, 400), st.integers(1, 80), st.integers(1, 8),
           st.integers(0, 2**32 - 1))
    def test_equals_the_per_slice_reference_bit_for_bit(self, n_slices, n, m, cpus, seed):
        """Any CPU count; the labels leave some slices empty, as surrogate chunks do."""
        rng = np.random.default_rng(seed)
        held = rng.choice(n_slices, size=rng.integers(1, n_slices + 1), replace=False)
        labels = rng.choice(held, n).astype(np.min_scalar_type(n_slices - 1))
        rows = rng.standard_normal((n, m)) * rng.uniform(0.5, 4.0, m)
        label_counts = np.bincount(labels, minlength=n_slices)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_available_cpus", lambda: cpus)
            patch.setattr(slicing, "FAN_OUT_MIN_VALUES", 0)
            counts, means, scatter = slice_moments(rows, labels.astype(float), labels,
                                                   np.arange(n_slices + 1) - 0.5, label_counts)
        ref_means, ref_scatter = per_slice_moments(rows, labels, n_slices)
        np.testing.assert_array_equal(counts, label_counts)
        assert means.tobytes() == ref_means.tobytes()
        assert scatter.tobytes() == ref_scatter.tobytes()

    @pytest.mark.parametrize("counts", [[2, 2], [2, 2, 0], [2, 2, 2], [1, 2, 2], [2, 3, 0],
                                        [3, -1, 3]])
    def test_counts_that_do_not_match_the_labels_refused(self, counts):
        labels = np.array([0, 0, 1, 1, 2], dtype=np.uint8)
        with pytest.raises(ValueError, match="slice counts do not match the labels"):
            slice_moments(np.ones((5, 2)), labels.astype(float), labels,
                          np.arange(4) - 0.5, np.array(counts))
