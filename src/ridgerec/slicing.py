"""Partition a response sample into slices and compute per-slice moments.

Two schemes are provided.  Fixed-width slicing cuts the observed response
range into equal-length intervals; slices that catch no samples are merged
into their lower neighbor.  Equal-count slicing sorts the responses and
cuts the sorted order into nearly equal blocks, which maximizes the
smallest per-slice count -- the quantity that governs how fast the slice
moments converge.

A partition is stored flat: a permutation ``order`` that lists the sample
indices slice by slice, and ``offsets`` marking where each slice starts in
it.  Equal-count slicing takes ``order`` from its argsort of the responses,
fixed-width slicing from a stable argsort of the bin index.

Conventions that make results exactly reproducible:

* each slice is the closed interval between consecutive boundaries, and a
  response equal to an interior boundary belongs to the LOWER slice;
* equal response values never straddle a boundary.  A cut that would
  split a run of ties is moved to the start of the run, or past its end
  when moving left would empty the slice;
* empty fixed-width slices merge toward lower slice index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ridgerec.core import SampleSet, _freeze

SCHEMES = ("fixed", "equal-count")


@dataclass(frozen=True)
class SlicePartition:
    """R response intervals over one permutation of the samples.

    ``boundaries`` holds R+1 ascending values covering [y_min, y_max].
    ``order`` lists the N sample indices slice by slice, and ``offsets``
    (R+1 entries rising strictly from 0 to N) marks where each slice
    starts: slice r holds ``order[offsets[r]:offsets[r + 1]]``.  Both are
    stored as read-only views, not copies.  ``degenerate`` flags the
    single-slice fallback for a constant response, whose boundary pair
    collapses to [y, y].
    """

    boundaries: np.ndarray
    order: np.ndarray
    offsets: np.ndarray
    scheme: str
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "boundaries", _freeze(self.boundaries))
        for name in ("order", "offsets"):
            view = np.asarray(getattr(self, name), dtype=np.intp).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        b, off = self.boundaries, self.offsets
        if len(off) < 2 or off[0] != 0 or off[-1] != len(self.order):
            raise ValueError("offsets must run from 0 to the length of order")
        if len(b) != len(off):
            raise ValueError("boundary count must be slice count plus one")
        # Only the first interval may have zero width: its closed ends take
        # precedence, so [y, y] still holds the responses equal to y.
        if not (b[0] <= b[1] and np.all(np.diff(b[1:]) > 0)):
            raise ValueError("boundaries must be strictly ascending")
        if np.any(np.diff(off) <= 0):
            raise ValueError("every slice must hold at least one sample")

    @property
    def membership(self) -> tuple:
        """Per-slice sample indices, as read-only views of ``order``."""
        return tuple(np.split(self.order, self.offsets[1:-1]))

    @property
    def n_slices(self) -> int:
        return len(self.offsets) - 1

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def n_samples(self) -> int:
        return len(self.order)

    @property
    def min_count(self) -> int:
        """The smallest per-slice count; convergence rates scale with it."""
        return int(self.counts.min())


@dataclass(frozen=True)
class SliceStats:
    """Per-slice weights, means, and covariances.

    ``weights[r]`` is the slice's sample fraction N_r / N.  Covariances
    use the 1/(N_r - 1) normalization; single-sample slices get a zero
    covariance and are listed in ``degenerate_slices``.
    """

    counts: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    degenerate_slices: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.intp))
        object.__setattr__(self, "weights", _freeze(self.weights))
        object.__setattr__(self, "means", _freeze(self.means))
        object.__setattr__(self, "covariances", _freeze(self.covariances))

    @property
    def n_slices(self) -> int:
        return len(self.counts)

    @property
    def dimension(self) -> int:
        return self.means.shape[1]


def default_slice_count(n_samples: int) -> int:
    """floor(sqrt(N)) clamped to [5, 50] and never above N."""
    return max(1, min(max(5, int(np.sqrt(n_samples))), 50, n_samples))


def _as_response_vector(outputs) -> np.ndarray:
    y = np.asarray(outputs, dtype=np.float64).ravel()
    if y.size < 1:
        raise ValueError("need at least one response value")
    if not np.all(np.isfinite(y)):
        raise ValueError("responses must be finite")
    return y


def _degenerate_partition(y: np.ndarray, scheme: str) -> SlicePartition:
    return SlicePartition(
        boundaries=np.array([y[0], y[0]]),
        order=np.arange(y.size),
        offsets=np.array([0, y.size]),
        scheme=scheme,
        degenerate=True,
    )


def partition_fixed(outputs, n_slices: int) -> SlicePartition:
    """Cut [y_min, y_max] into equal-width slices, merging empty ones downward.

    A constant response collapses to a single flagged slice.  The
    returned partition may hold fewer than ``n_slices`` slices when some
    intervals catch no samples.
    """
    y = _as_response_vector(outputs)
    if n_slices < 1:
        raise ValueError("n_slices must be at least 1")
    lo, hi = y.min(), y.max()
    if lo == hi:
        return _degenerate_partition(y, "fixed")
    bounds = np.linspace(lo, hi, n_slices + 1)
    # A response equal to an interior boundary counts as below it.
    idx = np.searchsorted(bounds[1:-1], y, side="left")
    counts = np.bincount(idx, minlength=n_slices)
    nonempty = np.flatnonzero(counts)
    return SlicePartition(
        boundaries=np.concatenate(([bounds[0]], bounds[nonempty[1:]], [bounds[-1]])),
        order=np.argsort(idx, kind="stable"),
        offsets=np.concatenate(([0], np.cumsum(counts[nonempty]))),
        scheme="fixed",
    )


def partition_equal_count(outputs, n_slices: int) -> SlicePartition:
    """Sort responses and cut the sorted order into nearly equal blocks.

    Per-slice counts differ by at most one unless tie runs force a cut to
    move; boundaries sit at midpoints between adjacent distinct sorted
    values, so membership still respects the closed-interval convention.
    """
    y = _as_response_vector(outputs)
    n = y.size
    if n_slices < 1:
        raise ValueError("n_slices must be at least 1")
    if n_slices > n:
        raise ValueError("more slices than samples")
    order = np.argsort(y, kind="stable")
    ys = y[order]
    if ys[0] == ys[-1]:
        return _degenerate_partition(y, "equal-count")

    cuts = []
    prev = 0
    for k in range(1, n_slices):
        c = (k * n) // n_slices
        if c <= prev:
            continue
        if ys[c - 1] == ys[c]:
            run_start = int(np.searchsorted(ys, ys[c], side="left"))
            run_end = int(np.searchsorted(ys, ys[c], side="right"))
            c = run_start if run_start > prev else run_end
        if c <= prev or c >= n:
            continue  # tie run swallowed this cut; merge with the neighbor
        cuts.append(c)
        prev = c

    cuts = np.array(cuts, dtype=np.intp)
    # A midpoint of two adjacent doubles can round up onto the upper value,
    # which would then belong to the lower slice; cut at the lower value.
    mids = (ys[cuts - 1] + ys[cuts]) / 2.0
    mids = np.where(mids < ys[cuts], mids, ys[cuts - 1])
    return SlicePartition(
        boundaries=np.concatenate(([ys[0]], mids, [ys[-1]])),
        order=order,
        offsets=np.concatenate(([0], cuts, [n])),
        scheme="equal-count",
    )


def slice_stats(s: SampleSet, partition: SlicePartition) -> SliceStats:
    """Compute per-slice weights, means, and covariances for a sample set.

    Raises if the partition does not cover exactly the sample set's rows
    or puts a response outside its slice's interval, which guards against
    pairing a partition with the wrong data.
    """
    n = s.n_samples
    order, starts = partition.order, partition.offsets[:-1]
    if partition.n_samples != n:
        raise ValueError("partition does not match sample set (different sample count)")
    if order.min() < 0 or np.any(np.bincount(order, minlength=n) != 1):
        raise ValueError("partition does not match sample set (index coverage)")
    ys, b = s.outputs[order], partition.boundaries
    lo, hi = np.minimum.reduceat(ys, starts), np.maximum.reduceat(ys, starts)
    if np.any(lo < b[:-1]) or np.any(hi > b[1:]):
        raise ValueError("partition does not match sample set (responses out of slice)")

    m = s.dimension
    counts = partition.counts
    means = np.empty((partition.n_slices, m))
    covs = np.zeros((partition.n_slices, m, m))
    for r, ix in enumerate(partition.membership):
        xs = np.take(s.inputs, ix, axis=0)
        means[r] = xs.mean(axis=0)
        if len(ix) > 1:
            xc = xs - means[r]
            covs[r] = xc.T @ xc / (len(ix) - 1)
    return SliceStats(
        counts=counts,
        weights=counts / n,
        means=means,
        covariances=covs,
        degenerate_slices=tuple(np.flatnonzero(counts == 1).tolist()),
    )
