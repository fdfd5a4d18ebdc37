"""Partition a response sample into slices and compute per-slice moments.

Two schemes are provided.  Fixed-width slicing cuts the observed response
range into equal-length intervals; slices that catch no samples are merged
into their lower neighbor.  Equal-count slicing sorts the response values
and cuts the sorted order into nearly equal blocks, which maximizes the
smallest per-slice count -- the quantity that governs how fast the slice
moments converge.

A partition is the slice that holds each sample: one label per sample,
the slice index, next to the R+1 boundaries.  Both schemes take the
labels from the boundaries by one rule (:func:`_slice_of`): a response's
slice is the number of inner boundaries strictly below it.  Cuts never
split a run of tied responses, so a response's slice depends only on its
value, and the labels do not depend on how a sort orders ties.  Slice
moments (:func:`slice_moments`) sum each slice's rows in ascending
sample index, for ``estimate`` and for every chunk of the truth
surrogate alike.

Conventions that make results exactly reproducible:

* each slice is the closed interval between consecutive boundaries, and a
  response equal to an interior boundary belongs to the LOWER slice;
* equal response values never straddle a boundary.  A cut that would
  split a run of ties is moved to the start of the run, or past its end
  when moving left would empty the slice;
* empty fixed-width slices merge toward lower slice index.

A constant response needs no special case: both schemes put every sample
in one slice with boundaries [y, y], which the partition reports as
``degenerate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ridgerec.core import SampleSet, Standardizer, _cpu_map, _freeze, _one_blas_thread

SCHEMES = ("fixed", "equal-count")

#: Widest rows whose slice moments fan out where OpenBLAS cannot be held
#: at one thread (:data:`~ridgerec.core._one_blas_thread` finds no
#: thread call): wider rows take one worker, since OpenBLAS threads each
#: product there.  Where it is held, the slice moments fan out at every
#: width.
FAN_OUT_MAX_WIDTH = 64

#: Fewest row values (N m) whose slice moments fan out.  Starting the
#: pool costs about 1.5 ms on 2 vCPUs: parallel over serial time
#: was 1.7-4.6 at N m = 10^4-2.5 10^5, 0.86-1.05 at 5 10^5-6.4 10^5 and
#: 0.62-0.96 from 10^6 up, for m = 5-64 and R = 20.
FAN_OUT_MIN_VALUES = 1 << 20

#: Fewest R m^3 whose per-slice products (:func:`map_slices`) fan out.
#: With OpenBLAS at one thread on 2 vCPUs, W Sigma_r W' for R = 20 took
#: 1.0 ms in one batched call and 2.0 ms on the pool at m = 64
#: (R m^3 = 5.2 10^6), but 3.3 against 2.5 ms at m = 100 (2 10^7).
PRODUCT_FAN_OUT_MIN = 1 << 24

#: Responses per block of the slice labelling (:func:`_slice_of`) and of
#: the containment check in :func:`slice_moments`, whose temporaries are
#: thus a few hundred kB at any N.
BLOCK_ROWS = 1 << 14


class SliceRuleError(ValueError):
    """A partition that the scheme cannot make or the method cannot use; the command
    line exits 2 on it.

    Three rules.  Fixed-width slices need a response range whose width
    y_max - y_min is a finite double: the equal-width boundaries are cut
    from it.  SIR takes no more directions than slices: its matrix is a
    weighted sum of one outer product per slice, so its rank is at most
    the slice count and the directions past it are round-off.  SAVE takes
    no slice of one sample: that slice's covariance is zero and adds a
    full-weight I term.
    """


@dataclass(frozen=True)
class SlicePartition:
    """R response intervals and the slice that holds each sample.

    ``boundaries`` holds R+1 ascending values covering [y_min, y_max], and
    ``labels`` holds each sample's slice index, in the narrowest unsigned
    type that holds R - 1, as a read-only view.  ``counts`` is taken from
    the labels once, here, and that pass checks them: every label is
    below R and no slice is empty.
    """

    boundaries: np.ndarray
    labels: np.ndarray
    scheme: str
    counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "boundaries", _freeze(self.boundaries))
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        b, r = self.boundaries, len(self.boundaries) - 1
        if r < 1:
            raise ValueError("need at least two boundaries: the slice count plus one")
        # Only the first interval may have zero width: its closed ends take
        # precedence, so [y, y] still holds the responses equal to y.
        if not (b[0] <= b[1] and np.all(np.diff(b[1:]) > 0)):
            raise ValueError("boundaries must be strictly ascending")
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.dtype.kind not in "iu":
            raise ValueError("labels must be a vector of slice indices")
        counts = np.bincount(labels, minlength=r)  # refuses a negative label
        if len(counts) > r:
            raise ValueError("a label is not below the slice count, one less than the boundaries")
        if not counts.all():
            raise ValueError("every slice must hold at least one sample")
        labels = labels.astype(np.min_scalar_type(r - 1), copy=False).view()
        labels.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "counts", counts)

    @property
    def degenerate(self) -> bool:
        """True for a constant response: one slice with boundaries [y, y]."""
        return bool(self.boundaries[0] == self.boundaries[-1])

    @property
    def n_slices(self) -> int:
        return len(self.counts)

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def min_count(self) -> int:
        """The smallest per-slice count; convergence rates scale with it."""
        return int(self.counts.min())


@dataclass(frozen=True)
class SliceStats:
    """Per-slice counts, means, and covariances.

    Covariances use the 1/(N_r - 1) normalization; single-sample slices
    get a zero covariance and are listed in ``degenerate_slices``.
    """

    counts: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", _freeze(self.counts, np.intp))
        object.__setattr__(self, "means", _freeze(self.means))
        object.__setattr__(self, "covariances", _freeze(self.covariances))

    @property
    def weights(self) -> np.ndarray:
        """Each slice's sample fraction N_r / N."""
        return self.counts / self.counts.sum()

    @property
    def degenerate_slices(self) -> tuple:
        return tuple(np.flatnonzero(self.counts == 1).tolist())

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


def _slice_of(y: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Each response's slice: how many inner boundaries lie strictly below it.

    Equals ``np.searchsorted(boundaries[1:-1], y, side="left")``, so a
    response equal to an inner boundary belongs to the lower slice, and is
    written straight into the narrowest unsigned type that holds R - 1.
    A branch-free binary search runs over the inner boundaries, padded
    with +inf to a power of two, in blocks of ``BLOCK_ROWS`` responses,
    and every temporary is allocated once, on the calling thread.  At
    N = 10^6 on 2 vCPUs it took 10 ms at R = 20 and 17 ms at R = 300,
    against 35 and 71 ms for ``searchsorted``, whose branches on unsorted
    keys mispredict.
    """
    inner = boundaries[1:-1]
    labels = np.empty(len(y), dtype=np.min_scalar_type(len(inner)))
    width = 1 << len(inner).bit_length()  # more than len(inner): the last entry is +inf
    table = np.full(width, np.inf)
    table[:len(inner)] = inner
    rows = min(len(y), BLOCK_ROWS)
    buffers = np.empty(rows, np.intp), np.empty(rows, np.intp), np.empty(rows), np.empty(rows, bool)
    for a in range(0, len(y), BLOCK_ROWS):
        ys = y[a:a + BLOCK_ROWS]
        # pos counts the entries below each response found so far; step halves each pass.
        pos, add, probed, below = (b[:len(ys)] for b in buffers)
        pos[:] = 0
        step = width >> 1
        while step:
            # pos + step - 1 stays below the width, so nothing is clipped; a checked
            # take into ``out`` would copy through a buffer of its own.
            np.take(table[step - 1:], pos, out=probed, mode="clip")
            np.less(probed, ys, out=below)
            np.multiply(below, step, out=add)
            pos += add
            step >>= 1
        labels[a:a + len(ys)] = pos
    return labels


def partition_fixed(outputs, n_slices: int) -> SlicePartition:
    """Cut [y_min, y_max] into equal-width slices, merging empty ones downward.

    The returned partition may hold fewer than ``n_slices`` slices when
    some intervals catch no samples; a constant response gives one.
    Responses whose range y_max - y_min overflows a double are refused
    (:class:`SliceRuleError`).
    """
    y = _as_response_vector(outputs)
    if n_slices < 1:
        raise ValueError("n_slices must be at least 1")
    lo, hi = y.min() + 0.0, y.max() + 0.0  # -0.0 + 0.0 is 0.0, whichever zero is met first
    with np.errstate(over="ignore"):
        width = hi - lo
    if not np.isfinite(width):
        raise SliceRuleError(f"fixed-width slices need a response range that a double holds, "
                             f"but y_max - y_min = {float(hi)!r} - ({float(lo)!r}) overflows; "
                             f"use equal-count slices or rescale the responses")
    bounds = np.linspace(lo, hi, n_slices + 1)
    idx = _slice_of(y, bounds)
    counts = np.bincount(idx, minlength=n_slices)
    nonempty = np.flatnonzero(counts)
    # An empty interval merges into the nonempty one below it.
    merged = (np.cumsum(counts > 0) - 1).astype(np.min_scalar_type(len(nonempty) - 1))
    return SlicePartition(
        boundaries=np.concatenate(([bounds[0]], bounds[nonempty[1:]], [bounds[-1]])),
        labels=merged[idx],
        scheme="fixed",
    )


def partition_equal_count(outputs, n_slices: int) -> SlicePartition:
    """Sort responses and cut the sorted order into nearly equal blocks.

    Per-slice counts differ by at most one unless tie runs force a cut to
    move; boundaries sit at midpoints between adjacent distinct sorted
    values, so membership still respects the closed-interval convention.
    Only the values are sorted, not their indices: the cuts need only the
    sorted values, and each label follows from its response and the
    boundaries (:func:`_slice_of`), so no N-entry permutation is held.
    At N = 10^6 on 2 vCPUs the sort took 9-11 ms, against 32-48 ms for
    an argsort.
    """
    y = _as_response_vector(outputs)
    n = y.size
    if n_slices < 1:
        raise ValueError("n_slices must be at least 1")
    if n_slices > n:
        raise ValueError("more slices than samples")
    ys = np.sort(y)
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
    # Adding 0.0 turns -0.0 into 0.0, so the ends do not depend on which zero sorts first.
    boundaries = np.concatenate(([ys[0] + 0.0], mids, [ys[-1] + 0.0]))
    # The sorted copy goes before the labels are made: a large estimate's peak memory is set here.
    del ys
    return SlicePartition(boundaries=boundaries, labels=_slice_of(y, boundaries),
                          scheme="equal-count")


def slice_moments(rows: np.ndarray, responses: np.ndarray, labels: np.ndarray,
                  boundaries: np.ndarray, counts: np.ndarray) -> tuple:
    """Each slice's count, mean and centered sum of outer products of the rows it labels.

    ``labels`` holds each row's slice index, ``boundaries`` the R+1
    slice boundaries and ``counts`` the R counts of the labels, such as
    ``np.bincount(labels, minlength=R)`` or a partition's ``counts``,
    which are not taken again here.  Refuses rows, responses and labels
    of different lengths, counts that are not the labels' (checked at
    each slice's ends in the sorted labels, in O(R), rather than by
    counting again), and a response outside the closed interval of its
    slice, which guards against pairing a partition with the wrong data.
    Each slice's rows are summed in ascending row order, as the stable
    argsort of the labels lists them, so the moments of a sample do not
    depend on how its partition was made.  Returns the (R,) counts, the
    (R, m) means and the (R, m, m) sums of (x - mu_r)(x - mu_r)'; a slice
    with no rows gets zeros, and one with a single row a zero sum.

    OpenBLAS is held at one thread throughout
    (:data:`~ridgerec.core._one_blas_thread`).  When the rows hold at
    least ``FAN_OUT_MIN_VALUES`` values (and, where OpenBLAS cannot be
    held, are at most ``FAN_OUT_MAX_WIDTH`` wide), each slice is a job of
    :func:`~ridgerec.core._cpu_map`, taken by the first free pool thread,
    with no more threads than the largest slice fits into the rows;
    otherwise the slices run in order on the calling thread.  Taking
    slices as threads free up, rather than a fixed half each, keeps a CPU
    that another process slows from holding up the rest: with a busy loop
    on one of two CPUs, the slice moments at N = 10^6, m = 10 took
    68-70 ms at best, against 75-90 ms for fixed halves and 81-88 ms on
    one thread.  A slice is gathered into its thread's scratch buffer,
    as large as the largest slice.  The per-slice arithmetic does not
    depend on the thread, so neither do the bits of the result.

    The gather clips out-of-range indices instead of refusing them,
    because a checked gather into a given buffer copies through a buffer
    of its own; the argsort of the labels, a permutation of the row
    indices, has none.
    """
    if not len(rows) == len(responses) == len(labels):
        raise ValueError("partition does not match sample set (different sample count)")
    if (len(counts) != len(boundaries) - 1 or counts.sum() != len(labels)
            or np.any(counts < 0)):
        raise ValueError("slice counts do not match the labels")
    edge = np.empty(min(len(labels), BLOCK_ROWS))
    for a in range(0, len(labels), BLOCK_ROWS):
        ys, slices = responses[a:a + BLOCK_ROWS], labels[a:a + BLOCK_ROWS]
        if (np.any(ys < np.take(boundaries[:-1], slices, out=edge[:len(ys)]))
                or np.any(ys > np.take(boundaries[1:], slices, out=edge[:len(ys)]))):
            raise ValueError("partition does not match sample set (responses out of slice)")
    del edge  # before the gather, which sets a large estimate's peak memory
    offsets = np.concatenate(([0], np.cumsum(counts)))
    order = np.argsort(labels, kind="stable")
    # The sorted labels ascend, so a segment whose first and last labels
    # are its slice's holds nothing else, and segments that cover all the
    # rows then hold each slice's rows exactly: the counts are the labels'.
    held = np.flatnonzero(counts)
    if (np.any(labels[order[offsets[held]]] != held)
            or np.any(labels[order[offsets[held + 1] - 1]] != held)):
        raise ValueError("slice counts do not match the labels")
    n_slices, m = len(counts), rows.shape[1]
    means = np.zeros((n_slices, m))
    scatter = np.zeros((n_slices, m, m))
    big = counts.max()

    def moments(r: int, buf: np.ndarray) -> None:
        c = counts[r]
        if c == 0:
            return
        xs = np.take(rows, order[offsets[r]:offsets[r + 1]], axis=0, out=buf[:c], mode="clip")
        means[r] = xs.mean(axis=0)
        if c > 1:
            xs -= means[r]
            scatter[r] = xs.T @ xs

    with _one_blas_thread as pinned:
        fan_out = (pinned or m <= FAN_OUT_MAX_WIDTH) and len(rows) * m >= FAN_OUT_MIN_VALUES
        # No more threads than the largest slice fits into the rows, so the
        # buffers together hold at most N rows.
        list(_cpu_map(moments, range(n_slices), threads=len(rows) // big if fan_out else 1,
                      scratch=lambda: np.empty((big, m))))
    return counts, means, scatter


def map_slices(f, stack: np.ndarray) -> np.ndarray:
    """``f`` of each m x m matrix of an (R, m, m) ``stack``, as a new (R, m, m) array.

    ``f`` is a product of matrices that numpy broadcasts over the stack,
    such as ``lambda a: W @ a @ W.T``, so ``f(stack)`` and ``f`` of each
    slice give the same bits.  OpenBLAS is held at one thread
    (:data:`~ridgerec.core._one_blas_thread`), and when it is and R m^3
    is at least ``PRODUCT_FAN_OUT_MIN``, each slice is a job of
    :func:`~ridgerec.core._cpu_map`; otherwise ``f(stack)`` runs here.
    """
    n_slices, m = stack.shape[:2]
    with _one_blas_thread as pinned:
        if not pinned or n_slices * m**3 < PRODUCT_FAN_OUT_MIN:
            return f(stack)
        out = np.empty_like(stack)

        def one(r: int, _) -> None:
            out[r] = f(stack[r])

        list(_cpu_map(one, range(n_slices)))
    return out


def whitened_slice_stats(counts: np.ndarray, means: np.ndarray, scatter: np.ndarray,
                         std: Optional[Standardizer]) -> SliceStats:
    """Slice statistics in whitened coordinates from the raw rows' slice moments.

    The covariances are ``scatter / (N_r - 1)``, computed in ``scatter``'s
    own buffer, which the caller hands over; a single-sample slice's zero
    sum stays zero.  z = W (x - mean) is affine, so the whitened slice
    means are W (mu_r - mean) and the covariances W Sigma_r W', taken per
    slice (:func:`map_slices`): O(R m^3) instead of whitening all N rows.
    The identity map (or None) is skipped, which is exact.
    """
    covs = np.divide(scatter, np.maximum(counts - 1, 1)[:, None, None], out=scatter)
    if std is not None and not std.is_identity:
        W = std.whitening
        means = (means - std.mean) @ W.T
        covs = map_slices(lambda a: W @ a @ W.T, covs)
    return SliceStats(counts=counts, means=means, covariances=covs)


def slice_stats(s: SampleSet, partition: SlicePartition) -> SliceStats:
    """Compute per-slice counts, means, and covariances in whitened coordinates.

    The moments are taken over the stored rows (:func:`slice_moments`,
    which refuses a partition of other responses) and then mapped
    through the set's standardizer (:func:`whitened_slice_stats`).
    """
    counts, means, scatter = slice_moments(s.inputs, s.outputs, partition.labels,
                                           partition.boundaries, partition.counts)
    return whitened_slice_stats(counts, means, scatter, s.standardizer)
