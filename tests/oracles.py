"""Brute-force reference implementations used as independent checks.

Everything here transcribes the estimator recipes step by step with
explicit Python loops — no vectorization, no algebraic rearrangement —
so the fast implementations in ridgerec can be compared against these on
small inputs.  Slice membership scans closed intervals in order, which
sends boundary ties to the lower slice.  :func:`standardized_set` is
the one way the tests declare rows whitened already.
:func:`equal_count_by_argsort` is the equal-count partition made the
older way, through the argsort of the responses.
"""

import numpy as np

from ridgerec.core import SampleSet, Standardizer
from ridgerec.measures import standardize
from ridgerec.slicing import SlicePartition


def standardized_set(x, y):
    """Rows ``x`` that are whitened already, with outputs ``y``: the identity map."""
    s = SampleSet(inputs=x, outputs=y)
    return standardize(s, Standardizer.identity(s.dimension))


def slice_membership(outputs, boundaries):
    """First-match assignment of each response to a closed interval.

    Returns a list of index lists, one per slice.  A response equal to an
    interior boundary belongs to the lower of the two adjacent slices
    because scanning starts from the lowest interval.
    """
    outputs = np.asarray(outputs, dtype=float)
    boundaries = np.asarray(boundaries, dtype=float)
    n_slices = len(boundaries) - 1
    members = [[] for _ in range(n_slices)]
    for i, y in enumerate(outputs):
        for r in range(n_slices):
            if boundaries[r] <= y <= boundaries[r + 1]:
                members[r].append(i)
                break
        else:
            raise ValueError(f"response {y} outside all slices")
    return members


def equal_count_by_argsort(outputs, n_slices):
    """The equal-count partition cut from the argsort of the responses.

    The same cuts, tie-run moves and midpoints as
    :func:`ridgerec.slicing.partition_equal_count`, but the sorted
    responses are gathered through the permutation, and each block of the
    sorted order gets its slice label by a scatter through it.
    """
    y = np.asarray(outputs, dtype=float).ravel()
    n = y.size
    order = np.argsort(y)
    ys = y[order]
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
            continue
        cuts.append(c)
        prev = c
    cuts = np.array(cuts, dtype=np.intp)
    mids = (ys[cuts - 1] + ys[cuts]) / 2.0
    mids = np.where(mids < ys[cuts], mids, ys[cuts - 1])
    boundaries = np.concatenate(([ys[0] + 0.0], mids, [ys[-1] + 0.0]))
    labels = np.empty(n, dtype=np.min_scalar_type(len(cuts)))
    labels[order] = np.repeat(np.arange(len(cuts) + 1, dtype=labels.dtype),
                              np.diff(cuts, prepend=0, append=n))
    return SlicePartition(boundaries=boundaries, labels=labels, scheme="equal-count")


def slice_mean(inputs, indices):
    m = inputs.shape[1]
    mu = [0.0] * m
    for i in indices:
        for j in range(m):
            mu[j] += inputs[i, j]
    return [v / len(indices) for v in mu]


def slice_covariance(inputs, indices):
    """Sample covariance with the 1/(count - 1) normalization."""
    m = inputs.shape[1]
    mu = slice_mean(inputs, indices)
    sigma = [[0.0] * m for _ in range(m)]
    for i in indices:
        for j in range(m):
            for k in range(m):
                sigma[j][k] += (inputs[i, j] - mu[j]) * (inputs[i, k] - mu[k])
    denom = len(indices) - 1
    if denom == 0:
        return [[0.0] * m for _ in range(m)]
    return [[sigma[j][k] / denom for k in range(m)] for j in range(m)]


def sir_matrix_oracle(inputs, outputs, boundaries):
    """Weighted outer products of slice means, term by term."""
    inputs = np.asarray(inputs, dtype=float)
    n, m = inputs.shape
    members = slice_membership(outputs, boundaries)
    C = [[0.0] * m for _ in range(m)]
    for indices in members:
        count = len(indices)
        mu = slice_mean(inputs, indices)
        for j in range(m):
            for k in range(m):
                C[j][k] += count * mu[j] * mu[k]
    return np.array(C) / n


def save_matrix_oracle(inputs, outputs, boundaries):
    """Weighted squares of (I - slice covariance), term by term."""
    inputs = np.asarray(inputs, dtype=float)
    n, m = inputs.shape
    members = slice_membership(outputs, boundaries)
    C = [[0.0] * m for _ in range(m)]
    for indices in members:
        count = len(indices)
        sigma = slice_covariance(inputs, indices)
        diff = [[(1.0 if j == k else 0.0) - sigma[j][k] for k in range(m)]
                for j in range(m)]
        for j in range(m):
            for k in range(m):
                acc = 0.0
                for t in range(m):
                    acc += diff[j][t] * diff[t][k]
                C[j][k] += count * acc
    return np.array(C) / n
