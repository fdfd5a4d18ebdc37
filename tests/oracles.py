"""Brute-force reference implementations used as independent checks.

Everything here transcribes the estimator recipes step by step with
explicit Python loops — no vectorization, no algebraic rearrangement —
so the fast implementations in ridgerec can be compared against these on
small inputs.  Slice membership scans closed intervals in order, which
sends boundary ties to the lower slice.  :func:`standardized_set` is
the one way the tests declare rows whitened already.
"""

import numpy as np

from ridgerec.core import SampleSet, Standardizer
from ridgerec.measures import standardize


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
