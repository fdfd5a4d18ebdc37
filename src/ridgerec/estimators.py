"""The SIR and SAVE estimator matrices and the end-to-end estimation pipeline.

Both estimators summarize the conditional distribution of the inputs given
a sliced response.  SIR accumulates weighted outer products of slice
means and detects directions along which the conditional mean of x moves
with y; it is blind to symmetric structure whose slice means vanish.
SAVE accumulates weighted squares of (I - slice covariance) and also picks
up directions along which the conditional spread changes, at the price of
needing more samples per slice for stable covariance estimates.

Both formulas assume the inputs were standardized to zero mean and
identity covariance; :func:`estimate` refuses sample sets that were not
produced by the whitening pipeline rather than guessing.
"""

from __future__ import annotations

import numpy as np

from ridgerec.core import SampleSet, SdrEstimate
from ridgerec.slicing import (
    SlicePartition,
    SliceStats,
    partition_equal_count,
    partition_fixed,
    slice_stats,
)
from ridgerec.spectral import decompose


def sir_matrix(stats: SliceStats) -> np.ndarray:
    """Weighted covariance of the slice means: (1/N) sum_r N_r mu_r mu_r'."""
    return (stats.means.T * stats.counts) @ stats.means / stats.counts.sum()


def save_matrix(stats: SliceStats) -> np.ndarray:
    """Weighted squares of the covariance defects: (1/N) sum_r N_r (I - Sigma_r)^2."""
    d = np.eye(stats.dimension) - stats.covariances
    return np.tensordot(stats.counts, d @ d, axes=1) / stats.counts.sum()


def make_partition(outputs, n_slices: int, scheme: str) -> SlicePartition:
    """Dispatch to the fixed-width or equal-count partitioner."""
    if scheme == "fixed":
        return partition_fixed(outputs, n_slices)
    if scheme == "equal-count":
        return partition_equal_count(outputs, n_slices)
    raise ValueError(f"unknown slicing scheme {scheme!r}")


def estimate(
    s: SampleSet,
    n_slices: int,
    scheme: str,
    method: str,
    n_components: int,
) -> SdrEstimate:
    """Run the full pipeline: partition, slice moments, matrix, spectrum.

    Parameters
    ----------
    s : SampleSet
        Must carry the ``standardized`` provenance flag; the estimator
        formulas are only meaningful for whitened inputs.
    n_slices, scheme : int, str
        Slicing configuration ("fixed" or "equal-count").
    method : str
        "sir" or "save".
    n_components : int
        Requested subspace dimension (the caller chooses it; eigenvalue
        gaps reported by the spectral module can guide the choice, but no
        automatic selection is attempted).
    """
    if not s.standardized:
        raise ValueError(
            "estimate() requires standardized inputs (zero mean, identity "
            "covariance); run the sample set through standardize() first"
        )
    if not 1 <= n_components <= s.dimension:
        raise ValueError(f"n_components must lie in [1, {s.dimension}]")
    if method == "sir":
        matrix_of = sir_matrix
    elif method == "save":
        matrix_of = save_matrix
    else:
        raise ValueError(f"unknown method {method!r}; expected 'sir' or 'save'")

    partition = make_partition(s.outputs, n_slices, scheme)
    stats = slice_stats(s, partition)
    spectrum = decompose(matrix_of(stats))
    return SdrEstimate(
        method=method,
        spectrum=spectrum,
        partition=partition,
        n_requested=n_components,
    )
