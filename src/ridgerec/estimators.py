"""The SIR and SAVE estimator matrices and the end-to-end estimation pipeline.

Both estimators summarize the conditional distribution of the inputs given
a sliced response.  SIR accumulates weighted outer products of slice
means and detects directions along which the conditional mean of x moves
with y; it is blind to symmetric structure whose slice means vanish.
SAVE accumulates weighted squares of (I - slice covariance) and also picks
up directions along which the conditional spread changes, at the price of
needing more samples per slice for stable covariance estimates.

Both formulas assume the inputs were standardized to zero mean and
identity covariance; :func:`estimate` refuses sample sets that carry no
standardizer rather than guessing.  It never whitens the N input rows:
SIR and SAVE are affine-equivariant, so :func:`~ridgerec.slicing.slice_stats`
takes the R slice moments of the stored rows and maps them through the
set's standardizer, W (mu_r - mean) and W Sigma_r W', at O(R m^3) cost.
"""

from __future__ import annotations

import numpy as np

from ridgerec.core import METHODS, SampleSet, SdrEstimate, _one_blas_thread
from ridgerec.slicing import (
    SCHEMES,
    SlicePartition,
    SliceRuleError,
    SliceStats,
    map_slices,
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
    return np.tensordot(stats.counts, map_slices(lambda a: a @ a, d), axes=1) / stats.counts.sum()


def _check_sir_rank(n_components: int, n_slices: int, which: str) -> None:
    if n_components > n_slices:
        raise SliceRuleError(f"n_components {n_components}: SIR's matrix has rank at most "
                             f"its slice count, but only {n_slices} slices {which}")


def check_estimate_rules(method: str, n_components: int, dimension: int, scheme: str,
                         n_slices: int, n_samples: int, size_name: str) -> None:
    """Refuse an estimate that cannot run on ``n_samples`` rows of ``dimension`` inputs.

    These are the rules that need no sample: a known method and scheme,
    1 <= n_components <= dimension, at least one slice, no more
    equal-count slices than samples, and the slice rules
    (:class:`SliceRuleError`): for SIR no more components than slices,
    and for SAVE at least two samples in every equal-count slice.
    Callers check them before drawing or reading, and :func:`estimate`
    checks them on its sample set.  The slice rules are checked again
    after partitioning (:func:`method_partition`), since tie runs and
    fixed-width slices can realize fewer slices, or leave a slice of one,
    that floor(N / R) does not predict.
    ``size_name`` says which count ``n_samples`` is, for the messages.
    Raises ValueError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if n_components < 1:
        raise ValueError("n_components must be at least 1")
    if n_components > dimension:
        raise ValueError(f"n_components {n_components}: the requested dimension exceeds "
                         f"input dimension {dimension}")
    if n_slices < 1:
        raise ValueError("n_slices must be at least 1")
    if method == "sir":
        _check_sir_rank(n_components, n_slices, "are asked for")
    if scheme == "equal-count" and n_slices > n_samples:
        raise ValueError(f"{n_slices} equal-count slices need at least as many samples, "
                         f"but {size_name} is {n_samples}")
    if scheme == "equal-count" and method == "save" and n_samples // n_slices < 2:
        raise SliceRuleError(f"SAVE needs at least 2 samples per slice, but {n_slices} equal-"
                             f"count slices of {size_name} {n_samples} leave a slice with one")


def make_partition(outputs, n_slices: int, scheme: str) -> SlicePartition:
    """Dispatch to the fixed-width or equal-count partitioner."""
    if scheme == "fixed":
        return partition_fixed(outputs, n_slices)
    if scheme == "equal-count":
        return partition_equal_count(outputs, n_slices)
    raise ValueError(f"unknown slicing scheme {scheme!r}")


def method_partition(outputs, n_slices: int, scheme: str, method: str,
                     n_components: int) -> SlicePartition:
    """:func:`make_partition`, refusing a SIR partition of fewer slices than
    ``n_components`` and a SAVE partition with a one-sample slice (:class:`SliceRuleError`)."""
    partition = make_partition(outputs, n_slices, scheme)
    if method == "sir":
        _check_sir_rank(n_components, partition.n_slices, "are realized")
    if method == "save" and partition.min_count < 2:
        raise SliceRuleError(
            f"SAVE needs at least 2 samples per slice, but the smallest slice has "
            f"{partition.min_count}; use fewer slices"
        )
    return partition


def estimate_from_stats(stats: SliceStats, partition: SlicePartition, method: str,
                        n_components: int) -> SdrEstimate:
    """The estimate record of ``method``'s matrix of ``stats`` and its spectrum."""
    spectrum = decompose(sir_matrix(stats) if method == "sir" else save_matrix(stats))
    return SdrEstimate(
        method=method,
        spectrum=spectrum,
        partition=partition,
        n_requested=n_components,
    )


@_one_blas_thread
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
        Must carry a standardizer (``s.standardized``); the estimator
        formulas are only meaningful for whitened inputs.  Its inputs
        are not whitened: the slice moments are.
    n_slices, scheme : int, str
        Slicing configuration ("fixed" or "equal-count").
    method : str
        One of :data:`~ridgerec.core.METHODS`.
    n_components : int
        Requested subspace dimension (the caller chooses it; eigenvalue
        gaps reported by the spectral module can guide the choice, but no
        automatic selection is attempted).

    The arguments are checked by :func:`check_estimate_rules` first.
    """
    if not s.standardized:
        raise ValueError(
            "estimate() requires standardized inputs (zero mean, identity "
            "covariance); run the sample set through standardize() first"
        )
    check_estimate_rules(method, n_components, s.dimension, scheme, n_slices, s.n_samples,
                         "the sample count")
    partition = method_partition(s.outputs, n_slices, scheme, method, n_components)
    return estimate_from_stats(slice_stats(s, partition), partition, method, n_components)
