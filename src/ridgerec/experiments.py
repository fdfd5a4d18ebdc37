"""Monte Carlo studies of estimator convergence, bootstrap ranges, and plots.

The population estimator matrices are not available in closed form, so a
very-high-N run (the "truth surrogate") stands in for them.  Surrogates
are cached on disk keyed by everything that determines them, and the
cache write is atomic so concurrent readers never observe a partial file.

A convergence study runs T independent trials at each sample size with
seeds derived from a master seed, records the normalized eigenvalue error
and the subspace distance against the surrogate, and fits log-log slopes
over the per-size trial means.  Everything is a pure function of the
study configuration: rerunning a config reproduces results bit for bit.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ridgerec.core import SampleSet, SdrEstimate, Subspace, SymmetricSpectrum, write_atomic
from ridgerec.estimators import estimate
from ridgerec.measures import derive_seed, generator
from ridgerec.slicing import SCHEMES
from ridgerec.spectral import subspace_distance
from ridgerec.testfns import generate_samples, get_test_function

DEFAULT_TRUTH_SIZE = 1_000_000
DEFAULT_TRUTH_SEED = 777


def default_cache_dir() -> Path:
    """Cache location for truth surrogates; override with RIDGEREC_CACHE."""
    return Path(os.environ.get("RIDGEREC_CACHE", "~/.cache/ridgerec")).expanduser()


@dataclass(frozen=True)
class StudyConfig:
    """Everything that determines a convergence study.

    ``sizes`` must ascend and the surrogate size must dominate the
    largest study size by at least 10x so the surrogate's own error is
    negligible on the study's scale.
    """

    function: str
    method: str
    sizes: tuple
    trials: int
    seed: int
    n_components: int
    n_slices: int
    scheme: str = "equal-count"
    truth_size: int = DEFAULT_TRUTH_SIZE
    truth_seed: int = DEFAULT_TRUTH_SEED
    cache_dir: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        if not self.sizes:
            raise ValueError("sizes must be non-empty")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("sizes must be strictly ascending")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.truth_size < 10 * max(self.sizes):
            raise ValueError("truth surrogate size must be at least 10x the largest size")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class TrialRecord:
    """One (sample size, trial) outcome of a convergence study."""

    size: int
    trial: int
    n_r_min: int
    eig_mse_norm: float
    subspace_dist: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """Trial records plus fitted slopes and the surrogate spectrum.

    Slopes are ordinary least squares on log10 of the per-size trial
    means versus log10 of the size, and are only fitted when the study
    covers at least three sizes.  ``distance_trend_inversions`` counts
    adjacent size pairs where the mean distance increased; a converging
    study should show at most one such inversion.
    """

    config: StudyConfig
    records: tuple
    truth: SymmetricSpectrum
    subspace_slope: Optional[float]
    eig_mse_slope: Optional[float]
    distance_trend_inversions: int

    def mean_by_size(self, field: str) -> dict:
        """Per-size trial means of one record field."""
        out: dict = {}
        for n in self.config.sizes:
            vals = [getattr(r, field) for r in self.records if r.size == n]
            out[n] = float(np.mean(vals))
        return out


def _surrogate_cache_path(cfg: StudyConfig) -> Path:
    base = Path(cfg.cache_dir) if cfg.cache_dir is not None else default_cache_dir()
    name = (
        f"truth-{cfg.function}-{cfg.method}-R{cfg.n_slices}-{cfg.scheme}"
        f"-N{cfg.truth_size}-seed{cfg.truth_seed}.npz"
    )
    return base / name


def truth_surrogate(cfg: StudyConfig) -> SymmetricSpectrum:
    """High-N estimate standing in for the population matrix, disk-cached.

    The cache key covers (function, method, slices, scheme, surrogate
    size, surrogate seed); a hit reproduces the spectrum bit for bit.
    """
    path = _surrogate_cache_path(cfg)
    if path.exists():
        with np.load(path) as data:
            return SymmetricSpectrum(
                matrix=data["matrix"],
                eigenvalues=data["eigenvalues"],
                eigenvectors=data["eigenvectors"],
            )
    fn = get_test_function(cfg.function)
    s = generate_samples(fn, cfg.truth_size, cfg.truth_seed)
    est = estimate(s, cfg.n_slices, cfg.scheme, cfg.method, cfg.n_components)
    spec = est.spectrum
    buf = io.BytesIO()
    np.savez(buf, matrix=spec.matrix, eigenvalues=spec.eigenvalues,
             eigenvectors=spec.eigenvectors)
    write_atomic(path, buf.getvalue())
    return spec


def eigenvalue_error(estimated: np.ndarray, truth: np.ndarray) -> float:
    """Max squared eigenvalue error normalized by the squared leading truth value."""
    return float(np.max((estimated - truth) ** 2) / truth[0] ** 2)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log10(y) against log10(x)."""
    return float(np.polyfit(np.log10(xs), np.log10(ys), 1)[0])


def run_convergence(cfg: StudyConfig) -> ConvergenceStudy:
    """Run the full study: per-size trials, error records, fitted slopes.

    Trial seeds derive from (master seed, size index, trial index), so
    the study is reproducible and trials are independent.  Any trial
    failure propagates; no record is silently skipped.
    """
    truth = truth_surrogate(cfg)
    truth_sub = Subspace(truth.eigenvectors[:, : cfg.n_components])
    fn = get_test_function(cfg.function)

    records = []
    for size_index, n in enumerate(cfg.sizes):
        for trial in range(cfg.trials):
            seed = derive_seed(cfg.seed, size_index, trial)
            s = generate_samples(fn, n, seed)
            est = estimate(s, cfg.n_slices, cfg.scheme, cfg.method, cfg.n_components)
            records.append(
                TrialRecord(
                    size=n,
                    trial=trial,
                    n_r_min=est.partition.min_count,
                    eig_mse_norm=eigenvalue_error(
                        est.spectrum.eigenvalues, truth.eigenvalues
                    ),
                    subspace_dist=subspace_distance(truth_sub, est.subspace),
                )
            )

    mean_dist = []
    mean_mse = []
    for n in cfg.sizes:
        dd = [r.subspace_dist for r in records if r.size == n]
        mm = [r.eig_mse_norm for r in records if r.size == n]
        mean_dist.append(np.mean(dd))
        mean_mse.append(np.mean(mm))
    inversions = int(np.sum(np.diff(mean_dist) > 0))

    if len(cfg.sizes) >= 3:
        subspace_slope = loglog_slope(cfg.sizes, mean_dist)
        eig_mse_slope = loglog_slope(cfg.sizes, mean_mse)
    else:
        subspace_slope = None
        eig_mse_slope = None

    return ConvergenceStudy(
        config=cfg,
        records=tuple(records),
        truth=truth,
        subspace_slope=subspace_slope,
        eig_mse_slope=eig_mse_slope,
        distance_trend_inversions=inversions,
    )


# ---------------------------------------------------------------------------
# Spectral-gap dependence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapDependenceReport:
    """Comparison of mean subspace errors at two truncation dimensions.

    ``passed`` records whether the dimension sitting at the larger
    spectral gap achieved the strictly smaller mean distance; ``tied``
    flags the non-strict fallback when the means coincide (as they do
    when the same study is compared with itself).
    """

    n_small_gap_side: int
    n_large_gap_side: int
    mean_dist_large_gap: float
    mean_dist_small_gap: float
    passed: bool
    tied: bool


def gap_dependence_check(
    study_large_gap: ConvergenceStudy, study_small_gap: ConvergenceStudy
) -> GapDependenceReport:
    """Compare mean subspace distances of two studies differing only in n.

    The studies must share function, method, slicing, and sizes; the
    expectation is that truncating at a large eigenvalue gap yields a
    more stable subspace than truncating where the spectrum plateaus.
    """
    a, b = study_large_gap.config, study_small_gap.config
    shared = ("function", "method", "sizes", "n_slices", "scheme", "trials")
    for f in shared:
        if getattr(a, f) != getattr(b, f):
            raise ValueError(f"studies differ in {f}; gap comparison requires a shared setup")
    da = float(np.mean([r.subspace_dist for r in study_large_gap.records]))
    db = float(np.mean([r.subspace_dist for r in study_small_gap.records]))
    return GapDependenceReport(
        n_small_gap_side=b.n_components,
        n_large_gap_side=a.n_components,
        mean_dist_large_gap=da,
        mean_dist_small_gap=db,
        passed=da <= db,
        tied=da == db,
    )


# ---------------------------------------------------------------------------
# Bootstrap and summary plots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapResult:
    """Eigenvalue envelopes over paired resamples.

    ``lower`` and ``upper`` are the elementwise min/max over the
    resampled spectra together with the point estimate itself, so
    lower <= point <= upper holds by construction.
    """

    n_resamples: int
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if np.any(self.lower > self.point) or np.any(self.point > self.upper):
            raise ValueError("bootstrap envelope must bracket the point estimate")


def bootstrap_eigenvalues(
    s: SampleSet,
    n_slices: int,
    scheme: str,
    method: str,
    n_resamples: int,
    seed: int,
    n_components: int = 1,
) -> BootstrapResult:
    """Paired-resample eigenvalue ranges for one estimator run.

    Each resample draws N index pairs with replacement and reruns the
    whole pipeline, including re-slicing, so the ranges reflect slicing
    variability as well as moment noise.
    """
    if n_resamples < 2:
        raise ValueError("need at least 2 resamples")
    point = estimate(s, n_slices, scheme, method, n_components).spectrum.eigenvalues
    rng = generator(seed)
    stack = np.empty((n_resamples, point.size))
    for b in range(n_resamples):
        idx = rng.integers(0, s.n_samples, size=s.n_samples)
        res = SampleSet(
            inputs=s.inputs[idx],
            outputs=s.outputs[idx],
            standardized=s.standardized,
        )
        stack[b] = estimate(res, n_slices, scheme, method, n_components).spectrum.eigenvalues
    return BootstrapResult(
        n_resamples=n_resamples,
        point=point,
        lower=np.minimum(stack.min(axis=0), point),
        upper=np.maximum(stack.max(axis=0), point),
    )


@dataclass(frozen=True)
class SummaryPlotData:
    """Recovered low-dimensional coordinates paired with the response."""

    projections: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        if self.projections.shape[0] != self.outputs.shape[0]:
            raise ValueError("projection rows must match output length")


def summary_plot_data(s: SampleSet, est: SdrEstimate, dims: int) -> SummaryPlotData:
    """Project the inputs onto the first one or two recovered directions."""
    if dims not in (1, 2):
        raise ValueError("dims must be 1 or 2")
    if dims > est.n_requested:
        raise ValueError("dims exceeds the estimate's requested dimension")
    W = est.spectrum.eigenvectors[:, :dims]
    return SummaryPlotData(projections=s.inputs @ W, outputs=np.asarray(s.outputs))


def quadratic_fit_r2(coords: np.ndarray, outputs: np.ndarray) -> float:
    """R-squared of a degree-2 polynomial fit of outputs against coords.

    Used to judge whether a one-dimensional summary plot reveals a clean
    quadratic relationship (values near 1) or no relationship at all
    (values near 0).
    """
    t = np.asarray(coords, dtype=np.float64).ravel()
    y = np.asarray(outputs, dtype=np.float64).ravel()
    coef = np.polyfit(t, y, 2)
    resid = y - np.polyval(coef, t)
    total = np.sum((y - y.mean()) ** 2)
    if total == 0.0:
        return 1.0
    return float(1.0 - np.sum(resid**2) / total)
