"""Monte Carlo studies of estimator convergence, bootstrap ranges, and plots.

The population estimator matrices are not available in closed form, so a
very-high-N run (the "truth surrogate") stands in for them.  It is built
in two streamed passes over the chunks in which ``generate_samples``
draws, the second rerunning the seed, so it never holds the N x m draw:
memory is O(N + R m^2) plus one chunk buffer per pool thread.
Surrogates are cached on disk under a key that is stored in the file and
checked on load, and the cache write is atomic so readers never observe
a partial file.

A convergence study runs T independent trials at each sample size with
seeds derived from a master seed, records the normalized eigenvalue error
and the subspace distance against the surrogate, and fits log-log slopes
over the per-size trial means.  Everything is a pure function of the
study configuration: rerunning a config reproduces results bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ridgerec import __version__, measures
from ridgerec.core import (
    SampleSet,
    SdrEstimate,
    Subspace,
    SymmetricSpectrum,
    _cpu_map,
    _freeze,
    _one_blas_thread,
    write_atomic,
)
from ridgerec.estimators import (
    check_estimate_rules,
    estimate,
    estimate_from_stats,
    method_partition,
)
from ridgerec.measures import derive_seed, fit_standardizer, generator
from ridgerec.slicing import slice_moments, whitened_slice_stats
from ridgerec.spectral import subspace_distance
from ridgerec.testfns import (
    TestFunction,
    _evaluate_into,
    generate_samples,
    get_test_function,
    stream_chunks,
)

#: Layout and summation order of a cached surrogate file, part of its key.
#: Format 2 took slice moments on raw rows and whitened them afterwards.
#: Format 3 streamed the rows in chunks of ``CHUNK_ROWS`` rows and
#: merged each chunk's slice moments in chunk order.  Format 4 cuts the
#: chunks as ``generate_samples`` does, the last one taking the remainder.
#: Format 5 draws each block of ``CHUNK_ROWS`` rows from a stream
#: of its own (:func:`~ridgerec.measures.draw`).  Format 6 draws each
#: block from an SFC64 stream seeded by ``SeedSequence`` instead of Philox.
SURROGATE_FORMAT = 6


@dataclass(frozen=True)
class StudyConfig:
    """Everything that determines a convergence study.

    No field has a default; the ``converge`` flags hold them.  Construction,
    before any surrogate is drawn, checks for ascending ``sizes``, at least
    one trial, a surrogate at least 10x the largest size so its own error
    is negligible on the study's scale, and the estimate rules
    (:func:`~ridgerec.estimators.check_estimate_rules`) at the smallest
    size and the input dimension of ``function``.
    """

    function: str
    method: str
    sizes: tuple
    trials: int
    seed: int
    n_components: int
    n_slices: int
    scheme: str
    truth_size: int
    truth_seed: int

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
        check_estimate_rules(self.method, self.n_components,
                             get_test_function(self.function).dimension, self.scheme,
                             self.n_slices, self.sizes[0], "the smallest size")


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
    """Trial records and the surrogate spectrum, with slopes derived from them.

    Slopes are ordinary least squares on log10 of the per-size trial
    means versus log10 of the size, and are only fitted when the study
    covers at least three sizes.
    """

    config: StudyConfig
    records: tuple
    truth: SymmetricSpectrum

    def mean_by_size(self, field: str) -> dict:
        """Per-size trial means of one record field."""
        return {n: float(np.mean([getattr(r, field) for r in self.records if r.size == n]))
                for n in self.config.sizes}

    def _slope(self, field: str) -> Optional[float]:
        means = list(self.mean_by_size(field).values())
        return loglog_slope(self.config.sizes, means) if len(means) >= 3 else None

    @property
    def subspace_slope(self) -> Optional[float]:
        return self._slope("subspace_dist")

    @property
    def eig_mse_slope(self) -> Optional[float]:
        return self._slope("eig_mse_norm")

    @property
    def distance_trend_inversions(self) -> int:
        """Adjacent size pairs where the mean distance rose; converging studies show <= 1."""
        return int(np.sum(np.diff(list(self.mean_by_size("subspace_dist").values())) > 0))


@_one_blas_thread
def truth_surrogate(cfg: StudyConfig, cache_dir: Path) -> SymmetricSpectrum:
    """High-N estimate standing in for the population matrix, cached in ``cache_dir``.

    The file is named by a key that it also stores: a digest of the file
    format, the chunk size, the package version, the study fields that
    shape the surrogate (not sizes, trials, seed or n_components, so such
    studies share one build) and the model's standardized inputs and
    responses at a fixed probe, which cover its coefficients, constants and
    measure.  A file that is unreadable, holds another key or fails the
    spectrum's checks is rebuilt by :func:`_stream_surrogate`; a hit
    reproduces the spectrum bit for bit.
    """
    fn = get_test_function(cfg.function)
    probe = generate_samples(fn, 64, 0)
    fields = (cfg.function, cfg.method, cfg.n_slices, cfg.scheme, cfg.truth_size, cfg.truth_seed)
    layout = (SURROGATE_FORMAT, measures.CHUNK_ROWS, __version__, fields)
    key = hashlib.sha256(repr(layout).encode()
                         + probe.standardizer.whiten(probe.inputs).tobytes()
                         + probe.outputs.tobytes()).hexdigest()
    path = Path(cache_dir) / f"truth-{key}.npz"
    try:
        with open(path, "rb") as f, np.load(f) as data:
            if str(data["key"]) == key:
                return SymmetricSpectrum(
                    matrix=data["matrix"],
                    eigenvalues=data["eigenvalues"],
                    eigenvectors=data["eigenvectors"],
                )
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
        pass  # missing or unreadable: rebuild
    spec = _stream_surrogate(fn, cfg)
    buf = io.BytesIO()
    np.savez(buf, key=key, matrix=spec.matrix, eigenvalues=spec.eigenvalues,
             eigenvectors=spec.eigenvectors)
    try:
        write_atomic(path, buf.getvalue())
    except OSError as exc:
        raise OSError(f"cannot write truth surrogate cache file {path}: {exc}") from exc
    return spec


def _stream_surrogate(fn: TestFunction, cfg: StudyConfig) -> SymmetricSpectrum:
    """The spectrum of ``cfg``'s estimate on ``cfg.truth_size`` draws of ``fn``, streamed.

    The draw is the one :func:`~ridgerec.testfns.generate_samples` makes
    with ``cfg.truth_seed``, in the same chunks, each drawn and evaluated
    on the CPU pool (:func:`~ridgerec.testfns.stream_chunks`) into a
    buffer of its own.  Pass 1 keeps only the responses, which its chunks
    write to disjoint slices of one array in any order, and partitions
    them as :func:`~ridgerec.estimators.estimate` does.  Pass 2 reruns
    the seed; on the pool, each chunk is evaluated again and each slice's
    count, mean and centered sum of outer products of the raw rows taken
    with :func:`~ridgerec.slicing.slice_moments`, as ``estimate`` does
    (which checks that the responses lie in their slices).  The calling
    thread merges them into the running moments in row order with the
    pairwise update of Chan, Golub & LeVeque (1979), so the result does
    not depend on the CPU count, and a one-chunk build equals
    ``estimate`` of the whole draw bit for bit.  Each pass evaluates
    through the helper that refuses an output that is not one value per
    row.  The R merged moments are whitened at the end.
    """
    n, m = cfg.truth_size, fn.dimension
    y = np.empty(n)
    list(stream_chunks(fn.measure, n, cfg.truth_seed,
                       lambda a, x: _evaluate_into(fn.evaluator, x, y[a:a + len(x)])))
    partition = method_partition(y, cfg.n_slices, cfg.scheme, cfg.method, cfg.n_components)
    del y  # pass 2 evaluates each chunk again
    r = partition.n_slices
    counts, means, scatter = np.zeros(r, dtype=np.intp), np.zeros((r, m)), np.zeros((r, m, m))

    def moments(a: int, x: np.ndarray) -> tuple:
        out = np.empty(len(x))
        _evaluate_into(fn.evaluator, x, out)
        labels = partition.labels[a:a + len(x)]
        return slice_moments(x, out, labels, partition.boundaries,
                             np.bincount(labels, minlength=r))

    # Closed on leaving, so no pool thread outlives an interrupt of the merge.
    with contextlib.closing(stream_chunks(fn.measure, n, cfg.truth_seed, moments)) as chunks:
        for c, mu, sc in chunks:
            total = counts + c
            share = np.divide(c, total, out=np.zeros(r), where=c > 0)
            delta = mu - means
            means += delta * share[:, None]
            # n_a n_b / n (d d'), formed so that it stays exactly symmetric
            scatter += sc + delta[:, :, None] * delta[:, None, :] * (counts * share)[:, None, None]
            counts = total
    stats = whitened_slice_stats(counts, means, scatter, fit_standardizer(fn.measure))
    return estimate_from_stats(stats, partition, cfg.method, cfg.n_components).spectrum


def eigenvalue_error(estimated: np.ndarray, truth: np.ndarray) -> float:
    """Max squared eigenvalue error normalized by the squared leading truth value."""
    return float(np.max((estimated - truth) ** 2) / truth[0] ** 2)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log10(y) against log10(x)."""
    return float(np.polyfit(np.log10(xs), np.log10(ys), 1)[0])


@_one_blas_thread
def run_convergence(cfg: StudyConfig, cache_dir: Path) -> ConvergenceStudy:
    """Run the full study: per-size trials against the truth surrogate.

    The surrogate is loaded or built first.  The (size, trial) jobs then
    run on the CPU pool (:func:`~ridgerec.core._cpu_map`); numpy releases
    the GIL in the draw and the linear algebra.  A trial's own draw and
    estimate run on its pool thread, which opens no pool of its own, so
    no more threads than CPUs work at once.  Trial seeds derive from
    (master seed, size index, trial index), so trials are independent,
    and records come back in (size, trial) order, so the study is
    byte-identical at any CPU count.  Any trial failure, or an interrupt,
    stops the trials not yet started and propagates once the running
    ones end; no record is silently skipped and no thread outlives the
    call.
    """
    truth = truth_surrogate(cfg, cache_dir)
    truth_sub = Subspace(truth.eigenvectors[:, : cfg.n_components])
    fn = get_test_function(cfg.function)

    def run_trial(job: tuple, _) -> TrialRecord:
        size_index, trial = job
        n = cfg.sizes[size_index]
        s = generate_samples(fn, n, derive_seed(cfg.seed, size_index, trial))
        est = estimate(s, cfg.n_slices, cfg.scheme, cfg.method, cfg.n_components)
        return TrialRecord(
            size=n,
            trial=trial,
            n_r_min=est.partition.min_count,
            eig_mse_norm=eigenvalue_error(est.spectrum.eigenvalues, truth.eigenvalues),
            subspace_dist=subspace_distance(truth_sub, est.subspace),
        )

    jobs = list(itertools.product(range(len(cfg.sizes)), range(cfg.trials)))
    records = tuple(_cpu_map(run_trial, jobs))
    return ConvergenceStudy(config=cfg, records=records, truth=truth)


# ---------------------------------------------------------------------------
# Spectral-gap dependence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapDependenceReport:
    """Comparison of mean subspace errors at two truncation dimensions."""

    mean_dist_large_gap: float
    mean_dist_small_gap: float

    @property
    def passed(self) -> bool:
        """The dimension at the larger spectral gap has the smaller mean distance, or a tie."""
        return self.mean_dist_large_gap <= self.mean_dist_small_gap

    @property
    def tied(self) -> bool:
        """The means coincide, as they do when a study is compared with itself."""
        return self.mean_dist_large_gap == self.mean_dist_small_gap


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
    return GapDependenceReport(mean_dist_large_gap=da, mean_dist_small_gap=db)


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
        for name in ("point", "lower", "upper"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        if np.any(self.lower > self.point) or np.any(self.point > self.upper):
            raise ValueError("bootstrap envelope must bracket the point estimate")


def bootstrap_eigenvalues(
    s: SampleSet,
    n_slices: int,
    scheme: str,
    method: str,
    n_resamples: int,
    seed: int,
) -> BootstrapResult:
    """Paired-resample eigenvalue ranges for one estimator run.

    Each resample draws N index pairs with replacement and reruns the
    whole pipeline, including re-slicing, so the ranges reflect slicing
    variability as well as moment noise.  A resample takes the stored rows
    and outputs at those indices with ``s``'s standardizer, so it is
    whitened through its slice moments like the point estimate, and the
    whitened rows are never formed.  The full spectrum is returned, so no
    subspace dimension is asked for.
    """
    if n_resamples < 2:
        raise ValueError("need at least 2 resamples")
    point = estimate(s, n_slices, scheme, method, 1).spectrum.eigenvalues
    rng = generator(seed)
    stack = np.empty((n_resamples, point.size))
    for b in range(n_resamples):
        idx = rng.integers(0, s.n_samples, size=s.n_samples)
        res = SampleSet._shared(s.inputs[idx], s.outputs[idx], s.standardizer)
        stack[b] = estimate(res, n_slices, scheme, method, 1).spectrum.eigenvalues
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
        object.__setattr__(self, "projections", _freeze(self.projections))
        object.__setattr__(self, "outputs", _freeze(self.outputs))
        if self.projections.shape[0] != self.outputs.shape[0]:
            raise ValueError("projection rows must match output length")


@_one_blas_thread
def summary_plot_data(s: SampleSet, est: SdrEstimate, dims: int) -> SummaryPlotData:
    """Project the whitened inputs, or a raw set's inputs as they are, onto the first
    one or two recovered directions V.

    Under a map z = W (x - mean) other than the identity, the projections are
    ``(inputs - mean) @ (W' V)``, so the whitened N x m rows are never formed.
    """
    if dims not in (1, 2):
        raise ValueError("dims must be 1 or 2")
    if dims > est.n_requested:
        raise ValueError("dims exceeds the estimate's requested dimension")
    V = est.spectrum.eigenvectors[:, :dims]
    std = s.standardizer
    if std is None or std.is_identity:
        return SummaryPlotData(projections=s.inputs @ V, outputs=s.outputs)
    return SummaryPlotData(projections=(s.inputs - std.mean) @ (std.whitening.T @ V),
                           outputs=s.outputs)


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
