"""Convergence studies, truth surrogates, bootstrap, summary plots."""

import gc
import re
import shutil
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ridgerec import experiments, measures, testfns
from ridgerec.core import SampleSet, Standardizer, Subspace
from ridgerec.estimators import estimate
from ridgerec.experiments import (
    StudyConfig,
    TrialRecord,
    bootstrap_eigenvalues,
    eigenvalue_error,
    gap_dependence_check,
    loglog_slope,
    quadratic_fit_r2,
    run_convergence,
    summary_plot_data,
    truth_surrogate,
)
from ridgerec.measures import InputMeasure, derive_seed, draw, fit_standardizer, standardize
from ridgerec.spectral import decompose, subspace_distance
from ridgerec.testfns import generate_samples, get_test_function

from oracles import standardized_set


def small_config(**overrides):
    base = dict(
        function="quad1",
        method="save",
        sizes=(200, 400),
        trials=2,
        seed=5,
        n_components=1,
        n_slices=5,
        scheme="equal-count",
        truth_size=4_000,
        truth_seed=777,
    )
    base.update(overrides)
    return StudyConfig(**base)


def only_surrogate(cache_dir):
    (path,) = cache_dir.glob("truth-*.npz")
    return path


@pytest.fixture
def surrogate_builds(monkeypatch):
    """Count the truth surrogates the experiments module builds from here on."""
    calls = []
    build = experiments._stream_surrogate

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(experiments, "_stream_surrogate", counted)
    return calls


class TestStudyConfig:
    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError, match="ascending"):
            small_config(sizes=(400, 200))

    def test_rejects_small_truth(self):
        with pytest.raises(ValueError, match="10x"):
            small_config(truth_size=1_000)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            small_config(trials=0)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            small_config(scheme="quantile")

    @pytest.mark.parametrize("overrides, match", [
        (dict(method="pca"), "unknown method"),
        (dict(n_components=0), "at least 1"),
        (dict(n_components=11), "exceeds input dimension 10"),
        (dict(n_slices=201), "smallest size is 200"),
        (dict(method="save", n_slices=101), "SAVE needs at least 2 samples per slice"),
        (dict(n_slices=0), "n_slices must be at least 1"),
        (dict(method="sir", n_slices=0), "n_slices must be at least 1"),
        (dict(scheme="fixed", n_slices=0), "n_slices must be at least 1"),
    ])
    def test_bad_study_fails_before_any_work(self, tmp_path, surrogate_builds, overrides, match):
        with pytest.raises(ValueError, match=match):
            run_convergence(small_config(**overrides), tmp_path)
        assert surrogate_builds == []
        assert list(tmp_path.iterdir()) == []

    def test_fixed_slices_may_outnumber_the_smallest_size(self):
        """Fixed-width slicing merges empty slices, so any count is accepted."""
        assert small_config(scheme="fixed", n_slices=201).n_slices == 201

    def test_save_takes_two_samples_in_every_slice_of_the_smallest_size(self):
        assert small_config(method="save", n_slices=100).n_slices == 100
        assert small_config(method="save", scheme="fixed", n_slices=101).n_slices == 101


class TestErrorMetrics:
    def test_eigenvalue_error_hand_case(self):
        est = np.array([2.2, 1.0, 0.4])
        truth = np.array([2.0, 1.0, 0.5])
        # worst deviation is 0.2, leading truth eigenvalue 2
        assert eigenvalue_error(est, truth) == pytest.approx(0.04 / 4.0)

    def test_exact_match_is_zero(self):
        v = np.array([3.0, 1.0])
        assert eigenvalue_error(v, v) == 0.0

    def test_loglog_slope_recovers_power_law(self):
        xs = np.array([1e3, 1e4, 1e5])
        ys = 7.0 * xs**-0.5
        assert loglog_slope(xs, ys) == pytest.approx(-0.5, abs=1e-12)


class TestTruthSurrogate:
    def test_cache_round_trip_bit_identical(self, tmp_path):
        cfg = small_config()
        first = truth_surrogate(cfg, tmp_path)
        assert re.fullmatch(r"truth-[0-9a-f]{64}\.npz", only_surrogate(tmp_path).name)
        second = truth_surrogate(cfg, tmp_path)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()

    def test_hit_does_not_estimate(self, tmp_path, surrogate_builds):
        """Studies that differ only in sizes, trials, seed and n share one build."""
        first = truth_surrogate(small_config(), tmp_path)
        assert len(surrogate_builds) == 1
        other = small_config(sizes=(300,), trials=1, seed=6, n_components=2)
        second = truth_surrogate(other, tmp_path)
        assert len(surrogate_builds) == 1
        assert second.eigenvectors.tobytes() == first.eigenvectors.tobytes()

    def test_format_3_file_is_rebuilt(self, tmp_path, monkeypatch, surrogate_builds):
        """Format 6 draws and merges the chunks otherwise, so a format-3 file is rebuilt,
        not read."""
        assert experiments.SURROGATE_FORMAT == 6
        cfg = small_config(function="hartmann", n_components=2)
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "SURROGATE_FORMAT", 3)
            truth_surrogate(cfg, tmp_path)
        assert len(list(tmp_path.glob("truth-*.npz"))) == 1
        truth_surrogate(cfg, tmp_path)
        assert len(surrogate_builds) == 2
        assert len(list(tmp_path.glob("truth-*.npz"))) == 2
        truth_surrogate(cfg, tmp_path)
        assert len(surrogate_builds) == 2

    def test_format_5_file_is_a_miss_and_never_opened(self, tmp_path, monkeypatch,
                                                      surrogate_builds):
        """Format 5 drew each block from a Philox stream, so its file for the same study
        holds other samples' spectrum: a new file is written beside it, unread."""
        cfg = small_config(function="hartmann", n_components=2)
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "SURROGATE_FORMAT", 5)
            truth_surrogate(cfg, tmp_path)
        old = only_surrogate(tmp_path)
        old_bytes = old.read_bytes()
        opened = []

        def recording_open(path, *args, **kwargs):
            opened.append(Path(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(experiments, "open", recording_open, raising=False)
        truth_surrogate(cfg, tmp_path)
        assert len(surrogate_builds) == 2
        (new,) = set(tmp_path.glob("truth-*.npz")) - {old}
        assert opened == [new]  # looked up once, as a miss, before the build wrote it
        assert old.read_bytes() == old_bytes
        assert new.read_bytes() != old_bytes

    def test_chunk_size_is_part_of_the_key(self, tmp_path, monkeypatch, surrogate_builds):
        cfg = small_config()
        truth_surrogate(cfg, tmp_path)
        monkeypatch.setattr(measures, "CHUNK_ROWS", 1000)
        truth_surrogate(cfg, tmp_path)
        assert len(surrogate_builds) == 2
        assert len(list(tmp_path.glob("truth-*.npz"))) == 2

    def test_truncated_file_is_rebuilt(self, tmp_path, surrogate_builds):
        clean = run_convergence(small_config(), tmp_path / "clean")
        path = only_surrogate(tmp_path / "clean")
        path.write_bytes(path.read_bytes()[:100])
        rebuilt = run_convergence(small_config(), tmp_path / "clean")
        assert rebuilt.records == clean.records
        assert rebuilt.truth.eigenvalues.tobytes() == clean.truth.eigenvalues.tobytes()
        calls = len(surrogate_builds)
        truth_surrogate(small_config(), tmp_path / "clean")
        assert len(surrogate_builds) == calls  # the rebuilt file is a hit

    def test_truncated_file_leaves_no_handle_open(self, tmp_path):
        truth_surrogate(small_config(), tmp_path)
        path = only_surrogate(tmp_path)
        path.write_bytes(path.read_bytes()[:100])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            truth_surrogate(small_config(), tmp_path)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_file_holding_another_key_is_rebuilt(self, tmp_path, surrogate_builds):
        """Another model's surrogate under this model's file name is not trusted."""
        cfg = small_config(function="quad3")
        clean = truth_surrogate(cfg, tmp_path / "quad3")
        truth_surrogate(small_config(), tmp_path / "quad1")
        shutil.copy(only_surrogate(tmp_path / "quad1"), only_surrogate(tmp_path / "quad3"))
        calls = len(surrogate_builds)
        spec = truth_surrogate(cfg, tmp_path / "quad3")
        assert len(surrogate_builds) == calls + 1
        assert spec.eigenvalues.tobytes() == clean.eigenvalues.tobytes()
        assert spec.eigenvectors.tobytes() == clean.eigenvectors.tobytes()

    def test_quad1_save_gap_structure(self, tmp_path):
        """At surrogate scale the SAVE spectrum is rank-one dominated."""
        cfg = small_config(
            sizes=(1_000,), truth_size=1_000_000, n_slices=20
        )
        spec = truth_surrogate(cfg, tmp_path)
        assert spec.eigenvalues[1] / spec.eigenvalues[0] < 0.05

    def test_quad3_sir_third_gap(self, tmp_path):
        cfg = small_config(
            function="quad3",
            method="sir",
            sizes=(1_000,),
            truth_size=1_000_000,
            n_slices=20,
            n_components=3,
        )
        spec = truth_surrogate(cfg, tmp_path)
        w = spec.eigenvalues
        assert (w[2] - w[3]) / w[0] > 0.05


class TestStreamedSurrogate:
    """The surrogate is streamed in chunks and never holds the whole draw."""

    @pytest.mark.parametrize("chunk_rows", [1_000, 6_000])  # does not divide N; above N
    @pytest.mark.parametrize("scheme", ["equal-count", "fixed"])
    @pytest.mark.parametrize("method", ["sir", "save"])
    @pytest.mark.parametrize("function, n_components", [("quad1", 1), ("quad3", 3),
                                                         ("hartmann", 2)])
    def test_agrees_with_one_estimate_of_the_whole_draw(self, tmp_path, monkeypatch, function,
                                                        n_components, method, scheme,
                                                        chunk_rows):
        monkeypatch.setattr(measures, "CHUNK_ROWS", chunk_rows)
        cfg = small_config(function=function, method=method, scheme=scheme,
                           n_components=n_components, n_slices=3, truth_size=5_003)
        spec = truth_surrogate(cfg, tmp_path)
        whole = generate_samples(get_test_function(function), cfg.truth_size, cfg.truth_seed)
        ref = estimate(whole, cfg.n_slices, scheme, method, n_components).spectrum
        if chunk_rows > cfg.truth_size:  # one chunk: the same sums in the same order
            for name in ("matrix", "eigenvalues", "eigenvectors"):
                assert np.array_equal(getattr(spec, name), getattr(ref, name)), name
        else:
            for name in ("matrix", "eigenvalues"):
                np.testing.assert_allclose(getattr(spec, name), getattr(ref, name), rtol=0,
                                           atol=1e-12 * np.max(np.abs(ref.matrix)))

    @pytest.mark.parametrize("function, n_components", [("quad3", 3), ("hartmann", 2)])
    def test_file_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch, cpus,
                                                       function, n_components):
        monkeypatch.setattr(measures, "CHUNK_ROWS", 500)
        cfg = small_config(function=function, n_components=n_components, truth_size=4_321)
        files = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-chunk
        try:
            for count in (1, 2, 3, 8):
                cpus(count)
                truth_surrogate(cfg, tmp_path / str(count))
                files.append(only_surrogate(tmp_path / str(count)).read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert files == files[:1] * 4

    def test_non_finite_response_refused(self, tmp_path, monkeypatch):
        quad1 = get_test_function("quad1")

        def with_nan(x):
            y = quad1.evaluator(x)
            y[-1] = np.nan
            return y

        monkeypatch.setattr(measures, "CHUNK_ROWS", 1_000)
        monkeypatch.setattr(experiments, "get_test_function", lambda name: testfns.TestFunction(
            name, with_nan, quad1.measure, quad1.true_subspace))
        with pytest.raises(ValueError, match="responses must be finite"):
            truth_surrogate(small_config(), tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("size", [1, 1_001])
    def test_evaluator_output_of_the_wrong_size_refused(self, tmp_path, monkeypatch, size):
        """One value would otherwise broadcast over its chunk in pass 1."""
        quad1 = get_test_function("quad1")

        def wrong_on_chunks(x):
            y = quad1.evaluator(x)  # right on the key's 64-row probe
            return np.resize(y, size) if len(x) == 1_000 else y

        monkeypatch.setattr(measures, "CHUNK_ROWS", 1_000)
        monkeypatch.setattr(experiments, "get_test_function", lambda name: testfns.TestFunction(
            name, wrong_on_chunks, quad1.measure, quad1.true_subspace))
        with pytest.raises(ValueError, match=f"returned {size} values for 1000 input rows"):
            truth_surrogate(small_config(), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_single_sample_save_slice_refused(self, tmp_path):
        cfg = small_config(scheme="fixed", n_slices=50)
        with pytest.raises(ValueError, match="SAVE needs at least 2 samples per slice, but "
                                             "the smallest slice has 1; use fewer slices"):
            truth_surrogate(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("second_pass, match", [
        (lambda y: y + 1.0, "responses out of slice"),
        (lambda y: y[:1], "returned 1 values for 1000 input rows"),
        (lambda y: np.resize(y, 1_001), "returned 1001 values for 1000 input rows"),
    ], ids=["shifted", "one value", "one too many"])
    @pytest.mark.parametrize("count", [1, 2])
    def test_second_pass_that_disagrees_with_the_first_refused(self, tmp_path, monkeypatch, cpus,
                                                               count, second_pass, match):
        """Pass 2 evaluates each chunk again and checks the responses against their slices.

        On one CPU the chunks run in row order, so none runs past the first refused; on
        two, a chunk that a pool thread started before the refusal reached the calling
        thread may still run.
        """
        cpus(count)
        threads = threading.active_count()
        quad1 = get_test_function("quad1")
        chunks = []

        def shifting(x):
            y = quad1.evaluator(x)
            if len(x) == 1_000:  # not the key's 64-row probe
                chunks.append(len(x))
                if len(chunks) > 4:  # past the 4 000 rows of pass 1
                    return second_pass(y)
            return y

        monkeypatch.setattr(measures, "CHUNK_ROWS", 1_000)
        monkeypatch.setattr(experiments, "get_test_function", lambda name: testfns.TestFunction(
            name, shifting, quad1.measure, quad1.true_subspace))
        with pytest.raises(ValueError, match=match):
            truth_surrogate(small_config(), tmp_path)
        assert len(chunks) == 5 if count == 1 else len(chunks) >= 5
        assert list(tmp_path.iterdir()) == []
        assert threading.active_count() == threads

    def test_memory_stays_below_half_the_draw(self, tmp_path, cpus):
        """numpy reports its buffers to tracemalloc; the draw fills one chunk buffer per
        pool thread."""
        cpus(2)
        cfg = small_config(function="quad3", n_components=3, sizes=(1_000,),
                           n_slices=16, truth_size=200_000)
        tracemalloc.start()
        try:
            truth_surrogate(cfg, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cfg.truth_size * 10 * 8 / 2


class TestRunConvergence:
    def test_records_round_out(self, tmp_path):
        study = run_convergence(small_config(), tmp_path)
        assert len(study.records) == 4
        for r in study.records:
            assert r.eig_mse_norm >= 0.0
            assert 0.0 <= r.subspace_dist <= 1.0
            assert r.n_r_min >= 1

    def test_two_sizes_give_no_slopes(self, tmp_path):
        study = run_convergence(small_config(), tmp_path)
        assert study.subspace_slope is None
        assert study.eig_mse_slope is None

    def test_single_size_single_trial(self, tmp_path):
        study = run_convergence(
            small_config(sizes=(300,), trials=1, truth_size=3_000), tmp_path
        )
        assert len(study.records) == 1
        assert study.subspace_slope is None

    def test_three_sizes_fit_slopes(self, tmp_path):
        study = run_convergence(
            small_config(sizes=(200, 400, 800), trials=3, truth_size=8_000),
            tmp_path,
        )
        assert study.subspace_slope is not None
        assert study.eig_mse_slope is not None
        assert study.subspace_slope < 0.0

    def test_reproducible(self, tmp_path):
        a = run_convergence(small_config(), tmp_path)
        b = run_convergence(small_config(), tmp_path)
        assert a.records == b.records

    def test_mean_by_size(self, tmp_path):
        study = run_convergence(small_config(), tmp_path)
        means = study.mean_by_size("subspace_dist")
        assert set(means) == {200, 400}
        manual = np.mean(
            [r.subspace_dist for r in study.records if r.size == 200]
        )
        assert means[200] == pytest.approx(manual)


def serial_records(cfg, truth):
    """The study's trials one after another, in (size, trial) order: the loop oracle."""
    fn = get_test_function(cfg.function)
    truth_sub = Subspace(truth.eigenvectors[:, : cfg.n_components])
    records = []
    for size_index, n in enumerate(cfg.sizes):
        for trial in range(cfg.trials):
            s = generate_samples(fn, n, derive_seed(cfg.seed, size_index, trial))
            est = estimate(s, cfg.n_slices, cfg.scheme, cfg.method, cfg.n_components)
            records.append(TrialRecord(
                size=n, trial=trial, n_r_min=est.partition.min_count,
                eig_mse_norm=eigenvalue_error(est.spectrum.eigenvalues, truth.eigenvalues),
                subspace_dist=subspace_distance(truth_sub, est.subspace)))
    return tuple(records)


class TestParallelTrials:
    @pytest.mark.parametrize("function, method, scheme, n_components", [
        ("quad1", "save", "equal-count", 1),
        ("quad1", "sir", "fixed", 1),
        ("quad3", "sir", "equal-count", 3),
        ("quad3", "save", "equal-count", 3),
        ("quad3", "sir", "fixed", 3),
        ("hartmann", "sir", "equal-count", 2),
        ("hartmann", "save", "equal-count", 2),
        ("hartmann", "sir", "fixed", 2),
    ])
    def test_records_equal_the_serial_loop_bit_for_bit(self, tmp_path, function, method,
                                                       scheme, n_components):
        cfg = small_config(function=function, method=method, scheme=scheme,
                           n_components=n_components, sizes=(200, 300, 400), trials=3)
        threads = threading.active_count()
        study = run_convergence(cfg, tmp_path)
        assert threading.active_count() == threads
        assert study.records == serial_records(cfg, study.truth)
        assert [(r.size, r.trial) for r in study.records] == [
            (n, t) for n in cfg.sizes for t in range(cfg.trials)]

    @pytest.mark.parametrize("threads", [1, 8])
    def test_records_do_not_depend_on_the_thread_count(self, tmp_path, cpus, threads):
        cfg = small_config(function="quad3", n_components=3, sizes=(200, 300), trials=8)
        default = run_convergence(cfg, tmp_path).records
        cpus(threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-trial
        try:
            assert run_convergence(cfg, tmp_path).records == default
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failed_trial_cancels_the_rest(self, tmp_path, monkeypatch, error):
        cfg = small_config(sizes=(200, 300, 400), trials=10)
        truth_surrogate(cfg, tmp_path)  # a cache hit below: every estimate is a trial
        calls, lock = [], threading.Lock()

        def failing(*args):
            with lock:
                calls.append(args)
                first = len(calls) == 1
            if first:
                raise error("trial failed")
            time.sleep(0.02)  # the other trials take long enough to be cancelled
            return estimate(*args)

        monkeypatch.setattr(experiments, "estimate", failing)
        threads = threading.active_count()
        with pytest.raises(error, match="trial failed"):
            run_convergence(cfg, tmp_path)
        assert threading.active_count() == threads
        assert 1 <= len(calls) < len(cfg.sizes) * cfg.trials


class TestGapDependence:
    def test_identical_studies_tie(self, tmp_path):
        study = run_convergence(small_config(), tmp_path)
        report = gap_dependence_check(study, study)
        assert report.passed
        assert report.tied

    def test_mismatched_setup_rejected(self, tmp_path):
        a = run_convergence(small_config(), tmp_path)
        b = run_convergence(small_config(n_slices=4), tmp_path)
        with pytest.raises(ValueError, match="shared setup"):
            gap_dependence_check(a, b)

    def test_synthetic_gap_sensitivity(self):
        """Same-size perturbations disturb a small-gap eigenspace more.

        Two diagonal matrices share a leading eigenvalue but differ in
        the gap below it by a factor of 10; across random symmetric
        perturbations, the mean leading-subspace error ratio follows the
        inverse gaps.
        """
        rng = np.random.default_rng(55)
        big_gap = np.diag([2.0, 1.0, 0.5])
        small_gap = np.diag([2.0, 1.9, 0.5])
        e1 = np.array([[1.0], [0.0], [0.0]])
        dists = {"big": [], "small": []}
        for _ in range(50):
            E = rng.standard_normal((3, 3)) * 0.02
            E = (E + E.T) / 2.0
            for key, M in (("big", big_gap), ("small", small_gap)):
                spec = decompose(M + E)
                dists[key].append(
                    subspace_distance(spec.eigenvectors[:, :1], e1)
                )
        assert np.mean(dists["small"]) / np.mean(dists["big"]) > 1.0


class TestBootstrap:
    def test_single_sample_collapses(self):
        """With one sample every resample repeats it, so the envelope
        pinches onto the point estimate."""
        s = standardized_set([[3.0, 1.0]], [2.0])
        result = bootstrap_eigenvalues(
            s, n_slices=1, scheme="equal-count", method="sir",
            n_resamples=2, seed=1,
        )
        np.testing.assert_array_equal(result.lower, result.point)
        np.testing.assert_array_equal(result.upper, result.point)

    def test_envelope_brackets_point(self):
        fn = get_test_function("quad1")
        s = generate_samples(fn, 500, seed=3)
        result = bootstrap_eigenvalues(
            s, n_slices=5, scheme="equal-count", method="save",
            n_resamples=20, seed=9,
        )
        assert np.all(result.lower <= result.point)
        assert np.all(result.point <= result.upper)
        assert result.n_resamples == 20

    def test_resamples_never_whiten_the_rows(self, monkeypatch):
        """Resamples keep the stored rows and the set's standardizer; the
        envelope matches resampling rows that were whitened first."""
        s = generate_samples(get_test_function("hartmann"), 500, seed=3)
        assert not s.standardizer.is_identity
        args = dict(n_slices=5, scheme="equal-count", method="save", n_resamples=10, seed=9)
        eager = bootstrap_eigenvalues(
            standardized_set(s.standardizer.whiten(s.inputs), s.outputs), **args)

        def refuse(self, rows):
            raise AssertionError("the bootstrap whitened the rows")

        monkeypatch.setattr(Standardizer, "whiten", refuse)
        result = bootstrap_eigenvalues(s, **args)
        assert np.all(result.lower <= result.point)
        assert np.all(result.point <= result.upper)
        for name in ("point", "lower", "upper"):
            np.testing.assert_allclose(getattr(result, name), getattr(eager, name),
                                       rtol=0, atol=1e-12 * eager.upper[0])

    def test_rejects_tiny_resample_count(self):
        fn = get_test_function("quad1")
        s = generate_samples(fn, 50, seed=3)
        with pytest.raises(ValueError):
            bootstrap_eigenvalues(
                s, n_slices=2, scheme="equal-count", method="sir",
                n_resamples=1, seed=0,
            )


class TestSummaryPlot:
    def test_shapes(self):
        fn = get_test_function("quad1")
        s = generate_samples(fn, 120, seed=2)
        est = estimate(s, 6, "equal-count", "save", 2)
        one = summary_plot_data(s, est, 1)
        two = summary_plot_data(s, est, 2)
        assert one.projections.shape == (120, 1)
        assert two.projections.shape == (120, 2)
        assert one.outputs.shape == (120,)

    @pytest.mark.parametrize("m", [5, 200])
    def test_projects_through_the_whitening_map(self, m):
        """Under a dense map the projections agree with whitening the rows and then
        projecting them, to 1e-12 relative; under the identity map and on a raw set
        they are the rows' own projections, bit for bit."""
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, m))
        measure = InputMeasure.gaussian(rng.standard_normal(m), a @ a.T / m + np.eye(m))
        std = fit_standardizer(measure)
        x = draw(measure, 4_000, 9)
        z = std.whiten(x)
        y = z[:, 0] ** 2 + z[:, 1]
        s = standardize(SampleSet(x, y), std)
        est = estimate(s, 8, "equal-count", "sir", 2)
        V = est.spectrum.eigenvectors[:, :2]
        plot = summary_plot_data(s, est, 2).projections
        slow = z @ V
        assert np.max(np.abs(plot - slow)) <= 1e-12 * np.max(np.abs(slow))
        for rows in (SampleSet(z, y), standardize(SampleSet(z, y), Standardizer.identity(m))):
            assert summary_plot_data(rows, est, 2).projections.tobytes() == (z @ V).tobytes()

    def test_dims_capped_by_request(self):
        fn = get_test_function("quad1")
        s = generate_samples(fn, 60, seed=2)
        est = estimate(s, 4, "equal-count", "save", 1)
        with pytest.raises(ValueError, match="dims"):
            summary_plot_data(s, est, 2)

    def test_save_projection_reveals_quadratic(self):
        fn = get_test_function("quad1")
        s = generate_samples(fn, 5_000, seed=13)
        save_est = estimate(s, 10, "equal-count", "save", 1)
        sir_est = estimate(s, 10, "equal-count", "sir", 1)
        r2_save = quadratic_fit_r2(
            summary_plot_data(s, save_est, 1).projections, s.outputs
        )
        r2_sir = quadratic_fit_r2(
            summary_plot_data(s, sir_est, 1).projections, s.outputs
        )
        assert r2_save > 0.95
        assert r2_sir < 0.3

    def test_r2_of_exact_quadratic_is_one(self):
        t = np.linspace(-2.0, 2.0, 50)
        assert quadratic_fit_r2(t, 3.0 * t**2 - t + 0.5) == pytest.approx(1.0)

    def test_r2_of_constant_defined(self):
        t = np.linspace(-1.0, 1.0, 20)
        assert quadratic_fit_r2(t, np.full(20, 2.0)) == 1.0
