"""OpenBLAS held at one thread while a ridgerec call runs, and what that buys.

``core._one_blas_thread`` sets OpenBLAS to one thread for the first
holder and restores the saved count when the last one leaves.  The
estimators hold it, so their bytes do not depend on the CPU count or on
``OPENBLAS_NUM_THREADS`` at any width, which the subprocess test checks
end to end.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import ridgerec
from ridgerec import core, slicing
from ridgerec.cli import CSV_BLOCK_VALUES, write_samples_csv
from ridgerec.core import SampleSet, _one_blas_thread
from ridgerec.estimators import estimate
from ridgerec.measures import InputMeasure, fit_standardizer, standardize
from ridgerec.measures import CHUNK_ROWS

CALLS = core._openblas_calls()
needs_openblas = pytest.mark.skipif(CALLS is None, reason="no OpenBLAS thread call found")


@pytest.fixture
def two_threads():
    """OpenBLAS at two threads for the test, and at its own count again after it."""
    get, put = CALLS
    before = get()
    put(2)
    yield get
    put(before)


@needs_openblas
class TestPin:
    def test_one_thread_inside_and_the_count_back_after(self, two_threads):
        with _one_blas_thread as pinned:
            assert pinned
            assert two_threads() == 1
        assert two_threads() == 2

    def test_a_nested_hold_does_not_restore_early(self, two_threads):
        with _one_blas_thread:
            with _one_blas_thread:
                pass
            assert two_threads() == 1
        assert two_threads() == 2

    def test_threads_leaving_in_another_order_than_they_came(self, two_threads):
        """A enters, B enters, A leaves, B leaves: one thread until B has left."""
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        after = {}

        def first():
            with _one_blas_thread:
                a_in.set()
                b_in.wait(10)
            after["a"] = two_threads()
            a_out.set()

        def second():
            a_in.wait(10)
            with _one_blas_thread:
                b_in.set()
                a_out.wait(10)
            after["b"] = two_threads()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert after == {"a": 1, "b": 2}

    def test_many_threads_holding_at_once_never_see_the_count_restored_early(self, two_threads):
        inside, lock = [], threading.Lock()

        def hold():
            for _ in range(200):
                with _one_blas_thread:
                    with _one_blas_thread:
                        count = two_threads()
                    with lock:
                        inside.append(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hold) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert inside == [1] * 1600
        assert two_threads() == 2

    def test_an_error_inside_restores_the_count(self, two_threads):
        with pytest.raises(RuntimeError):
            with _one_blas_thread:
                raise RuntimeError("inside")
        assert two_threads() == 2

    def test_a_call_that_raises_restores_the_count(self, two_threads):
        s = standardize(SampleSet(np.zeros((60, 2)), np.arange(60.0)), fit_standardizer(
            InputMeasure.standard_gaussian(2)))
        with pytest.raises(ValueError, match="at least 2 samples per slice"):
            estimate(s, 40, "fixed", "save", 1)
        assert two_threads() == 2

    def test_an_estimate_runs_its_blas_at_one_thread(self, monkeypatch, two_threads):
        seen = []
        decompose = ridgerec.estimators.decompose

        def watched(matrix):
            seen.append(two_threads())
            return decompose(matrix)

        monkeypatch.setattr(ridgerec.estimators, "decompose", watched)
        x = np.random.default_rng(1).standard_normal((500, 3))
        estimate(standardize(SampleSet(x, x[:, 0] ** 2), fit_standardizer(
            InputMeasure.standard_gaussian(3))), 5, "equal-count", "save", 1)
        assert seen == [1]
        assert two_threads() == 2

    def test_whiten_runs_its_blas_at_one_thread(self, two_threads):
        seen = []

        class Watched(np.ndarray):
            def __sub__(self, other):
                seen.append(two_threads())
                return np.asarray(self) - other

        std = fit_standardizer(InputMeasure.gaussian([1.0, -2.0, 0.5], np.diag([1.0, 2.0, 3.0])))
        rows = np.random.default_rng(3).standard_normal((50, 3)).view(Watched)
        std.whiten(rows)
        assert seen == [1]
        assert two_threads() == 2


def test_without_a_thread_call_nothing_is_held_and_wide_rows_take_one_worker(monkeypatch, cpus):
    monkeypatch.setattr(core, "_openblas_calls", lambda: None)
    monkeypatch.setattr(slicing, "FAN_OUT_MIN_VALUES", 0)
    monkeypatch.setattr(slicing, "PRODUCT_FAN_OUT_MIN", 0)
    cpus(2)
    widths = []
    cpu_map = slicing._cpu_map

    def counted(fn, jobs, threads=0, scratch=None):
        widths.append(threads)
        return cpu_map(fn, jobs, threads, scratch)

    monkeypatch.setattr(slicing, "_cpu_map", counted)
    with _one_blas_thread as pinned:
        assert not pinned
    rows = np.random.default_rng(2).standard_normal((400, 80))
    labels = (np.arange(400) % 2 * 2).astype(np.uint8)  # slice 1 of 3 empty
    boundaries = np.arange(4) - 0.5
    counts = np.bincount(labels, minlength=3)
    slicing.slice_moments(rows, labels.astype(float), labels, boundaries, counts)
    slicing.map_slices(lambda a: a @ a, np.ones((2, 80, 80)))
    slicing.slice_moments(rows[:, :64].copy(), labels.astype(float), labels, boundaries, counts)
    assert widths == [1, 2]  # the wide moments on one worker, no pooled products


# Writes the artifacts of two library estimates, one raw sample and one ingest
# through the command line into the directory given as argv[2].
CHILD = r"""
import sys
from pathlib import Path

import numpy as np

from ridgerec.cli import main
from ridgerec.core import SampleSet
from ridgerec.estimators import estimate
from ridgerec.experiments import summary_plot_data
from ridgerec.measures import InputMeasure, fit_standardizer, standardize

here, out = Path(sys.argv[1]), Path(sys.argv[2])
for m in (100, 200):
    x, y = np.load(here / f"x{m}.npy"), np.load(here / f"y{m}.npy")
    measure = InputMeasure.gaussian(np.load(here / f"mean{m}.npy"), np.load(here / f"cov{m}.npy"))
    s = standardize(SampleSet(x, y), fit_standardizer(measure))
    for method, scheme in (("save", "equal-count"), ("sir", "fixed")):
        est = estimate(s, 10, scheme, method, 2)
        plot = summary_plot_data(s, est, 2)
        np.savez(out / f"{method}{m}.npz", matrix=est.spectrum.matrix,
                 eigenvalues=est.spectrum.eigenvalues, eigenvectors=est.spectrum.eigenvectors,
                 labels=est.partition.labels, projections=plot.projections)
if main(["sample", "--function", "hartmann", "--n", "40001", "--raw", "--seed", "5",
         "--out", str(out / "sample")]):
    sys.exit(1)
sys.exit(main(["save", "--input", str(here / "samples.csv"), "--config",
               str(here / "config.json"), "--slices", "10", "--dim", "2",
               "--out", str(out / "cli")]))
"""


def _gaussian(m: int) -> tuple:
    """A tridiagonal covariance, whose Cholesky factor and whitening map are dense enough."""
    cov = np.eye(m) * 2.0 + np.eye(m, k=1) * 0.6 + np.eye(m, k=-1) * 0.6
    return np.linspace(-1.0, 1.0, m), cov


def test_wide_artifacts_do_not_depend_on_the_blas_threads_or_the_cpus(tmp_path):
    """Inputs are built without BLAS, whose rounding in this process could vary too."""
    rng = np.random.default_rng(17)
    for m in (100, 200):
        mean, cov = _gaussian(m)
        x = mean + rng.standard_normal((20_000, m))
        np.save(tmp_path / f"x{m}.npy", x)
        np.save(tmp_path / f"y{m}.npy", x[:, 0] ** 2 + 0.5 * x[:, 1] ** 2 + x[:, 2])
        np.save(tmp_path / f"mean{m}.npy", mean)
        np.save(tmp_path / f"cov{m}.npy", cov)
    mean, cov = _gaussian(100)
    x = mean + rng.standard_normal((20_000, 100))
    write_samples_csv(tmp_path / "samples.csv", x, x[:, 1] ** 2 - x[:, 0])
    (tmp_path / "config.json").write_text(json.dumps(
        {"measure": {"kind": "gaussian", "mean": mean.tolist(), "cov": cov.tolist()}}))

    env = dict(os.environ, PYTHONPATH=str(Path(ridgerec.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    runs = {"1 BLAS thread": ([], {"OPENBLAS_NUM_THREADS": "1"}),
            "2 BLAS threads": ([], {"OPENBLAS_NUM_THREADS": "2"})}
    if shutil.which("taskset"):
        runs["one CPU"] = (["taskset", "-c", str(min(os.sched_getaffinity(0)))], {})
    digests = {}
    for name, (prefix, extra) in runs.items():
        out = tmp_path / name.replace(" ", "-")
        out.mkdir()
        proc = subprocess.run([*prefix, sys.executable, "-c", CHILD, str(tmp_path), str(out)],
                              env={**env, **extra}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests[name] = {p.relative_to(out).as_posix(): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()}
    first = digests["1 BLAS thread"]
    assert sorted(first) == ["cli/eigvecs.csv", "cli/estimate.json", "cli/summary_plot.csv",
                             "sample/samples.csv", "sample/samples.json",
                             "save100.npz", "save200.npz", "sir100.npz", "sir200.npz"]
    # The sample spans three draw chunks and many CSV blocks.
    assert first["sample/samples.csv"].count(b"\n") == 40_002
    assert 40_001 > max(2 * CHUNK_ROWS, 3 * (CSV_BLOCK_VALUES // 6))
    for name, files in digests.items():
        assert files == first, f"{name}: {[f for f in files if files[f] != first[f]]} differ"
