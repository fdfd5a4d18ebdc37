"""The CPU pool and the work inside one estimate that runs on it.

``_cpu_map`` runs all pool work.  ``stream_chunks`` draws and runs a job
on each chunk on a pool thread, for ``generate_samples`` and both passes
of a truth surrogate, and ``slice_moments`` takes each slice on the
first free pool thread.  Neither may change a bit of the result at any
CPU count, leave a thread behind, or open a pool inside a pool thread.
"""

import functools
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ridgerec import core, experiments, measures, slicing, testfns
from ridgerec.core import Subspace, _cpu_map
from ridgerec.estimators import estimate
from ridgerec.experiments import StudyConfig, run_convergence, truth_surrogate
from ridgerec.measures import InputMeasure, draw
from ridgerec.testfns import generate_samples, get_test_function, quad1

CPU_COUNTS = (1, 2, 3, 8)


@contextmanager
def frequent_switches():
    """Switch threads often, so a data race would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def small_work_on_the_pool(monkeypatch):
    """Send even small samples through the pool: short chunks, fan-out at any size."""
    monkeypatch.setattr(measures, "CHUNK_ROWS", 100)
    monkeypatch.setattr(slicing, "FAN_OUT_MIN_VALUES", 0)
    monkeypatch.setattr(slicing, "PRODUCT_FAN_OUT_MIN", 0)


def ridge(dimension: int) -> testfns.TestFunction:
    """quad1 along a fixed direction in ``dimension`` standard Gaussian inputs."""
    b = np.random.default_rng(dimension).standard_normal(dimension)
    b /= np.linalg.norm(b)
    return testfns.TestFunction(f"ridge{dimension}", functools.partial(quad1, b),
                        InputMeasure.standard_gaussian(dimension), Subspace(b))


def tilted(dimension: int) -> testfns.TestFunction:
    """:func:`ridge` under a Gaussian of dense covariance: the whitening is not the identity."""
    fn = ridge(dimension)
    a = np.random.default_rng(dimension + 1).standard_normal((dimension, dimension))
    measure = InputMeasure.gaussian(np.linspace(-1.0, 1.0, dimension),
                                    a @ a.T / dimension + np.eye(dimension))
    return testfns.TestFunction(f"tilted{dimension}", fn.evaluator, measure, fn.true_subspace)


def constant(dimension: int) -> testfns.TestFunction:
    fn = ridge(dimension)
    return testfns.TestFunction("constant", lambda x: np.zeros(len(x)), fn.measure,
                                fn.true_subspace)


# (model, N, method, scheme, slices, n): R below the worker count, a
# one-slice degenerate partition, SIR slices of one sample, chunks with a
# remainder, rows on both sides of FAN_OUT_MAX_WIDTH, and wide rows whose
# moments, whitening and SAVE products all run on the pool.
CASES = {
    "quad3 save equal-count": (get_test_function("quad3"), 1037, "save", "equal-count", 7, 3),
    "quad3 sir fixed": (get_test_function("quad3"), 1037, "sir", "fixed", 40, 3),
    "hartmann sir equal-count": (get_test_function("hartmann"), 1037, "sir", "equal-count", 2, 2),
    "two slices": (ridge(10), 999, "save", "equal-count", 2, 1),
    "one degenerate slice": (constant(10), 999, "sir", "fixed", 5, 1),
    "one-sample SIR slices": (ridge(10), 999, "sir", "fixed", 50, 1),
    "wide save": (ridge(80), 1037, "save", "equal-count", 5, 1),
    "wide sir fixed": (ridge(80), 1037, "sir", "fixed", 30, 1),
    "m=100 save equal-count": (tilted(100), 1037, "save", "equal-count", 5, 2),
    "m=100 sir fixed": (tilted(100), 1037, "sir", "fixed", 30, 2),
    "m=200 save equal-count": (tilted(200), 1037, "save", "equal-count", 5, 2),
    "m=200 sir fixed": (tilted(200), 1037, "sir", "fixed", 30, 2),
}


@pytest.mark.usefixtures("small_work_on_the_pool")
@pytest.mark.parametrize("case", CASES)
def test_generate_and_estimate_bytes_do_not_depend_on_the_cpu_count(case, cpus):
    fn, n, method, scheme, n_slices, n_components = CASES[case]
    results = []
    with frequent_switches():
        for count in CPU_COUNTS:
            cpus(count)
            threads = threading.active_count()
            s = generate_samples(fn, n, 11)
            assert threading.active_count() == threads
            est = estimate(s, n_slices, scheme, method, n_components)
            assert threading.active_count() == threads
            results.append(s.inputs.tobytes() + s.outputs.tobytes()
                           + est.spectrum.matrix.tobytes() + est.spectrum.eigenvectors.tobytes())
    assert results == results[:1] * len(CPU_COUNTS)
    if case == "two slices":
        assert est.partition.n_slices == 2  # fewer slices than pool threads
    if case == "one degenerate slice":
        assert est.partition.degenerate
    if case == "one-sample SIR slices":
        assert est.partition.min_count == 1


@pytest.mark.parametrize("name", testfns.TEST_FUNCTION_NAMES)
def test_samples_are_one_draw_and_one_evaluation_at_any_cpu_count(monkeypatch, cpus, name):
    """Each block has a stream of its own, so the thread that draws it does not matter.

    The chunks of the built-in models, a power of two plus the last one's
    remainder, also evaluate to the bytes of one evaluation.
    """
    monkeypatch.setattr(measures, "CHUNK_ROWS", 128)
    fn = get_test_function(name)
    whole = draw(fn.measure, 1037, 4)
    samples = []
    with frequent_switches():
        for count in CPU_COUNTS:
            cpus(count)
            s = generate_samples(fn, 1037, 4)
            samples.append(s.inputs.tobytes() + s.outputs.tobytes())
    assert samples == samples[:1] * len(CPU_COUNTS)
    assert s.inputs.tobytes() == whole.tobytes()
    assert s.outputs.tobytes() == np.ravel(fn.evaluator(whole)).tobytes()


@pytest.mark.parametrize("count", [1, 2])
def test_chunks_are_drawn_in_order_and_shown_read_only(monkeypatch, cpus, count):
    """Each chunk is shown read-only.  On one CPU, as in a pool thread, the chunks run in
    row order on the calling thread; on two, on pool threads in any order."""
    monkeypatch.setattr(measures, "CHUNK_ROWS", 100)
    cpus(count)
    fn = get_test_function("quad1")
    seen = []

    def evaluator(x):
        seen.append((len(x), x.flags.writeable, threading.get_ident()))
        return fn.evaluator(x)

    generate_samples(testfns.TestFunction("seen", evaluator, fn.measure, fn.true_subspace), 350, 1)
    # The 50-row remainder joins the last chunk.
    caller = threading.get_ident()
    if count == 1:
        assert seen == [(100, False, caller), (100, False, caller), (150, False, caller)]
    else:
        assert sorted(size for size, *_ in seen) == [100, 100, 150]
        assert not any(writeable or ident == caller for _, writeable, ident in seen)


@pytest.mark.parametrize("into_rows", [False, True])
@pytest.mark.parametrize("n, sizes", [(100, [100]), (101, [101]), (199, [199]),
                                      (300, [100, 100, 100]), (1_050, [100] * 9 + [150])])
def test_chunk_jobs_see_one_draw_and_yield_in_row_order(monkeypatch, cpus, n, sizes, into_rows):
    """At any CPU count, each job gets its chunk of one draw, read-only, and the results
    come back in row order."""
    monkeypatch.setattr(measures, "CHUNK_ROWS", 100)
    measure = get_test_function("hartmann").measure  # a Gaussian with diagonal covariance
    whole = draw(measure, n, 7).tobytes()
    starts = [int(a) for a in np.cumsum([0, *sizes[:-1]])]
    for count in CPU_COUNTS:
        cpus(count)
        rows = np.empty((n, measure.dimension)) if into_rows else None
        seen = {}

        def job(a, x):
            seen[a] = (x.copy(), x.flags.writeable)
            return a

        with frequent_switches():
            assert list(testfns.stream_chunks(measure, n, 7, job, rows)) == starts
        assert sorted(seen) == starts
        assert [len(seen[a][0]) for a in starts] == sizes
        assert np.concatenate([seen[a][0] for a in starts]).tobytes() == whole
        assert not any(writeable for _, writeable in seen.values())
        if into_rows:
            assert rows.tobytes() == whole


@pytest.mark.parametrize("count", [1, 2])
def test_a_failed_chunk_job_stops_the_stream(monkeypatch, cpus, count):
    """The error reaches the caller once no pool thread is left, after the results of
    the chunks before it; no chunk is drawn once a job has failed.

    On two CPUs chunk 3's job fails once chunk 4's draw has started, and
    that draw waits for the failure, so the thread freed by the failure
    would draw chunk 5 next.
    """
    monkeypatch.setattr(measures, "CHUNK_ROWS", 100)
    cpus(count)
    threads = threading.active_count()
    started, results, drawn = [], [], []
    fourth, failing = threading.Event(), threading.Event()

    def tracked_draw(measure, n, seed, first_row, **kwargs):
        drawn.append(first_row)
        if first_row == 400:
            fourth.set()
            failing.wait(10)
            time.sleep(0.05)  # the stream records the failure before this thread takes more
        return draw(measure, n, seed, first_row=first_row, **kwargs)

    monkeypatch.setattr(testfns, "draw", tracked_draw)

    def job(a, x):
        started.append(a)
        if a == 300:
            if count == 2:
                fourth.wait(10)
            failing.set()
            raise RuntimeError("chunk 3")
        return a

    with pytest.raises(RuntimeError, match="chunk 3"):
        for a in testfns.stream_chunks(InputMeasure.standard_gaussian(2), 2_000, 1, job):
            results.append(a)
    assert results == [0, 100, 200]
    assert threading.active_count() == threads
    assert sorted(drawn) == [0, 100, 200, 300, 400][:count + 3]
    if count == 1:
        assert started == [0, 100, 200, 300]


def test_the_first_failed_chunk_is_raised_after_every_chunk_before_it(monkeypatch, cpus):
    """With chunks failing on many threads, no chunk before the first failed one is
    skipped, and its error is the one raised."""
    monkeypatch.setattr(measures, "CHUNK_ROWS", 100)
    cpus(8)

    def job(a, x):
        if a >= 1_000:
            raise RuntimeError(f"chunk {a // 100}")
        return a

    with frequent_switches():
        for _ in range(20):
            results = []
            with pytest.raises(RuntimeError, match="chunk 10$"):
                for a in testfns.stream_chunks(InputMeasure.standard_gaussian(2), 3_000, 1, job):
                    results.append(a)
            assert results == list(range(0, 1_000, 100))


@pytest.mark.usefixtures("small_work_on_the_pool")
@pytest.mark.parametrize("count", [2, 3])
def test_a_study_runs_one_pool_at_a_time(tmp_path, monkeypatch, cpus, count):
    """Trials and surrogate chunk jobs run their own work inline.

    The peak is read from inside the evaluator, which runs on pool
    threads in both surrogate passes and in every trial.
    """
    monkeypatch.setattr(measures, "CHUNK_ROWS", 500)
    quad3 = get_test_function("quad3")
    peaks, lock = [], threading.Lock()

    def evaluator(x):
        with lock:
            peaks.append(threading.active_count())
        return quad3.evaluator(x)

    monkeypatch.setattr(experiments, "get_test_function", lambda name: testfns.TestFunction(
        name, evaluator, quad3.measure, quad3.true_subspace))
    cpus(count)
    cfg = StudyConfig(function="quad3", method="save", sizes=(300, 700), trials=4, seed=2,
                      n_components=3, n_slices=5, scheme="equal-count", truth_size=7_001,
                      truth_seed=3)
    threads = threading.active_count()
    with frequent_switches():
        truth_surrogate(cfg, tmp_path)  # cold
        assert max(peaks) <= threads + count
        peaks.clear()
        run_convergence(cfg, tmp_path)
    assert max(peaks) <= threads + count
    assert threading.active_count() == threads


def on_caller(_, __) -> int:
    return threading.get_ident()


class TestCpuMap:
    @pytest.mark.parametrize("count, jobs, threads", [(1, 5, 0), (4, 1, 0), (4, 5, 1)])
    def test_one_cpu_one_job_or_one_thread_runs_on_the_caller(self, cpus, count, jobs, threads):
        cpus(count)
        assert list(_cpu_map(on_caller, range(jobs), threads)) == [threading.get_ident()] * jobs

    def test_a_pool_thread_runs_its_own_map_inline(self, cpus):
        cpus(4)

        def nested(_, __):
            return threading.get_ident(), set(_cpu_map(on_caller, range(4)))

        for outer, inner in _cpu_map(nested, range(2)):
            assert outer != threading.get_ident()
            assert inner == {outer}

    def test_an_inline_error_reaches_the_caller_after_the_results_before_it(self, cpus):
        cpus(1)
        started, results = [], []

        def parse(text, _):
            started.append(text)
            return int(text)

        with pytest.raises(ValueError):
            for value in _cpu_map(parse, ["1", "2", "three", "4"]):
                results.append(value)
        assert results == [1, 2]
        assert started == ["1", "2", "three"]

    def test_no_thread_outlives_the_call(self, cpus):
        cpus(3)
        threads = threading.active_count()
        assert list(_cpu_map(lambda job, _: abs(job), range(-5, 5))) == [5, 4, 3, 2, 1, 0, 1, 2, 3, 4]
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_consumer_that_closes_after_the_first_result(self, cpus):
        cpus(3)
        threads = threading.active_count()
        started = []

        def slow(job, _):
            started.append(job)
            time.sleep(0.01)
            return job

        results = _cpu_map(slow, range(50))
        assert next(results) == 0
        results.close()
        assert threading.active_count() == threads
        assert len(started) < 50  # the jobs not yet started were cancelled

    @pytest.mark.parametrize("threads", [2, 3])
    def test_threads_caps_the_width(self, cpus, threads):
        cpus(8)
        base = threading.active_count()
        together = threading.Barrier(threads)

        def job(j, _):
            if j < threads:
                together.wait(10)  # so many jobs run at once, so many threads start
            return threading.active_count()

        assert set(_cpu_map(job, range(40), threads)) == {base + threads}

    @pytest.mark.parametrize("count", CPU_COUNTS)
    @pytest.mark.parametrize("jobs, threads", [(0, 0), (1, 0), (5, 0), (30, 0), (30, 2)])
    def test_scratch_buffers_are_made_here_one_per_thread_and_never_shared(self, cpus, count,
                                                                            jobs, threads):
        cpus(count)
        made, held, lock = [], set(), threading.Lock()

        def scratch():
            made.append(threading.get_ident())
            return []

        def job(j, buffer):
            with lock:
                assert id(buffer) not in held
                held.add(id(buffer))
            buffer.append(j)
            time.sleep(0)
            with lock:
                held.remove(id(buffer))
            return j

        with frequent_switches():
            assert list(_cpu_map(job, range(jobs), threads, scratch)) == list(range(jobs))
        assert made == [threading.get_ident()] * min(jobs, count, threads or jobs)

    def test_the_cpu_count_is_the_affinity(self):
        assert core._available_cpus() >= 1
