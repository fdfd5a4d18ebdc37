"""The four workloads, each a closed loop of one kind of op.

Every workload builds its inputs from the benchmark seed with numpy's own
generators, so the inputs do not change when ridgerec's sampling code
does; the program only ever receives the generated inputs.  Ops cycle
through a fixed pool of inputs: the pool makes ``subspace_dist`` an
average over several independent inputs (steady across seeds) and every
repeat of a pool entry must reproduce its first result bit for bit.

Why these four (see NOTES.md for the expected metric movements):

* ``estimate-tall`` -- big N, small m on the library path.  Draw,
  partition, slice moments, whitening and copies carry the op; the
  estimator matrix and eigh are negligible.
* ``estimate-wide`` -- large m on the "your own data" path.  Slice-moment
  GEMMs, a real (non-identity) whitening matmul and R m^3 SAVE products
  carry the op; there is no draw.
* ``converge-warm`` -- eighty small estimates per op against a surrogate
  cache filled during set-up: per-call overhead and orchestration.
* ``cli-roundtrip`` -- CSV serialization, ingest and whitening against a
  non-identity measure through the command line.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An op returned a wrong or non-reproducible result."""


def bench_seed(seed: int, *parts: int) -> int:
    """64-bit seed for one input stream, derived with numpy's SeedSequence."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint64)[0])


def bench_rng(seed: int, *parts: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=bench_seed(seed, *parts)))


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def _run_cli(program, argv: list) -> tuple[int, str]:
    """Run ``ridgerec.cli.main`` in-process, keeping its chatter off stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = program.cli.main(argv)
    return rc, err.getvalue().strip()


def _check_distance(program, basis, truth, tolerance: float) -> float:
    dist = program.spectral.subspace_distance(basis, truth)
    if not dist < tolerance:
        raise CheckFailed(f"subspace distance {dist:.4g} not below tolerance {tolerance}")
    return dist


class Workload:
    """One closed-loop workload: inputs, the op, and its result check."""

    name = ""
    #: Largest subspace distance a correct result may have.
    tolerance = 0.0
    rows_per_op = 0
    #: One-line statement of the input size, printed with the metrics.
    input_size = ""
    #: Arrays the op works on, name -> bytes, compared against L3 in the report.
    working_set: dict = {}

    def __init__(self, program, seed: int, workdir: Path, pool_size: int):
        self.p = program
        self.seed = seed
        self.workdir = Path(workdir)
        self.pool_size = pool_size

    def prepare(self) -> None:
        """Build inputs and clear caches; runs inside the timed set-up."""

    def op(self, k: int, count):
        """Run the op on pool input ``k``; ``count(name, value)`` records counts."""
        raise NotImplementedError

    def check(self, k: int, result) -> tuple[float, bytes]:
        """Return (subspace distance, fingerprint of the eigen outputs) or raise."""
        raise NotImplementedError

    def io_bytes(self, result) -> tuple[int, int]:
        """Bytes the command line wrote and read during the op."""
        return 0, 0

    def input_digest(self) -> str:
        raise NotImplementedError


class EstimateTall(Workload):
    name = "estimate-tall"
    tolerance = 0.03

    def __init__(self, program, seed, workdir, n_samples=1_000_000, pool_size=24, n_slices=20):
        super().__init__(program, seed, workdir, pool_size)
        self.n_samples = n_samples
        self.n_slices = n_slices
        self.seeds = [bench_seed(seed, 0, k) for k in range(pool_size)]
        self.fn = program.testfns.get_test_function("quad3")
        self.rows_per_op = n_samples
        self.input_size = (f"quad3, N={n_samples} rows drawn and estimated per op, m=10, "
                           f"R={n_slices} equal-count, SAVE, n=3; {pool_size} input seeds")
        self.working_set = {"x": n_samples * 10 * 8}

    def op(self, k, count):
        s = self.p.testfns.generate_samples(self.fn, self.n_samples, self.seeds[k])
        return self.p.estimators.estimate(s, self.n_slices, "equal-count", "save", 3)

    def check(self, k, est):
        dist = _check_distance(self.p, est.subspace, self.fn.true_subspace, self.tolerance)
        return dist, est.spectrum.eigenvalues.tobytes() + est.spectrum.eigenvectors.tobytes()

    def input_digest(self):
        return _digest(np.array(self.seeds, dtype=np.uint64), np.array([self.n_samples]))


class EstimateWide(Workload):
    name = "estimate-wide"
    tolerance = 0.25

    def __init__(self, program, seed, workdir, n_samples=100_000, dimension=200,
                 pool_size=8, n_slices=25):
        super().__init__(program, seed, workdir, pool_size)
        self.n_samples = n_samples
        self.m = dimension
        self.n_slices = n_slices
        self.rows_per_op = n_samples
        self.input_size = (f"non-diagonal Gaussian, N={n_samples} rows whitened and estimated "
                           f"per op, m={dimension}, R={n_slices} equal-count, SAVE, n=3; "
                           f"{pool_size} response frames")
        self.working_set = {"x": n_samples * dimension * 8}

    def prepare(self):
        m, n = self.m, self.n_samples
        rng = bench_rng(self.seed, 1)
        a = rng.standard_normal((m, m))
        self.mean = rng.standard_normal(m)
        cov = a @ a.T / m + np.eye(m)
        self.cov = (cov + cov.T) / 2.0
        self.measure = self.p.measures.InputMeasure.gaussian(self.mean, self.cov)
        # z is the whitened input exactly; the program recovers it from x.
        z = bench_rng(self.seed, 2).standard_normal((n, m))
        self.x = self.mean + z @ np.linalg.cholesky(self.cov).T
        self.frames, self.responses = [], []
        for _ in range(self.pool_size):
            frame, _r = np.linalg.qr(rng.standard_normal((m, 3)))
            t = z @ frame
            self.frames.append(frame)
            self.responses.append(t[:, 0] ** 2 + 0.5 * t[:, 1] ** 2 + t[:, 2])

    def op(self, k, count):
        p = self.p
        raw = p.core.SampleSet(inputs=self.x, outputs=self.responses[k])
        count("core.bytes_copied", raw.inputs.nbytes + raw.outputs.nbytes)
        s = p.measures.standardize(raw, p.measures.fit_standardizer(self.measure))
        return p.estimators.estimate(s, self.n_slices, "equal-count", "save", 3)

    def check(self, k, est):
        dist = _check_distance(self.p, est.subspace, self.frames[k], self.tolerance)
        return dist, est.spectrum.eigenvalues.tobytes() + est.spectrum.eigenvectors.tobytes()

    def input_digest(self):
        return _digest(self.mean, self.cov, self.x, *self.frames, *self.responses)


class ConvergeWarm(Workload):
    name = "converge-warm"
    tolerance = 0.15

    def __init__(self, program, seed, workdir, sizes=(1000, 3000, 10000, 30000), trials=20,
                 truth_size=1_000_000, n_slices=16):
        super().__init__(program, seed, workdir, pool_size=1)
        self.largest = max(sizes)
        self.args = ["converge", "--function", "quad3", "--method", "save",
                     "--sizes", ",".join(str(n) for n in sizes), "--trials", str(trials),
                     "--slices", str(n_slices), "--dim", "3", "--truth-size", str(truth_size),
                     "--seed", str(bench_seed(seed, 3))]
        self.out = self.workdir / "converge"
        self.cache = self.workdir / "converge-cache"
        self.rows_per_op = sum(sizes) * trials
        self.input_size = (f"quad3 study, sizes {','.join(map(str, sizes))} x {trials} trials "
                           f"= {self.rows_per_op} rows per op; surrogate N={truth_size} "
                           "built in set-up")
        self.working_set = {"largest trial x": self.largest * 10 * 8,
                            "surrogate x (set-up)": truth_size * 10 * 8}

    def prepare(self):
        # An empty cache makes the warm-up op build the surrogate cold.
        shutil.rmtree(self.cache, ignore_errors=True)

    def op(self, k, count):
        return _run_cli(self.p, self.args + ["--out", str(self.out), "--cache-dir", str(self.cache)])

    def check(self, k, result):
        rc, err = result
        if rc != 0:
            raise CheckFailed(f"converge exited {rc}: {err}")
        csv = (self.out / "study.csv").read_bytes()
        text = (self.out / "study.json").read_bytes()
        dist = json.loads(text)["mean_subspace_dist"][str(self.largest)]
        if not dist < self.tolerance:
            raise CheckFailed(f"mean subspace distance {dist:.4g} not below {self.tolerance}")
        return dist, csv + text

    def io_bytes(self, result):
        return sum((self.out / f).stat().st_size for f in ("study.csv", "study.json")), 0

    def input_digest(self):
        return _digest(json.dumps(self.args).encode())


class CliRoundtrip(Workload):
    name = "cli-roundtrip"
    tolerance = 0.15
    _written = ("samples.csv", "samples.json", "estimate.json", "eigvecs.csv", "summary_plot.csv")

    def __init__(self, program, seed, workdir, n_samples=100_000, pool_size=24, n_slices=20):
        super().__init__(program, seed, workdir, pool_size)
        self.n_samples = n_samples
        self.n_slices = n_slices
        self.seeds = [bench_seed(seed, 4, k) for k in range(pool_size)]
        fn = program.testfns.get_test_function("hartmann")
        self.config = {"measure": {"kind": "gaussian", "mean": fn.measure.mean.tolist(),
                                   "cov": fn.measure.cov.tolist()}}
        self.truth = program.testfns.hartmann_true_subspace(
            standardizer=program.measures.fit_standardizer(fn.measure))
        self.out = self.workdir / "roundtrip"
        self.config_path = self.workdir / "roundtrip-measure.json"
        self.rows_per_op = n_samples
        self.input_size = (f"hartmann, N={n_samples} rows sampled, written, read back and "
                           f"estimated per op, m=5, R={n_slices} equal-count, SIR, n=2; "
                           f"{pool_size} sample seeds")
        self.working_set = {"x": n_samples * 5 * 8, "samples.csv": 120 * n_samples}

    def prepare(self):
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config))

    def op(self, k, count):
        rc, err = _run_cli(self.p, ["sample", "--function", "hartmann",
                                    "--n", str(self.n_samples), "--raw",
                                    "--seed", str(self.seeds[k]), "--out", str(self.out)])
        if rc != 0:
            return rc, err
        return _run_cli(self.p, ["sir", "--input", str(self.out / "samples.csv"),
                                 "--config", str(self.config_path),
                                 "--slices", str(self.n_slices), "--dim", "2",
                                 "--out", str(self.out)])

    def check(self, k, result):
        rc, err = result
        if rc != 0:
            raise CheckFailed(f"command exited {rc}: {err}")
        vecs = np.loadtxt(self.out / "eigvecs.csv", delimiter=",", skiprows=1, ndmin=2)
        dist = _check_distance(self.p, vecs[:, :2], self.truth, self.tolerance)
        eigen = (self.out / "estimate.json").read_bytes() + (self.out / "eigvecs.csv").read_bytes()
        return dist, eigen

    def io_bytes(self, result):
        written = sum((self.out / f).stat().st_size for f in self._written)
        read = (self.out / "samples.csv").stat().st_size + self.config_path.stat().st_size
        return written, read

    def input_digest(self):
        return _digest(np.array(self.seeds, dtype=np.uint64),
                       json.dumps(self.config, sort_keys=True).encode())


WORKLOADS = {w.name: w for w in (EstimateTall, EstimateWide, ConvergeWarm, CliRoundtrip)}
