"""Shared data model: sample sets, spectra, subspaces, and estimate records.

All containers, here and in the other modules, are frozen dataclasses
holding read-only numpy arrays, so instances can be shared freely across
threads, as :func:`ridgerec.experiments.run_convergence` shares the
truth spectrum and the model across its trial threads.
:func:`_cpu_map` runs all pool work: it alone decides how many threads
run, which scratch buffer each job gets, and how a failure stops the rest.
:data:`_one_blas_thread` holds OpenBLAS at one thread while a call that
does m^3 or N m^2 linear algebra runs, so its bits do not depend on the
CPU count; the slice work that OpenBLAS would have threaded runs on the
pool instead.
:data:`METHODS` is the one list of estimator names.  Validation
of sample sets is a separate, non-throwing operation (:func:`validate_sample_set`); the
spectral containers check their defining invariants at construction time
because a malformed spectrum is always a programming error.
:func:`write_atomic` is the one file writer every artifact goes through.
"""

from __future__ import annotations

import contextlib
import functools
import os
import queue
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ridgerec.slicing import SlicePartition

#: Max-norm tolerance for orthonormality checks (basis and eigenvector frames).
ORTHONORMAL_TOL = 1e-10
#: Max-norm tolerance for eigendecomposition reconstruction, relative to max(1, |M|).
RECONSTRUCTION_TOL = 1e-8
#: Eigenvalue tolerance under which SIR/SAVE matrices must be positive semidefinite.
PSD_TOL = -1e-10

#: The estimators, in the order the CLI lists them.
METHODS = ("sir", "save")


def _freeze(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Return a copy of ``a`` as ``dtype`` with the writeable flag cleared."""
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _available_cpus() -> int:
    """The CPUs this process may run on, as ``taskset`` or a cgroup cpuset limits them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: ``in_pool`` is set on the threads that :func:`_cpu_map` starts.
_thread_role = threading.local()


def _enter_pool_thread() -> None:
    _thread_role.in_pool = True


def _pool_width() -> int:
    """The most threads a :func:`_cpu_map` on this thread may run.

    One inside a pool thread, where a pool of its own would nest, and
    otherwise one per available CPU.
    """
    return 1 if getattr(_thread_role, "in_pool", False) else _available_cpus()


def _cpu_map(fn: Callable, jobs: Sequence, threads: int = 0,
             scratch: Optional[Callable] = None) -> Iterator:
    """Yield ``fn(job, buffer)`` for each of ``jobs``, in job order, from the CPU pool.

    The pool has one thread per available CPU (:func:`_pool_width`),
    and no more than there are jobs, nor than ``threads`` when that is
    positive.  Below two threads -- one job, one CPU, or a pool thread,
    where pools would nest -- each job runs on the calling thread as its
    result is read, so ``taskset -c 0`` starts no thread.  Each thread
    has one ``buffer``, made by ``scratch()`` (None without it) on the
    calling thread, since buffers made on pool threads stay in their
    malloc arenas and raise the peak RSS; no two running jobs hold the
    same one.  No job starts before the first result is read.  A failed
    job, or closing the iterator, stops the map: no job past a failed
    one starts once the failure is seen, the jobs not yet started are
    cancelled, and the error is raised, or the close returns, once no
    pool thread is left.
    """
    width = min(len(jobs), _pool_width(), threads if threads > 0 else len(jobs))
    buffers = queue.SimpleQueue()
    for _ in range(width):
        buffers.put(scratch() if scratch else None)
    failed_at, failed_lock = len(jobs), threading.Lock()  # the earliest failed job

    def run(i: int, job):
        nonlocal failed_at
        if i > failed_at:
            return None  # never read: the failed job's error is raised first
        buffer = buffers.get()
        try:
            return fn(job, buffer)
        except BaseException:
            with failed_lock:
                failed_at = min(failed_at, i)
            raise
        finally:
            buffers.put(buffer)

    if width < 2:
        yield from map(run, range(len(jobs)), jobs)
        return
    pool = ThreadPoolExecutor(max_workers=width, initializer=_enter_pool_thread)
    try:
        yield from pool.map(run, range(len(jobs)), jobs)
    finally:
        pool.shutdown(cancel_futures=True)


#: Fewest values whose copy into a sample set is split into row blocks on
#: the CPU pool.  Copying N = 10^5 rows of m = 200 took 53 ms on one
#: thread and 28 ms in blocks on 2 vCPUs.
ROW_COPY_MIN_VALUES = 1 << 20
#: Row blocks per pool thread of a split copy, so a CPU that another
#: process slows copies fewer of them.
ROW_COPY_BLOCKS_PER_THREAD = 4


def _freeze_rows(a: np.ndarray) -> np.ndarray:
    """:func:`_freeze` for sample rows: a float64 copy of ``ROW_COPY_MIN_VALUES`` or more
    values is made in row blocks on the CPU pool (:func:`_cpu_map`).

    The copy has the memory layout that :func:`_freeze` would give it,
    and a copy holds the same bytes whichever thread makes it.
    """
    if a.dtype != np.float64 or a.ndim != 2 or a.size < ROW_COPY_MIN_VALUES:
        return _freeze(a)
    out = np.empty_like(a)
    cuts = np.linspace(0, len(a), ROW_COPY_BLOCKS_PER_THREAD * _pool_width() + 1).astype(int)
    blocks = [slice(b, e) for b, e in zip(cuts[:-1], cuts[1:]) if e > b]

    def copy(rows: slice, _) -> None:
        out[rows] = a[rows]

    list(_cpu_map(copy, blocks))
    out.setflags(write=False)
    return out


@functools.cache
def _openblas_calls():
    """The (get, set) thread-count calls of numpy's bundled OpenBLAS, or None if not found.

    Looked up on first use, not at import, through the handle of numpy's
    linear-algebra extension, whose symbol search covers the BLAS it
    links: the scipy-openblas build with 64-bit integers that numpy's
    wheels ship.
    """
    import ctypes
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):  # another BLAS build
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


class _OneBlasThread(contextlib.ContextDecorator):
    """Holds OpenBLAS at one thread, as a context or a function decorator; reentrant.

    The first holder saves the thread count and sets it to one; the last
    to leave, also on an error, restores the saved count.  Nested holds
    and concurrent holds from several threads therefore never restore it
    early.  The setting is process-wide: while any holder is inside, BLAS
    calls of every thread run on one thread.  Entering gives True, or
    False where no OpenBLAS thread call is found (:func:`_openblas_calls`),
    and then nothing is changed.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = 0

    def __enter__(self) -> bool:
        calls = _openblas_calls()
        if calls is None:
            return False
        get, put = calls
        with self._lock:
            if not self._holders:
                self._saved = get()
                put(1)
            self._holders += 1
        return True

    def __exit__(self, *exc) -> None:
        calls = _openblas_calls()
        if calls is None:
            return
        with self._lock:
            self._holders -= 1
            if not self._holders:
                calls[1](self._saved)


#: The one OpenBLAS pin: ``with _one_blas_thread as pinned:`` or ``@_one_blas_thread``.
_one_blas_thread = _OneBlasThread()


def write_atomic(path: Path, data: Union[str, bytes, Iterable[bytes]]) -> None:
    """Write ``data`` to ``path`` through a temp file and a rename.

    ``data`` is a str (written as UTF-8), bytes, or an iterable of bytes
    chunks written in order, so a large file need not be held whole.
    Readers see the old file or the new one, never a partial write, also
    when producing a chunk raises.  The temp file is opened like any new
    file, so the result honours the umask.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, bytes):
        data = (data,)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class Standardizer:
    """Affine whitening map z = W (x - mean) together with its inverse factor.

    ``whitening`` is the inverse Cholesky factor of the measure's
    covariance and ``inverse`` the Cholesky factor itself, so
    ``whitening @ inverse = I`` and the standardized variable has exact
    zero mean and identity covariance under the measure.
    """

    mean: np.ndarray
    whitening: np.ndarray
    inverse: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _freeze(self.mean))
        object.__setattr__(self, "whitening", _freeze(self.whitening))
        object.__setattr__(self, "inverse", _freeze(self.inverse))
        m = self.mean.size
        err = np.max(np.abs(self.whitening @ self.inverse - np.eye(m)))
        if err > 1e-10:
            raise ValueError(f"whitening and inverse are not mutual inverses ({err:.3e})")

    @classmethod
    def identity(cls, dimension: int) -> "Standardizer":
        """The map z = x, for inputs that are whitened already."""
        return cls(np.zeros(dimension), np.eye(dimension), np.eye(dimension))

    @functools.cached_property
    def is_identity(self) -> bool:
        """True when the map is z = x, so whitening by it may be skipped exactly."""
        return not self.mean.any() and np.array_equal(self.whitening, np.eye(self.dimension))

    @property
    def dimension(self) -> int:
        return self.mean.size

    @_one_blas_thread
    def whiten(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` in whitened coordinates, ``(rows - mean) @ W.T``, read-only; under
        the identity map, ``rows`` itself."""
        if self.is_identity:
            return rows
        z = (rows - self.mean) @ self.whitening.T
        z.setflags(write=False)
        return z


@dataclass(frozen=True, init=False)
class SampleSet:
    """Paired inputs and scalar outputs, and the map that whitens the inputs.

    A set holds one representation: the ``inputs`` it was given, raw or
    not, and the ``standardizer`` that maps them to whitened coordinates
    (:meth:`Standardizer.whiten`).  A set built here is raw: its map is
    None.  :func:`ridgerec.measures.standardize` is the one way to attach
    a map: it gives a raw set, once, a map over the same inputs, copying
    nothing, and refuses a set that has one already.  Rows that are
    whitened already take the identity map,
    ``standardize(SampleSet(x, y), Standardizer.identity(m))``.

    Parameters
    ----------
    inputs : (N, m) array
        One row per sample.
    outputs : (N,) array
        Scalar response per sample.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    standardizer: Optional[Standardizer]

    def __init__(self, inputs, outputs):
        self._fill(_freeze_rows(np.atleast_2d(inputs)), _freeze(np.ravel(outputs)), None)

    def _fill(self, inputs, outputs, standardizer) -> None:
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "standardizer", standardizer)

    @classmethod
    def _shared(cls, inputs, outputs, standardizer: Optional[Standardizer]) -> "SampleSet":
        """A set that adopts ``inputs`` and ``outputs`` without a copy and makes them read-only."""
        inputs.setflags(write=False)
        outputs.setflags(write=False)
        s = cls.__new__(cls)
        s._fill(inputs, outputs, standardizer)
        return s

    @property
    def standardized(self) -> bool:
        return self.standardizer is not None

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def dimension(self) -> int:
        return self.inputs.shape[1]


def _at_rows(what: str, rows: np.ndarray) -> str:
    """One violation for all ``rows`` that break an invariant: the row, or count and first five."""
    if len(rows) == 1:
        return f"{what} at row {rows[0]}"
    shown = ", ".join(str(i) for i in rows[:5])
    return f"{what} at {len(rows)} rows: {shown}" + (", ..." if len(rows) > 5 else "")


def validate_sample_set(s: SampleSet) -> list[str]:
    """Check SampleSet invariants, returning a list of violations.

    Each violation names the failed invariant once.  One that rows break
    gives the offending row, or the number of such rows and the first
    five.  An empty list means the set is well formed.  The stored
    inputs are checked as they were given.  This function never raises.
    """
    violations: list[str] = []
    if s.inputs.ndim != 2:
        violations.append("inputs not two-dimensional")
        return violations
    if s.inputs.shape[0] != s.outputs.shape[0]:
        violations.append("length mismatch")
    if s.inputs.shape[0] < 1:
        violations.append("empty sample set")
    bad_in = np.flatnonzero(~np.isfinite(s.inputs).all(axis=1))
    if bad_in.size:
        violations.append(_at_rows("non-finite entry", bad_in))
    bad_out = np.flatnonzero(~np.isfinite(s.outputs))
    if bad_out.size:
        violations.append(_at_rows("non-finite output", bad_out))
    return violations


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Eigendecomposition of a symmetric matrix with deterministic ordering.

    Eigenvalues are descending; ties keep the order produced by the
    underlying solver (stable sort).  Each eigenvector's sign is fixed so
    that its largest-magnitude component is positive, with ties broken by
    the lowest index.  Construction verifies orthonormality and that the
    factors reproduce the matrix.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        object.__setattr__(self, "eigenvalues", _freeze(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _freeze(self.eigenvectors))
        w, V = self.eigenvalues, self.eigenvectors
        if np.any(np.diff(w) > 0):
            raise ValueError("eigenvalues must be in descending order")
        gram_err = np.max(np.abs(V.T @ V - np.eye(V.shape[1])))
        if gram_err > ORTHONORMAL_TOL:
            raise ValueError(f"eigenvectors not orthonormal (max error {gram_err:.3e})")
        M = self.matrix
        recon = np.max(np.abs(M - (V * w) @ V.T))
        if recon > RECONSTRUCTION_TOL * max(1.0, np.max(np.abs(M))):
            raise ValueError(f"eigendecomposition does not reproduce matrix ({recon:.3e})")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Subspace:
    """An orthonormal basis of an n-dimensional subspace of R^m: (m, n) columns.

    A 1-D basis is read as one column, the direction of a line.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        if basis.ndim < 2:
            basis = np.atleast_2d(basis).T
        if basis.shape[0] < basis.shape[1]:
            raise ValueError("basis must have at least as many rows as columns")
        object.__setattr__(self, "basis", _freeze(basis))
        gram_err = np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1])))
        if gram_err > ORTHONORMAL_TOL:
            raise ValueError(f"basis columns not orthonormal (max error {gram_err:.3e})")
        P = self.projector
        if np.max(np.abs(P @ P - P)) > 1e-8:
            raise ValueError("projector not idempotent")

    @property
    def ambient_dimension(self) -> int:
        return self.basis.shape[0]

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    @property
    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


@dataclass(frozen=True)
class SdrEstimate:
    """Result of running SIR or SAVE on a standardized sample set.

    Bundles the estimator matrix's spectrum with the slice partition it
    was computed from and the requested subspace dimension.  The
    estimator matrices are sums of weighted positive-semidefinite terms,
    so construction rejects spectra with eigenvalues below ``PSD_TOL``.
    """

    method: str
    spectrum: SymmetricSpectrum
    partition: SlicePartition
    n_requested: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        m = self.spectrum.dimension
        if not 1 <= self.n_requested <= m:
            raise ValueError(f"n_requested must lie in [1, {m}]")
        if self.spectrum.eigenvalues[-1] < PSD_TOL:
            raise ValueError(
                f"estimator matrix not positive semidefinite "
                f"(smallest eigenvalue {self.spectrum.eigenvalues[-1]:.3e})"
            )

    @property
    def subspace(self) -> Subspace:
        """The span of the first ``n_requested`` eigenvectors."""
        return Subspace(self.spectrum.eigenvectors[:, : self.n_requested])
