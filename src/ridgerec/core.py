"""Shared data model: sample sets, spectra, subspaces, and estimate records.

All containers are frozen dataclasses holding read-only numpy arrays, so
instances can be shared freely across threads.  Validation of sample sets
is a separate, non-throwing operation (:func:`validate_sample_set`); the
spectral containers check their defining invariants at construction time
because a malformed spectrum is always a programming error.
:func:`write_atomic` is the one file writer every artifact goes through.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ridgerec.slicing import SlicePartition

#: Max-norm tolerance for orthonormality checks (basis and eigenvector frames).
ORTHONORMAL_TOL = 1e-10
#: Max-norm tolerance for eigendecomposition reconstruction, relative to max(1, |M|).
RECONSTRUCTION_TOL = 1e-8
#: Eigenvalue tolerance under which SIR/SAVE matrices must be positive semidefinite.
PSD_TOL = -1e-10

METHODS = ("sir", "save")


def _freeze(a: np.ndarray) -> np.ndarray:
    """Return a float64 copy of ``a`` with the writeable flag cleared."""
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


def write_atomic(path: Path, data: Union[str, bytes]) -> None:
    """Write ``data`` (str as UTF-8) to ``path`` through a temp file and a rename.

    Readers see the old file or the new one, never a partial write.  The
    temp file is opened like any new file, so the result honours the umask.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class SampleSet:
    """Paired inputs and scalar outputs, with provenance flags.

    Parameters
    ----------
    inputs : (N, m) array
        One row per sample.
    outputs : (N,) array
        Scalar response per sample.
    standardized : bool
        True when the inputs were produced by the whitening map of the
        measures module.  This is a provenance flag, not a statistical
        test of the sample moments.
    seed : int, optional
        Generation seed, recorded when the set was drawn rather than
        ingested.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    standardized: bool = False
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", _freeze(np.atleast_2d(self.inputs)))
        object.__setattr__(self, "outputs", _freeze(np.ravel(self.outputs)))

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def dimension(self) -> int:
        return self.inputs.shape[1]


def validate_sample_set(s: SampleSet) -> list[str]:
    """Check SampleSet invariants, returning a list of violations.

    Each violation names the failed invariant and the offending index
    where one exists.  An empty list means the set is well formed.  This
    function never raises.
    """
    violations: list[str] = []
    if s.inputs.ndim != 2:
        violations.append("inputs not two-dimensional")
        return violations
    if s.inputs.shape[0] != s.outputs.shape[0]:
        violations.append("length mismatch")
    if s.inputs.shape[0] < 1:
        violations.append("empty sample set")
    bad_in = np.where(~np.isfinite(s.inputs).all(axis=1))[0]
    for i in bad_in:
        violations.append(f"non-finite entry at row {i}")
    bad_out = np.where(~np.isfinite(s.outputs))[0]
    for i in bad_out:
        violations.append(f"non-finite output at row {i}")
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
    """An orthonormal basis of an n-dimensional subspace of R^m."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=np.float64))
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
    partition: "SlicePartition"
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
