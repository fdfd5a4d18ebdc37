"""Symmetric eigendecomposition and subspace comparison.

Eigendecompositions here are deterministic: eigenvalues are sorted in
descending order with a stable tie rule, and eigenvector signs follow a
fixed convention, so repeated runs and golden tests agree bit for bit.

The distance between two subspaces of equal dimension is the spectral
norm of the difference of their orthogonal projectors, which equals the
sine of the largest principal angle and lies in [0, 1].  Either subspace
may be given as a plain basis array, which is read as
:class:`~ridgerec.core.Subspace` reads it: columns, or one 1-D vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ridgerec.core import Subspace, SymmetricSpectrum, _freeze

#: Relative symmetry tolerance accepted by :func:`decompose`.
SYMMETRY_TOL = 1e-10
#: Gaps below this fraction of the leading eigenvalue are reported as zero.
GAP_FLOOR = 1e-12


@dataclass(frozen=True)
class GapProfile:
    """Consecutive eigenvalue gaps, raw and normalized by the leading eigenvalue.

    Large gaps suggest where to truncate: the subspace spanned by the
    eigenvectors above a large gap is estimated much more stably than one
    cut at a small gap.
    """

    gaps: np.ndarray
    relative: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gaps", _freeze(self.gaps))
        object.__setattr__(self, "relative", _freeze(self.relative))


def decompose(matrix) -> SymmetricSpectrum:
    """Eigendecompose a symmetric matrix with deterministic conventions.

    The input is symmetrized as (M + M') / 2 after checking that the
    asymmetry is within round-off.  Eigenvalues come back descending;
    among equal eigenvalues the solver's order is kept (stable sort).
    Each eigenvector is flipped, if needed, so its largest-magnitude
    component is positive, ties resolved toward the lowest index.
    """
    M = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.T)) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    M = (M + M.T) / 2.0

    w, V = np.linalg.eigh(M)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    for j in range(V.shape[1]):
        lead = np.argmax(np.abs(V[:, j]))
        if V[lead, j] < 0:
            V[:, j] = -V[:, j]
    return SymmetricSpectrum(matrix=M, eigenvalues=w, eigenvectors=V)


def orthonormal_basis(columns) -> np.ndarray:
    """Orthonormalize a full-column-rank matrix via QR, with fixed signs.

    The signs are chosen so that the diagonal of the triangular factor is
    positive, making the result a deterministic function of the input
    (plain QR leaves signs to the backend).
    """
    M = np.atleast_2d(np.asarray(columns, dtype=np.float64))
    if M.shape[0] < M.shape[1]:
        raise ValueError("need at least as many rows as columns")
    q, r = np.linalg.qr(M)
    diag = np.diag(r)
    if np.min(np.abs(diag)) <= 1e-12 * max(1.0, float(np.max(np.abs(M)))):
        raise ValueError("columns are numerically rank deficient")
    signs = np.where(diag < 0, -1.0, 1.0)
    return q * signs


def subspace_distance(a, b) -> float:
    """Spectral-norm distance between two equal-dimensional subspaces.

    Accepts ``Subspace`` objects or plain orthonormal basis arrays.
    Computed as the largest singular value of the projector difference
    A A' - B B'.  Equals sin of the largest principal angle: 0 for equal
    spans, 1 when some direction of one subspace is orthogonal to all of
    the other.
    """
    if not isinstance(a, Subspace):
        a = Subspace(a)
    if not isinstance(b, Subspace):
        b = Subspace(b)
    if a.ambient_dimension != b.ambient_dimension:
        raise ValueError("subspaces live in different ambient dimensions")
    if a.dimension != b.dimension:
        raise ValueError(
            f"subspace dimension mismatch ({a.dimension} vs {b.dimension}); "
            "the projector-difference distance compares equal dimensions only"
        )
    return float(np.linalg.norm(a.projector - b.projector, 2))


def gap_profile(spectrum: SymmetricSpectrum) -> GapProfile:
    """Consecutive eigenvalue differences, with a noise floor.

    Gaps smaller than ``GAP_FLOOR`` times the leading eigenvalue are
    snapped to zero so that round-off never suggests a spurious
    truncation point.
    """
    w = spectrum.eigenvalues
    gaps = w[:-1] - w[1:]
    scale = abs(float(w[0])) if w.size else 0.0
    if scale > 0.0:
        gaps = np.where(gaps < GAP_FLOOR * scale, 0.0, gaps)
        relative = gaps / scale
    else:
        gaps = np.zeros_like(gaps)
        relative = np.zeros_like(gaps)
    return GapProfile(gaps=gaps, relative=relative)
