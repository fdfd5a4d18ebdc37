"""Input probability measures, sampling, and whitening.

The estimators in this package assume inputs with zero mean and identity
covariance, so every supported measure comes with an exact standardizer
built from its analytic moments.  Sampling draws one stream per block
of ``CHUNK_ROWS`` rows: block k of a seed's sample comes from numpy's
SFC64 generator seeded by ``SeedSequence(seed, spawn_key=(k,))``, child
k of the seed's ``SeedSequence``, so any thread may draw any block, and
for a fixed (measure, N, seed) the draw is reproducible across platforms
and CPU counts.  :func:`generator`, which draws model coefficients and
bootstrap indices, stays on the counter-based Philox generator.

Trial seeds for repeated experiments are derived from a master seed with
:func:`derive_seed`, a splitmix64-based hash, so substreams are decorrelated
without any shared-state bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ridgerec.core import SampleSet, Standardizer, _freeze, _one_blas_thread

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, *parts: int) -> int:
    """Derive a 64-bit substream seed from a master seed and index parts.

    Each part is mixed in with splitmix64 after an LCG step advances the
    accumulator, so the combine is order- and role-sensitive: (master, 0, 1),
    (master, 1, 0), and (part, master) all land in unrelated streams.  Used
    for per-trial and per-size seeds in repeated experiments.
    """
    s = _splitmix64(master & _MASK64)
    for p in parts:
        s = (s * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03) & _MASK64
        s = _splitmix64((s ^ _splitmix64(p & _MASK64)) & _MASK64)
    return s


def generator(seed: int) -> np.random.Generator:
    """Counter-based Philox generator for model coefficients and bootstrap indices.

    Samples come from :func:`draw`'s block streams instead.
    """
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


#: Rows per block of a sample (:func:`draw`).  Block k of a seed's sample
#: is drawn from an SFC64 stream of its own, seeded by child k of the
#: seed's ``SeedSequence``, so this size is part of the stream's
#: definition: another size gives other samples past its first block.
#: Samples are also evaluated in chunks of this many rows
#: (:func:`~ridgerec.testfns.stream_chunks`), and a truth surrogate sums
#: its slice moments in that order, so it is part of the surrogate cache
#: key.  It is a power of two, so a chunk's rows fall into the blocks of
#: BLAS's matrix-vector kernels as they do in one evaluation, and the
#: built-in models' chunked responses are the bytes of one evaluation.
CHUNK_ROWS = 16_384


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InputMeasure:
    """A sampling distribution for model inputs.

    Three kinds are supported: ``standard-gaussian`` (mean 0, identity
    covariance), ``gaussian`` (arbitrary mean and SPD covariance), and
    ``uniform-box`` (independent uniforms on a box).  Inputs that live on
    a log scale are described in log space: take logs of the columns
    before ingest, as the Hartmann model does inside its evaluator.

    Use the classmethod constructors rather than filling fields by hand.
    """

    kind: str
    dimension: int
    mean: Optional[np.ndarray] = None
    cov: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    @classmethod
    def standard_gaussian(cls, dimension: int) -> "InputMeasure":
        if dimension < 1:
            raise ValueError("dimension must be positive")
        return cls(kind="standard-gaussian", dimension=dimension)

    @classmethod
    def gaussian(cls, mean, cov) -> "InputMeasure":
        mean = np.asarray(mean, dtype=np.float64).ravel()
        cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean length")
        if np.max(np.abs(cov - cov.T)) > 1e-12 * max(1.0, np.max(np.abs(cov))):
            raise ValueError("covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance must be symmetric positive definite") from exc
        return cls(kind="gaussian", dimension=mean.size, mean=_freeze(mean),
                   cov=_freeze(cov))

    @classmethod
    def uniform_box(cls, lower, upper) -> "InputMeasure":
        lower = np.asarray(lower, dtype=np.float64).ravel()
        upper = np.asarray(upper, dtype=np.float64).ravel()
        if lower.size != upper.size:
            raise ValueError("lower and upper must have equal length")
        if not np.all(lower < upper):
            raise ValueError("uniform box requires lower < upper componentwise")
        return cls(kind="uniform-box", dimension=lower.size, lower=_freeze(lower),
                   upper=_freeze(upper))


def draw(measure: InputMeasure, n_samples: int, seed: int, out: Optional[np.ndarray] = None,
         first_row: int = 0, normals: Optional[np.ndarray] = None) -> np.ndarray:
    """Draw ``n_samples`` i.i.d. inputs, rows ``first_row`` on of the seed's sample; returns
    an (N, m) array, ``out`` when one is given.

    A seed's sample is drawn in blocks of ``CHUNK_ROWS`` rows: block k,
    from row k ``CHUNK_ROWS`` on, is drawn row-major from a stream of its
    own, ``Generator(SFC64(SeedSequence(seed, spawn_key=(k,))))``.  That
    seed sequence is child k of ``SeedSequence(seed).spawn(...)``,
    numpy's idiom for independent parallel streams.  A draw therefore
    starts any block by itself, on any thread, so ``first_row`` must be
    a multiple of ``CHUNK_ROWS``; and a smaller draw is a prefix of a
    larger one with the same seed, since only its last block is cut
    short.  ``out``, if given, is a C-contiguous float64 (N, m) array to
    draw into.  A Gaussian measure with a dense covariance draws each
    block's standard normals into ``normals``, a C-contiguous float64
    array of at least min(N, ``CHUNK_ROWS``) rows and m columns, which
    is allocated here, once, when not given: a caller that draws on pool
    threads hands each thread one, since buffers allocated there stay in
    those threads' malloc arenas.

    Drawn in pieces that start at block boundaries, a sample has the
    bytes of one draw for the standard Gaussian, the uniform box and a
    Gaussian with diagonal covariance.  A dense Cholesky factor is
    applied per block by a matrix product whose rounding may depend on a
    row's place in the block: there a block cut short agrees with the
    whole block to a few ulps, and every other block bit for bit.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if first_row < 0 or first_row % CHUNK_ROWS:
        raise ValueError(f"first_row {first_row} is not a multiple of CHUNK_ROWS ({CHUNK_ROWS})")
    m = measure.dimension
    if out is None:
        out = np.empty((n_samples, m))
    elif out.shape != (n_samples, m):
        raise ValueError(f"out has shape {out.shape}, not ({n_samples}, {m})")
    if measure.kind == "gaussian":
        L = np.linalg.cholesky(measure.cov)
        if normals is None:
            normals = np.empty((min(n_samples, CHUNK_ROWS), m))
    for a in range(0, n_samples, CHUNK_ROWS):
        block_seed = np.random.SeedSequence(seed & _MASK64,
                                            spawn_key=((first_row + a) // CHUNK_ROWS,))
        rng = np.random.Generator(np.random.SFC64(block_seed))
        block = out[a:a + CHUNK_ROWS]
        if measure.kind == "standard-gaussian":
            rng.standard_normal(out=block)
        elif measure.kind == "gaussian":
            z = rng.standard_normal(out=normals[:len(block)])
            np.matmul(z, L.T, out=block)
            block += measure.mean
        elif measure.kind == "uniform-box":
            rng.random(out=block)
            block *= measure.upper - measure.lower
            block += measure.lower
        else:  # pragma: no cover - constructors prevent this
            raise ValueError(f"unknown measure kind {measure.kind!r}")
    return out


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

@_one_blas_thread
def fit_standardizer(measure: InputMeasure) -> Standardizer:
    """Build the exact standardizer of a measure from its analytic moments."""
    m = measure.dimension
    if measure.kind == "standard-gaussian":
        return Standardizer.identity(m)
    if measure.kind == "gaussian":
        L = np.linalg.cholesky(measure.cov)
        W = np.linalg.solve(L, np.eye(m))
        return Standardizer(measure.mean, W, L)
    if measure.kind == "uniform-box":
        sigma = (measure.upper - measure.lower) / np.sqrt(12.0)
        return Standardizer((measure.lower + measure.upper) / 2.0,
                            np.diag(1.0 / sigma), np.diag(sigma))
    raise ValueError(f"unknown measure kind {measure.kind!r}")  # pragma: no cover


def standardize(s: SampleSet, std: Standardizer) -> SampleSet:
    """The raw sample set read through z = W (x - mean); outputs unchanged.

    The cost is independent of N: the result shares ``s``'s frozen
    ``inputs`` and carries ``std``, with no copy and no matmul.  The
    estimators whiten the R slice moments, never the rows;
    ``std.whiten(s.inputs)`` gives the whitened rows.  A set is whitened
    once, from its stored inputs, so one that carries a standardizer
    already is refused.
    """
    if s.standardized:
        raise ValueError("sample set is standardized already; standardize its raw set once")
    if s.dimension != std.dimension:
        raise ValueError(
            f"dimension mismatch: samples have m={s.dimension}, "
            f"standardizer has m={std.dimension}"
        )
    return SampleSet._shared(s.inputs, s.outputs, std)


#: Standard errors beyond which a moment of rows declared whitened refutes
#: the claim.  Standardized draws of the built-in models, N = 10 to 10^6,
#: stayed below 5 on both moments.
WHITENING_DEFECT_LIMIT = 8.0


@_one_blas_thread
def whitening_defect(rows: np.ndarray) -> tuple[float, str]:
    """How far rows declared whitened lie from zero mean and identity second moment.

    Each moment is measured in its standard error under the claim.  A
    column mean has standard error exactly 1/sqrt(N).  An entry (j, k) of
    X'X/N has standard error sd(x_j x_k)/sqrt(N), which Cauchy-Schwarz
    bounds by (m4_j m4_k)^(1/4)/sqrt(N), with each fourth moment m4 taken
    from the column itself and floored at the Gaussian value 3.  Returns
    the worst defect and what it is, such as ``"mean of x3"`` or
    ``"entry (x1, x2) of X'X/N"``; the defect is nan, and names the first
    moment it cannot measure, when a square overflows (|x| above about
    1.3e154).  It costs one O(N m^2) pass, which the estimators never make.
    """
    n, m = rows.shape
    root_n = np.sqrt(n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives nan, as documented
        mean = np.abs(rows.mean(axis=0)) * root_n
        squares = rows * rows
        m4 = np.maximum(np.einsum("ij,ij->j", squares, squares) / n, 3.0)
        second = (np.abs(rows.T @ rows / n - np.eye(m)) * root_n
                  / np.sqrt(np.sqrt(np.outer(m4, m4))))
    c = int(np.argmax(mean))
    j, k = np.unravel_index(np.argmax(second), second.shape)
    if mean[c] >= second[j, k]:
        return float(mean[c]), f"mean of x{c + 1}"
    return float(second[j, k]), f"entry (x{j + 1}, x{k + 1}) of X'X/N"


def pushforward_direction(std: Standardizer, w_standardized: np.ndarray) -> np.ndarray:
    """Express a recovered direction in original (unstandardized) coordinates.

    If the response depends on standardized inputs only through w'z with
    z = W (x - mean), then as a function of x it depends only on
    (W' w)'(x - mean); the original-coordinate direction is therefore the
    W-transpose image of w, renormalized to unit length.
    """
    w = np.asarray(w_standardized, dtype=np.float64).ravel()
    if w.size != std.dimension:
        raise ValueError("dimension mismatch")
    out = std.whitening.T @ w
    norm = np.linalg.norm(out)
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("direction must be a nonzero finite vector")
    return out / norm
