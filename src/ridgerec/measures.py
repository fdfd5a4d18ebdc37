"""Input probability measures, sampling, and whitening.

The estimators in this package assume inputs with zero mean and identity
covariance, so every supported measure comes with an exact standardizer
built from its analytic moments.  Sampling uses numpy's counter-based
Philox generator: for a fixed (measure, N, seed) the draw is reproducible
across platforms and independent of how the work is batched.

Trial seeds for repeated experiments are derived from a master seed with
:func:`derive_seed`, a splitmix64-based hash, so substreams are decorrelated
without any shared-state bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ridgerec.core import SampleSet, _freeze

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
    """Counter-based generator for reproducible, platform-stable sampling."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


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


def draw(measure: InputMeasure, n_samples: int, seed: int) -> np.ndarray:
    """Draw ``n_samples`` i.i.d. inputs; returns an (N, m) array.

    The stream is row-major: sample 0 is drawn completely before
    sample 1, so prefixes of a larger draw match smaller draws with the
    same seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = generator(seed)
    m = measure.dimension
    if measure.kind == "standard-gaussian":
        x = rng.standard_normal((n_samples, m))
    elif measure.kind == "gaussian":
        L = np.linalg.cholesky(measure.cov)
        x = measure.mean + rng.standard_normal((n_samples, m)) @ L.T
    elif measure.kind == "uniform-box":
        x = measure.lower + rng.random((n_samples, m)) * (measure.upper - measure.lower)
    else:  # pragma: no cover - constructors prevent this
        raise ValueError(f"unknown measure kind {measure.kind!r}")
    return x


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

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

    @property
    def dimension(self) -> int:
        return self.mean.size


def fit_standardizer(measure: InputMeasure) -> Standardizer:
    """Build the exact standardizer of a measure from its analytic moments."""
    m = measure.dimension
    if measure.kind == "standard-gaussian":
        return Standardizer(np.zeros(m), np.eye(m), np.eye(m))
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
    """Map a sample set's inputs through z = W (x - mean); outputs unchanged."""
    if s.dimension != std.dimension:
        raise ValueError(
            f"dimension mismatch: samples have m={s.dimension}, "
            f"standardizer has m={std.dimension}"
        )
    z = (s.inputs - std.mean) @ std.whitening.T
    return SampleSet(inputs=z, outputs=s.outputs, standardized=True, seed=s.seed)


def unstandardize(s: SampleSet, std: Standardizer) -> SampleSet:
    """Invert :func:`standardize`: x = mean + L z."""
    if s.dimension != std.dimension:
        raise ValueError("dimension mismatch")
    x = s.inputs @ std.inverse.T + std.mean
    return SampleSet(inputs=x, outputs=s.outputs, standardized=False, seed=s.seed)


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
