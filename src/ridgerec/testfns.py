"""Built-in test models with analytically known central subspaces.

Three models exercise the estimators in complementary ways:

* ``quad1`` -- a squared linear form (b'x)^2.  Its one-dimensional ridge
  direction is invisible to SIR (the conditional means vanish by
  symmetry) but recovered by SAVE.
* ``quad3`` -- a rank-2 quadratic plus a linear term x'BB'x + b'x with b
  outside the column span of B, giving a three-dimensional central
  subspace that both estimators can recover.
* ``hartmann`` -- the induced magnetic field of laminar duct
  magnetohydrodynamic flow between parallel plates, as a function of the
  logarithms of five physical inputs (viscosity, density, pressure
  gradient, magnetic resistivity, applied field), with the channel
  half-width and the magnetic permeability fixed at one.  The log-inputs
  admit a two-dimensional central subspace; the fluid density never
  enters.

Each model carries its canonical input measure and its true subspace in
the coordinates its evaluator consumes.  The canonical coefficient draws
for the quadratics come from a fixed documented seed so downstream golden
numbers are reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from ridgerec import measures
from ridgerec.core import SampleSet, Subspace, _cpu_map, _one_blas_thread
from ridgerec.measures import (
    InputMeasure,
    Standardizer,
    derive_seed,
    draw,
    fit_standardizer,
    generator,
    standardize,
)
from ridgerec.spectral import orthonormal_basis

QUAD_DIMENSION = 10

#: Seed for the canonical coefficient draws of the quadratic models.
CANONICAL_SEED = 101

#: Singular-value scales of the canonical quad3 quadratic part, and the
#: components of its linear term along the three subspace directions.
#: Distinct curvature scales plus tilts along all three directions keep
#: each recoverable direction separated from the noise floor for both
#: estimators at moderate sample sizes; the values come from a seeded
#: parameter sweep over such constructions.
QUAD3_CURVATURE_SCALES = (np.sqrt(2.0), np.sqrt(0.5))
QUAD3_TILTS = (1.5, 0.75, 0.5)


@dataclass(frozen=True)
class TestFunction:
    """An evaluatable model bundled with its measure and known subspace.

    ``evaluator`` maps an (N, m) array of raw draws from ``measure`` to N
    scalar responses, each a function of its own row: samples are
    evaluated in chunks of rows.  ``true_subspace`` is expressed in the
    same coordinates the evaluator consumes.
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    measure: InputMeasure
    true_subspace: Subspace

    @property
    def dimension(self) -> int:
        return self.measure.dimension


# ---------------------------------------------------------------------------
# Quadratic models
# ---------------------------------------------------------------------------

def quad1(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate (b'x)^2 for each row of x."""
    b = np.asarray(b, dtype=np.float64).ravel()
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return np.square(x @ b)


def quad3(B: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate x'BB'x + b'x for each row of x.

    The linear coefficient must have a component outside the column span
    of B; otherwise the central subspace degenerates to two dimensions
    and the construction is rejected.
    """
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64).ravel()
    _check_outside_span(B, b)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = x @ B
    y = np.einsum("ij,ij->i", t, t)
    del t  # free the N x k product before the N-vector x @ b is made
    y += x @ b
    return y


def _check_outside_span(B: np.ndarray, b: np.ndarray) -> None:
    coeffs, *_ = np.linalg.lstsq(B, b, rcond=None)
    residual = b - B @ coeffs
    if np.linalg.norm(residual) <= 1e-8:
        raise ValueError("linear coefficient b must have a component outside colspan(B)")


def canonical_quad1_direction() -> np.ndarray:
    """The unit ridge direction of the canonical quad1 instance."""
    rng = generator(derive_seed(CANONICAL_SEED, 1))
    b = rng.standard_normal(QUAD_DIMENSION)
    return b / np.linalg.norm(b)


def canonical_quad3_coefficients() -> tuple[np.ndarray, np.ndarray]:
    """The canonical (B, b) pair for quad3.

    A random orthonormal frame (q1, q2, q3) is drawn from the canonical
    seed; B scales q1 and q2 by the two curvature scales and b tilts the
    response along all three frame directions.
    """
    rng = generator(derive_seed(CANONICAL_SEED, 3))
    frame = orthonormal_basis(rng.standard_normal((QUAD_DIMENSION, 3)))
    B = frame[:, :2] * np.asarray(QUAD3_CURVATURE_SCALES)
    b = frame @ np.asarray(QUAD3_TILTS)
    return B, b


# ---------------------------------------------------------------------------
# Hartmann induced magnetic field
# ---------------------------------------------------------------------------

#: Channel half-width ell and magnetic permeability mu0 of the duct-flow
#: model, dimensionless here.  The true subspace of the log-input model
#: does not depend on either.
HARTMANN_ELL = 1.0
HARTMANN_MU0 = 1.0

#: Mean and covariance of the Gaussian measure on the log-inputs.
HARTMANN_LOG_MEAN = np.array([-2.25, 1.0, 0.3, 0.3, -0.75])
HARTMANN_LOG_COV = np.diag([0.15, 0.25, 0.25, 0.25, 0.25])


def hartmann_b_ind(x: np.ndarray) -> np.ndarray:
    """Total induced magnetic field of laminar MHD flow between plates.

    Input columns are (viscosity mu, density rho, pressure gradient,
    resistivity eta, applied field B0) in physical units; the geometry
    constants are ``HARTMANN_ELL`` and ``HARTMANN_MU0``.  The density
    column is carried for interface uniformity but does not influence the
    field.  Viscosity, resistivity, and applied field must be positive.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != 5:
        raise ValueError("hartmann inputs must have five columns")
    mu, _rho, dp, eta, b0 = (x[:, j] for j in range(5))
    if np.any(mu <= 0) or np.any(eta <= 0) or np.any(b0 <= 0):
        raise ValueError("viscosity, resistivity, and applied field must be positive")
    root = np.sqrt(eta * mu)
    ha = b0 * HARTMANN_ELL / (2.0 * root)  # Hartmann number scale
    return dp * (HARTMANN_ELL * HARTMANN_MU0 / (2.0 * b0)) * (1.0 - np.tanh(ha) / ha)


#: Generators of the central subspace of B_ind over the log-inputs:
#: the field depends on the logs only through log(dp) - log(B0) and
#: (log(eta) + log(mu))/2 - log(B0), for any ell and mu0.
_HARTMANN_GENERATORS = np.array([
    [0.0, 0.5],
    [0.0, 0.0],
    [1.0, 0.0],
    [0.0, 0.5],
    [-1.0, -1.0],
])


def hartmann_true_subspace(standardizer: Optional[Standardizer] = None) -> Subspace:
    """The analytic 2-D central subspace of the log-input Hartmann model.

    With no standardizer the basis lives in raw log coordinates.  Passing
    the standardizer of the log-input measure re-expresses the subspace
    in whitened coordinates (the generators map through the transpose of
    the Cholesky factor, matching how linear functionals transform).
    """
    G = _HARTMANN_GENERATORS
    if standardizer is not None:
        G = standardizer.inverse.T @ G
    return Subspace(orthonormal_basis(G))


# ---------------------------------------------------------------------------
# Canonical instances and sampling
# ---------------------------------------------------------------------------

def _quad1():
    b = canonical_quad1_direction()
    return functools.partial(quad1, b), InputMeasure.standard_gaussian(QUAD_DIMENSION), Subspace(b)


def _quad3():
    B, b = canonical_quad3_coefficients()
    return (functools.partial(quad3, B, b), InputMeasure.standard_gaussian(QUAD_DIMENSION),
            Subspace(orthonormal_basis(np.column_stack([B, b]))))


def _hartmann():
    def log_input_field(z: np.ndarray) -> np.ndarray:
        return hartmann_b_ind(np.exp(np.atleast_2d(z)))

    return (log_input_field, InputMeasure.gaussian(HARTMANN_LOG_MEAN, HARTMANN_LOG_COV),
            hartmann_true_subspace())


#: The built-in models: each name with the builder of its canonical
#: instance's evaluator, measure and true subspace.
_BUILT_INS = {"quad1": _quad1, "quad3": _quad3, "hartmann": _hartmann}
TEST_FUNCTION_NAMES = tuple(_BUILT_INS)


@functools.lru_cache(maxsize=None)
def get_test_function(name: str) -> TestFunction:
    """Return the canonical instance of a built-in model by name."""
    if name not in _BUILT_INS:
        raise ValueError(f"unknown test function {name!r}; "
                         f"expected one of {', '.join(TEST_FUNCTION_NAMES)}")
    return TestFunction(name, *_BUILT_INS[name]())


def _evaluate_into(evaluator: Callable, x: np.ndarray, out: np.ndarray) -> None:
    values = np.ravel(evaluator(x))
    if values.size != len(x):
        raise ValueError(f"the evaluator returned {values.size} values for {len(x)} input rows")
    out[...] = values


def stream_chunks(measure: InputMeasure, n: int, seed: int, job: Callable,
                  rows: Optional[np.ndarray] = None) -> Iterator:
    """Draw the ``n`` rows of ``measure`` with ``seed`` in chunks, run ``job`` on each
    chunk on the CPU pool (:func:`~ridgerec.core._cpu_map`), and yield the
    results in row order.

    The chunks are the draw's blocks (:func:`~ridgerec.measures.draw`),
    ``CHUNK_ROWS`` rows each, and the last also takes the remainder: numpy
    would take a one-row remainder through another BLAS routine, which
    rounds otherwise.  Each chunk's job draws it from its blocks' streams
    and runs ``job(a, x)`` on it, with ``a`` the chunk's first row index
    and ``x`` the chunk, read-only; the chunks run on any thread, in any
    order, and draw the same bytes everywhere.  A chunk is drawn into
    ``rows`` when it is given, an (n, m) array, and otherwise into its
    thread's scratch buffer, as are the Gaussian normals
    (:func:`~ridgerec.measures.draw`).  A failed job, or closing the
    iterator, stops the stream as it stops any pool map: no chunk past a
    failed one is drawn once the failure is seen.
    """
    starts = range(0, max(n - measures.CHUNK_ROWS, 0) + 1, measures.CHUNK_ROWS)
    chunks = list(zip(starts, [*starts[1:], n]))
    m = measure.dimension

    def scratch():
        return (np.empty((n - starts[-1], m)) if rows is None else None,  # the largest chunk
                np.empty((min(n, measures.CHUNK_ROWS), m)) if measure.kind == "gaussian" else None)

    def run(chunk: tuple, buffers: tuple):
        (a, b), (buf, normals) = chunk, buffers
        x = draw(measure, b - a, seed, out=rows[a:b] if buf is None else buf[:b - a],
                 first_row=a, normals=normals)
        x.setflags(write=False)
        return job(a, x)

    return _cpu_map(run, chunks, scratch=scratch)


@_one_blas_thread
def generate_samples(fn: TestFunction, n_samples: int, seed: int) -> SampleSet:
    """Draw inputs from the model's measure, evaluate, and standardize.

    The response is evaluated on the raw draws (the coordinates the
    evaluator expects).  Each chunk of rows is drawn into one array and
    evaluated on a pool thread (:func:`stream_chunks`).  The rows are the
    bytes of one draw (:func:`~ridgerec.measures.draw`) and, for the
    built-in models, the responses those of one evaluation.  The set
    keeps the raw rows, made read-only, as its ``inputs``, and the
    responses, and carries the measure's map, which whitens them
    (:meth:`~ridgerec.core.Standardizer.whiten`).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rows, y = np.empty((n_samples, fn.dimension)), np.empty(n_samples)
    list(stream_chunks(fn.measure, n_samples, seed,
                       lambda a, x: _evaluate_into(fn.evaluator, x, y[a:a + len(x)]), rows))
    return standardize(SampleSet._shared(rows, y, None), fit_standardizer(fn.measure))
