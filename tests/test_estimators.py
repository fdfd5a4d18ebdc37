"""SIR and SAVE matrices against hand values and brute-force oracles."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ridgerec.core import PSD_TOL, SampleSet, Standardizer
from ridgerec.estimators import (SliceRuleError, estimate, make_partition, method_partition,
                                 save_matrix, sir_matrix)
from ridgerec.measures import (InputMeasure, derive_seed, draw, fit_standardizer, generator,
                               standardize)
from ridgerec.slicing import SCHEMES, partition_equal_count, slice_stats
from ridgerec.spectral import orthonormal_basis, subspace_distance

from oracles import save_matrix_oracle, sir_matrix_oracle, standardized_set


class TestSirMatrix:
    def test_zero_mean_single_slice(self):
        s = standardized_set([[1.0], [-1.0]], [0.5, 0.5])
        stats = slice_stats(s, partition_equal_count(s.outputs, 1))
        np.testing.assert_array_equal(sir_matrix(stats), [[0.0]])

    def test_four_point_hand_value(self):
        s = standardized_set(
            [[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 4.0]],
            [0.1, 0.2, 0.9, 1.0],
        )
        stats = slice_stats(s, partition_equal_count(s.outputs, 2))
        C = sir_matrix(stats)
        np.testing.assert_allclose(C, [[2.0, 0.0], [0.0, 4.5]])

    def test_single_slice_is_global_mean_outer_product(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((40, 3))
        s = standardized_set(x, rng.standard_normal(40))
        stats = slice_stats(s, partition_equal_count(s.outputs, 1))
        mu = x.mean(axis=0)
        np.testing.assert_allclose(sir_matrix(stats), np.outer(mu, mu), atol=1e-14)


class TestSaveMatrix:
    def test_scalar_hand_value(self):
        # one slice of {0, 2}: mean 1, variance 2, so (1 - 2)^2 = 1
        s = standardized_set([[0.0], [2.0]], [0.3, 0.3])
        stats = slice_stats(s, partition_equal_count(s.outputs, 1))
        np.testing.assert_allclose(save_matrix(stats), [[1.0]])

    def test_identity_covariance_vanishes(self):
        """A slice whose sample covariance is exactly I contributes zero."""
        x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        x *= np.sqrt(3.0) / np.sqrt(4.0)  # forces ddof-1 covariance = I
        s = standardized_set(x, np.zeros(4))
        stats = slice_stats(s, partition_equal_count(s.outputs, 1))
        np.testing.assert_allclose(stats.covariances[0], np.eye(2), atol=1e-14)
        np.testing.assert_allclose(save_matrix(stats), np.zeros((2, 2)), atol=1e-14)


class TestOracleEquivalence:
    """The vectorized matrices must equal literal loop transcriptions."""

    @staticmethod
    def _random_case(rng):
        n = int(rng.integers(10, 201))
        m = int(rng.integers(1, 6))
        n_slices = int(rng.integers(1, 9))
        x = rng.standard_normal((n, m))
        y = rng.standard_normal(n)
        if rng.random() < 0.3:
            y = np.round(y, 1)  # exercise ties and boundary hits
        scheme = "fixed" if rng.random() < 0.5 else "equal-count"
        if scheme == "equal-count":
            n_slices = min(n_slices, n)
        return standardized_set(x, y), n_slices, scheme

    def test_reference_case(self):
        rng = np.random.default_rng(7)
        s = standardized_set(rng.standard_normal((100, 4)), rng.standard_normal(100))
        p = partition_equal_count(s.outputs, 7)
        stats = slice_stats(s, p)
        np.testing.assert_allclose(
            sir_matrix(stats),
            sir_matrix_oracle(s.inputs, s.outputs, p.boundaries),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            save_matrix(stats),
            save_matrix_oracle(s.inputs, s.outputs, p.boundaries),
            atol=1e-12,
        )

    def test_random_configurations(self):
        rng = np.random.default_rng(70)
        for _ in range(25):
            s, n_slices, scheme = self._random_case(rng)
            p = make_partition(s.outputs, n_slices, scheme)
            stats = slice_stats(s, p)
            sir_ref = sir_matrix_oracle(s.inputs, s.outputs, p.boundaries)
            save_ref = save_matrix_oracle(s.inputs, s.outputs, p.boundaries)
            assert np.max(np.abs(sir_matrix(stats) - sir_ref)) <= 1e-12
            assert np.max(np.abs(save_matrix(stats) - save_ref)) <= 1e-12


class TestEstimatePipeline:
    def test_rejects_unstandardized_input(self):
        s = SampleSet(inputs=np.ones((10, 2)), outputs=np.arange(10.0))
        with pytest.raises(ValueError, match="standardized"):
            estimate(s, 2, "equal-count", "sir", 1)

    def test_rejects_unknown_method(self):
        s = standardized_set(np.ones((10, 2)), np.arange(10.0))
        with pytest.raises(ValueError, match="unknown method"):
            estimate(s, 2, "equal-count", "pca", 1)

    def test_rejects_unknown_scheme(self):
        s = standardized_set(np.ones((10, 2)), np.arange(10.0))
        with pytest.raises(ValueError, match="scheme"):
            estimate(s, 2, "quantile", "sir", 1)

    def test_single_slice_sir_nearly_null(self):
        """With R=1 the SIR matrix is the outer product of a near-zero mean."""
        rng = generator(derive_seed(8, 0))
        x = rng.standard_normal((5_000, 4))
        s = standardized_set(x, x[:, 0] + x[:, 1])
        est = estimate(s, 1, "equal-count", "sir", 1)
        assert est.spectrum.eigenvalues[0] < 0.01

    def test_sir_components_past_the_slice_count_refused(self):
        """The rank rule holds before partitioning and for the slices realized; SAVE is exempt."""
        s = standardized_set(np.eye(3)[np.arange(40) % 3], np.arange(40) % 2 * 1.0)
        with pytest.raises(SliceRuleError, match="only 2 slices are asked for"):
            estimate(s, 2, "equal-count", "sir", 3)
        with pytest.raises(SliceRuleError, match="only 2 slices are realized"):
            method_partition(s.outputs, 5, "fixed", "sir", 3)
        assert method_partition(s.outputs, 5, "fixed", "sir", 2).n_slices == 2
        assert method_partition(s.outputs, 5, "fixed", "save", 3).n_slices == 2

    def test_symmetric_ridge_defeats_sir_but_not_save(self):
        rng = generator(derive_seed(8, 1))
        m = 6
        b = np.zeros(m)
        b[2] = 1.0
        x = rng.standard_normal((20_000, m))
        s = standardized_set(x, (x @ b) ** 2)
        sir_est = estimate(s, 10, "equal-count", "sir", 1)
        save_est = estimate(s, 10, "equal-count", "save", 1)
        assert sir_est.spectrum.eigenvalues[0] < 0.1
        assert subspace_distance(save_est.subspace.basis, b) < 0.1

    def test_rotation_equivariance(self):
        """C(Qx) = Q C(x) Q' when the responses (hence slices) are shared."""
        rng = generator(derive_seed(8, 2))
        m = 4
        x = rng.standard_normal((300, m))
        y = rng.standard_normal(300)
        Q = orthonormal_basis(rng.standard_normal((m, m)))
        for method, matrix_fn in (("sir", sir_matrix), ("save", save_matrix)):
            p = partition_equal_count(y, 5)
            base = matrix_fn(slice_stats(standardized_set(x, y), p))
            rotated = matrix_fn(slice_stats(standardized_set(x @ Q.T, y), p))
            np.testing.assert_allclose(rotated, Q @ base @ Q.T, atol=1e-10)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(rotated), np.linalg.eigvalsh(base), atol=1e-10
            )

    def test_monotone_output_map_leaves_estimate(self):
        """Strictly increasing response transforms do not move the estimate."""
        rng = generator(derive_seed(8, 3))
        x = rng.standard_normal((500, 3))
        y = x[:, 0] + 0.1 * rng.standard_normal(500)
        for method in ("sir", "save"):
            a = estimate(standardized_set(x, y), 6, "equal-count", method, 2)
            b = estimate(
                standardized_set(x, np.arctan(y) * 3.0 + y**3),
                6,
                "equal-count",
                method,
                2,
            )
            np.testing.assert_allclose(
                a.spectrum.eigenvalues, b.spectrum.eigenvalues, atol=1e-12
            )
            np.testing.assert_allclose(
                a.spectrum.eigenvectors, b.spectrum.eigenvectors, atol=1e-12
            )

    def test_psd_on_random_inputs(self):
        rng = generator(derive_seed(8, 4))
        for _ in range(10):
            n = int(rng.integers(12, 120))
            m = int(rng.integers(1, 6))
            s = standardized_set(
                rng.standard_normal((n, m)), rng.standard_normal(n)
            )
            for method in ("sir", "save"):
                est = estimate(s, 4, "equal-count", method, 1)
                assert est.spectrum.eigenvalues[-1] >= -1e-10

    def test_four_point_end_to_end_eigenvalues(self):
        s = standardized_set(
            [[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 4.0]],
            [0.1, 0.2, 0.9, 1.0],
        )
        est = estimate(s, 2, "equal-count", "sir", 1)
        np.testing.assert_allclose(est.spectrum.eigenvalues, [4.5, 2.0])

    def test_save_refuses_single_sample_slices(self):
        """A one-sample slice has zero covariance; SAVE refuses, SIR accepts."""
        rng = generator(derive_seed(8, 5))
        x = rng.standard_normal((60, 3))
        s = standardized_set(x, x[:, 0] ** 2)
        with pytest.raises(ValueError, match="40 equal-count slices of the sample count 60 "
                                             "leave a slice with one"):
            estimate(s, 40, "equal-count", "save", 1)
        assert estimate(s, 40, "equal-count", "sir", 1).partition.min_count == 1
        assert estimate(s, 30, "equal-count", "save", 1).partition.min_count == 2

    @pytest.mark.parametrize("outputs, scheme", [
        ([0.0, 0.0, 0.0, 0.0, 0.0, 1.0], "equal-count"),  # the tie run moves the cut to 5
        ([0.0, 0.1, 0.2, 0.3, 0.4, 1.0], "fixed"),  # 1.0 alone in the upper half
    ])
    def test_save_refuses_a_slice_of_one_that_partitioning_leaves(self, outputs, scheme):
        """Three samples per slice pass the rules; the partition still leaves one."""
        s = standardized_set(generator(3).standard_normal((6, 2)), outputs)
        with pytest.raises(ValueError, match="smallest slice has 1; use fewer slices"):
            estimate(s, 2, scheme, "save", 1)
        assert estimate(s, 2, scheme, "sir", 1).partition.min_count == 1


MATRICES = {"sir": sir_matrix, "save": save_matrix}

#: Strictly increasing maps.  In floating point a map can still merge
#: nearby responses, so the test discards samples where it does.
MONOTONE_MAPS = {
    "affine": lambda y: 3.0 * y - 7.0,
    "cube": lambda y: y**3,
    "exp": np.exp,
    "arctan": np.arctan,
}


@st.composite
def sliced_samples(draw):
    """Gaussian inputs of random shape, responses with ties and near-ties, and R <= N."""
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 6))
    y = draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((n, m)), np.array(y), draw(st.integers(1, n)), rng


class TestEstimatorProperties:
    """The hand-picked invariants above, over random shapes and responses."""

    @given(case=sliced_samples(), method=st.sampled_from(sorted(MATRICES)),
           scheme=st.sampled_from(SCHEMES))
    def test_matrix_is_psd(self, case, method, scheme):
        x, y, r, _ = case
        stats = slice_stats(standardized_set(x, y), make_partition(y, r, scheme))
        assert np.linalg.eigvalsh(MATRICES[method](stats))[0] >= PSD_TOL

    @given(case=sliced_samples(), method=st.sampled_from(sorted(MATRICES)),
           scheme=st.sampled_from(SCHEMES))
    def test_rotated_inputs_rotate_the_matrix(self, case, method, scheme):
        """Inputs z Q' give Q M Q'."""
        x, y, r, rng = case
        Q = orthonormal_basis(rng.standard_normal((x.shape[1],) * 2))
        p = make_partition(y, r, scheme)
        base = MATRICES[method](slice_stats(standardized_set(x, y), p))
        rotated = MATRICES[method](slice_stats(standardized_set(x @ Q.T, y), p))
        scale = max(1.0, np.max(np.abs(base)))
        np.testing.assert_allclose(rotated, Q @ base @ Q.T, rtol=0, atol=1e-10 * scale)

    @given(case=sliced_samples(), method=st.sampled_from(sorted(MATRICES)),
           name=st.sampled_from(sorted(MONOTONE_MAPS)))
    def test_monotone_response_map_changes_nothing(self, case, method, name):
        """Equal-count slices depend on the responses' order and ties only."""
        x, y, r, _ = case
        g = MONOTONE_MAPS[name]
        assume(np.all(np.diff(g(np.unique(y))) > 0))
        p, q = partition_equal_count(y, r), partition_equal_count(g(y), r)
        np.testing.assert_array_equal(q.labels, p.labels)
        a = MATRICES[method](slice_stats(standardized_set(x, y), p))
        b = MATRICES[method](slice_stats(standardized_set(x, g(y)), q))
        assert a.tobytes() == b.tobytes()


def ridge_response(z, seed):
    """A response with curvature and tilt along three random whitened directions."""
    frame = orthonormal_basis(generator(seed).standard_normal((z.shape[1], 3)))
    t = z @ frame
    return t[:, 0] ** 2 + 0.5 * t[:, 1] ** 2 + t[:, 2]


def spd(rng, m):
    a = rng.standard_normal((m, m))
    return a @ a.T / m + np.eye(m)


#: One measure per kind, plus the wide m=200 Gaussian of the benchmark's wide workload.
PARITY_MEASURES = {
    "standard-gaussian": lambda rng: InputMeasure.standard_gaussian(10),
    "gaussian": lambda rng: InputMeasure.gaussian(rng.standard_normal(5), spd(rng, 5)),
    "uniform-box": lambda rng: InputMeasure.uniform_box([-3.0, 0.0, 1.0, 10.0],
                                                        [-1.0, 4.0, 1.5, 20.0]),
    "wide-gaussian": lambda rng: InputMeasure.gaussian(rng.standard_normal(200), spd(rng, 200)),
}


class TestMomentWhitening:
    """``estimate`` whitens slice moments; the result matches whitening the rows first."""

    @pytest.mark.parametrize("kind", sorted(PARITY_MEASURES))
    def test_estimate_matches_whitened_rows(self, kind):
        rng = generator(derive_seed(30, sorted(PARITY_MEASURES).index(kind)))
        measure = PARITY_MEASURES[kind](rng)
        std = fit_standardizer(measure)
        # Salt 33: no kind's draw leaves a one-sample fixed-width SAVE slice.
        x = draw(measure, 4000, seed=derive_seed(33, measure.dimension))
        z = std.whiten(x)
        y = ridge_response(z, derive_seed(32, measure.dimension))
        lazy = standardize(SampleSet(inputs=x, outputs=y), std)
        eager = standardized_set(z, y)
        for method in MATRICES:
            for scheme in SCHEMES:
                a = estimate(lazy, 6, scheme, method, 3).spectrum
                b = estimate(eager, 6, scheme, method, 3).spectrum
                if std.is_identity:
                    assert a.matrix.tobytes() == b.matrix.tobytes()
                    assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()
                scale = max(1.0, np.max(np.abs(b.matrix)))
                np.testing.assert_allclose(a.matrix, b.matrix, rtol=0, atol=1e-12 * scale)

    @given(case=sliced_samples(), method=st.sampled_from(sorted(MATRICES)),
           scheme=st.sampled_from(SCHEMES), offset=st.floats(-10, 10))
    def test_any_affine_measure(self, case, method, scheme, offset):
        """Random means and SPD covariances: whitened moments match whitened rows."""
        z0, y, r, rng = case
        m = z0.shape[1]
        measure = InputMeasure.gaussian(offset + rng.standard_normal(m), spd(rng, m))
        std = fit_standardizer(measure)
        x = measure.mean + z0 @ std.inverse.T
        p = make_partition(y, r, scheme)
        lazy = MATRICES[method](slice_stats(standardize(SampleSet(inputs=x, outputs=y), std), p))
        eager = MATRICES[method](slice_stats(standardized_set(std.whiten(x), y), p))
        scale = max(1.0, np.max(np.abs(eager)))
        np.testing.assert_allclose(lazy, eager, rtol=0, atol=1e-12 * scale)

    def test_estimate_never_whitens_the_rows(self, monkeypatch):
        measure = PARITY_MEASURES["gaussian"](generator(33))
        x = draw(measure, 500, seed=34)
        ranks = np.argsort(np.argsort(x[:, 0])).astype(float)  # even fixed-width slices
        s = standardize(SampleSet(inputs=x, outputs=ranks), fit_standardizer(measure))

        def refuse(self, rows):
            raise AssertionError("the estimate path whitened the rows")

        monkeypatch.setattr(Standardizer, "whiten", refuse)
        for method in MATRICES:
            for scheme in SCHEMES:
                estimate(s, 4, scheme, method, 2)

    def test_concurrent_estimates_on_one_shared_set_agree(self):
        """The sharing ``run_convergence`` relies on: threads, one set, a non-identity map."""
        measure = PARITY_MEASURES["gaussian"](generator(35))
        std = fit_standardizer(measure)
        assert not std.is_identity
        x = draw(measure, 3000, seed=36)
        s = standardize(SampleSet(inputs=x, outputs=ridge_response(std.whiten(x), 37)),
                        std)
        jobs = [(method, scheme) for method in MATRICES for scheme in SCHEMES] * 4

        def spectrum_bytes(job):
            spec = estimate(s, 8, job[1], job[0], 3).spectrum
            return spec.matrix.tobytes() + spec.eigenvectors.tobytes()

        serial = [spectrum_bytes(job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-estimate
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(spectrum_bytes, jobs, timeout=60)) == serial
        finally:
            sys.setswitchinterval(interval)
