"""Input measures, sampling determinism, and whitening behavior."""

import numpy as np
import pytest

from ridgerec.core import SampleSet
from ridgerec.measures import (
    InputMeasure,
    Standardizer,
    derive_seed,
    draw,
    fit_standardizer,
    generator,
    pushforward_direction,
    standardize,
    unstandardize,
)


class TestDraw:
    def test_standard_gaussian_moments(self):
        """Sample moments of 1e5 standard-normal draws are near (0, I)."""
        measure = InputMeasure.standard_gaussian(10)
        x = draw(measure, 100_000, seed=12)
        assert x.shape == (100_000, 10)
        assert np.max(np.abs(x.mean(axis=0))) < 0.02
        cov = np.cov(x, rowvar=False)
        assert np.max(np.abs(cov - np.eye(10))) < 0.05

    def test_uniform_determinism(self):
        measure = InputMeasure.uniform_box([0.0], [1.0])
        a = draw(measure, 4, seed=9)
        b = draw(measure, 4, seed=9)
        np.testing.assert_array_equal(a, b)
        assert np.all((a >= 0.0) & (a <= 1.0))

    def test_diagonal_gaussian_variances(self):
        """Per-component variances track the diagonal covariance to 5%."""
        variances = np.array([0.15, 0.25, 0.25, 0.25, 0.25])
        measure = InputMeasure.gaussian(
            [-2.25, 1.0, 0.3, 0.3, -0.75], np.diag(variances)
        )
        x = draw(measure, 100_000, seed=4)
        sample_var = x.var(axis=0, ddof=1)
        np.testing.assert_allclose(sample_var, variances, rtol=0.05)

    def test_distinct_seeds_distinct_streams(self):
        measure = InputMeasure.standard_gaussian(3)
        a = draw(measure, 10, seed=derive_seed(5, 0))
        b = draw(measure, 10, seed=derive_seed(5, 1))
        assert not np.allclose(a, b)

    def test_rejects_non_spd_covariance(self):
        with pytest.raises(ValueError):
            InputMeasure.gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_inverted_box(self):
        with pytest.raises(ValueError):
            InputMeasure.uniform_box([1.0], [0.0])


class TestStandardizer:
    def test_standard_gaussian_identity(self):
        std = fit_standardizer(InputMeasure.standard_gaussian(4))
        np.testing.assert_array_equal(std.mean, np.zeros(4))
        np.testing.assert_array_equal(std.whitening, np.eye(4))

    def test_scalar_gaussian(self):
        std = fit_standardizer(InputMeasure.gaussian([2.0], [[4.0]]))
        assert std.mean[0] == 2.0
        assert std.whitening[0, 0] == pytest.approx(0.5)

    def test_unit_box(self):
        std = fit_standardizer(InputMeasure.uniform_box([0.0], [1.0]))
        assert std.mean[0] == pytest.approx(0.5)
        assert std.whitening[0, 0] == pytest.approx(np.sqrt(12.0))

    def test_whitening_inverts(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((5, 5))
        measure = InputMeasure.gaussian(rng.standard_normal(5), A @ A.T + 5 * np.eye(5))
        std = fit_standardizer(measure)
        np.testing.assert_allclose(
            std.whitening @ std.inverse, np.eye(5), atol=1e-10
        )

    def test_exact_moments_whitened(self):
        """Whitening the measure's own mean/cov gives (0, I)."""
        rng = np.random.default_rng(15)
        A = rng.standard_normal((4, 4))
        cov = A @ A.T + 3 * np.eye(4)
        mean = rng.standard_normal(4)
        std = fit_standardizer(InputMeasure.gaussian(mean, cov))
        W = std.whitening
        np.testing.assert_allclose(W @ (mean - std.mean), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(W @ cov @ W.T, np.eye(4), atol=1e-10)

    def test_standardized_draws_approach_identity(self):
        """Sample moments tighten like 1/sqrt(N) after standardizing."""
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        measure = InputMeasure.gaussian([1.0, -2.0, 0.5], A @ A.T + 2 * np.eye(3))
        std = fit_standardizer(measure)
        errs = {}
        for n in (1_000, 100_000):
            x = draw(measure, n, seed=33)
            s = standardize(SampleSet(inputs=x, outputs=np.zeros(n)), std)
            cov = np.cov(s.inputs, rowvar=False)
            errs[n] = max(
                float(np.max(np.abs(s.inputs.mean(axis=0)))),
                float(np.max(np.abs(cov - np.eye(3)))),
            )
        assert errs[100_000] < errs[1_000]
        assert errs[100_000] < 0.05


class TestStandardize:
    def test_hand_scalar_case(self):
        std = fit_standardizer(InputMeasure.gaussian([2.0], [[4.0]]))
        s = SampleSet(inputs=[[4.0]], outputs=[7.0])
        z = standardize(s, std)
        assert z.inputs[0, 0] == pytest.approx(1.0)
        assert z.outputs[0] == 7.0
        assert z.standardized

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((4, 4))
        measure = InputMeasure.gaussian(rng.standard_normal(4), A @ A.T + np.eye(4))
        std = fit_standardizer(measure)
        x = draw(measure, 50, seed=3)
        s = SampleSet(inputs=x, outputs=np.arange(50.0))
        back = unstandardize(standardize(s, std), std)
        np.testing.assert_allclose(back.inputs, x, atol=1e-12)
        assert not back.standardized

    def test_dimension_mismatch_rejected(self):
        std = fit_standardizer(InputMeasure.standard_gaussian(3))
        s = SampleSet(inputs=np.ones((2, 4)), outputs=[0.0, 0.0])
        with pytest.raises(ValueError):
            standardize(s, std)


class TestPushforwardDirection:
    def test_identity_preserves(self):
        std = fit_standardizer(InputMeasure.standard_gaussian(3))
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(pushforward_direction(std, e1), e1)

    def test_diagonal_axis_preserved(self):
        std = Standardizer(
            mean=np.zeros(2),
            whitening=np.diag([0.5, 1.0]),
            inverse=np.diag([2.0, 1.0]),
        )
        out = pushforward_direction(std, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-14)

    def test_shear_case(self):
        """2x2 shear whitening pulls (0,1) back to (-1,1)/sqrt 2."""
        W = np.array([[1.0, 0.0], [-1.0, 1.0]])
        std = Standardizer(mean=np.zeros(2), whitening=W, inverse=np.linalg.inv(W))
        out = pushforward_direction(std, np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, np.array([-1.0, 1.0]) / np.sqrt(2.0))

    def test_result_is_unit(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((5, 5))
        std = fit_standardizer(
            InputMeasure.gaussian(np.zeros(5), A @ A.T + np.eye(5))
        )
        for _ in range(10):
            w = rng.standard_normal(5)
            w /= np.linalg.norm(w)
            assert np.linalg.norm(pushforward_direction(std, w)) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        std = fit_standardizer(InputMeasure.standard_gaussian(2))
        with pytest.raises(ValueError):
            pushforward_direction(std, np.zeros(2))


class TestSeeds:
    def test_derive_seed_is_pure(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)

    def test_derive_seed_spreads(self):
        """Nearby (master, part) pairs land far apart in seed space."""
        seen = {derive_seed(m, t) for m in range(20) for t in range(20)}
        assert len(seen) == 400

    def test_argument_order_matters(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_generator_reproducible(self):
        a = generator(44).standard_normal(5)
        b = generator(44).standard_normal(5)
        np.testing.assert_array_equal(a, b)
