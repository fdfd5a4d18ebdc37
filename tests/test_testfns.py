"""Built-in models: hand values, ridge structure, analytic subspaces."""

import tracemalloc

import numpy as np
import pytest

import ridgerec.testfns
from ridgerec.estimators import estimate
from ridgerec.measures import draw, fit_standardizer
from ridgerec.testfns import (
    TEST_FUNCTION_NAMES,
    canonical_quad1_direction,
    canonical_quad3_coefficients,
    generate_samples,
    get_test_function,
    hartmann_b_ind,
    hartmann_true_subspace,
    quad1,
    quad3,
)


def finite_difference_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar batch evaluator at x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e)[0] - f(x - e)[0]) / (2.0 * h)
    return g


class TestQuad1:
    def test_axis_case(self):
        b = np.zeros(10)
        b[0] = 1.0
        x = np.zeros(10)
        x[0] = 2.0
        assert quad1(b, x)[0] == 4.0

    def test_orthogonal_input_vanishes(self):
        b = np.zeros(10)
        b[0] = 1.0
        x = np.zeros(10)
        x[3] = 5.0
        assert quad1(b, x)[0] == 0.0

    def test_diagonal_case(self):
        b = np.zeros(10)
        b[:2] = 1.0 / np.sqrt(2.0)
        x = np.zeros(10)
        x[:2] = 1.0
        assert quad1(b, x)[0] == pytest.approx(2.0)

    def test_batch_shape(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(10)
        out = quad1(b, rng.standard_normal((30, 10)))
        assert out.shape == (30,)
        assert np.all(out >= 0)


class TestQuad3:
    @staticmethod
    def _axes():
        B = np.zeros((10, 2))
        B[0, 0] = 1.0
        B[1, 1] = 1.0
        b = np.zeros(10)
        b[2] = 1.0
        return B, b

    def test_linear_direction_only(self):
        B, b = self._axes()
        x = np.zeros(10)
        x[2] = 1.0
        assert quad3(B, b, x)[0] == 1.0

    def test_zero_input(self):
        B, b = self._axes()
        assert quad3(B, b, np.zeros(10))[0] == 0.0

    def test_mixed_input(self):
        B, b = self._axes()
        x = np.zeros(10)
        x[:3] = 1.0
        assert quad3(B, b, x)[0] == pytest.approx(3.0)

    def test_rejects_linear_term_inside_span(self):
        B, _ = self._axes()
        bad = B[:, 0] + 2.0 * B[:, 1]
        with pytest.raises(ValueError, match="outside"):
            quad3(B, bad, np.zeros(10))


class TestHartmannField:
    def test_unit_inputs_hand_value(self):
        x = np.array([1.0, 7.3, 1.0, 1.0, 1.0])
        expected = 0.5 * (1.0 - 2.0 * np.tanh(0.5))
        assert hartmann_b_ind(x)[0] == pytest.approx(expected, abs=1e-12)
        assert hartmann_b_ind(x)[0] == pytest.approx(0.0378828, abs=5e-7)

    def test_zero_pressure_gradient(self):
        assert hartmann_b_ind(np.array([1.0, 1.0, 0.0, 1.0, 1.0]))[0] == 0.0

    def test_large_field_asymptote(self):
        """For a strong applied field, tanh saturates and the formula
        collapses to its algebraic limit."""
        x = np.array([1.0, 1.0, 1.0, 1.0, 100.0])
        limit = 1.0 / (2.0 * 100.0) * (1.0 - 2.0 / 100.0)
        assert hartmann_b_ind(x)[0] == pytest.approx(limit, abs=1e-10)

    def test_density_is_inert(self):
        rng = np.random.default_rng(12)
        base = np.abs(rng.standard_normal(5)) + 0.1
        varied = base.copy()
        varied[1] *= 100.0
        assert hartmann_b_ind(base)[0] == hartmann_b_ind(varied)[0]

    def test_positivity_requirements(self):
        for j in (0, 3, 4):
            x = np.ones(5)
            x[j] = -1.0
            with pytest.raises(ValueError, match="positive"):
                hartmann_b_ind(x)


class TestHartmannSubspace:
    def test_density_direction_excluded(self):
        sub = hartmann_true_subspace()
        e2 = np.zeros(5)
        e2[1] = 1.0
        np.testing.assert_allclose(sub.projector @ e2, np.zeros(5), atol=1e-14)

    def test_generators_inside(self):
        """Both generating combinations project onto themselves."""
        sub = hartmann_true_subspace()
        P = sub.projector
        for gen in (
            np.array([0.0, 0.0, 1.0, 0.0, -1.0]),
            np.array([0.5, 0.0, 0.0, 0.5, -1.0]),
        ):
            np.testing.assert_allclose(P @ gen, gen, atol=1e-12)

    def test_log_gradient_lies_inside(self):
        """Numerical gradients of B_ind over log inputs stay in the plane."""
        fn = get_test_function("hartmann")
        P = fn.true_subspace.projector
        rng = np.random.default_rng(77)
        for _ in range(20):
            z = rng.standard_normal(5) * 0.3
            g = finite_difference_gradient(fn.evaluator, z, h=1e-6)
            residual = g - P @ g
            assert np.linalg.norm(residual) <= 1e-6 * np.linalg.norm(g)

    def test_standardized_frame_differs_but_is_orthonormal(self):
        fn = get_test_function("hartmann")
        std = fit_standardizer(fn.measure)
        sub = hartmann_true_subspace(standardizer=std)
        np.testing.assert_allclose(
            sub.basis.T @ sub.basis, np.eye(2), atol=1e-12
        )
        # whitening shears the frame, so the raw-log basis no longer spans it
        assert not np.allclose(sub.projector, fn.true_subspace.projector)


class TestRegistry:
    def test_names(self):
        assert TEST_FUNCTION_NAMES == ("quad1", "quad3", "hartmann")
        for name in TEST_FUNCTION_NAMES:
            assert get_test_function(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown test function"):
            get_test_function("cubic")

    def test_canonical_constructions_are_stable(self):
        np.testing.assert_array_equal(
            canonical_quad1_direction(), canonical_quad1_direction()
        )
        B1, b1 = canonical_quad3_coefficients()
        B2, b2 = canonical_quad3_coefficients()
        np.testing.assert_array_equal(B1, B2)
        np.testing.assert_array_equal(b1, b2)
        assert np.linalg.norm(canonical_quad1_direction()) == pytest.approx(1.0)

    def test_true_subspace_dimensions(self):
        assert get_test_function("quad1").true_subspace.dimension == 1
        assert get_test_function("quad3").true_subspace.dimension == 3
        assert get_test_function("hartmann").true_subspace.dimension == 2

    def test_hartmann_measure_is_log_space_gaussian(self):
        measure = get_test_function("hartmann").measure
        np.testing.assert_allclose(measure.mean, [-2.25, 1.0, 0.3, 0.3, -0.75])
        np.testing.assert_allclose(
            np.diag(measure.cov), [0.15, 0.25, 0.25, 0.25, 0.25]
        )


class TestRidgeProperty:
    """Moving within the orthogonal complement must not change the value."""

    @pytest.mark.parametrize("name", TEST_FUNCTION_NAMES)
    def test_complement_moves_are_invisible(self, name):
        fn = get_test_function(name)
        A = fn.true_subspace.basis
        P_perp = np.eye(fn.dimension) - A @ A.T
        rng = np.random.default_rng(99)
        for _ in range(100):
            x = rng.standard_normal(fn.dimension) * 0.5
            shifted = x + P_perp @ rng.standard_normal(fn.dimension)
            fx = fn.evaluator(x)[0]
            fs = fn.evaluator(shifted)[0]
            assert fs == pytest.approx(fx, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("name", TEST_FUNCTION_NAMES)
    def test_gradients_stay_in_subspace(self, name):
        fn = get_test_function(name)
        P = fn.true_subspace.projector
        rng = np.random.default_rng(98)
        for _ in range(10):
            x = rng.standard_normal(fn.dimension) * 0.4
            g = finite_difference_gradient(fn.evaluator, x, h=1e-6)
            if np.linalg.norm(g) < 1e-12:
                continue
            assert np.linalg.norm(g - P @ g) <= 1e-5 * np.linalg.norm(g)


class TestGenerateSamples:
    def test_deterministic(self):
        fn = get_test_function("quad1")
        a = generate_samples(fn, 20, seed=6)
        b = generate_samples(fn, 20, seed=6)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.outputs, b.outputs)
        assert a.standardized

    def test_response_evaluated_on_raw_coordinates(self):
        """Whitening the stored inputs must not re-evaluate the response."""
        fn = get_test_function("hartmann")
        s = generate_samples(fn, 50, seed=6)
        np.testing.assert_array_equal(s.outputs, fn.evaluator(s.inputs))
        assert not np.allclose(s.inputs, s.standardizer.whiten(s.inputs))

    def test_quad1_draws_already_white(self):
        s = generate_samples(get_test_function("quad1"), 30, seed=2)
        np.testing.assert_allclose(s.inputs, s.standardizer.whiten(s.inputs), atol=1e-14)

    @pytest.mark.parametrize("whitened", [False, True])
    def test_rows_are_the_draw_made_read_only(self, monkeypatch, whitened):
        """The stored ``inputs`` are the frozen draw, also after they are whitened."""
        draws = []

        def recording_draw(*args, **kwargs):
            draws.append(draw(*args, **kwargs))
            return draws[-1]

        monkeypatch.setattr(ridgerec.testfns, "draw", recording_draw)
        fn = get_test_function("hartmann")
        s = generate_samples(fn, 40, seed=3)
        if whitened:
            z = s.standardizer.whiten(s.inputs)
            assert not z.flags.writeable
            assert not np.allclose(z, draws[0])
        assert len(draws) == 1 and np.shares_memory(s.inputs, draws[0])
        np.testing.assert_array_equal(s.inputs, draws[0])
        std = fit_standardizer(fn.measure)
        np.testing.assert_array_equal(s.standardizer.mean, std.mean)
        np.testing.assert_array_equal(s.standardizer.whitening, std.whitening)
        assert not s.inputs.flags.writeable and not s.outputs.flags.writeable

    def test_evaluator_output_is_copied(self):
        fn = get_test_function("quad1")
        returned = []

        def evaluator(x):
            returned.append(fn.evaluator(x))
            return returned[-1]

        kept = ridgerec.testfns.TestFunction("kept", evaluator, fn.measure, fn.true_subspace)
        s = generate_samples(kept, 10, seed=1)
        before = s.outputs.copy()
        returned[0][:] = -1.0
        np.testing.assert_array_equal(s.outputs, before)

    @pytest.mark.parametrize("n, extra", [(1, 1), (40, -39), (40, 1)])
    def test_evaluator_output_of_the_wrong_size_refused(self, n, extra):
        """One value would otherwise broadcast into a constant response."""
        fn = get_test_function("quad1")
        wrong = ridgerec.testfns.TestFunction(
            "wrong", lambda x: np.zeros(len(x) + extra), fn.measure, fn.true_subspace)
        with pytest.raises(ValueError, match=f"returned {n + extra} values for {n} input rows"):
            generate_samples(wrong, n, seed=1)

    def test_memory_peaks_near_the_rows(self, cpus):
        """numpy reports its buffers to tracemalloc; the rows are N m 8 bytes."""
        cpus(2)
        fn, n = get_test_function("quad3"), 200_000
        rows_bytes = n * fn.dimension * 8
        tracemalloc.start()
        try:
            s = generate_samples(fn, n, seed=1)
            _, generated = tracemalloc.get_traced_memory()
            estimate(s, 20, "equal-count", "save", 3)
            _, op = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert generated < 1.2 * rows_bytes
        assert op < 1.4 * rows_bytes
