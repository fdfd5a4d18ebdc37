"""Input measures, sampling determinism, and whitening behavior."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ridgerec import measures as measures_module
from ridgerec.core import SampleSet
from ridgerec.estimators import estimate
from ridgerec.measures import (
    WHITENING_DEFECT_LIMIT,
    InputMeasure,
    Standardizer,
    derive_seed,
    draw,
    fit_standardizer,
    generator,
    pushforward_direction,
    standardize,
    whitening_defect,
)
from ridgerec.spectral import subspace_distance
from ridgerec.testfns import generate_samples, get_test_function, hartmann_true_subspace


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


@st.composite
def measures(draw_from, dense=False):
    """A measure of any kind, or a Gaussian with a dense covariance, of dimension 1 to 6."""
    m = draw_from(st.integers(1, 6))
    rng = np.random.default_rng(draw_from(st.integers(0, 2**32 - 1)))
    kind = "dense" if dense else draw_from(
        st.sampled_from(["standard-gaussian", "gaussian", "uniform-box"]))
    if kind == "standard-gaussian":
        return InputMeasure.standard_gaussian(m)
    if kind == "uniform-box":
        lower = rng.standard_normal(m)
        return InputMeasure.uniform_box(lower, lower + rng.uniform(0.1, 3.0, m))
    a = rng.standard_normal((m, m)) if kind == "dense" else np.diag(rng.uniform(0.1, 2.0, m))
    return InputMeasure.gaussian(rng.standard_normal(m), a @ a.T + 0.1 * np.eye(m))


#: Block sizes small enough that a draw of a few hundred rows crosses several blocks.
small_blocks = st.integers(1, 64)


class TestBlockStreams:
    """Block k of a seed's sample is drawn from SFC64(SeedSequence(seed, spawn_key=(k,)))."""

    @given(measures(), st.integers(1, 300), st.integers(1, 300), small_blocks,
           st.integers(0, 2**64 - 1))
    def test_a_draw_is_a_prefix_of_a_larger_one(self, measure, n, more, block_rows, seed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measures_module, "CHUNK_ROWS", block_rows)
            small, large = draw(measure, n, seed), draw(measure, n + more, seed)
        assert small.tobytes() == large[:n].tobytes()

    @given(measures(dense=True), st.integers(1, 300), st.integers(1, 300), small_blocks,
           st.integers(0, 2**64 - 1))
    def test_dense_covariance_prefix_agrees_to_a_few_ulps(self, measure, n, more, block_rows,
                                                          seed):
        """The Cholesky product's rounding may depend on a row's place in its block, so a
        block cut short agrees to a few ulps and every whole block bit for bit."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measures_module, "CHUNK_ROWS", block_rows)
            small, large = draw(measure, n, seed), draw(measure, n + more, seed)
        whole_blocks = n - n % block_rows
        assert small[:whole_blocks].tobytes() == large[:whole_blocks].tobytes()
        np.testing.assert_allclose(small, large[:n], rtol=1e-14,
                                   atol=1e-14 * np.max(np.abs(large[:n])))

    @given(measures(), st.integers(1, 5), st.integers(1, 200), small_blocks,
           st.integers(0, 2**64 - 1))
    def test_a_draw_from_a_block_boundary_is_the_rest_of_the_sample(self, measure, k, n,
                                                                     block_rows, seed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measures_module, "CHUNK_ROWS", block_rows)
            rest = draw(measure, n, seed, first_row=k * block_rows)
            whole = draw(measure, k * block_rows + n, seed)
        assert rest.tobytes() == whole[k * block_rows:].tobytes()

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_each_block_is_its_own_spawned_sfc64_stream(self, monkeypatch, seed):
        """Block k is drawn from child k of the seed's ``SeedSequence``."""
        monkeypatch.setattr(measures_module, "CHUNK_ROWS", 50)
        x = draw(InputMeasure.standard_gaussian(3), 120, seed)
        children = np.random.SeedSequence(seed).spawn(3)
        for k, rows in [(0, 50), (1, 50), (2, 20)]:
            stream = np.random.Generator(
                np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(k,))))
            block = stream.standard_normal((rows, 3))
            assert x[50 * k:50 * k + rows].tobytes() == block.tobytes()
            spawned = np.random.Generator(np.random.SFC64(children[k]))
            assert block.tobytes() == spawned.standard_normal((rows, 3)).tobytes()

    @pytest.mark.parametrize("first_row", [-50, 1, 49, 51])
    def test_a_draw_off_a_block_boundary_refused(self, monkeypatch, first_row):
        monkeypatch.setattr(measures_module, "CHUNK_ROWS", 50)
        with pytest.raises(ValueError, match="not a multiple of CHUNK_ROWS"):
            draw(InputMeasure.standard_gaussian(2), 10, 1, first_row=first_row)


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
            z = s.standardizer.whiten(s.inputs)
            cov = np.cov(z, rowvar=False)
            errs[n] = max(
                float(np.max(np.abs(z.mean(axis=0)))),
                float(np.max(np.abs(cov - np.eye(3)))),
            )
        assert errs[100_000] < errs[1_000]
        assert errs[100_000] < 0.05


class TestStandardize:
    def test_hand_scalar_case(self):
        std = fit_standardizer(InputMeasure.gaussian([2.0], [[4.0]]))
        s = SampleSet(inputs=[[4.0]], outputs=[7.0])
        z = standardize(s, std)
        assert std.whiten(z.inputs)[0, 0] == pytest.approx(1.0)
        assert z.outputs[0] == 7.0
        assert z.standardized

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((4, 4))
        measure = InputMeasure.gaussian(rng.standard_normal(4), A @ A.T + np.eye(4))
        std = fit_standardizer(measure)
        x = draw(measure, 50, seed=3)
        s = SampleSet(inputs=x, outputs=np.arange(50.0))
        z = standardize(s, std)
        np.testing.assert_allclose(std.whiten(z.inputs) @ std.inverse.T + std.mean, x, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        std = fit_standardizer(InputMeasure.standard_gaussian(3))
        s = SampleSet(inputs=np.ones((2, 4)), outputs=[0.0, 0.0])
        with pytest.raises(ValueError):
            standardize(s, std)

    def test_shares_the_rows(self):
        """Standardizing copies nothing: the result reads its parent's frozen arrays."""
        std = fit_standardizer(InputMeasure.gaussian([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]]))
        s = SampleSet(inputs=np.arange(8.0).reshape(4, 2), outputs=np.arange(4.0))
        z = standardize(s, std)
        assert np.shares_memory(z.inputs, s.inputs)
        assert np.shares_memory(z.outputs, s.outputs)
        assert z.standardizer is std

    @pytest.mark.parametrize("measure", [
        InputMeasure.gaussian([1.0, -2.0, 0.5], [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2],
                                                 [0.0, 0.2, 3.0]]),
        InputMeasure.uniform_box([0.0, -5.0, 2.0], [1.0, 5.0, 2.5]),
    ], ids=["gaussian", "uniform-box"])
    def test_whiten_gives_the_whitened_rows_bit_for_bit(self, measure):
        """``whiten`` is ``(x - mean) @ W.T``, read-only, and the rows themselves under
        both identity maps; a standardized set's ``inputs`` are the frozen copy of ``x``."""
        std = fit_standardizer(measure)
        x = draw(measure, 300, seed=5)
        z = standardize(SampleSet(inputs=x, outputs=np.zeros(300)), std)
        assert z.inputs.tobytes() == x.tobytes()
        assert not z.inputs.flags.writeable and not np.shares_memory(z.inputs, x)
        whitened = std.whiten(z.inputs)
        assert whitened.tobytes() == ((x - std.mean) @ std.whitening.T).tobytes()
        assert not whitened.flags.writeable
        for identity in (Standardizer.identity(3),
                         fit_standardizer(InputMeasure.standard_gaussian(3))):
            assert identity.whiten(z.inputs) is z.inputs

    def test_identity_inputs_are_the_rows(self):
        raw = SampleSet(inputs=np.ones((3, 2)), outputs=np.zeros(3))
        assert raw.standardizer is None
        for std in (Standardizer.identity(2), fit_standardizer(InputMeasure.standard_gaussian(2))):
            z = standardize(raw, std)
            assert z.standardizer.is_identity
            assert z.inputs is raw.inputs and std.whiten(z.inputs) is raw.inputs

    @pytest.mark.parametrize("standardizer", [
        Standardizer.identity(5),
        fit_standardizer(get_test_function("hartmann").measure),
    ], ids=["identity", "hartmann"])
    def test_refuses_a_standardized_set(self, standardizer):
        """A set is whitened once.  Whitening the standardized hartmann draw
        again gave a SIR subspace at distance 0.98 from the truth, where the
        one whitening gives 0.075.  Over seeds 0-59 one whitening gave a mean
        distance of 0.080, above 0.1 at 17 seeds, so the seed is pinned."""
        fn = get_test_function("hartmann")
        s = generate_samples(fn, 20_000, 5)
        truth = hartmann_true_subspace(fit_standardizer(fn.measure))
        assert subspace_distance(truth, estimate(s, 20, "equal-count", "sir", 2).subspace) < 0.1
        with pytest.raises(ValueError, match="standardized already"):
            standardize(s, standardizer)


class TestWhiteningDefect:
    def test_whitened_hand_rows_have_none(self):
        assert whitening_defect(np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0],
                                          [-1.0, -1.0]])) == (0.0, "mean of x1")

    def test_names_the_shifted_column(self):
        rows = generator(61).standard_normal((400, 3)) + [0.0, 0.0, 1.0]
        defect, where = whitening_defect(rows)
        assert where == "mean of x3" and defect > 15

    def test_names_the_correlated_entry(self):
        z = generator(62).standard_normal((400, 2))
        defect, where = whitening_defect(np.column_stack([z[:, 0], z[:, 1], z[:, 1]]))
        assert where == "entry (x2, x3) of X'X/N" and defect > 8

    @pytest.mark.parametrize("name", ["quad1", "hartmann"])
    def test_standardized_draws_are_never_refused(self, name):
        """A fast sweep, N = 10 to 10^6, stays under half the limit; quad3
        draws the inputs quad1 does."""
        fn = get_test_function(name)
        worst = 0.0
        for n, seeds in [(10, 40), (100, 40), (1000, 20), (10_000, 10), (100_000, 2),
                         (1_000_000, 1)]:
            for k in range(seeds):
                s = generate_samples(fn, n, derive_seed(63, n, k))
                worst = max(worst, whitening_defect(s.standardizer.whiten(s.inputs))[0])
        assert worst < WHITENING_DEFECT_LIMIT / 2


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
