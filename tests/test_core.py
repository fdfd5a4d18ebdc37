"""Core container types: validation, spectrum and subspace invariants."""

import dataclasses

import numpy as np
import pytest

from ridgerec import core
from ridgerec.core import (
    SampleSet,
    SdrEstimate,
    Subspace,
    SymmetricSpectrum,
    validate_sample_set,
    write_atomic,
)
from ridgerec.estimators import estimate
from ridgerec.experiments import bootstrap_eigenvalues, summary_plot_data
from ridgerec.measures import fit_standardizer
from ridgerec.slicing import slice_stats
from ridgerec.spectral import decompose, gap_profile
from ridgerec.testfns import generate_samples, get_test_function

from oracles import standardized_set


class TestSampleSet:
    def test_minimal_set_is_valid(self):
        s = SampleSet(inputs=[[1.0], [-1.0]], outputs=[1.0, 1.0])
        assert validate_sample_set(s) == []
        assert s.n_samples == 2
        assert s.dimension == 1

    def test_length_mismatch(self):
        s = SampleSet(inputs=np.ones((3, 2)), outputs=[1.0, 2.0])
        assert validate_sample_set(s) == ["length mismatch"]

    def test_nan_input_named_by_row(self):
        s = SampleSet(inputs=[[np.nan, 1.0], [0.0, 0.0]], outputs=[1.0, 2.0])
        assert validate_sample_set(s) == ["non-finite entry at row 0"]

    def test_inf_output_named_by_row(self):
        s = SampleSet(inputs=[[0.0], [0.0]], outputs=[1.0, np.inf])
        assert validate_sample_set(s) == ["non-finite output at row 1"]

    def test_many_bad_rows_give_one_entry_with_the_count(self):
        s = SampleSet(inputs=np.full((10**6, 2), np.nan), outputs=np.zeros(10**6))
        assert validate_sample_set(s) == ["non-finite entry at 1000000 rows: 0, 1, 2, 3, 4, ..."]

    def test_two_bad_outputs_listed(self):
        s = SampleSet(inputs=np.zeros((4, 1)), outputs=[np.nan, 1.0, 2.0, np.inf])
        assert validate_sample_set(s) == ["non-finite output at 2 rows: 0, 3"]

    def test_empty_set_flagged(self):
        s = SampleSet(inputs=np.empty((0, 3)), outputs=[])
        assert "empty sample set" in validate_sample_set(s)

    def test_validation_never_raises(self):
        """Broken sets produce violation lists, not exceptions."""
        bad = [
            SampleSet(inputs=np.full((2, 2), np.nan), outputs=[np.inf, np.nan]),
            SampleSet(inputs=np.ones((5, 1)), outputs=np.arange(3)),
        ]
        for s in bad:
            assert len(validate_sample_set(s)) >= 1

    def test_arrays_are_frozen(self):
        s = SampleSet(inputs=[[1.0, 2.0]], outputs=[3.0])
        with pytest.raises(ValueError):
            s.inputs[0, 0] = 9.0
        with pytest.raises(ValueError):
            s.outputs[0] = 9.0

    def test_construction_copies_input(self):
        raw, out = np.array([[1.0, 2.0]]), np.array([3.0])
        s = SampleSet(inputs=raw, outputs=out)
        raw[0, 0], out[0] = 99.0, 99.0
        assert s.inputs[0, 0] == 1.0 and s.outputs[0] == 3.0

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_rows_copied_in_blocks_on_the_pool_are_the_rows(self, monkeypatch, cpus, layout,
                                                            count):
        """A large copy in row blocks keeps the bytes and the layout of a one-piece copy."""
        monkeypatch.setattr(core, "ROW_COPY_MIN_VALUES", 40)
        cpus(count)
        x = np.random.default_rng(3).standard_normal((1001, 9))
        x = {"C": x, "F": np.asfortranarray(x), "strided": x[:, :7]}[layout]
        s = SampleSet(inputs=x, outputs=np.zeros(len(x)))
        one_piece = core._freeze(x)
        assert s.inputs.tobytes("A") == one_piece.tobytes("A")
        assert s.inputs.strides == one_piece.strides
        assert not s.inputs.flags.writeable and s.inputs.flags.owndata


class TestSymmetricSpectrum:
    def test_rejects_ascending_eigenvalues(self):
        with pytest.raises(ValueError):
            SymmetricSpectrum(
                matrix=np.eye(2),
                eigenvalues=np.array([1.0, 2.0]),
                eigenvectors=np.eye(2),
            )

    def test_rejects_non_orthonormal_vectors(self):
        with pytest.raises(ValueError):
            SymmetricSpectrum(
                matrix=np.eye(2),
                eigenvalues=np.array([1.0, 1.0]),
                eigenvectors=np.array([[1.0, 1.0], [0.0, 0.0]]),
            )

    def test_rejects_bad_reconstruction(self):
        with pytest.raises(ValueError):
            SymmetricSpectrum(
                matrix=np.diag([5.0, 1.0]),
                eigenvalues=np.array([2.0, 1.0]),
                eigenvectors=np.eye(2),
            )

    def test_deterministic_construction(self):
        """Identical matrices give bit-identical eigenvalue vectors."""
        rng = np.random.default_rng(42)
        A = rng.standard_normal((6, 6))
        M = A + A.T
        first = decompose(M)
        second = decompose(M.copy())
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()


class TestSubspace:
    def test_projector_idempotent(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, m + 1))
            q, _ = np.linalg.qr(rng.standard_normal((m, n)))
            sub = Subspace(basis=q)
            P = sub.projector
            np.testing.assert_allclose(P @ P, P, atol=1e-10)
            np.testing.assert_allclose(P, P.T, atol=1e-12)
            assert sub.ambient_dimension == m
            assert sub.dimension == n

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            Subspace(basis=np.array([[1.0], [1.0]]))

    def test_vector_is_one_column(self):
        line = Subspace(np.array([0.6, 0.8]))
        np.testing.assert_array_equal(line.basis, [[0.6], [0.8]])
        assert (line.ambient_dimension, line.dimension) == (2, 1)


class TestSdrEstimate:
    @staticmethod
    def _toy_estimate(method="sir", n=1):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((60, 3))
        y = x[:, 0] ** 2
        s = standardized_set(x, y)
        return estimate(s, 4, "equal-count", method, n)

    def test_method_recorded(self):
        assert self._toy_estimate("sir").method == "sir"
        assert self._toy_estimate("save").method == "save"

    def test_subspace_takes_leading_eigenvectors(self):
        est = self._toy_estimate("save", n=2)
        np.testing.assert_array_equal(
            est.subspace.basis, est.spectrum.eigenvectors[:, :2]
        )

    def test_estimates_are_psd(self):
        """Both estimator matrices are PSD up to a -1e-10 floor."""
        for method in ("sir", "save"):
            est = self._toy_estimate(method, n=3)
            assert est.spectrum.eigenvalues[-1] >= -1e-10

    def test_rejects_unknown_method(self):
        spec = decompose(np.eye(2))
        good = self._toy_estimate()
        with pytest.raises(ValueError):
            SdrEstimate(
                method="pca",
                spectrum=good.spectrum,
                partition=good.partition,
                n_requested=1,
            )
        assert spec.eigenvalues[0] == 1.0

    def test_rejects_out_of_range_dimension(self):
        good = self._toy_estimate()
        for bad_n in (0, 4):
            with pytest.raises(ValueError):
                SdrEstimate(
                    method="sir",
                    spectrum=good.spectrum,
                    partition=good.partition,
                    n_requested=bad_n,
                )


@pytest.fixture(scope="module")
def pipeline_records():
    """One of each record the public pipeline returns, by class name."""
    fn = get_test_function("hartmann")
    s = generate_samples(fn, 300, 4)
    est = estimate(s, 6, "equal-count", "save", 2)
    records = [s, est.spectrum, est.subspace, est.partition,
               slice_stats(s, est.partition), gap_profile(est.spectrum),
               fn.measure, fit_standardizer(fn.measure), summary_plot_data(s, est, 2),
               bootstrap_eigenvalues(s, 6, "equal-count", "save", 2, 0)]
    return {type(r).__name__: r for r in records}


@pytest.mark.parametrize("name", [
    "SampleSet", "SymmetricSpectrum", "Subspace", "SlicePartition", "SliceStats",
    "GapProfile", "InputMeasure", "Standardizer", "SummaryPlotData", "BootstrapResult",
])
def test_record_arrays_are_read_only(pipeline_records, name):
    record = pipeline_records[name]
    arrays = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)
              if isinstance(getattr(record, f.name), np.ndarray)}
    assert arrays
    assert [field for field, a in arrays.items() if a.flags.writeable] == []


class TestWriteAtomic:
    def test_chunks_written_in_order(self, tmp_path):
        path = tmp_path / "out.txt"
        write_atomic(path, (bytes([65 + k]) * 3 for k in range(4)))
        assert path.read_bytes() == b"AAABBBCCCDDD"

    def test_failing_chunk_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_atomic(path, "old\n")

        def chunks():
            yield b"partial"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            write_atomic(path, chunks())
        assert path.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
