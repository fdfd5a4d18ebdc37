"""Command-line artifacts, exit codes, and determinism."""

import json
import os
import stat

import numpy as np
import pytest

from ridgerec.cli import main, read_samples_csv, write_samples_csv
from ridgerec.core import SampleSet


def run(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestSampleCommand:
    def test_row_count_and_header(self, tmp_path):
        assert run("sample", "--function", "quad1", "--n", "3",
                   "--seed", "7", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == ",".join([f"x{j}" for j in range(1, 11)] + ["y"])

    def test_hartmann_has_five_columns(self, tmp_path):
        assert run("sample", "--function", "hartmann", "--n", "2",
                   "--out", str(tmp_path)) == 0
        header = (tmp_path / "samples.csv").read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,x5,y"
        sidecar = read_json(tmp_path / "samples.json")
        assert sidecar["m"] == 5
        assert sidecar["standardized"] is True
        assert sidecar["measure"]["kind"] == "gaussian"

    def test_rerun_byte_identical(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for out in (a_dir, b_dir):
            assert run("sample", "--function", "quad3", "--n", "20",
                       "--seed", "3", "--out", str(out)) == 0
        assert (a_dir / "samples.csv").read_bytes() == (b_dir / "samples.csv").read_bytes()
        assert (a_dir / "samples.json").read_bytes() == (b_dir / "samples.json").read_bytes()

    def test_artifacts_honour_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            assert run("sample", "--function", "quad1", "--n", "3",
                       "--out", str(tmp_path)) == 0
        finally:
            os.umask(old)
        for name in ("samples.csv", "samples.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644
        assert sorted(p.name for p in tmp_path.iterdir()) == ["samples.csv", "samples.json"]

    def test_unknown_function_is_usage_error(self, tmp_path, capsys):
        assert run("sample", "--function", "cubic", "--n", "3",
                   "--out", str(tmp_path)) == 2
        assert "unknown function" in capsys.readouterr().err


class TestCsvRoundTrip:
    def test_exact_binary_round_trip(self, tmp_path):
        """17 significant digits reproduce every double exactly."""
        rng = np.random.default_rng(41)
        s = SampleSet(
            inputs=rng.standard_normal((40, 3)) * 10.0**rng.integers(-8, 8, (40, 3)),
            outputs=rng.standard_normal(40),
        )
        path = tmp_path / "samples.csv"
        write_samples_csv(path, s)
        back = read_samples_csv(path)
        np.testing.assert_array_equal(back.inputs, s.inputs)
        np.testing.assert_array_equal(back.outputs, s.outputs)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("a,b,y\n1,2,3\n")
        with pytest.raises(Exception, match="header"):
            read_samples_csv(path)


class TestEstimateCommands:
    def test_generated_quad1_save(self, tmp_path):
        assert run("save", "--function", "quad1", "--n", "10000",
                   "--seed", "11", "--slices", "20", "--dim", "1",
                   "--out", str(tmp_path)) == 0
        report = read_json(tmp_path / "estimate.json")
        assert report["method"] == "save"
        assert len(report["eigenvalues"]) == 10
        assert report["slices_realized"] == 20
        assert sum(report["slice_counts"]) == 10000
        assert pytest.approx(sum(report["slice_weights"]), abs=1e-12) == 1.0
        eigvecs = (tmp_path / "eigvecs.csv").read_text().splitlines()
        assert len(eigvecs) == 11  # header + one row per input dimension
        plot = (tmp_path / "summary_plot.csv").read_text().splitlines()
        assert plot[0] == "z1,y"
        assert len(plot) == 10001

    def test_ingested_hand_dataset(self, tmp_path):
        """The four-point hand dataset reproduces eigenvalues (4.5, 2)."""
        s = SampleSet(
            inputs=[[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 4.0]],
            outputs=[0.1, 0.2, 0.9, 1.0],
        )
        csv = tmp_path / "hand.csv"
        write_samples_csv(csv, s)
        assert run("sir", "--input", str(csv), "--assume-standardized",
                   "--slices", "2", "--dim", "1", "--out", str(tmp_path)) == 0
        report = read_json(tmp_path / "estimate.json")
        np.testing.assert_allclose(report["eigenvalues"], [4.5, 2.0])

    def test_dimension_overflow_is_usage_error(self, tmp_path, capsys):
        assert run("sir", "--function", "quad1", "--n", "100",
                   "--dim", "11", "--out", str(tmp_path)) == 2
        assert "n exceeds input dimension" in capsys.readouterr().err

    def test_invalid_ingest_is_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("x1,y\nnan,1.0\n2.0,2.0\n")
        assert run("sir", "--input", str(csv), "--assume-standardized",
                   "--out", str(tmp_path)) == 2
        assert "non-finite entry at row 0" in capsys.readouterr().err

    def test_ingest_without_standardization_info_rejected(self, tmp_path, capsys):
        s = SampleSet(inputs=[[0.1], [0.9]], outputs=[1.0, 2.0])
        csv = tmp_path / "raw.csv"
        write_samples_csv(csv, s)
        assert run("sir", "--input", str(csv), "--out", str(tmp_path)) == 2
        assert "standardize" in capsys.readouterr().err

    def test_measure_spec_in_config_standardizes(self, tmp_path):
        rng = np.random.default_rng(17)
        x = rng.normal(loc=5.0, scale=2.0, size=(200, 1))
        s = SampleSet(inputs=x, outputs=x[:, 0] ** 2)
        csv = tmp_path / "raw.csv"
        write_samples_csv(csv, s)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "measure": {"kind": "gaussian", "mean": [5.0], "cov": [[4.0]]},
        }))
        assert run("sir", "--input", str(csv), "--config", str(config),
                   "--slices", "4", "--out", str(tmp_path)) == 0
        report = read_json(tmp_path / "estimate.json")
        assert report["n_samples"] == 200

    def test_measure_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(18)
        csv = tmp_path / "raw.csv"
        write_samples_csv(csv, SampleSet(inputs=rng.standard_normal((20, 5)),
                                         outputs=rng.standard_normal(20)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "measure": {"kind": "standard-gaussian", "dimension": 3},
        }))
        assert run("sir", "--input", str(csv), "--config", str(config),
                   "--out", str(tmp_path)) == 2
        assert "measure spec has dimension 3" in capsys.readouterr().err

    def test_log_transform_measure_spec_rejected(self, tmp_path, capsys):
        csv = tmp_path / "raw.csv"
        write_samples_csv(csv, SampleSet(inputs=[[0.1], [0.9]], outputs=[1.0, 2.0]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "measure": {"kind": "gaussian", "mean": [0.5], "cov": [[0.2]],
                        "log_transform": True},
        }))
        assert run("sir", "--input", str(csv), "--config", str(config),
                   "--out", str(tmp_path)) == 2
        assert "take logs of the input columns" in capsys.readouterr().err
        assert not (tmp_path / "estimate.json").exists()

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "function": "quad1", "n": 50, "seed": 1, "slices": 3,
            "out": str(tmp_path / "from_config"),
        }))
        override = tmp_path / "cli_out"
        assert run("sir", "--config", str(config), "--slices", "5",
                   "--out", str(override)) == 0
        report = read_json(override / "estimate.json")
        assert report["slices_requested"] == 5
        assert not (tmp_path / "from_config").exists()

    def test_both_sources_rejected(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        write_samples_csv(csv, SampleSet(inputs=[[1.0]], outputs=[1.0]))
        assert run("sir", "--function", "quad1", "--input", str(csv),
                   "--out", str(tmp_path)) == 2
        assert "exactly one" in capsys.readouterr().err


class TestConvergeCommand:
    def test_study_artifacts(self, tmp_path):
        assert run("converge", "--function", "quad1", "--method", "save",
                   "--sizes", "200,400,800", "--trials", "2", "--slices", "5",
                   "--truth-size", "8000", "--seed", "3",
                   "--out", str(tmp_path)) == 0
        lines = (tmp_path / "study.csv").read_text().splitlines()
        assert lines[0] == "N,trial,N_r_min,eig_mse_norm,subspace_dist"
        assert len(lines) == 7
        report = read_json(tmp_path / "study.json")
        assert report["subspace_slope"] is not None
        assert report["config"]["sizes"] == [200, 400, 800]
        assert len(report["truth_eigenvalues"]) == 10

    def test_rerun_identical(self, tmp_path):
        args = ("converge", "--function", "quad1", "--method", "sir",
                "--sizes", "100,200", "--trials", "2", "--slices", "4",
                "--truth-size", "2000", "--seed", "8")
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--out", str(a_dir)) == 0
        assert run(*args, "--out", str(b_dir)) == 0
        assert (a_dir / "study.csv").read_bytes() == (b_dir / "study.csv").read_bytes()
        a_json = read_json(a_dir / "study.json")
        b_json = read_json(b_dir / "study.json")
        assert a_json == b_json

    def test_two_sizes_warn_and_omit_slopes(self, tmp_path, capsys):
        assert run("converge", "--function", "quad1", "--method", "sir",
                   "--sizes", "100,200", "--trials", "1", "--slices", "4",
                   "--truth-size", "2000", "--out", str(tmp_path)) == 0
        assert "fewer than 3 sizes" in capsys.readouterr().out
        report = read_json(tmp_path / "study.json")
        assert report["subspace_slope"] is None

    def test_bad_sizes_usage_error(self, tmp_path):
        assert run("converge", "--function", "quad1", "--method", "sir",
                   "--sizes", "400,200", "--truth-size", "4000",
                   "--out", str(tmp_path)) == 2
