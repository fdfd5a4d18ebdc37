"""Command-line artifacts, exit codes, and determinism."""

import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ridgerec
from ridgerec import cli
from ridgerec.cli import CSV_BLOCK_VALUES, _write_csv, main, read_samples_csv, write_samples_csv
from ridgerec.core import METHODS, SampleSet
from ridgerec.estimators import estimate
from ridgerec.testfns import generate_samples, get_test_function


def run(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


STANDARD_2D = {"measure": {"kind": "standard-gaussian", "dimension": 2}}


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

    def test_raw_writes_the_draws(self, tmp_path):
        assert run("sample", "--function", "hartmann", "--n", "30", "--seed", "4", "--raw",
                   "--out", str(tmp_path)) == 0
        back = read_samples_csv(tmp_path / "samples.csv")
        s = generate_samples(get_test_function("hartmann"), 30, 4)
        assert back.inputs.tobytes() == s.inputs.tobytes()
        assert back.outputs.tobytes() == s.outputs.tobytes()
        assert read_json(tmp_path / "samples.json")["standardized"] is False

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
        write_samples_csv(path, s.inputs, s.outputs)
        back = read_samples_csv(path)
        np.testing.assert_array_equal(back.inputs, s.inputs)
        np.testing.assert_array_equal(back.outputs, s.outputs)

    SPECIAL = [-0.0, 5e-324, 1e-310, 1e300, -1e300, np.nextafter(1.0, 2.0)]

    def test_special_values_round_trip(self, tmp_path):
        """Signed zero, subnormals and extremes survive, in the %.17g text."""
        x = np.array(self.SPECIAL).reshape(3, 2)
        s = SampleSet(inputs=x, outputs=np.array(self.SPECIAL[::-1][:3]))
        path = tmp_path / "samples.csv"
        write_samples_csv(path, s.inputs, s.outputs)
        rows = [",".join(f"{v:.17g}" for v in [*r, y]) for r, y in zip(x, s.outputs)]
        assert path.read_text() == "x1,x2,y\n" + "".join(r + "\n" for r in rows)
        back = read_samples_csv(path)
        assert back.inputs.tobytes() == s.inputs.tobytes()
        assert back.outputs.tobytes() == s.outputs.tobytes()

    @given(data=st.data())
    def test_any_finite_table_round_trips_bit_for_bit(self, data):
        n, m = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 6))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        s = SampleSet(inputs=data.draw(arrays(np.float64, (n, m), elements=finite)),
                      outputs=data.draw(arrays(np.float64, n, elements=finite)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "samples.csv"
            write_samples_csv(path, s.inputs, s.outputs)
            back = read_samples_csv(path)
        assert back.inputs.tobytes() == s.inputs.tobytes()
        assert back.outputs.tobytes() == s.outputs.tobytes()

    @staticmethod
    def _savetxt_bytes(header, table):
        buf = io.BytesIO()
        np.savetxt(buf, table, fmt="%.17g", delimiter=",", header=",".join(header),
                   comments="")
        return buf.getvalue()

    def _assert_savetxt_bytes(self, path, table):
        header = [f"c{j}" for j in range(table.shape[1])]
        _write_csv(path, header, table)
        assert path.read_bytes() == self._savetxt_bytes(header, table)

    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (CSV_BLOCK_VALUES // 3, 3),
                                       (2 * (CSV_BLOCK_VALUES // 3) + 1, 3)])
    def test_blocks_give_the_savetxt_bytes(self, tmp_path, shape):
        """Empty, 1x1, one-block and past-a-block tables, with every special value."""
        special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, -1e-310, 0.1]
        table = np.resize(np.array(special + [np.pi, -2.5, 1e22]), shape)
        self._assert_savetxt_bytes(tmp_path / "t.csv", table)

    @staticmethod
    def _adversarial_values() -> np.ndarray:
        """Values where a vectorized %.17g is most likely to slip, and random bit patterns."""
        rng = np.random.default_rng(19)
        powers = np.array([float(f"1e{p}") for p in range(-300, 301)])
        # A double odd / 2^(17 - k) in [10^k, 10^(k+1)) has exactly 18
        # significant digits, the last a 5: an exact decimal tie at digit 18.
        # Such odd numerators exist for k in [-7, 15].
        ties = []
        for k in range(-7, 16):
            scale = 2 ** (17 - k)
            low, high = Fraction(10) ** k * scale, min(Fraction(10) ** (k + 1) * scale, 2**53)
            for _ in range(10):
                ties.append((int(rng.integers(math.ceil(low), math.floor(high))) | 1) / scale)
        assert all(Decimal(t).as_tuple().digits[17:] == (5,) for t in ties)
        edges = np.array([1e-290, 1e290, 2.0**53, 2.0**63 - 1024, 2.2250738585072014e-308])
        special = np.array([0.0, np.nan, np.inf, 5e-324, 2.2250738585072009e-308])
        values = np.concatenate([
            powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
            rng.integers(2**53, 2**63, 300, dtype=np.int64).astype(np.float64),
            ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf),
            edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf), special,
            rng.integers(1, 2**52, 50, dtype=np.int64).view(np.float64),  # subnormals
            rng.integers(0, 2**64, 1500, dtype=np.uint64).view(np.float64),
        ])
        return np.concatenate([values, -values])

    @pytest.mark.parametrize("cols", [1, 3])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["1", "B-1", "B", "B+1", "2B+1"])
    def test_adversarial_values_give_the_savetxt_bytes(self, tmp_path, cols, blocks, extra):
        """Powers of ten and their neighbours, integers past 2^53, exact ties at digit 18,
        subnormals, signed zeros, nan, inf, the edges of the kernel's own range and random
        bits give the savetxt bytes, in tables of one block (B rows) or a row more or less."""
        values = self._adversarial_values()
        n = blocks * (CSV_BLOCK_VALUES // cols) + extra
        starts = range(0, len(values), n * cols) if n > 1 else range(0, len(values), 997)
        for start in starts:
            table = np.resize(np.roll(values, -start), (n, cols))
            self._assert_savetxt_bytes(tmp_path / "t.csv", table)

    @pytest.mark.parametrize("bias", [-1e-9, 1e-9])
    def test_a_log10_one_off_gives_the_savetxt_bytes(self, tmp_path, monkeypatch, bias):
        """Where log10 rounds across a power of ten, k is one off either way, and the
        scaled value misses [10^16, 10^17): Python prints such values."""
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + bias)
        powers = np.array([float(f"1e{p}") for p in range(-300, 301)])
        table = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                                np.random.default_rng(3).standard_normal(600)]).reshape(-1, 3)
        self._assert_savetxt_bytes(tmp_path / "t.csv", table)

    def test_the_scaling_table_is_within_2_to_the_105_of_each_power(self):
        t = cli._text_tables()
        for p, (hi, top, rest, lo) in zip(cli._POWERS, t.powers.T.tolist()):
            exact = Fraction(10) ** p
            assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2**105, p
            assert Fraction(top) + Fraction(rest) == Fraction(hi), p
            significand = Fraction(top).numerator
            assert (significand // (significand & -significand)).bit_length() <= 26, p

    def test_a_failed_block_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_bytes(b"old\n")
        kernel, calls = cli._csv_text, itertools.count()

        def failing(table, work):
            if next(calls) == 3:
                raise RuntimeError("block 3 failed")
            return kernel(table, work)

        monkeypatch.setattr(cli, "_csv_text", failing)
        with pytest.raises(RuntimeError, match="block 3 failed"):
            _write_csv(path, ["a", "b"], np.ones((4 * CSV_BLOCK_VALUES, 2)))
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    @given(data=st.data())
    def test_any_table_gives_the_savetxt_bytes(self, data):
        n, m = data.draw(st.integers(0, 40)), data.draw(st.integers(1, 6))
        table = data.draw(arrays(np.float64, (n, m)))
        with tempfile.TemporaryDirectory() as tmp:
            self._assert_savetxt_bytes(Path(tmp) / "t.csv", table)

    def test_read_rows_and_outputs_are_read_only_and_contiguous(self, tmp_path):
        """The parsed columns are copied once into contiguous arrays, which the
        slice gathers and the whitening read faster than strided column views."""
        path = tmp_path / "samples.csv"
        write_samples_csv(path, np.arange(12.0).reshape(4, 3), np.arange(4.0))
        back = read_samples_csv(path)
        for a in (back.inputs, back.outputs):
            assert a.flags.c_contiguous and a.flags.owndata and not a.flags.writeable
        assert back.standardizer is None

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
        csv = tmp_path / "hand.csv"
        write_samples_csv(csv, [[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 4.0]],
                          [0.1, 0.2, 0.9, 1.0])
        assert run("sir", "--input", str(csv), "--assume-standardized",
                   "--slices", "2", "--dim", "1", "--out", str(tmp_path)) == 0
        report = read_json(tmp_path / "estimate.json")
        np.testing.assert_allclose(report["eigenvalues"], [4.5, 2.0])

    def test_assume_standardized_whitens_the_read_rows_by_the_identity(self, tmp_path,
                                                                        monkeypatch):
        """The estimated set holds the parsed rows themselves, not a copy."""
        read, estimated = [], []

        def reading(path):
            read.append(read_samples_csv(path))
            return read[-1]

        def estimating(s, *args):
            estimated.append(s)
            return estimate(s, *args)

        monkeypatch.setattr(ridgerec.cli, "read_samples_csv", reading)
        monkeypatch.setattr(ridgerec.cli, "estimate", estimating)
        csv = tmp_path / "samples.csv"
        write_samples_csv(csv, [[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 4.0]],
                          [0.1, 0.2, 0.9, 1.0])
        assert run("sir", "--input", str(csv), "--assume-standardized",
                   "--slices", "2", "--out", str(tmp_path)) == 0
        (s,) = estimated
        assert s.inputs is read[0].inputs and s.outputs is read[0].outputs
        assert s.standardizer.is_identity

    def test_assume_standardized_refuses_raw_rows(self, tmp_path, capsys):
        """Raw hartmann draws declared whitened gave a subspace at distance 0.97."""
        assert run("sample", "--function", "hartmann", "--n", "20000", "--raw", "--seed", "3",
                   "--out", str(tmp_path)) == 0
        out = tmp_path / "out"
        assert run("sir", "--input", str(tmp_path / "samples.csv"), "--assume-standardized",
                   "--slices", "20", "--dim", "2", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "mean of x1 is 317.5 standard errors" in err and "limit 8" in err
        assert not out.exists()

    def test_assume_standardized_refuses_a_moment_that_overflows(self, tmp_path, capsys):
        """A square of 2e154 overflows, so the defect is nan, which no limit test passes."""
        rows = np.random.default_rng(6).standard_normal((2000, 3))
        rows[7, 1] = 2e154
        csv = tmp_path / "samples.csv"
        write_samples_csv(csv, rows, rows[:, 0] ** 2)
        out = tmp_path / "out"
        assert run("save", "--input", str(csv), "--assume-standardized", "--out", str(out)) == 2
        assert "entry (x2, x2) of X'X/N is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_header_only_file_has_no_rows(self, tmp_path, capsys):
        csv = tmp_path / "samples.csv"
        csv.write_text("x1,x2,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("sir", "--input", str(csv), "--assume-standardized",
                       "--out", str(tmp_path / "out")) == 2
        assert f"samples file {csv} has no rows" in capsys.readouterr().err

    @pytest.mark.parametrize("method", METHODS)
    def test_more_equal_count_slices_than_samples_refused(self, tmp_path, capsys, method):
        out = tmp_path / "out"
        assert run(method, "--function", "quad1", "--n", "10", "--slices", "20",
                   "--out", str(out)) == 2
        assert ("20 equal-count slices need at least as many samples, but the sample "
                "count is 10") in capsys.readouterr().err
        assert not out.exists()

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

    def test_many_invalid_rows_give_a_short_message(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("x1,x2,y\n" + "nan,1.0,2.0\n" * 20_000)
        assert run("sir", "--input", str(csv), "--assume-standardized",
                   "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "non-finite entry at 20000 rows: 0, 1, 2, 3, 4, ..." in err
        assert ", 5" not in err
        assert len(err) < 400

    def test_ingest_without_standardization_info_rejected(self, tmp_path, capsys):
        csv = tmp_path / "raw.csv"
        write_samples_csv(csv, [[0.1], [0.9]], [1.0, 2.0])
        assert run("sir", "--input", str(csv), "--out", str(tmp_path)) == 2
        assert "standardize" in capsys.readouterr().err

    def test_measure_spec_in_config_standardizes(self, tmp_path):
        rng = np.random.default_rng(17)
        x = rng.normal(loc=5.0, scale=2.0, size=(200, 1))
        csv = tmp_path / "raw.csv"
        write_samples_csv(csv, x, x[:, 0] ** 2)
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
        write_samples_csv(csv, rng.standard_normal((20, 5)), rng.standard_normal(20))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "measure": {"kind": "standard-gaussian", "dimension": 3},
        }))
        assert run("sir", "--input", str(csv), "--config", str(config),
                   "--out", str(tmp_path)) == 2
        assert "measure spec has dimension 3" in capsys.readouterr().err

    def test_log_transform_measure_spec_rejected(self, tmp_path, capsys):
        csv = tmp_path / "raw.csv"
        write_samples_csv(csv, [[0.1], [0.9]], [1.0, 2.0])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "measure": {"kind": "gaussian", "mean": [0.5], "cov": [[0.2]],
                        "log_transform": True},
        }))
        assert run("sir", "--input", str(csv), "--config", str(config),
                   "--out", str(tmp_path)) == 2
        assert "take logs of the input columns" in capsys.readouterr().err
        assert not (tmp_path / "estimate.json").exists()

    @pytest.mark.parametrize("spec, named", [
        ({"kind": "standard-gaussian", "dimension": 2, "mean": [5, 5],
          "cov": [[1, 0], [0, 1]]}, "cov, mean"),
        ({"kind": "gaussian", "dimension": 7, "mean": [5, 5], "cov": [[1, 0], [0, 1]]},
         "dimension is 7"),
        ({"kind": "gaussian", "mean": [5, 5], "cov": [[1, 0], [0, 1]], "log_transfrom": True},
         "log_transfrom"),
        ({"kind": "gaussian", "mean": [5, 5], "cov": [[1, 0], [0, 1]], "lower": [0, 0]},
         "lower"),
        ({"kind": "uniform-box", "dimension": 3, "lower": [0, 0], "upper": [9, 9]},
         "dimension is 3"),
        ({"kind": "standard-gaussian"}, "lacks key 'dimension'"),
        ({"kind": "gaussian", "mean": [5, 5]}, "lacks key 'cov'"),
        ({"kind": "normal", "dimension": 2}, "unknown measure kind 'normal'"),
        ({"kind": "standard-gaussian", "dimension": True}, "must be an integer, got true"),
        ({"kind": "uniform-box", "dimension": 2.0, "lower": [0, 0], "upper": [9, 9]},
         "must be an integer, got 2.0"),
    ], ids=["mean-cov-on-standard", "dimension-mismatch", "misspelt-key", "box-key-on-gaussian",
            "box-dimension-mismatch", "standard-without-dimension", "gaussian-without-cov",
            "unknown-kind", "dimension-as-boolean", "dimension-as-float"])
    def test_measure_spec_keys_checked(self, tmp_path, capsys, spec, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"measure": spec}))
        out = tmp_path / "out"
        assert run("sir", *_mean_five_csv(tmp_path), "--config", str(path),
                   "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("function", ["quad1", "hartmann"])
    def test_sample_sidecar_measure_round_trips(self, tmp_path, function):
        """Raw samples whitened against their sidecar's measure give the
        same estimate as the generated, standardized samples."""
        raw, ingested, generated = tmp_path / "raw", tmp_path / "ingested", tmp_path / "gen"
        assert run("sample", "--function", function, "--n", "400", "--seed", "3", "--raw",
                   "--out", str(raw)) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"measure": read_json(raw / "samples.json")["measure"]}))
        assert run("sir", "--input", str(raw / "samples.csv"), "--config", str(config),
                   "--slices", "8", "--out", str(ingested)) == 0
        assert run("sir", "--function", function, "--n", "400", "--seed", "3",
                   "--slices", "8", "--out", str(generated)) == 0
        assert (read_json(ingested / "estimate.json")["eigenvalues"]
                == read_json(generated / "estimate.json")["eigenvalues"])

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

    def test_save_single_sample_slices_refused(self, tmp_path, capsys):
        """floor(N / R) < 2 equal-count slices: a usage error, found before any draw."""
        out = tmp_path / "out"
        assert run("save", "--function", "quad1", "--n", "60", "--slices", "40",
                   "--out", str(out)) == 2
        assert ("SAVE needs at least 2 samples per slice, but 40 equal-count slices of the "
                "sample count 60 leave a slice with one") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["sir", "--n", "1000000", "--dim", "11"], "exceeds input dimension 10"),
        (["sir", "--n", "1000000", "--slices", "2000000"], "2000000 equal-count slices"),
        (["save", "--n", "60", "--slices", "40"], "SAVE needs at least 2 samples per slice"),
        (["sir", "--n", "20000", "--slices", "2", "--dim", "3"],
         "n_components 3: SIR's matrix has rank at most its slice count, but only 2 slices "
         "are asked for"),
    ])
    def test_rules_refused_before_any_draw(self, tmp_path, capsys, monkeypatch, flags, message):
        def drawing(*args):
            raise AssertionError("the model was drawn")

        monkeypatch.setattr(ridgerec.cli, "generate_samples", drawing)
        assert run(flags[0], "--function", "quad1", *flags[1:], "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err

    def test_rules_use_the_row_count_of_a_file(self, tmp_path, capsys):
        csv = tmp_path / "samples.csv"
        write_samples_csv(csv, np.eye(3)[[0, 1, 2, 0, 1, 2]], np.arange(6.0))
        out = tmp_path / "out"
        assert run("save", "--input", str(csv), "--assume-standardized", "--slices", "4",
                   "--out", str(out)) == 2
        assert "4 equal-count slices of the sample count 6" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dim, code", [(2, 0), (3, 2)])
    def test_sir_components_past_the_realized_slices_refused(self, tmp_path, capsys, dim, code):
        """Two response values fill 2 of 5 fixed-width slices, so SIR's rank is at most 2."""
        rows = np.random.default_rng(8).standard_normal((2000, 3))
        csv = tmp_path / "samples.csv"
        write_samples_csv(csv, rows, (rows[:, 0] > 0).astype(float))
        out = tmp_path / "out"
        assert run("sir", "--input", str(csv), "--assume-standardized", "--slices", "5",
                   "--slice-scheme", "fixed", "--dim", str(dim), "--out", str(out)) == code
        if code:
            assert "only 2 slices are realized" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert read_json(out / "estimate.json")["slices_realized"] == 2

    def test_save_single_sample_fixed_slice_fails_after_partition(self, tmp_path, capsys):
        """Only the partition shows a one-sample fixed-width slice; it is refused with
        exit 2, as SIR's rank rule is after partitioning, and nothing is written."""
        out = tmp_path / "out"
        assert run("save", "--function", "quad1", "--n", "60", "--slices", "40",
                   "--slice-scheme", "fixed", "--out", str(out)) == 2
        assert "smallest slice has 1" in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_slices_of_a_response_range_that_overflows_refused(self, tmp_path, capsys):
        """Finite responses spanning +-1.7e308: y_max - y_min overflows a double, so no
        equal-width cuts exist.  Exit 2, and no numpy warning, which would fail the run here."""
        rng = np.random.default_rng(9)
        y = rng.uniform(-1.7, 1.7, 200) * 1e308
        y[:2] = -1.7e308, 1.7e308
        csv = tmp_path / "samples.csv"
        write_samples_csv(csv, rng.standard_normal((200, 3)), y)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("sir", "--input", str(csv), "--assume-standardized",
                       "--slice-scheme", "fixed", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: fixed-width slices need a response range that a double holds, but "
            "y_max - y_min = 1.7e+308 - (-1.7e+308) overflows; use equal-count slices or "
            "rescale the responses\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, source, flags, config, refusal", [
        ("sir", "input", ["--assume-standardized", "--n", "3", "--seed", "9"], {},
         "--n and --seed cannot be used with --input"),
        ("save", "input", ["--seed", "9"], STANDARD_2D, "--seed cannot be used with --input"),
        ("sir", "function", ["--n", "100", "--assume-standardized"], {},
         "--assume-standardized cannot be used with --function"),
        ("save", "function", ["--n", "100"], STANDARD_2D, "measure cannot be used with --function"),
        ("sir", "input", ["--assume-standardized"], STANDARD_2D,
         "measure cannot be used with --assume-standardized"),
        ("sir", "input", ["--assume-standardized", "--seed", "0"], {},
         "--seed cannot be used with --input"),
        ("sir", "input", ["--assume-standardized"], {"seed": 0},
         "--seed cannot be used with --input"),
    ], ids=["n-seed-with-input", "seed-with-input", "assume-with-function",
            "measure-with-function", "measure-with-assume", "default-seed-with-input",
            "config-default-seed-with-input"])
    def test_option_foreign_to_the_source_refused(self, tmp_path, capsys, command, source,
                                                  flags, config, refusal):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        origin = _mean_five_csv(tmp_path) if source == "input" else ["--function", "quad1"]
        out = tmp_path / "out"
        assert run(command, *origin, *flags, "--config", str(path), "--out", str(out)) == 2
        assert refusal in capsys.readouterr().err
        assert not out.exists()

    def test_both_sources_rejected(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        write_samples_csv(csv, [[1.0]], [1.0])
        assert run("sir", "--function", "quad1", "--input", str(csv),
                   "--out", str(tmp_path)) == 2
        assert "exactly one" in capsys.readouterr().err


def _mean_five_csv(tmp_path):
    rng = np.random.default_rng(19)
    x = rng.normal(loc=5.0, size=(200, 2))
    csv = tmp_path / "raw.csv"
    write_samples_csv(csv, x, x[:, 0] ** 2)
    return ["--input", str(csv)]


class TestConfigThroughParser:
    """Config values and flags go through one parser: every bad one exits 2."""

    @pytest.mark.parametrize("command, config, extra, named", [
        ("sir", {"assume_standardized": "false"}, "mean-five", "assume_standardized"),
        ("sample", {"raw": "no"}, ["--function", "quad1", "--n", "10"], "raw"),
        ("sir", {"slice-scheme": "fixed", "slcies": 7}, ["--function", "quad1", "--n", "500"],
         "slcies"),
        ("sir", {"slice_scheme": "quantile"}, ["--function", "quad1", "--n", "500"],
         "--slice-scheme"),
        ("sir", {"n": "5e2"}, ["--function", "quad1"], "--n"),
        ("sir", {}, ["--function", "quad1", "--n", "500", "--slices", "0"], "--slices"),
        ("converge", {}, ["--function", "quad1", "--sizes", "100,200", "--dim", "0"], "--dim"),
    ], ids=["bool-as-text", "bool-as-word", "misspelt-keys", "unknown-scheme", "n-as-text",
            "zero-slices", "zero-dim"])
    def test_bad_input_is_usage_error(self, tmp_path, capsys, command, config, extra, named):
        if extra == "mean-five":
            extra = _mean_five_csv(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(command, "--config", str(path), *extra, "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_false_keeps_default(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"raw": False}))
        assert run("sample", "--config", str(path), "--function", "hartmann", "--n", "5",
                   "--out", str(tmp_path)) == 0
        assert read_json(tmp_path / "samples.json")["standardized"] is True

    def test_measure_key_only_for_estimators(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"measure": {"kind": "standard-gaussian", "dimension": 1}}))
        assert run("sample", "--config", str(path), "--function", "quad1", "--n", "5",
                   "--out", str(tmp_path / "out")) == 2
        assert "measure" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_console_script_merges_config_and_argv(self, tmp_path):
        """main() with argv=None reads sys.argv; the flag beats the config value."""
        out = tmp_path / "out"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"function": "quad1", "n": 50, "seed": 1, "slices": 3,
                                    "out": str(out)}))
        env = dict(os.environ, PYTHONPATH=str(Path(ridgerec.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "ridgerec.cli", "sir", "--config", str(path),
             "--slices", "5"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        report = read_json(out / "estimate.json")
        assert report["slices_requested"] == 5
        assert report["n_samples"] == 50


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
        assert "fewer than 3 sizes" in capsys.readouterr().err
        report = read_json(tmp_path / "study.json")
        assert report["subspace_slope"] is None

    def test_bad_sizes_usage_error(self, tmp_path):
        assert run("converge", "--function", "quad1", "--method", "sir",
                   "--sizes", "400,200", "--truth-size", "4000",
                   "--out", str(tmp_path)) == 2

    def test_dimension_overflow_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("converge", "--function", "quad1", "--sizes", "100,200",
                   "--dim", "11", "--out", str(out)) == 2
        assert "n exceeds input dimension" in capsys.readouterr().err
        assert not out.exists()

    def test_more_slices_than_the_smallest_size_refused_before_any_draw(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("converge", "--function", "quad1", "--method", "sir",
                   "--sizes", "10,20", "--slices", "15", "--truth-size", "200",
                   "--trials", "1", "--out", str(out)) == 2
        assert "smallest size is 10" in capsys.readouterr().err
        assert not out.exists()

    def test_save_one_sample_slices_refused_before_any_draw(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("converge", "--function", "quad1", "--method", "save",
                   "--sizes", "10,20", "--slices", "8", "--truth-size", "200",
                   "--trials", "1", "--out", str(out)) == 2
        assert "SAVE needs at least 2 samples per slice" in capsys.readouterr().err
        assert not out.exists()

    def test_sir_components_past_the_slices_refused_before_any_draw(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("converge", "--function", "quad3", "--method", "sir",
                   "--sizes", "100,200", "--slices", "2", "--dim", "3", "--truth-size", "2000",
                   "--trials", "1", "--out", str(out)) == 2
        assert "only 2 slices are asked for" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_cache_names_the_file(self, tmp_path, capsys):
        args = ("converge", "--function", "quad1", "--method", "sir",
                "--sizes", "100,200", "--trials", "1", "--slices", "4",
                "--truth-size", "2000", "--out", str(tmp_path))
        assert run(*args) == 0
        (path,) = (tmp_path / "cache").glob("truth-*.npz")
        path.unlink()
        path.mkdir()
        assert run(*args) == 1
        err = capsys.readouterr().err
        assert f"cannot write truth surrogate cache file {path}" in err
