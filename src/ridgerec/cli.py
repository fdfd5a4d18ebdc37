"""Command-line interface emitting machine-readable CSV/JSON artifacts.

Subcommands
-----------
``sample``
    Draw inputs from a built-in model's measure, evaluate, and write
    ``samples.csv`` (header ``x1,...,xm,y``) plus a JSON sidecar
    recording the measure, seed, and standardization state.
``sir`` / ``save``
    Run one estimator on generated or ingested samples; writes
    ``estimate.json`` (eigenvalues, gaps, slice weights), ``eigvecs.csv``
    and ``summary_plot.csv``.
``converge``
    Run a convergence study; writes ``study.csv`` (one row per
    (size, trial)) and ``study.json`` (fitted slopes, surrogate
    spectrum, config echo).

All options can come from a JSON config file (``--config``); explicit
flags override file values.  Every run is deterministic given its config,
and files are written atomically (temp file + rename).  Floats are
serialized with 17 significant digits so CSV round-trips reproduce the
binary values exactly.

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage or validation
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from ridgerec.core import SampleSet, validate_sample_set, write_atomic
from ridgerec.estimators import estimate
from ridgerec.experiments import (
    StudyConfig,
    run_convergence,
    summary_plot_data,
)
from ridgerec.measures import InputMeasure, fit_standardizer, standardize
from ridgerec.slicing import default_slice_count
from ridgerec.spectral import gap_profile
from ridgerec.testfns import TEST_FUNCTION_NAMES, generate_samples, get_test_function


class UsageError(Exception):
    """Bad flags, config, or input data; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_samples_csv(path: Path, s: SampleSet) -> None:
    m = s.dimension
    lines = [",".join([f"x{j + 1}" for j in range(m)] + ["y"])]
    for row, y in zip(s.inputs, s.outputs):
        lines.append(",".join([_fmt(v) for v in row] + [_fmt(y)]))
    write_atomic(path, "\n".join(lines) + "\n")


def read_samples_csv(path: Path) -> SampleSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise UsageError(f"cannot read samples file: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"malformed samples file {path}: {exc}") from exc
    cols = header.split(",")
    m = len(cols) - 1
    expected = [f"x{j + 1}" for j in range(m)] + ["y"]
    if m < 1 or cols != expected:
        raise UsageError(
            f"samples file must have header x1,...,xm,y (got {header!r})"
        )
    if body.shape[1] != m + 1:
        raise UsageError("samples file rows do not match header width")
    return SampleSet(inputs=body[:, :m], outputs=body[:, m], standardized=False)


def measure_from_spec(spec: dict) -> InputMeasure:
    """Build an InputMeasure from its JSON object form."""
    try:
        kind = spec["kind"]
        if spec.get("log_transform"):
            raise UsageError("log_transform is not supported; take logs of the "
                             "input columns before ingest")
        if kind == "standard-gaussian":
            return InputMeasure.standard_gaussian(int(spec["dimension"]))
        if kind == "gaussian":
            return InputMeasure.gaussian(spec["mean"], spec["cov"])
        if kind == "uniform-box":
            return InputMeasure.uniform_box(spec["lower"], spec["upper"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad measure spec: {exc}") from exc
    raise UsageError(f"unknown measure kind {kind!r}")


def measure_to_spec(measure: InputMeasure) -> dict:
    spec: dict = {"kind": measure.kind, "dimension": measure.dimension}
    if measure.mean is not None:
        spec["mean"] = measure.mean.tolist()
    if measure.cov is not None:
        spec["cov"] = measure.cov.tolist()
    if measure.lower is not None:
        spec["lower"] = measure.lower.tolist()
        spec["upper"] = measure.upper.tolist()
    return spec


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _merge(args: argparse.Namespace, config: dict, key: str, default=None):
    """Flag value if given, else config file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return config.get(key, default)


def _require(value, what: str):
    if value is None:
        raise UsageError(f"missing required option: {what}")
    return value


def _parse_sizes(value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    try:
        return tuple(int(tok) for tok in str(value).split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"bad sizes list {value!r}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _resolve_function(name: str):
    if name not in TEST_FUNCTION_NAMES:
        raise UsageError(
            f"unknown function {name!r}; built-ins are {', '.join(TEST_FUNCTION_NAMES)}"
        )
    return get_test_function(name)


def cmd_sample(args: argparse.Namespace, config: dict) -> int:
    fn = _resolve_function(_require(_merge(args, config, "function"), "--function"))
    n = int(_require(_merge(args, config, "n"), "--n"))
    seed = int(_merge(args, config, "seed", 0))
    raw = bool(_merge(args, config, "raw", False))
    outdir = Path(_merge(args, config, "out", "."))

    s = generate_samples(fn, n, seed, standardized=not raw)
    write_samples_csv(outdir / "samples.csv", s)
    sidecar = {
        "function": fn.name,
        "n": n,
        "m": fn.dimension,
        "seed": seed,
        "standardized": s.standardized,
        "measure": measure_to_spec(fn.measure),
    }
    write_atomic(outdir / "samples.json", _json_text(sidecar))
    if args.verbose:
        print(f"wrote {outdir / 'samples.csv'} ({n} rows)")
    return 0


def _obtain_samples(args: argparse.Namespace, config: dict):
    """Either generate from a built-in model or ingest a CSV."""
    ingest = _merge(args, config, "input")
    function = _merge(args, config, "function")
    if (ingest is None) == (function is None):
        raise UsageError("exactly one of --function or --input is required")
    if function is not None:
        fn = _resolve_function(function)
        n = int(_require(_merge(args, config, "n"), "--n"))
        seed = int(_merge(args, config, "seed", 0))
        return generate_samples(fn, n, seed), function

    s = read_samples_csv(Path(ingest))
    violations = validate_sample_set(s)
    if violations:
        raise UsageError("ingested samples are invalid: " + "; ".join(violations))
    if bool(_merge(args, config, "assume_standardized", False)):
        s = SampleSet(inputs=s.inputs, outputs=s.outputs, standardized=True)
    elif "measure" in config:
        std = fit_standardizer(measure_from_spec(config["measure"]))
        if std.dimension != s.dimension:
            raise UsageError(f"measure spec has dimension {std.dimension}, but the "
                             f"samples have {s.dimension} input columns")
        s = standardize(s, std)
    else:
        raise UsageError(
            "ingested samples need either --assume-standardized or a "
            "\"measure\" spec in the config file to standardize against"
        )
    return s, str(ingest)


def cmd_estimate(args: argparse.Namespace, config: dict, method: str) -> int:
    s, source = _obtain_samples(args, config)
    m = s.dimension
    n_components = int(_merge(args, config, "dim", 1))
    if n_components > m:
        raise UsageError("n exceeds input dimension")
    if n_components < 1:
        raise UsageError("dimension must be at least 1")
    n_slices = _merge(args, config, "slices")
    n_slices = int(n_slices) if n_slices is not None else default_slice_count(s.n_samples)
    scheme = _merge(args, config, "slice_scheme", "equal-count")
    outdir = Path(_merge(args, config, "out", "."))

    est = estimate(s, n_slices, scheme, method, n_components)
    profile = gap_profile(est.spectrum)
    stats_counts = est.partition.counts

    payload = {
        "method": method,
        "source": source,
        "n_samples": s.n_samples,
        "m": m,
        "n_components": n_components,
        "slice_scheme": est.partition.scheme,
        "slices_requested": n_slices,
        "slices_realized": est.partition.n_slices,
        "slice_counts": stats_counts.tolist(),
        "slice_weights": (stats_counts / s.n_samples).tolist(),
        "n_r_min": est.partition.min_count,
        "degenerate_partition": est.partition.degenerate,
        "eigenvalues": est.spectrum.eigenvalues.tolist(),
        "gaps": profile.gaps.tolist(),
        "relative_gaps": profile.relative.tolist(),
    }
    write_atomic(outdir / "estimate.json", _json_text(payload))

    W = est.spectrum.eigenvectors
    lines = [",".join(f"w{j + 1}" for j in range(W.shape[1]))]
    lines += [",".join(_fmt(v) for v in row) for row in W]
    write_atomic(outdir / "eigvecs.csv", "\n".join(lines) + "\n")

    dims = min(2, n_components)
    plot = summary_plot_data(s, est, dims)
    header = ",".join([f"z{j + 1}" for j in range(dims)] + ["y"])
    lines = [header]
    for row, y in zip(np.atleast_2d(plot.projections), plot.outputs):
        lines.append(",".join([_fmt(v) for v in np.ravel(row)] + [_fmt(y)]))
    write_atomic(outdir / "summary_plot.csv", "\n".join(lines) + "\n")

    if args.verbose:
        print(f"wrote estimate artifacts to {outdir}")
    return 0


def cmd_converge(args: argparse.Namespace, config: dict) -> int:
    function = _require(_merge(args, config, "function"), "--function")
    if function not in TEST_FUNCTION_NAMES:
        raise UsageError(f"unknown function {function!r}")
    method = _merge(args, config, "method", "sir")
    if method not in ("sir", "save"):
        raise UsageError(f"unknown method {method!r}")
    sizes = _parse_sizes(_require(_merge(args, config, "sizes"), "--sizes"))
    trials = int(_merge(args, config, "trials", 10))
    seed = int(_merge(args, config, "seed", 0))
    n_components = int(_merge(args, config, "dim", 1))
    n_slices = _merge(args, config, "slices")
    n_slices = int(n_slices) if n_slices is not None else default_slice_count(min(sizes))
    scheme = _merge(args, config, "slice_scheme", "equal-count")
    truth_size = int(_merge(args, config, "truth_size", 10 * max(sizes)))
    truth_seed = int(_merge(args, config, "truth_seed", 777))
    outdir = Path(_merge(args, config, "out", "."))
    cache_dir = _merge(args, config, "cache_dir", str(outdir / "cache"))

    try:
        cfg = StudyConfig(
            function=function,
            method=method,
            sizes=sizes,
            trials=trials,
            seed=seed,
            n_components=n_components,
            n_slices=n_slices,
            scheme=scheme,
            truth_size=truth_size,
            truth_seed=truth_seed,
            cache_dir=cache_dir,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    study = run_convergence(cfg)

    lines = ["N,trial,N_r_min,eig_mse_norm,subspace_dist"]
    for r in study.records:
        lines.append(
            f"{r.size},{r.trial},{r.n_r_min},{_fmt(r.eig_mse_norm)},{_fmt(r.subspace_dist)}"
        )
    write_atomic(outdir / "study.csv", "\n".join(lines) + "\n")

    payload = {
        "config": {
            "function": function,
            "method": method,
            "sizes": list(sizes),
            "trials": trials,
            "seed": seed,
            "n_components": n_components,
            "slices": n_slices,
            "slice_scheme": scheme,
            "truth_size": truth_size,
            "truth_seed": truth_seed,
        },
        "subspace_slope": study.subspace_slope,
        "eig_mse_slope": study.eig_mse_slope,
        "distance_trend_inversions": study.distance_trend_inversions,
        "mean_subspace_dist": study.mean_by_size("subspace_dist"),
        "mean_eig_mse_norm": study.mean_by_size("eig_mse_norm"),
        "truth_eigenvalues": study.truth.eigenvalues.tolist(),
    }
    # JSON object keys must be strings
    payload["mean_subspace_dist"] = {str(k): v for k, v in payload["mean_subspace_dist"].items()}
    payload["mean_eig_mse_norm"] = {str(k): v for k, v in payload["mean_eig_mse_norm"].items()}
    write_atomic(outdir / "study.json", _json_text(payload))

    if study.subspace_slope is None:
        print("warning: fewer than 3 sizes; slopes omitted from study.json")
    if args.verbose:
        print(f"wrote study artifacts to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgerec",
        description="Ridge recovery via sliced inverse regression (sir) and "
        "sliced average variance estimation (save).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output directory (default: current directory)")
        p.add_argument("--seed", type=int, help="master seed (default: 0)")
        p.add_argument("--verbose", action="store_true", help="print progress notes")

    p_sample = sub.add_parser("sample", help="draw and evaluate a built-in model")
    common(p_sample)
    p_sample.add_argument("--function", help="quad1, quad3, or hartmann")
    p_sample.add_argument("--n", type=int, help="number of samples")
    p_sample.add_argument("--raw", action="store_true", default=None,
                          help="write raw measure draws instead of standardized inputs")

    for name in ("sir", "save"):
        p_est = sub.add_parser(name, help=f"run {name} on generated or ingested samples")
        common(p_est)
        p_est.add_argument("--function", help="built-in model to sample from")
        p_est.add_argument("--n", type=int, help="number of samples to generate")
        p_est.add_argument("--input", help="ingest a samples.csv instead of generating")
        p_est.add_argument("--assume-standardized", dest="assume_standardized",
                           action="store_true", default=None,
                           help="treat ingested inputs as already whitened")
        p_est.add_argument("--slices", type=int, help="slice count (default: sqrt rule)")
        p_est.add_argument("--slice-scheme", dest="slice_scheme",
                           choices=("fixed", "equal-count"))
        p_est.add_argument("--dim", type=int, help="requested subspace dimension")

    p_conv = sub.add_parser("converge", help="run a convergence study")
    common(p_conv)
    p_conv.add_argument("--function")
    p_conv.add_argument("--method", choices=("sir", "save"))
    p_conv.add_argument("--sizes", help="comma-separated ascending sample sizes")
    p_conv.add_argument("--trials", type=int)
    p_conv.add_argument("--slices", type=int)
    p_conv.add_argument("--slice-scheme", dest="slice_scheme",
                        choices=("fixed", "equal-count"))
    p_conv.add_argument("--dim", type=int)
    p_conv.add_argument("--truth-size", dest="truth_size", type=int)
    p_conv.add_argument("--truth-seed", dest="truth_seed", type=int)
    p_conv.add_argument("--cache-dir", dest="cache_dir")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "sample":
            return cmd_sample(args, config)
        if args.command in ("sir", "save"):
            return cmd_estimate(args, config, args.command)
        if args.command == "converge":
            return cmd_converge(args, config)
        raise UsageError(f"unknown command {args.command!r}")  # pragma: no cover
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime/numeric failure
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
