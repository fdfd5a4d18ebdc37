"""Command-line interface emitting machine-readable CSV/JSON artifacts.

Subcommands
-----------
``sample``
    Draw inputs from a built-in model's measure, evaluate, and write
    ``samples.csv`` (header ``x1,...,xm,y``): the whitened inputs, or
    with ``--raw`` the draws themselves.  A JSON sidecar records the
    measure, seed, and standardization state.
``sir`` / ``save``
    Run one estimator on generated or ingested samples; writes
    ``estimate.json`` (eigenvalues, gaps, slice weights), ``eigvecs.csv``
    and ``summary_plot.csv``.  Ingested rows are whitened against a
    config ``measure`` spec, or declared whitened already with
    ``--assume-standardized``, a claim their moments are checked against
    (:func:`ridgerec.measures.whitening_defect`).
``converge``
    Run a convergence study; writes ``study.csv`` (one row per
    (size, trial)) and ``study.json`` (fitted slopes, surrogate
    spectrum, config echo).

Options can also come from a JSON config file (``--config``).  Its keys
are the flags' dest names (``slice_scheme``, ``truth_size``, ...); each
value is turned into that flag's tokens and parsed, with the same types
and choices, ahead of the command-line flags, so flags win.  ``measure``
(``sir``/``save`` only) is the one key without a flag.  Every run is
deterministic given its config, and files are written atomically (temp
file + rename).  Floats are serialized with 17 significant digits so CSV
round-trips reproduce the binary values exactly; CSV text is formatted in
blocks of rows by a vectorized kernel whose bytes are those of ``%.17g``
(:func:`_write_csv`).

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage or validation
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from ridgerec.core import METHODS, SampleSet, Standardizer, validate_sample_set, write_atomic
from ridgerec.estimators import SliceRuleError, check_estimate_rules, estimate
from ridgerec.experiments import StudyConfig, run_convergence, summary_plot_data
from ridgerec.measures import (WHITENING_DEFECT_LIMIT, InputMeasure, fit_standardizer,
                               standardize, whitening_defect)
from ridgerec.slicing import SCHEMES, default_slice_count
from ridgerec.spectral import gap_profile
from ridgerec.testfns import TEST_FUNCTION_NAMES, generate_samples, get_test_function


class UsageError(Exception):
    """Bad flags, config, or input data; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _names(prefix: str, k: int) -> list:
    return [f"{prefix}{j + 1}" for j in range(k)]


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


#: Values formatted per block of CSV text (1 170 rows at 7 columns).
#: Blocks of 3 584 to 28 672 values took 1.6 to 1.9 ms per 7 168 values
#: on 2 vCPUs, fastest near 8 192.
CSV_BLOCK_VALUES = 8192
#: Powers of ten in the scaling table: 10^(16 - k) for every decimal
#: exponent k of |x| in ``_PLAIN_RANGE``, and one more on each side,
#: where ``log10`` is one off.
_POWERS = range(-275, 308)
#: Widest |x| the kernel scales; subnormals, nan, inf and values beyond
#: these go to ``"%.17g" %``.
_PLAIN_RANGE = (1e-290, 1e290)
#: A scaled value's fraction this near 0.5 may be a decimal tie, which the
#: double-double product cannot break; its error is below 1e-14.
_TIE_MARGIN = 1e-7
#: The sign, exponent and top 25 stored bits of a double: its top 26 significant bits.
_TOP_BITS = ~np.int64((1 << 27) - 1)


@functools.cache
def _text_tables() -> SimpleNamespace:
    """The tables of :func:`_csv_text`, built on first use.

    A cell is the text of one value in six 8-byte words, NUL where no
    character goes: a head ``-0.000``, four words of four digits each
    followed by a dot slot, and a tail of the 17th digit, ``e±XXX`` and
    the separator.  ``masks`` keeps, per layout code (sign, decimal
    exponent class, significant digits), the bytes that ``%.17g`` prints.
    """
    hi, lo = [], []
    for p in _POWERS:
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi.append(num / den)  # int / int rounds correctly
        hi_num, hi_den = hi[-1].as_integer_ratio()
        lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    hi, lo = np.array(hi), np.array(lo)
    # The top 26 significant bits of each power, for Dekker's product.
    hi_top = (hi.view(np.int64) & _TOP_BITS).view(np.float64)
    group = np.arange(10_000, dtype=np.int16)
    quads = np.full((10_000, 8), ord("."), np.uint8)
    quads[:, ::2] = group[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")

    def words(texts) -> np.ndarray:
        return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)

    masks = np.zeros((2, 22, 17, 48), np.uint8)
    for neg, kind, s in np.ndindex(2, 22, 17):
        mask, s = masks[neg, kind, s], s + 1
        mask[0], mask[46] = neg, 1
        if kind == 21:  # d.ddde+XX
            digits, dot = s, 0 if s > 1 else None
            mask[41:46] = 1
        elif kind < 4:  # 0.000ddd
            digits, dot = s, None
            mask[1:6 - kind] = 1
        else:  # ddd.ddd
            digits, dot = max(s, kind - 3), kind - 4 if s > kind - 3 else None
        mask[[8 + 2 * j for j in range(min(digits, 16))] + [40] * (digits == 17)] = 1
        if dot is not None:
            mask[9 + 2 * dot] = 1
    return SimpleNamespace(
        powers=np.stack([hi, hi_top, hi - hi_top, lo]),
        head=words([b"-0.000"])[0],
        quads=quads.view(np.uint64).ravel(),
        last=words(b"%d" % d for d in range(10)),
        exps=words(b"\0e%+03d" % e for e in range(-300, 301)),
        seps=words([b"\0" * 6 + b",", b"\0" * 6 + b"\n"]),
        zeros=sum(group % 10**j == 0 for j in range(1, 5)).astype(np.int8),
        masks=(masks * 255).view(np.uint64).reshape(-1, 6),
    )


def _text_work(values: int) -> SimpleNamespace:
    """The large buffers of :func:`_csv_text` for up to ``values`` values, reused block after block.

    Fresh arrays this size fault their pages in again on every block:
    35 % of a 1 024 x 7 block's time on 2 vCPUs.
    """
    return SimpleNamespace(powers=np.empty((4, values)), quads=np.empty((4, values), np.int64),
                           cells=np.empty((values, 6), np.uint64),
                           masks=np.empty((values, 6), np.uint64))


def _scaled(a: np.ndarray, k: np.ndarray, t: SimpleNamespace, powers: np.ndarray) -> tuple:
    """|x| 10^(16 - k) as its integer part and fraction, within 1e-14.

    The power is a double-double (``hi + lo`` within 2^-106 of it).  ``a``
    and ``hi`` are each split into their top 26 significant bits and the
    rest, so the partial products give back the rounding error of
    ``ph = a * hi`` (Dekker's product; all are exact but the smallest,
    rest by rest) and only terms near 1 round.  Over 20 000 values across
    the whole range, the worst error was 4.6e-15.  Where the result is
    10^16 or more, ``ph`` is an integer.  ``powers`` takes the four table
    rows.
    """
    np.take(t.powers, 16 - k - _POWERS.start, axis=1, out=powers, mode="clip")
    hi, hi_top, hi_rest, lo = powers
    a_top = (a.view(np.int64) & _TOP_BITS).view(np.float64)
    a_rest = a - a_top
    ph = a * hi
    r = (a_top * hi_top - ph) + a_top * hi_rest + a_rest * hi_top + a_rest * hi_rest + a * lo
    whole = np.floor(r)
    return ph.astype(np.int64) + whole.astype(np.int64), r - whole


def _csv_text(table: np.ndarray, work: SimpleNamespace) -> bytes:
    """The CSV lines of a float64 table, each value as ``"%.17g" % v`` prints it.

    Vectorized: each value's 17 significant digits are the rounded
    |x| 10^(16 - k), k = floor(log10 |x|), and its text is a 48-byte
    cell (:func:`_text_tables`) whose unused bytes are NUL and are
    dropped at the end.  Values the kernel does not round itself are
    printed by Python, one ``"%.17g" %`` call per block: nonzero values
    outside ``_PLAIN_RANGE`` (subnormals, nan and inf among them), those
    within ``_TIE_MARGIN`` of a decimal tie, and those next to a power
    of ten where ``log10`` is one off, so that the scaled value misses
    [10^16, 10^17).  ``work`` holds buffers from :func:`_text_work` for
    at least ``table.size`` values.
    """
    t = _text_tables()
    v = table.ravel()
    n = len(v)
    a = np.abs(v)
    plain = (a >= _PLAIN_RANGE[0]) & (a <= _PLAIN_RANGE[1])
    a = np.where(plain, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int16)
    q, frac = _scaled(a, k, t, work.powers[:, :n])
    plain &= (np.abs(frac - 0.5) > _TIE_MARGIN) & (q >= 10**16) & (q < 10**17)
    q += frac > 0.5
    carry = q == 10**17
    if carry.any():
        q[carry] = 10**16
        k += carry
    zero = v == 0  # scaled as 1.0 above: k = 0, and no digit but "0"
    plain |= zero
    q[zero] = 0

    # A value Python prints may have q outside [10^16, 10^17]: the lookups
    # below clip, and its cell is written over at the end.
    top = q // 10
    last = q - top * 10
    high = top // 10**8
    low = top - high * 10**8
    quads = work.quads[:, :n]
    np.floor_divide(high, 10**4, out=quads[0])
    np.floor_divide(low, 10**4, out=quads[2])
    np.subtract(high, quads[0] * 10**4, out=quads[1])
    np.subtract(low, quads[2] * 10**4, out=quads[3])
    z = np.take(t.zeros, quads, mode="clip")  # trailing zeros per group, 4 for 0000
    zeros = (last == 0) * (1 + z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (
        z[1] + (z[1] == 4) * z[0])))
    kind = np.where((k >= -4) & (k < 17), k + 4, 21)  # fixed notation by k, or d.ddde+XX
    code = (np.signbit(v) * 22 + kind) * 17 + np.maximum(16 - zeros, 0)

    cells = work.cells[:n]
    cells[:, 0] = t.head
    cells[:, 1:5] = np.take(t.quads, quads, mode="clip").T
    sep = np.take(t.seps, np.arange(table.shape[1]) == table.shape[1] - 1)
    cells[:, 5].reshape(table.shape)[:] = (
        np.take(t.last, last) | np.take(t.exps, k + 300)).reshape(table.shape) | sep
    cells &= np.take(t.masks, code, axis=0, out=work.masks[:n], mode="clip")
    one_by_one = np.flatnonzero(~plain)
    if len(one_by_one):
        text = ("%.17g\0" * len(one_by_one) % tuple(v[one_by_one].tolist())).encode("ascii")
        texts = np.array(text.split(b"\0")[:-1], "S40")  # NUL-padded to five words
        cells[one_by_one, :5] = texts.view(np.uint64).reshape(-1, 5)
        cells[one_by_one, 5] = sep[one_by_one % table.shape[1]]
    return cells.tobytes().translate(None, b"\0")


def _write_csv(path: Path, header: list, *columns) -> None:
    """Header line plus one row per row of ``columns``, floats to 17 significant digits.

    ``columns`` are tables and vectors of equal length, side by side.
    The bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",")`` on
    their ``np.column_stack``, which is never built whole: blocks of
    about ``CSV_BLOCK_VALUES`` values are stacked and formatted
    (:func:`_csv_text`) in turn, on the calling thread, into one set of
    buffers, and each block's text goes to the file before the next is
    made.  A CSV pays no pool (:func:`~ridgerec.core._cpu_map`): each
    array operation of a block is too short for two threads to share the
    interpreter lock, and two blocks at once wrote slower than one.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    n_rows = len(columns[0])
    width = sum(c.shape[1] if c.ndim > 1 else 1 for c in columns)
    rows = max(1, CSV_BLOCK_VALUES // width)
    work = _text_work(min(n_rows, rows) * width)

    def chunks():
        yield (",".join(header) + "\n").encode("ascii")
        for start in range(0, n_rows, rows):
            yield _csv_text(np.column_stack([c[start:start + rows] for c in columns]), work)

    write_atomic(path, chunks())


def write_samples_csv(path: Path, rows, outputs) -> None:
    """Write ``rows`` and their ``outputs`` under the header x1,...,xm,y."""
    m = np.shape(rows)[1] if np.ndim(rows) > 1 else 1
    _write_csv(path, _names("x", m) + ["y"], rows, outputs)


def read_samples_csv(path: Path) -> SampleSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            with warnings.catch_warnings():  # a file without rows is refused below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                body = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise UsageError(f"cannot read samples file: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"malformed samples file {path}: {exc}") from exc
    cols = header.split(",")
    m = len(cols) - 1
    if m < 1 or cols != _names("x", m) + ["y"]:
        raise UsageError(
            f"samples file must have header x1,...,xm,y (got {header!r})"
        )
    if body.shape[0] == 0:
        raise UsageError(f"samples file {path} has no rows")
    if body.shape[1] != m + 1:
        raise UsageError("samples file rows do not match header width")
    return SampleSet(inputs=body[:, :m], outputs=body[:, m])


#: Each measure kind's constructor and the spec keys it takes, in order; any
#: kind may also carry ``dimension``, which must then match the measure.
_MEASURE_KINDS = {
    "standard-gaussian": (InputMeasure.standard_gaussian, ("dimension",)),
    "gaussian": (InputMeasure.gaussian, ("mean", "cov")),
    "uniform-box": (InputMeasure.uniform_box, ("lower", "upper")),
}


def measure_from_spec(spec: dict) -> InputMeasure:
    """Build an InputMeasure from its JSON object form, refusing keys its kind does not take."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _MEASURE_KINDS:
        raise UsageError(f"unknown measure kind {kind!r}; "
                         f"expected one of {', '.join(_MEASURE_KINDS)}")
    make, keys = _MEASURE_KINDS[kind]
    unknown = sorted(set(spec) - {"kind", "dimension", *keys})
    if "log_transform" in unknown:
        raise UsageError("log_transform is not supported; take logs of the "
                         "input columns before ingest")
    if unknown:
        raise UsageError(f"measure spec key(s) {', '.join(unknown)} do not apply to kind {kind}")
    if "dimension" in spec and type(spec["dimension"]) is not int:
        raise UsageError("measure spec key dimension must be an integer, "
                         f"got {json.dumps(spec['dimension'])}")
    try:
        measure = make(*[spec[key] for key in keys])
    except KeyError as exc:
        raise UsageError(f"measure spec of kind {kind} lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad measure spec: {exc}") from exc
    if spec.get("dimension", measure.dimension) != measure.dimension:
        raise UsageError(f"measure spec key dimension is {spec['dimension']!r}, but the "
                         f"{kind} measure has dimension {measure.dimension}")
    return measure


def measure_to_spec(measure: InputMeasure) -> dict:
    """The JSON object form of a measure: its kind, dimension and the keys its kind takes."""
    _, keys = _MEASURE_KINDS[measure.kind]
    return {"kind": measure.kind,
            **{key: np.asarray(getattr(measure, key)).tolist() for key in ("dimension", *keys)}}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _require(value, what: str):
    if value is None:
        raise UsageError(f"missing required option: {what}")
    return value


def cmd_sample(args: argparse.Namespace) -> int:
    fn = get_test_function(_require(args.function, "--function"))
    n = _require(args.n, "--n")
    seed = args.seed or 0
    s = generate_samples(fn, n, seed)
    rows = s.inputs if args.raw else s.standardizer.whiten(s.inputs)
    write_samples_csv(args.out / "samples.csv", rows, s.outputs)
    sidecar = {
        "function": fn.name,
        "n": n,
        "m": fn.dimension,
        "seed": seed,
        "standardized": not args.raw,
        "measure": measure_to_spec(fn.measure),
    }
    write_atomic(args.out / "samples.json", _json_text(sidecar))
    if args.verbose:
        print(f"wrote {args.out / 'samples.csv'} ({n} rows)")
    return 0


def _refuse(args: argparse.Namespace, source: str, *dests: str) -> None:
    """Exit 2 naming each of ``dests`` that was given: it does not apply to ``source``.

    Each defaults to None or False, so a value that is neither was given.
    The test is by identity: ``--seed 0`` equals False but is not False.
    """
    names = [dest if dest == "measure" else "--" + dest.replace("_", "-")
             for dest in dests
             if getattr(args, dest) is not None and getattr(args, dest) is not False]
    if names:
        raise UsageError(f"{' and '.join(names)} cannot be used with {source}")


def _slice_count(args: argparse.Namespace, n_samples: int, m: int) -> int:
    """The slice count for ``n_samples`` rows of ``m`` inputs, once the estimate rules hold."""
    n_slices = args.slices or default_slice_count(n_samples)
    try:
        check_estimate_rules(args.command, args.dim, m, args.slice_scheme, n_slices, n_samples,
                             "the sample count")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return n_slices


def _obtain_samples(args: argparse.Namespace):
    """Generate from a built-in model or ingest a CSV; return the set, its source and slice count.

    The estimate rules are checked before a model is drawn, and as soon
    as a file is read.
    """
    if (args.input is None) == (args.function is None):
        raise UsageError("exactly one of --function or --input is required")
    if args.function is not None:
        _refuse(args, "--function", "assume_standardized", "measure")
        fn = get_test_function(args.function)
        n = _require(args.n, "--n")
        n_slices = _slice_count(args, n, fn.dimension)
        return generate_samples(fn, n, args.seed or 0), args.function, n_slices

    _refuse(args, "--input", "n", "seed")
    s = read_samples_csv(Path(args.input))
    n_slices = _slice_count(args, s.n_samples, s.dimension)
    violations = validate_sample_set(s)
    if violations:
        raise UsageError("ingested samples are invalid: " + "; ".join(violations))
    if args.assume_standardized:
        _refuse(args, "--assume-standardized", "measure")
        defect, where = whitening_defect(s.inputs)
        if not defect <= WHITENING_DEFECT_LIMIT:  # nan, where a square overflows, too
            off = (f"{defect:.1f} standard errors from its whitened value"
                   if np.isfinite(defect) else "not finite")
            raise UsageError(
                f"--assume-standardized, but the rows are not whitened: their {where} is "
                f"{off} (limit {WHITENING_DEFECT_LIMIT:g} standard errors); give a "
                f"\"measure\" spec to whiten against")
        std = Standardizer.identity(s.dimension)
    elif args.measure is not None:
        std = fit_standardizer(measure_from_spec(args.measure))
        if std.dimension != s.dimension:
            raise UsageError(f"measure spec has dimension {std.dimension}, but the "
                             f"samples have {s.dimension} input columns")
    else:
        raise UsageError(
            "ingested samples need either --assume-standardized or a "
            "\"measure\" spec in the config file to standardize against"
        )
    return standardize(s, std), args.input, n_slices


def cmd_estimate(args: argparse.Namespace) -> int:
    s, source, n_slices = _obtain_samples(args)
    m = s.dimension
    est = estimate(s, n_slices, args.slice_scheme, args.command, args.dim)
    profile = gap_profile(est.spectrum)
    stats_counts = est.partition.counts

    payload = {
        "method": args.command,
        "source": source,
        "n_samples": s.n_samples,
        "m": m,
        "n_components": args.dim,
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
    write_atomic(args.out / "estimate.json", _json_text(payload))

    W = est.spectrum.eigenvectors
    _write_csv(args.out / "eigvecs.csv", _names("w", W.shape[1]), W)

    dims = min(2, args.dim)
    plot = summary_plot_data(s, est, dims)
    _write_csv(args.out / "summary_plot.csv", _names("z", dims) + ["y"],
               plot.projections, plot.outputs)

    if args.verbose:
        print(f"wrote estimate artifacts to {args.out}")
    return 0


def cmd_converge(args: argparse.Namespace) -> int:
    function = _require(args.function, "--function")
    sizes = _require(args.sizes, "--sizes")
    try:
        cfg = StudyConfig(
            function=function,
            method=args.method,
            sizes=sizes,
            trials=args.trials,
            seed=args.seed or 0,
            n_components=args.dim,
            n_slices=args.slices or default_slice_count(min(sizes)),
            scheme=args.slice_scheme,
            truth_size=args.truth_size or 10 * max(sizes),
            truth_seed=args.truth_seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    study = run_convergence(cfg, args.cache_dir or args.out / "cache")

    _write_csv(args.out / "study.csv", ["N", "trial", "N_r_min", "eig_mse_norm", "subspace_dist"],
               np.array([[r.size, r.trial, r.n_r_min, r.eig_mse_norm, r.subspace_dist]
                         for r in study.records]))
    payload = {
        "config": dataclasses.asdict(cfg),
        "subspace_slope": study.subspace_slope,
        "eig_mse_slope": study.eig_mse_slope,
        "distance_trend_inversions": study.distance_trend_inversions,
        # JSON object keys must be strings
        "mean_subspace_dist": {str(k): v for k, v in study.mean_by_size("subspace_dist").items()},
        "mean_eig_mse_norm": {str(k): v for k, v in study.mean_by_size("eig_mse_norm").items()},
        "truth_eigenvalues": study.truth.eigenvalues.tolist(),
    }
    write_atomic(args.out / "study.json", _json_text(payload))

    if study.subspace_slope is None:
        print("warning: fewer than 3 sizes; slopes omitted from study.json", file=sys.stderr)
    if args.verbose:
        print(f"wrote study artifacts to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parsing: flags and config files
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text) if text.strip().isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _sizes(text: str) -> tuple:
    return tuple(_positive_int(tok) for tok in text.split(",") if tok.strip())


def _function_name(text: str) -> str:
    if text not in TEST_FUNCTION_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown function {text!r}; built-ins are {', '.join(TEST_FUNCTION_NAMES)}"
        )
    return text


def build_parser() -> argparse.ArgumentParser:
    """The one place each option's flag, type, choices and default are declared.

    Dests are derived from the flags, so a config key ``truth_size`` is
    the flag ``--truth-size``.
    """
    parser = _Parser(
        prog="ridgerec",
        description="Ridge recovery via sliced inverse regression (sir) and "
        "sliced average variance estimation (save).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sample = sub.add_parser("sample", help="draw and evaluate a built-in model")
    p_est = [sub.add_parser(name, help=f"run {name} on generated or ingested samples")
             for name in METHODS]
    p_conv = sub.add_parser("converge", help="run a convergence study")

    for p in [p_sample, *p_est, p_conv]:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", type=Path, default=".",
                       help="output directory (default: current directory)")
        # Read as ``args.seed or 0``: no default value, so that `--seed 0`
        # can be told from no `--seed` where a seed does not apply.
        p.add_argument("--seed", type=int, help="master seed (default: 0)")
        p.add_argument("--verbose", action="store_true", help="print progress notes")
        p.add_argument("--function", type=_function_name,
                       help=f"built-in model: {', '.join(TEST_FUNCTION_NAMES)}")
    for p in [p_sample, *p_est]:
        p.add_argument("--n", type=_positive_int, help="number of samples to generate")
    p_sample.add_argument("--raw", action="store_true",
                          help="write raw measure draws instead of standardized inputs")
    for p in p_est:
        p.add_argument("--input", help="ingest a samples.csv instead of generating")
        p.add_argument("--assume-standardized", action="store_true",
                       help="treat ingested inputs as already whitened (the identity map)")
        p.set_defaults(measure=None)  # config-file only: the spec to whiten against
    for p in [*p_est, p_conv]:
        p.add_argument("--slices", type=_positive_int, help="slice count (default: sqrt rule)")
        p.add_argument("--slice-scheme", choices=SCHEMES, default="equal-count")
        p.add_argument("--dim", type=_positive_int, default=1,
                       help="requested subspace dimension")
    p_conv.add_argument("--method", choices=METHODS, default="sir")
    p_conv.add_argument("--sizes", type=_sizes, help="comma-separated ascending sample sizes")
    p_conv.add_argument("--trials", type=_positive_int, default=10)
    p_conv.add_argument("--truth-size", type=_positive_int,
                        help="surrogate sample size (default: 10x the largest size)")
    p_conv.add_argument("--truth-seed", type=int, default=777)
    p_conv.add_argument("--cache-dir", help="surrogate cache (default: OUT/cache)")
    return parser


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


def _config_tokens(config: dict, args: argparse.Namespace) -> list:
    """Turn config entries into flag tokens for the subcommand's parser.

    ``args`` is the command line parsed alone; its attributes are the
    subcommand's dests, so they are the valid keys.
    """
    keys = sorted(set(vars(args)) - {"command", "config", "verbose"})
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise UsageError(f"unknown config key(s) for {args.command}: {', '.join(unknown)}; "
                         f"valid keys are {', '.join(keys)}")
    tokens = []
    for key, value in config.items():
        if key == "measure":
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):  # a store_true switch
            if not isinstance(value, bool):
                raise UsageError(f"config key {key!r} must be true or false, got {value!r}")
            tokens += [flag] if value else []
        elif isinstance(value, (str, int, float, list)) and not isinstance(value, bool):
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            tokens.append(f"{flag}={text}")
        else:
            raise UsageError(f"config key {key!r} has a value of the wrong kind: {value!r}")
    return tokens


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        args = parser.parse_args(argv[:1] + _config_tokens(config, args) + argv[1:])
        if args.command == "sample":
            return cmd_sample(args)
        if args.command in METHODS:
            args.measure = config.get("measure")
            return cmd_estimate(args)
        return cmd_converge(args)
    except (UsageError, SliceRuleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime/numeric failure
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
