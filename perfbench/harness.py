"""Set-up, the timed closed loop, metrics and the report for one workload.

One client issues ops back to back.  Set-up (import, inputs, cache fill
and one warm-up op) is repeated ``SETUP_REPS`` times and reported as a
median.  The untraced run reports the end-to-end metrics.  The traced
run alternates traced and untraced ops, so ``trace.overhead_ratio``
compares ops taken seconds apart rather than runs taken minutes apart,
and reports per-layer self times and counts per traced op.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from perfbench.tracing import LAYER_TIMES, Tracer, self_times
from perfbench.workloads import WORKLOADS, CheckFailed

SETUP_REPS = 3
#: The loop stops here even if the input pool is not yet covered, so a
#: run ends well inside the 180 s a run may take.
MAX_LOOP_S = 120.0
PROGRAM_MODULES = ("core", "measures", "testfns", "slicing", "estimators", "spectral",
                   "experiments", "cli")

#: The gated end-to-end metrics.  ``op_s_min`` is the fastest op of the run,
#: the cost of an op without interference from other tenants of the host.
#: ``op_s_p50``, ``samples_per_s`` and ``ops_failed_ratio`` are reported but
#: not gated: on a host with contention phases the per-run median and mean
#: shift with the share of the run spent in slow phases, and a failed op
#: already fails the run.
END_TO_END_UNITS = {
    "op_s_min": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "subspace_dist": "dimensionless",
}

PER_OP_COUNTS = {
    "measures.values_drawn": "count",
    "core.bytes_copied": "bytes",
    "slicing.gather_bytes": "bytes",
    "estimators.matrix_flops": "flop",
    "experiments.cache_hits": "count",
    "experiments.cache_misses": "count",
    "experiments.trials": "count",
    "cli.bytes_written": "bytes",
    "cli.bytes_read": "bytes",
}
COMPUTED = ("measures.values_drawn", "core.bytes_copied", "slicing.gather_bytes",
            "estimators.matrix_flops")


def per_layer_units() -> dict:
    units = {name: "s" for name in LAYER_TIMES}
    units.update(PER_OP_COUNTS)
    units.update({
        "measures.identity_whitening_ratio": "ratio",
        "slicing.slices_realized": "count",
        "slicing.min_count": "count",
        "trace.overhead_ratio": "ratio",
    })
    return units


def load_program(fresh: bool = False) -> SimpleNamespace:
    """Import the ridgerec modules, optionally dropping earlier imports first."""
    if fresh:
        for name in [n for n in sys.modules if n == "ridgerec" or n.startswith("ridgerec.")]:
            del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"ridgerec.{m}") for m in PROGRAM_MODULES})


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

@dataclass
class LoopResult:
    """Every attempted op: (seconds or None if it failed, traced)."""

    ops: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    elapsed: float = 0.0
    #: pool index -> (subspace distance, fingerprint) of its first run.
    first: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for t, _ in self.ops if t is None)

    def times(self, traced: bool) -> list:
        return [t for t, tr in self.ops if t is not None and tr == traced]


def _no_count(name, value):
    pass


def reconstruct_estimates(core, estimates) -> None:
    """Rebuild each SdrEstimate from its outputs, re-running every invariant check."""
    for est in estimates:
        spectrum = core.SymmetricSpectrum(matrix=est.spectrum.matrix,
                                          eigenvalues=est.spectrum.eigenvalues,
                                          eigenvectors=est.spectrum.eigenvectors)
        core.SdrEstimate(method=est.method, spectrum=spectrum, partition=est.partition,
                         n_requested=est.n_requested)


def run_op(wl, i: int, first: dict, tracer=None) -> float:
    """Run and check op ``i``; return its seconds or raise on a failed check."""
    k = i % wl.pool_size
    if tracer is None:
        t0 = time.perf_counter()
        result = wl.op(k, _no_count)
        seconds = time.perf_counter() - t0
        dist, fingerprint = wl.check(k, result)
    else:
        tracer.op = i
        tracer.estimates.clear()
        with tracer.installed():
            with tracer.span("op"):
                t0 = time.perf_counter()
                result = wl.op(k, tracer.count)
                seconds = time.perf_counter() - t0
            with tracer.span("check"):
                dist, fingerprint = wl.check(k, result)
                with tracer.span("core.invariant_checks"):
                    reconstruct_estimates(wl.p.core, tracer.estimates)
        written, read = wl.io_bytes(result)
        tracer.count("cli.bytes_written", written)
        tracer.count("cli.bytes_read", read)
        tracer.op = None
    if k in first:
        if first[k][1] != fingerprint:
            raise CheckFailed(f"op {i}: result for input {k} differs from its first run")
    else:
        first[k] = (dist, fingerprint)
    return seconds


def traced_turn(i: int, pool_size: int) -> bool:
    """Alternate traced and untraced ops, flipping the pattern on each pass
    through an even-sized pool so every input also runs the other way."""
    flip = i // pool_size if pool_size % 2 == 0 else 0
    return (i + flip) % 2 == 0


def timed_loop(wl, seconds: float, first: dict, tracer=None,
               max_seconds: float = MAX_LOOP_S) -> LoopResult:
    """Issue ops back to back for ``seconds`` and until the pool is covered.

    A failed op is recorded with no time and the loop goes on; nothing
    is dropped from the count of attempted ops.
    """
    loop = LoopResult(first=first)
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (i >= wl.pool_size and elapsed >= seconds) or elapsed >= max_seconds:
            break
        traced = tracer is not None and traced_turn(i, wl.pool_size)
        try:
            t = run_op(wl, i, first, tracer if traced else None)
        except Exception as exc:  # a failed op is counted, never fatal
            loop.ops.append((None, traced))
            if len(loop.errors) < 5:
                loop.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            loop.ops.append((t, traced))
        i += 1
    loop.elapsed = time.perf_counter() - start
    return loop


def set_up(name: str, seed: int, workdir: Path) -> tuple:
    """Repeat the whole set-up; return the last workload, the times and first results."""
    times, previous = [], None
    for _ in range(SETUP_REPS):
        wl = None  # free the previous repetition's inputs before building new ones
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        wl = WORKLOADS[name](load_program(fresh=True), seed, workdir)
        wl.prepare()
        first = {}
        run_op(wl, 0, first)
        times.append(time.perf_counter() - t0)
        if previous is not None and previous != first[0][1]:
            raise CheckFailed("warm-up result changed between set-up repetitions")
        previous = first[0][1]
    return wl, times, first


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(wl, loop: LoopResult, setup_times: list) -> dict:
    times = loop.times(traced=False)
    dists = [d for d, _ in loop.first.values()]
    return {
        "op_s_min": min(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "subspace_dist": statistics.fmean(dists),
    }


def per_layer_metrics(tracer: Tracer, loop: LoopResult) -> tuple[dict, float]:
    """Per-layer metrics per traced op, and the op time outside every layer."""
    n_traced = sum(1 for _, tr in loop.ops if tr)
    selfs = self_times(tracer.spans)
    out = {metric: sum(selfs.get(s, 0.0) for s in spans) / n_traced
           for metric, spans in LAYER_TIMES.items()}
    for name in PER_OP_COUNTS:
        out[name] = tracer.totals.get(name, 0.0) / n_traced
    whitenings = tracer.totals.get("measures.whitenings", 0.0)
    out["measures.identity_whitening_ratio"] = (
        tracer.totals.get("measures.identity_whitenings", 0.0) / whitenings if whitenings else 0.0)
    realized = tracer.observed.get("slicing.slices_realized") or [0]
    out["slicing.slices_realized"] = statistics.median(realized)
    out["slicing.min_count"] = min(tracer.observed.get("slicing.min_count") or [0])
    out["trace.overhead_ratio"] = (statistics.median(loop.times(traced=True))
                                   / statistics.median(loop.times(traced=False)) - 1.0)
    return out, selfs.get("op", 0.0) / n_traced


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(root / ".git" / "HEAD")
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(root / ".git" / ref)
    if sha:
        return sha
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind != "Instruction":
            sizes[f"L{level}"] = _read(index / "size")
    return sizes


def environment(root: Path) -> dict:
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        **_cache_sizes(),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(wl, env: dict, loop: LoopResult, e2e: dict, layers, glue) -> list:
    """Human-readable lines: environment, input size, metrics with units."""
    lines = [f"workload {wl.name}: {wl.input_size}",
             "environment: " + ", ".join(f"{k}={v}" for k, v in env.items())]
    l3 = env.get("L3", "unknown")
    for name, nbytes in wl.working_set.items():
        lines.append(f"working set: {name} {nbytes / 1e6:.1f} MB against L3 {l3} "
                     "(L3 is shared with other tenants; no bandwidth figure is claimed)")
    times = loop.times(traced=False)
    lines.append(f"closed loop, one client, {loop.attempted} ops attempted in {loop.elapsed:.1f} s, "
                 f"{len(times)} untraced ops timed")
    for name, value in e2e.items():
        lines.append(f"  {name:<34} {_fmt(value):>14} {END_TO_END_UNITS[name]}")
    lines.append(f"  {'ops_failed_ratio':<34} {loop.failed / loop.attempted:>14.6g} ratio "
                 f"({loop.failed} of {loop.attempted})")
    if times:
        lines.append(f"  {'op_s_p50':<34} {_fmt(statistics.median(times)):>14} s "
                     f"(median of {len(times)} ops)")
        lines.append(f"  {'samples_per_s':<34} {_fmt(wl.rows_per_op * len(times) / sum(times)):>14} "
                     "samples/s (input rows over total op time)")
    if len(times) > 20:
        q = (len(times) - 10) / len(times)
        hi = float(np.quantile(times, q))
        lines.append(f"  {'op_s_p%d' % int(100 * q):<34} {_fmt(hi):>14} s "
                     "(highest percentile with 10 ops above it)")
    if layers is not None:
        units = per_layer_units()
        lines.append("per layer, self time and counts per traced op:")
        for name, value in layers.items():
            tag = " (computed)" if name in COMPUTED else ""
            lines.append(f"  {name:<34} {_fmt(value):>14} {units[name]}{tag}")
        lines.append(f"  {'(op time outside every layer)':<34} {_fmt(glue):>14} s")
    lines += [f"error: {e}" for e in loop.errors]
    return lines


def result_line(loop: LoopResult, pool_size: int, metrics, units: dict) -> dict:
    """The result object; correct only if no op failed and every metric is present."""
    covered = len(loop.first) == pool_size
    return {
        "correct": loop.failed == 0 and covered and metrics is not None
        and set(metrics) == set(units),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in (metrics or {}).items()},
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    """Run one workload; print the report and the result line; return the exit code."""
    workdir = root / ".perfbench" / "work" / f"{name}-{os.getpid()}"
    try:
        wl, setup_times, first = set_up(name, seed, workdir)
        tracer = Tracer() if trace else None
        loop = timed_loop(wl, seconds, first, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(loop.first) < wl.pool_size:
        loop.errors.append(f"only {len(loop.first)} of {wl.pool_size} pool inputs ran")
    e2e = end_to_end_metrics(wl, loop, setup_times) if loop.times(traced=False) else {}
    timed_both = loop.times(traced=True) and loop.times(traced=False)
    layers, glue = per_layer_metrics(tracer, loop) if trace and timed_both else (None, None)
    env = environment(root)
    for line in report(wl, env, loop, e2e, layers, glue):
        print(line)
    if trace and tracer.missing:
        print("not traced, absent from this program: " + ", ".join(sorted(tracer.missing)))
    if trace:
        result = result_line(loop, wl.pool_size, layers, per_layer_units())
    else:
        result = result_line(loop, wl.pool_size, e2e, END_TO_END_UNITS)
    record = {"workload": name, "seed": seed, "trace": trace, "environment": env,
              "input_size": wl.input_size, "setup_s": setup_times, "ops": loop.ops,
              "errors": loop.errors, "missing_targets": sorted(tracer.missing) if trace else [],
              "result": result}
    if trace:
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans]
    out = root / ".perfbench" / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record))
    print(f"spans and raw op times: {out.relative_to(root)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
