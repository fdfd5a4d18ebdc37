"""Spans and counts for the traced run, recorded from outside the program.

The tracer replaces public ridgerec functions on the module attributes
where their callers look them up (``ridgerec.estimators.slice_stats``,
``ridgerec.testfns.draw``, ``ridgerec.cli.read_samples_csv``, ...) with
thin wrappers that record a span and, after the call returns, derive
counts from argument and result shapes.  Only functions are wrapped,
never classes, so ``isinstance`` checks inside the program keep working.
Spans stay in memory until the run ends.

Counts named ``*_bytes``, ``*_flops``, ``bytes_copied`` and
``values_drawn`` are computed from array shapes: they compare versions of
one program and say nothing about cache behaviour.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class Span:
    """One call at a layer boundary; ``parent`` indexes ``Tracer.spans``."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]


def _sample_set_bytes(s) -> int:
    return s.inputs.nbytes + s.outputs.nbytes


def _on_draw(tracer, args, kwargs, result, index):
    tracer.count("measures.values_drawn", result.size)


def _on_standardize(tracer, args, kwargs, result, index):
    std = args[1] if len(args) > 1 else kwargs["std"]
    tracer.count("measures.whitenings", 1)
    if not std.mean.any() and np.array_equal(std.whitening, np.eye(std.dimension)):
        tracer.count("measures.identity_whitenings", 1)
    # standardize() freezes a copy of its output into a new SampleSet.
    tracer.count("core.bytes_copied", _sample_set_bytes(result))


def _on_generate(tracer, args, kwargs, result, index):
    # The raw SampleSet built inside generate_samples() freezes a copy of
    # the draws and responses; the whitened copy is counted by standardize.
    tracer.count("core.bytes_copied", _sample_set_bytes(result))


def _on_partition(tracer, args, kwargs, result, index):
    tracer.observe("slicing.slices_realized", result.n_slices)
    tracer.observe("slicing.min_count", result.min_count)
    # SlicePartition freezes a copy of every membership array.
    itemsize = np.dtype(np.intp).itemsize
    tracer.count("core.bytes_copied", result.n_samples * itemsize + result.boundaries.nbytes)


def _on_slice_stats(tracer, args, kwargs, result, index):
    s = args[0] if args else kwargs["s"]
    # Every input row and response is gathered once by slice index.
    tracer.count("slicing.gather_bytes", _sample_set_bytes(s))


def _on_sir_matrix(tracer, args, kwargs, result, index):
    stats = args[0] if args else kwargs["stats"]
    r, m = stats.n_slices, stats.dimension
    # Per slice: outer product, scale and accumulate (3 m^2); final scaling m^2.
    tracer.count("estimators.matrix_flops", 3 * r * m * m + m * m)


def _on_save_matrix(tracer, args, kwargs, result, index):
    stats = args[0] if args else kwargs["stats"]
    r, m = stats.n_slices, stats.dimension
    # Per slice: I - Sigma (m^2), its square (2 m^3), scale and accumulate (2 m^2).
    tracer.count("estimators.matrix_flops", r * (2 * m**3 + 3 * m * m) + m * m)


def _on_estimate(tracer, args, kwargs, result, index):
    tracer.estimates.append(result)


def _on_truth_surrogate(tracer, args, kwargs, result, index):
    built = any(s.name == "estimators.estimate" for s in tracer.spans[index + 1:])
    tracer.count("experiments.cache_misses" if built else "experiments.cache_hits", 1)


def _on_run_convergence(tracer, args, kwargs, result, index):
    tracer.count("experiments.trials", len(result.records))


def _on_read_samples(tracer, args, kwargs, result, index):
    tracer.count("core.bytes_copied", _sample_set_bytes(result))


#: (span name, [(module, attribute), ...], hook).  Each attribute is the
#: name a caller resolves at call time, so wrapping it there is enough.
TARGETS = (
    ("measures.draw", [("ridgerec.testfns", "draw")], _on_draw),
    ("measures.standardize",
     [("ridgerec.testfns", "standardize"), ("ridgerec.cli", "standardize"),
      ("ridgerec.measures", "standardize")], _on_standardize),
    ("measures.fit_standardizer",
     [("ridgerec.testfns", "fit_standardizer"), ("ridgerec.cli", "fit_standardizer"),
      ("ridgerec.measures", "fit_standardizer")], None),
    ("testfns.generate_samples",
     [("ridgerec.testfns", "generate_samples"), ("ridgerec.experiments", "generate_samples"),
      ("ridgerec.cli", "generate_samples")], _on_generate),
    ("slicing.partition",
     [("ridgerec.estimators", "partition_equal_count"),
      ("ridgerec.estimators", "partition_fixed")], _on_partition),
    ("slicing.slice_stats", [("ridgerec.estimators", "slice_stats")], _on_slice_stats),
    ("estimators.sir_matrix", [("ridgerec.estimators", "sir_matrix")], _on_sir_matrix),
    ("estimators.save_matrix", [("ridgerec.estimators", "save_matrix")], _on_save_matrix),
    ("estimators.estimate",
     [("ridgerec.estimators", "estimate"), ("ridgerec.experiments", "estimate"),
      ("ridgerec.cli", "estimate")], _on_estimate),
    ("spectral.decompose", [("ridgerec.estimators", "decompose")], None),
    ("spectral.subspace_distance",
     [("ridgerec.spectral", "subspace_distance"),
      ("ridgerec.experiments", "subspace_distance")], None),
    ("experiments.truth_surrogate", [("ridgerec.experiments", "truth_surrogate")],
     _on_truth_surrogate),
    ("experiments.run_convergence", [("ridgerec.cli", "run_convergence")], _on_run_convergence),
    ("experiments.summary_plot_data", [("ridgerec.cli", "summary_plot_data")], None),
    ("cli.main", [("ridgerec.cli", "main")], None),
    ("cli.write_samples_csv", [("ridgerec.cli", "write_samples_csv")], None),
    ("cli.read_samples_csv", [("ridgerec.cli", "read_samples_csv")], _on_read_samples),
)

#: Per-layer time metric -> the spans whose self time it sums.
LAYER_TIMES = {
    "measures.draw_s": ("measures.draw",),
    "measures.standardize_s": ("measures.standardize", "measures.fit_standardizer"),
    "testfns.generate_self_s": ("testfns.generate_samples",),
    "core.invariant_checks_s": ("core.invariant_checks",),
    "slicing.partition_s": ("slicing.partition",),
    "slicing.slice_stats_s": ("slicing.slice_stats",),
    "estimators.matrix_s": ("estimators.sir_matrix", "estimators.save_matrix"),
    "estimators.estimate_self_s": ("estimators.estimate",),
    "spectral.decompose_s": ("spectral.decompose",),
    "spectral.distance_s": ("spectral.subspace_distance",),
    "experiments.surrogate_s": ("experiments.truth_surrogate",),
    "experiments.self_s": ("experiments.run_convergence", "experiments.summary_plot_data"),
    "cli.self_s": ("cli.main",),
    "cli.write_samples_s": ("cli.write_samples_csv",),
    "cli.read_s": ("cli.read_samples_csv",),
}


class Tracer:
    """In-memory span and count recorder for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict = defaultdict(float)
        self.observed: dict = defaultdict(list)
        #: SdrEstimates returned inside the current op, for the invariant re-check.
        self.estimates: list = []
        #: Wrapper targets absent from the program under test.
        self.missing: set = set()
        self.op: Optional[int] = None
        self._stack: list[int] = []

    def count(self, name: str, value) -> None:
        self.totals[name] += value

    def observe(self, name: str, value) -> None:
        self.observed[name].append(value)

    def _open(self, name: str) -> tuple[int, Span]:
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        return index, span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around benchmark code (the op root, the checks)."""
        _, span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self, args, kwargs, result, index)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, targets, hook in TARGETS:
                for module_name, attr in targets:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr, None)
                    if original is None:
                        self.missing.add(f"{module_name}.{attr}")
                        continue
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, hook))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict:
    """Total self time per span name: duration minus the time children cover.

    The program is single-threaded, so a span's children run one after
    another inside it and their durations simply add up.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    totals: dict = defaultdict(float)
    for s, c in zip(spans, covered):
        totals[s.name] += s.end - s.start - c
    return dict(totals)
