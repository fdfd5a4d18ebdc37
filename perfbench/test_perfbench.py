"""Tests of the benchmark harness itself, on inputs small enough for the unit suite."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.tracing import TARGETS, Tracer
from perfbench.workloads import (
    WORKLOADS,
    CheckFailed,
    CliRoundtrip,
    ConvergeWarm,
    EstimateTall,
    EstimateWide,
)

ROOT = Path(__file__).resolve().parent.parent
SMALL = {
    EstimateTall: dict(n_samples=4000, pool_size=2),
    EstimateWide: dict(n_samples=3000, dimension=12, pool_size=2),
    ConvergeWarm: dict(sizes=(200, 400, 800), trials=2, truth_size=8000, n_slices=8),
    CliRoundtrip: dict(n_samples=2000, pool_size=2),
}


def make(cls, seed, workdir):
    wl = cls(harness.load_program(), seed, workdir, **SMALL[cls])
    # Small inputs recover the subspace poorly; these tests compare bits, not accuracy.
    wl.tolerance = 2.0
    wl.prepare()
    return wl


@pytest.mark.parametrize("cls", list(SMALL), ids=lambda c: c.name)
def test_seed_gives_byte_identical_inputs(cls, tmp_path):
    digest = make(cls, 7, tmp_path / "a").input_digest()
    assert make(cls, 7, tmp_path / "b").input_digest() == digest
    assert make(cls, 8, tmp_path / "c").input_digest() != digest


@pytest.mark.parametrize("cls", list(SMALL), ids=lambda c: c.name)
def test_traced_wrappers_leave_results_unchanged(cls, tmp_path):
    targets = [(importlib.import_module(m), a) for _, pairs, _ in TARGETS for m, a in pairs]
    originals = [getattr(module, attr) for module, attr in targets]
    wl = make(cls, 3, tmp_path)
    first = {}
    for i in range(wl.pool_size):
        harness.run_op(wl, i, first)
    tracer = Tracer()
    for i in range(wl.pool_size, 2 * wl.pool_size):
        # run_op raises CheckFailed unless the traced result matches the untraced bits.
        harness.run_op(wl, i, first, tracer)
    assert tracer.spans and not tracer.missing
    assert all(getattr(module, attr) is fn for (module, attr), fn in zip(targets, originals))


def test_converge_traced_op_reads_the_filled_cache(tmp_path):
    wl = make(ConvergeWarm, 3, tmp_path)
    first = {}
    harness.run_op(wl, 0, first)
    tracer = Tracer()
    harness.run_op(wl, 1, first, tracer)
    assert tracer.totals["experiments.cache_hits"] == 1
    assert tracer.totals.get("experiments.cache_misses", 0) == 0
    assert tracer.totals["experiments.trials"] == 6


class FailsOnThirdCheck:
    """A stand-in workload whose third result check fails."""

    pool_size = 2

    def __init__(self):
        self.checks = 0

    def op(self, k, count):
        return k

    def check(self, k, result):
        self.checks += 1
        if self.checks == 3:
            raise CheckFailed("wrong answer")
        return 0.5, bytes([k])


def test_failed_check_is_counted_not_dropped():
    loop = harness.timed_loop(FailsOnThirdCheck(), seconds=0.02, first={})
    assert loop.failed == 1
    assert loop.attempted > 3
    assert len(loop.times(traced=False)) == loop.attempted - 1
    assert "wrong answer" in loop.errors[0]
    result = harness.result_line(loop, pool_size=2, metrics={"setup_s": 1.0},
                                 units={"setup_s": "s"})
    assert result["failed"] == 1 and result["attempted"] == loop.attempted
    assert result["correct"] is False


def test_result_that_changes_on_repeat_is_a_failure():
    class Drifts(FailsOnThirdCheck):
        def check(self, k, result):
            self.checks += 1
            return 0.5, self.checks.to_bytes(4, "little")

    loop = harness.timed_loop(Drifts(), seconds=0.0, first={})
    assert loop.attempted == 2 and loop.failed == 0
    loop = harness.timed_loop(Drifts(), seconds=0.01, first={})
    assert loop.failed == loop.attempted - 2
    assert "differs from its first run" in loop.errors[0]


@pytest.mark.parametrize("pool_size", [1, 2, 3, 16])
def test_every_pool_input_runs_traced_and_untraced(pool_size):
    ops = max(2, 2 * pool_size)
    seen = {(i % pool_size, harness.traced_turn(i, pool_size)) for i in range(ops)}
    assert seen == {(k, t) for k in range(pool_size) for t in (False, True)}


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "estimate-tall",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
