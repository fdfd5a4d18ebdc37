"""Run the ridgerec benchmark.

From the repository root:

    python3 perfbench/run.py --workload estimate-tall --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A single workload prints its report and, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  ``--workload all`` runs every workload, untraced and
traced, each in its own process, and prints all metrics.  The exit code
is non-zero when any op fails its result check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: A workload process may take this long before the combined run gives up on it.
CHILD_TIMEOUT_S = 900


def cap_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use; must precede numpy's import."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def run_all(args, names) -> int:
    """Run every workload untraced and traced, each in a process of its own."""
    failures = 0
    summary = {}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"   timed out after {CHILD_TIMEOUT_S} s")
                failures += 1
                continue
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr.strip())
                print(f"   exit code {proc.returncode}")
                failures += 1
                continue
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps({"failed_workload_runs": failures, "results": summary}))
    return 1 if failures else 0


def main(argv=None) -> int:
    cap_blas_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ridgerec" / "__init__.py").is_file():
        print(f"perfbench: no ridgerec sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))

    import ridgerec

    if not Path(ridgerec.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported ridgerec from {ridgerec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
