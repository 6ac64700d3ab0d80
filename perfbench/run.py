"""bwrum benchmark: verified decisions, the exact LP oracle, and cold CLI calls.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decide-n5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --record perfbench/baseline.json

One workload prints each metric as "name value unit", then notes, then
one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``.  The exit code is 0 only when every answer checked
out.  Without ``--workload`` every workload runs, each in its own
process, and the last line is one JSON object keyed by workload.
``--record FILE`` runs every workload untraced and traced and stores the
results with the machine description.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from checkout import ROOT, import_bwrum
from workloads import WORKLOADS


def result_line(run) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in run.metrics.items()},
    }


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU.

    The yardstick that normalises every time is run in this process; a
    CLI child pinned to the same CPU runs under the conditions the
    yardstick measured, and no operation migrates between CPUs midway.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    pin_to_one_cpu()
    run = WORKLOADS[name](seed, seconds, trace)
    print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)}")
    for metric, (value, unit) in run.metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    for note in run.notes:
        print(f"# {note}")
    for problem in run.problems:
        print(f"# WRONG: {problem}")
    return result_line(run)


def machine() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in a fresh interpreter, so its caches and memory start cold."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="store every workload, untraced and traced")
    args = parser.parse_args(argv)
    import_bwrum()

    if args.workload:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    traces = (False, True) if args.record else (bool(args.trace),)
    results = {
        f"{name}{'+trace' if trace else ''}": run_child(name, args.seed, args.seconds, trace)
        for name in WORKLOADS
        for trace in traces
    }
    if args.record:
        record = {"machine": machine(), "seed": args.seed, "seconds": args.seconds,
                  "results": results}
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
