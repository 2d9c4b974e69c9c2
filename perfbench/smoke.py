"""Smoke test of the benchmark harness at its smallest size.

    python3 perfbench/smoke.py

Run from the checkout root.  For every workload it measures one block cut to
a few inputs, untraced and traced, and checks that every metric named in
BENCHMARK.json is emitted.  It then corrupts one planted root and one planted
class and checks that exactly those calls are counted as failures.  Exits 0
when every check holds.  Kept out of the pytest suite on purpose: it runs the
CLI for real and takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

OPS = 3


def corrupt_root(cases):
    case = next(c for c in cases if c.roots)
    z, m = case.roots[0]
    case.roots[0] = (z + 1e-6 * max(1.0, abs(z)), m)
    case.props["corrupted"] = True


def corrupt_class(cases):
    case = next(c for c in cases if c.command == "classify")
    case.klass = "PerfectPower" if case.klass != "PerfectPower" else "SumOfTwoPowers"
    case.props["corrupted"] = True


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run.run(
                root, workload, seed=0, seconds=0, trace=trace, max_ops=OPS, min_ops=1
            )
            missing = {m["name"] for m in spec[key]} - set(result["metrics"])
            if missing:
                problems.append(f"{workload} trace={trace}: missing {sorted(missing)}")
            print(f"{workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")
    for workload, mutate in (("solve_verified", corrupt_root), ("solve_exact", corrupt_class)):
        # the whole first block, so the corrupted case is surely in it
        clean = run.run(root, workload, seed=0, seconds=0, trace=0, min_ops=1)
        bad = run.run(root, workload, seed=0, seconds=0, trace=0, mutate=mutate, min_ops=1)
        flagged = [f for f in bad["failed_inputs"] if f not in clean["failed_inputs"]]
        if bad["failed"] != clean["failed"] + 1 or len(flagged) != 1:
            problems.append(f"{workload}: corrupting one entry gave {flagged}")
        print(f"{workload} corrupted by {mutate.__name__}: {flagged}")
    for p in problems:
        print("PROBLEM", p)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
