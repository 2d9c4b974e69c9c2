"""Closed-loop benchmark of the centersolve CLI, end to end and per layer.

    python3 perfbench/run.py --workload solve_verified --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  One client calls `centersolve.cli.run_command`
in-process, one call per input, each call starting after the previous one
returned.  Inputs come in blocks from the seeded corpus (perfbench/corpus.py);
blocks run until --seconds of calls and at least MIN_OPS calls have been
timed, always finishing the block.  Each answer is checked against the
planted ground truth (perfbench/check.py) right after its call, untimed.
Call times are calibrated against a fixed reference computation
(perfbench/calibrate.py), because the host's speed drifts.

--trace 0 reports the end-to-end metrics with no tracing installed.
--trace 1 runs every input twice, untraced and traced (alternating which
goes first), and reports per-layer self time and call counts from the traced
calls plus the tracing overhead.  The last stdout line is one JSON object
{correct, attempted, failed, metrics}; the full result, the list of failed
inputs and the spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus
from calibrate import Calibration
from check import check

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Fresh-interpreter set-up: import the CLI and classify a tiny input.
SETUP_CODE = (
    "import io, sys; sys.path.insert(0, 'src'); "
    "from centersolve.cli import run_command; "
    "sys.exit(run_command(['classify', 'x^3 - 2*x + 1'], stdout=io.StringIO()))"
)
SETUP_REPS = 11
WARM_OPS = 8
#: Fewest calls a run measures, so p90 has at least ten samples beyond it.
MIN_OPS = 100

#: Per-layer self times reported as <name>.self_ms.
SELF_MS = (
    "oracle.numeric_roots", "oracle.compare_root_sets", "oracle.rational_roots",
    "oracle.check_decomposition", "diagonalize.profile", "diagonalize.diagonalize_form",
    "forms.expand", "forms.NAryForm.substitute_linear", "forms.hessian",
    "center.compute_center", "center.center_generator", "linalg.nullspace",
    "linalg.char_poly", "linalg.inverse", "linalg.rank", "solver.classify",
    "solver.complete_powers", "solver.solve_by_radicals",
    "solver.solve_quartic_by_two_squares", "parser.parse_polynomial", "cli.run_command",
)
#: Per-layer call counts reported as <name>.calls_per_op.
CALLS = (
    "oracle.numeric_roots", "solver.classify", "solver.hankel", "center.d_invariants",
    "linalg.rank", "solver.max_scaled_residual",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program(root: Path):
    """Import centersolve from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "centersolve" / "cli.py").is_file():
        raise SystemExit(f"error: {src}/centersolve not found; run from a checkout root")
    sys.path.insert(0, str(src))
    import centersolve.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "centersolve").resolve():
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's copy")
    return cli


def environment() -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure_setup(root: Path) -> list:
    """Wall seconds of fresh interpreters doing import + one classify.

    The first, untimed, spawn writes the bytecode caches an installed CLI
    would already have.  Not calibrated: an in-process reference sample did
    not track the speed of a cold subprocess (it tripled the spread).
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for rep in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=root, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {done.stderr.decode()[-400:]}")
        if rep:
            times.append(elapsed)
    return times


@dataclass
class Call:
    case: corpus.Case
    seconds: float  # wall time of the untraced call
    failure: str | None  # the checker's reason, None when the answer is right
    wrong: bool  # exit 0 with a wrong answer (not merely no answer)
    pos: float = 0.0  # loop position (timed seconds before this call)
    traced_seconds: float = 0.0


def call(run_command, case) -> Call:
    """One CLI call, timed, then checked (untimed).

    An escaping exception is one failed op, not a crash of the run.  The
    output is checked at once and dropped, so the heap does not grow over
    the run.
    """
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    t0 = time.perf_counter()
    try:
        code = run_command(list(case.argv), stdout=out, stderr=err)
    except Exception as e:
        exc = e
    seconds = time.perf_counter() - t0
    failure = check(case, code, out.getvalue(), err.getvalue(), exc)
    wrong = failure is not None and exc is None and code == 0
    return Call(case, seconds, failure, wrong)


def execute(
    cli, workload, seed, seconds, tracer=None, max_ops=None, mutate=None, min_ops=MIN_OPS
):
    """Run blocks until `seconds` and `min_ops` calls are timed.

    Returns (calls, blocks, calibration).  In trace mode every input also
    runs traced, first or second in turn.  `max_ops` truncates every block
    and `mutate(cases)` edits the ground truth before the run; both exist for
    the smoke test, which also lowers `min_ops`.
    """
    warm = sorted(corpus.block(workload, seed, -1), key=lambda c: c.props["degree"])
    for case in warm[:WARM_OPS]:
        call(cli.run_command, case)
    calls, calib = [], Calibration()
    pos = 0.0
    k = 0
    while k == 0 or pos < seconds or len(calls) < min_ops:
        cases = corpus.block(workload, seed, k)[:max_ops]
        if mutate is not None:
            mutate(cases)
        for i, case in enumerate(cases):
            calib.maybe_sample(pos)
            plain_first = tracer is None or (i + k) % 2 == 0
            if plain_first:
                done = call(cli.run_command, case)
            if tracer is not None:
                tracer.install()
                try:
                    traced = call(cli.run_command, case)
                finally:
                    tracer.uninstall()
                if not plain_first:
                    done = call(cli.run_command, case)
                done.traced_seconds = traced.seconds
            done.pos = pos
            pos += done.seconds + done.traced_seconds
            calls.append(done)
        k += 1
    return calls, k, calib


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(calls, calib, failures, setup_times, seconds):
    """Metric -> (value, unit, samples); call times calibrated, see calibrate.py."""
    n = len(calls)
    lat = [c.seconds * calib.factor_at(c.pos, c.seconds) for c in calls]
    limit = max(seconds, 1.0)  # a failed call counts as missing any limit
    lat_limited = [limit if i in failures else t for i, t in enumerate(lat)]
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "throughput_ops_s": (n / sum(lat), "ops/s", n),
        "latency_p50_ms": (percentile(lat_limited, 50) * 1e3, "ms", n),
        "latency_p90_ms": (percentile(lat_limited, 90) * 1e3, "ms", n),
        "success_rate": ((n - len(failures)) / n, "ratio", n),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1
        ),
    }


def raw_timings(calls, failures, seconds):
    """The uncalibrated wall-clock versions, reported beside the metrics."""
    n = len(calls)
    limit = max(seconds, 1.0)
    lat = [limit if i in failures else c.seconds for i, c in enumerate(calls)]
    return {
        "throughput_ops_s": n / sum(c.seconds for c in calls),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
    }


def per_layer(tracer, calls, calib):
    from spans import MODULES, self_times

    spans = tracer.spans
    n = len(calls)
    factor = calib.run_factor()
    traced_s = sum(c.traced_seconds for c in calls)
    plain_s = sum(c.seconds for c in calls)
    total, count = {}, {}
    for span, own in zip(spans, self_times(spans)):
        name = span[2]
        total[name] = total.get(name, 0) + own
        count[name] = count.get(name, 0) + 1
    out = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (total.get(name, 0) * factor / n / 1e6, "ms", n)
    for name in CALLS:
        out[f"{name}.calls_per_op"] = (count.get(name, 0) / n, "count", n)
    oracle = [s for s in spans if s[2] == "oracle.numeric_roots"]
    returned = [s[5]["iterations"] for s in oracle if "iterations" in s[5]]
    converged = sum(1 for s in oracle if s[5].get("converged"))
    out["oracle.numeric_roots.iterations_mean"] = (
        statistics.fmean(returned) if returned else 0.0, "count", len(returned))
    out["oracle.numeric_roots.converged_frac"] = (
        converged / len(oracle) if oracle else 1.0, "ratio", len(oracle))
    profiles = {s[0] for s in spans if s[2] == "diagonalize.profile"}
    draws = sum(1 for s in spans if s[2] == "oracle.rational_roots" and s[1] in profiles)
    out["diagonalize.profile.draws_per_call"] = (
        draws / len(profiles) if profiles else 0.0, "count", len(profiles))
    for mod in MODULES:
        own = sum(v for k, v in total.items() if k.split(".")[0] == mod)
        out[f"{mod}.self_share"] = (own / 1e9 / traced_s, "ratio", n)
    out["trace.untraced_throughput_ops_s"] = (n / (plain_s * factor), "ops/s", n)
    out["trace.traced_throughput_ops_s"] = (n / (traced_s * factor), "ops/s", n)
    out["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio", n)
    return out


def run(root, workload, seed, seconds, trace, max_ops=None, mutate=None, min_ops=MIN_OPS):
    """Measure and check one run; returns the full result document."""
    cli = load_program(root)
    setup_times = measure_setup(root) if not trace else []
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    calls, blocks, calib = execute(
        cli, workload, seed, seconds, tracer, max_ops, mutate, min_ops
    )
    failures = {i: c.failure for i, c in enumerate(calls) if c.failure is not None}
    wrong = sum(c.wrong for c in calls)
    if trace:
        metrics = per_layer(tracer, calls, calib)
        raw = {}
    else:
        metrics = end_to_end(calls, calib, failures, setup_times, seconds)
        raw = raw_timings(calls, failures, seconds)
    failed_inputs = [
        {
            "command": calls[i].case.command,
            "class": calls[i].case.klass,
            "degree": calls[i].case.props["degree"],
            "digits": calls[i].case.props["digits"],
            "reason": reason,
            "input": calls[i].case.argv[3][:200],
        }
        for i, reason in sorted(failures.items())
    ]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "blocks": blocks,
        "corpus": corpus.properties([c.case for c in calls]),
        "attempted": len(calls),
        "failed": len(failures),
        "wrong_answers": wrong,
        "failed_inputs": failed_inputs,
        "speed_factor": calib.run_factor(),
        "reference_samples": [  # loop position s, reference wall s
            [round(p, 4), round(t, 6)] for p, t in zip(calib.positions, calib.seconds)
        ],
        "raw_wall": raw,
        "calls": [  # per call: command, class, degree, nvars, wall ms, failed, position s
            [c.case.command, c.case.klass, c.case.props["degree"],
             c.case.props.get("nvars", 1), round(c.seconds * 1e3, 3), i in failures,
             round(c.pos, 4)]
            for i, c in enumerate(calls)
        ],
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "tracer": tracer,
    }


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    result = run(root, args.workload, args.seed, args.seconds, args.trace)
    tracer = result.pop("tracer")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.json.gz")

    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  blocks {result['blocks']}  "
          f"python {env['python']}  mpmath {env['mpmath']} ({env['mpmath_backend']})  "
          f"nproc {env['nproc']}")
    print(f"corpus {json.dumps(result['corpus'])}")
    n, f = result["attempted"], result["failed"]
    print(f"fail_rate {f / n:.4f} ({f} of {n} attempted, {result['wrong_answers']} wrong answers)")
    for item in result["failed_inputs"]:
        print(f"  FAILED {item['command']} {item['class']} d={item['degree']} "
              f"digits={item['digits']}: {item['reason']}")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    print(f"speed factor {result['speed_factor']:.4f} (calibrated = wall x factor); "
          f"uncalibrated wall: {json.dumps(result['raw_wall'])}")
    print(json.dumps({
        "correct": result["wrong_answers"] == 0,
        "attempted": n,
        "failed": f,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
