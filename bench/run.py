"""Benchmark of qflagk: one workload per run, every figure at reference speed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``, so
nothing is built or installed.  Workloads: schubert-n4, membership-n4,
cells-n4, cli-n3 (see bench/README.md).  Each run starts its set-up in
``SETUP_SAMPLES`` fresh processes and measures in the last of them.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_ms, peak_rss_mb); with ``--trace 1`` the per-layer ones, from a run
with every layer traced: the set-up's totals plus the mean per round.
Details of each run go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refspeed import op_medians

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("schubert-n4", "membership-n4", "cells-n4", "cli-n3")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _child(args, setup_only):
    cmd = [
        sys.executable, str(BENCH / "workloads.py"), args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--started", repr(started)], cwd=ROOT, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload}: no result within {CHILD_TIMEOUT_S} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{args.workload}: workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args):
    if not (ROOT / "src" / "qflagk" / "__init__.py").is_file():
        raise BenchError(f"no program under {ROOT / 'src'}; run from a checkout of qflagk")
    samples = [] if args.trace else [_child(args, True) for _ in range(SETUP_SAMPLES - 1)]
    main = _child(args, False)
    samples.append(main)
    done = op_medians(main["durations"])
    if not done:
        raise BenchError(f"{args.workload}: no operation completed")
    if args.trace:
        metrics = main["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in samples), "unit": "s"},
            "ops_per_s": {"value": len(done) / sum(done), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(done) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": main["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    for problem in main["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    result = {
        "correct": not main["problems"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    raw = op_medians(main["raw_durations"])
    details = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": main["rounds"],
        "problems": main["problems"],
        "setup_s": [s["setup_s"] for s in samples],
        "durations_s": main["durations"],
        "raw_durations_s": main["raw_durations"],
        "raw": {
            "setup_s": statistics.median(s["setup_raw_s"] for s in samples),
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": statistics.median(raw) * 1e3,
        },
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
