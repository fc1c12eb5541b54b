"""Run one qflagk command with the benchmark's tracing installed.

    python3 bench/cli_shim.py TRACE_DIR ARGS...

Behaves as ``qflagk ARGS...`` and writes the raw spans and counts of the
command to TRACE_DIR/main.json, and those of each process-pool chunk to a
file of its own (the workers are forked, so they inherit the wrappers).
"""

import functools
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tracing  # noqa: E402

_start = time.perf_counter_ns()
from qflagk import cli  # noqa: E402

_import_ns = time.perf_counter_ns() - _start


def main():
    trace_dir = Path(sys.argv[1])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    main_pid = os.getpid()
    run_chunk = cli._run_trial_chunk

    @functools.wraps(run_chunk)
    def traced_chunk(suite, n, seed, lo, hi, mutate):
        if os.getpid() == main_pid:
            return run_chunk(suite, n, seed, lo, hi, mutate)
        tracer.reset()
        try:
            return run_chunk(suite, n, seed, lo, hi, mutate)
        finally:
            tracer.dump(trace_dir / f"worker-{os.getpid()}-{lo}.json")

    cli._run_trial_chunk = traced_chunk
    rc = cli.main(sys.argv[2:])
    tracer.pending["cli.import"] = [1, _import_ns, _import_ns]
    tracer.dump(trace_dir / "main.json")
    return rc


if __name__ == "__main__":
    sys.exit(main())
