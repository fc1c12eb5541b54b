"""Timing at reference speed.

The host's speed drifts: identical work can take 20-45% longer in one run
than in another, and up to twice as long within a run.  Every timed interval
is therefore followed by a fixed reference kernel, and the interval is
reported at reference speed: multiplied by ``KERNEL_REFERENCE_S`` and divided
by the kernel's duration measured right after it.  The kernel belongs to the
benchmark, not to the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from fractions import Fraction

KERNEL_ITERATIONS = 4000

# Median duration of one ``kernel_seconds()`` call, measured on the 2-core
# host whose figures the README gives.  A fixed constant: it only sets the
# unit of the scaled figures, so it is never re-measured.
KERNEL_REFERENCE_S = 0.0030


def _kernel():
    # tuple-keyed dict accumulation and Fraction sums, the two kinds of work
    # the program's layers spend their time on
    acc = {}
    total = Fraction(0)
    for i in range(KERNEL_ITERATIONS):
        key = (i & 7, (i >> 3) & 7, i % 5)
        acc[key] = acc.get(key, 0) + i
        if not i & 15:
            total += Fraction(i % 13 + 1, i % 11 + 1)
    return len(acc), total


def kernel_seconds() -> float:
    """Run the reference kernel once with the collector paused; its duration.

    A large live heap (the rank-4 classes) would otherwise put its collection
    passes into the kernel's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def kernel_seconds_all_cores() -> float:
    """Mean duration of the kernel run once on each core this process may use.

    The operations of ``cli-n3`` run in child processes on whichever core is
    free, and the two cores' speeds vary independently.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


def op_medians(per_op):
    """Each operation's median duration over the rounds of a run.

    A run repeats the same round of operations; taking every operation's
    median across rounds before summing or ranking keeps a host hiccup in
    one round out of the figures, while an operation that is slower every
    time still moves them.
    """
    return [statistics.median(d) for d in per_op if d]
