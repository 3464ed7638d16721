"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the CPU time of the same code swings by a third or
more from minute to minute, as other tenants' load changes how many
instructions a core retires per second.  The benchmark runs this kernel
before every op and divides each op's CPU time by the kernel's local
CPU time, so both see the same machine; the quotient is scaled back to
milliseconds by ``NOMINAL_S``, a typical CPU time of the kernel on a
shared 2-CPU Xeon container (Python 3.11.7, numpy 2.4.6).

The kernel mixes what walshlab spends its time on: interpreter work on
big-int dict keys and floats, a small ``np.unique`` sort, and a random
gather over an array larger than a core's private cache.  It touches no
walshlab code, so a change to the program moves the op times and not
the reference.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 1.2e-3
# refs around op i: the two run before it and the two after it
WINDOW_BEFORE = 2
WINDOW_AFTER = 2

_MASK = (1 << 128) - 1
_KEYS = (np.arange(4096, dtype=np.int64) * 2654435761) % 1000003
# 2 MiB, larger than a core's private cache
_TABLE = np.random.default_rng(0).random(1 << 18)
_GATHER = np.random.default_rng(1).integers(0, _TABLE.size, 20000)


def kernel() -> float:
    freq: dict[int, float] = {}
    k = 1 << 90
    for i in range(1500):
        k = (k * 6364136223846793005 + 1442695040888963407) & _MASK
        freq[k >> 40] = freq.get(k >> 40, 0.0) + (i % 7) * 0.5
    _, counts = np.unique(_KEYS % 997, return_counts=True)
    return sum(v * v for v in freq.values()) + float(counts @ counts) + float(_TABLE[_GATHER].sum())


def timed() -> float:
    """Thread CPU seconds of one kernel run."""
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


def settled(runs: int = 9) -> float:
    """Median CPU seconds of ``runs`` kernel runs, after one to warm up."""
    kernel()
    return statistics.median(timed() for _ in range(runs))


def scale_factors(refs: list[float]) -> list[float]:
    """One factor per op from the ``len(ops) + 1`` refs timed around the ops.

    ``refs[i]`` ran just before op i and ``refs[i + 1]`` just after it.
    Op i's factor is ``NOMINAL_S`` over the median of the refs in the
    window around it, so one interrupted ref cannot skew an op.
    """
    ops = len(refs) - 1
    return [NOMINAL_S / statistics.median(refs[max(0, i + 1 - WINDOW_BEFORE):i + 1 + WINDOW_AFTER])
            for i in range(ops)]
