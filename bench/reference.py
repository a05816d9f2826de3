"""A fixed reference task that tracks how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts by up to a factor
of two within a minute, while the process sees no steal time. Every item
time the benchmark reports is therefore measured between two probes of this
task and scaled by NOMINAL_S / (their mean), or by a power of that factor
where a workload responds less than the task does (see workloads.py): a time
in "reference seconds", the time the item would have taken on a host where
this task takes NOMINAL_S. The task is pure Python (slicing, comparison,
dict insertion), like most of the library, and shares no code with it.

Frozen: editing the task or NOMINAL_S rescales every adjusted time, so it is
a benchmark change that needs a new baseline.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.01
_WORD = "".join(random.Random(0).choice("012") for _ in range(300))


def _task(w: str) -> int:
    n = len(w)
    seen: dict[str, int] = {}
    for p in range(1, n // 2 + 1):
        for i in range(n - 2 * p + 1):
            if w[i : i + p] == w[i + p : i + 2 * p]:
                seen.setdefault(w[i : i + 2 * p], i)
    return len(seen)


def probe(at_least: float = 0.0) -> float:
    """Seconds the reference task takes now: the mean over at least two runs,
    repeated until at_least seconds have passed."""
    t0 = time.perf_counter()
    runs = 0
    while runs < 2 or time.perf_counter() - t0 < at_least:
        _task(_WORD)
        runs += 1
    return (time.perf_counter() - t0) / runs


def scale(before: float, after: float) -> float:
    """Factor turning seconds measured between two probes into reference seconds."""
    return NOMINAL_S / ((before + after) / 2)
