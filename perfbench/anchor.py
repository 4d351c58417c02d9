#!/usr/bin/env python3
"""Machine-speed anchor: a fixed loop whose duration tracks host speed.

The benchmark's hosts change speed by more than half over minutes with
no code change (other tenants on shared cores and caches).  ``run.py``
times this loop in a fresh process between its passes and rescales its
wall-clock metrics to the speed at which the loop takes
``REFERENCE_S`` seconds.  The loop belongs to the benchmark, not to the
program, so no program change can move it.  It walks a table of small
dicts in random order and streams a large array, because the
simulator's slowdowns follow memory traffic as well as instruction
rate.  It runs in its own process so its memory never shows in the
workload's peak RSS.

It times the loop once for every line read from standard input and
prints each duration, in seconds, on its own line::

    echo | python3 perfbench/anchor.py
"""

import sys
import time

import numpy as np

#: Loop duration defining the reference speed wall-clock metrics are scaled to.
REFERENCE_S = 0.25


def loop_seconds(records: int = 300_000, walks: int = 250_000, floats: int = 3_000_000) -> float:
    rng = np.random.default_rng(0)
    table = [{"a": i, "b": [i, i + 1], "c": float(i)} for i in range(records)]
    order = rng.permutation(records)[:walks].tolist()
    array = rng.random(floats)
    start = time.perf_counter()
    total = 0
    for index in order:
        row = table[index]
        total += row["a"] + row["b"][1]
        row["c"] += 1.0
    for _ in range(4):
        array = array[::-1] * 1.0000001
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in sys.stdin:
        print(loop_seconds(), flush=True)
