"""Machine-speed calibration for timed runs on a shared host.

On a host shared with other tenants the speed of one core drifts by tens of
percent over minutes, far more than the regressions the benchmark must
detect. The timed runs therefore bracket every unit of work with a fixed
calibration loop that does not touch the program — interpreter-bound heap,
dict and attribute work plus small numpy reductions, the same kind of work
the simulator does — and rescale the unit's times to a reference speed:

    normalized = measured × REFERENCE_S / mean(calibration before, after)

A change to the program cannot move the calibration (it runs with the
garbage collector off, so the program's heap size does not leak into it),
so normalized times still move one-for-one with the program's own cost.
Raw times and calibration times are reported alongside.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter

import numpy as np

#: Calibration wall time that defines the reference speed: normalized
#: seconds are seconds on a machine where one calibration takes this long.
REFERENCE_S = 0.15

_ITERATIONS = 60_000


class _Node:
    __slots__ = ("key", "weight", "hits")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.hits = 0


def calibration_s() -> float:
    """Wall time of one fixed calibration loop."""
    rng = random.Random(1)
    nodes = [_Node(i, i * 0.5) for i in range(64)]
    heap: list = []
    table: dict = {}
    rows: list = []
    acc = 0.0
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for i in range(_ITERATIONS):
            heapq.heappush(heap, (rng.random(), i, nodes[i % 64]))
            node = nodes[(i * 7) % 64]
            node.hits += 1
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + node.key
            rows.append((i, node.key, node.weight, node.hits))
            if len(heap) > 512:  # bounded, so calibrating never sets peak RSS
                acc += heapq.heappop(heap)[0]
            if i % 40 == 39:
                block = np.array(rows, dtype=float)
                p = np.exp(block[:, 2] - block[:, 2].max())
                p /= p.sum()
                acc += float(p.cumsum().searchsorted(0.5))
                rows.clear()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed
