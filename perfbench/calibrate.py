"""A fixed calibration kernel that measures the host's speed right now.

Shared hosts drift: the same work can take 50% longer a minute later, and
its speed moves from one second to the next. One kernel unit is a small
run of the kind vodsim does: 30 seeded generators draw exponential gaps
and holds, the draws are merged by a stable sort, one slotted object is
built per arrival and a heap of departures admits them to 300 ports.
Timing units in between pieces of the workload tells how fast the host ran
meanwhile. The kernel uses no vodsim code, so a faster program never makes
it faster.

A slow spell of the host slows work on large arrays less than work that
fits in cache, so a unit's size (``size`` times 2,505 arrivals) is matched
to the arrivals of one run of the workload it calibrates.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter

import numpy as np

_CLUSTERS = 30
_PORTS = 300
# Times are reported in reference-host seconds: a measured time divided by
# the mean time of the kernel units run right next to it, times the unit's
# time here (by unit size; about its time on the host in README.md).
REFERENCE_UNIT_S = {1: 0.005, 4: 0.013, 16: 0.06}


@dataclass(slots=True)
class _Arrival:
    time: float
    hold: float
    cluster: int


def kernel(size: int = 1) -> int:
    children = np.random.SeedSequence([7, 2012]).spawn(_CLUSTERS)
    times_blocks, holds_blocks, cluster_blocks = [], [], []
    for c, child in enumerate(children):
        rng = np.random.default_rng(child)
        n = (40 + 3 * c) * size
        times_blocks.append(np.cumsum(-np.log1p(-rng.random(n)) / (0.05 + 0.005 * c)))
        holds_blocks.append(-np.log1p(-rng.random(n)) * 10.0)
        cluster_blocks.append(np.full(n, c))
    times = np.concatenate(times_blocks)
    order = np.argsort(times, kind="stable")
    arrivals = [
        _Arrival(t, h, c)
        for t, h, c in zip(
            times[order].tolist(),
            np.concatenate(holds_blocks)[order].tolist(),
            np.concatenate(cluster_blocks)[order].tolist(),
        )
    ]
    heap: list[float] = []
    admitted = 0
    for arrival in arrivals:
        while heap and heap[0] <= arrival.time:
            heapq.heappop(heap)
        if len(heap) < _PORTS:
            heapq.heappush(heap, arrival.time + arrival.hold)
            admitted += 1
    return admitted


def timed(size: int = 1) -> float:
    start = perf_counter()
    kernel(size)
    return perf_counter() - start


class Pacer:
    """Interleaves kernel units with the workload, so that both sample the
    host at the same moments.

    After each piece of work, ``after`` runs kernel units until the kernel
    time reaches ``share`` of the work time seen since ``reset``. The
    workload's time divided by the mean unit time is then a time in kernel
    units, which the host's drift cancels out of.
    """

    def __init__(self, share: float, size: int = 1):
        self.share = share
        self.size = size
        self.unit = timed
        self.reset()

    def reset(self) -> None:
        self.work_s = 0.0
        self.kernel_s = 0.0
        self.units = 0

    def after(self, work_s: float) -> None:
        self.work_s += work_s
        while self.kernel_s < self.share * self.work_s:
            self.kernel_s += self.unit(self.size)
            self.units += 1

    def unit_s(self) -> float:
        return self.kernel_s / self.units

    def scale(self) -> float:
        """Factor from measured to reference-host seconds."""
        return REFERENCE_UNIT_S[self.size] / self.unit_s()

    def wrap(self, fn):
        def paced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            self.after(perf_counter() - start)
            return result

        return paced
