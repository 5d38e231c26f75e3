"""Event-driven simulation of the partitioned loss server.

Requests from the merged arrival stream ask the server for a free port;
blocked and policed requests leave the system (blocked calls cleared, no
retry). Admission strategies are pluggable: ``uncontrolled`` asks at once,
``policy`` first passes a per-class Bernoulli gate.

Admission depends only on the number of free ports among the N = sum of
C_j ports of all partitions: a request that passes the gate is blocked
exactly when all N are busy. Which partition's port it takes changes no
count, so the engine keeps no home partition and no probe order, and no
metric, CSV column or CLI output ever depended on them. The server is a
heap of the end times of at most N sessions; an ended session leaves it
only when a new one takes its port. While the heap holds fewer than N
sessions a port is surely free. Once it holds N, a port is free at time t
exactly when the earliest end is at or before t (a port freed "now" is
available to an arrival "now"), and every arrival before that end is
blocked, so the loop skips that run in one bisection. Until the first
arrival that finds all N ports busy, no arrival is blocked, so that prefix
is admitted in numpy and the loop starts after it.

The arrival stream of a seed is one :class:`ArrivalStream`; a caller that
runs several strategies at one seed builds it once and passes it to each
run, so every strategy sees the same arrivals. Policy gate uniforms, one
per arrival in arrival order, come in one call from the run's own
generator, seeded from the run seed under the gate tag.

A run is strictly single-threaded and a pure function of its arguments;
independent runs share no state and may execute concurrently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from heapq import heappush, heapreplace
from typing import Sequence

import numpy as np

from .analytic import PolicyWeights
from .errors import ConfigurationError, InternalConsistencyError
from .metrics import ClassCounts, RunMetrics
from .traffic import _GATE_TAG, ArrivalStream, WorkloadSpec, merged_arrival_stream

UNCONTROLLED = "uncontrolled"
POLICY = "policy"
MODES = (UNCONTROLLED, POLICY)

LITERAL = "literal"
MAX_NORMALIZED = "max_normalized"
SCALINGS = (LITERAL, MAX_NORMALIZED)

@dataclass(frozen=True)
class StrategySpec:
    """Admission strategy: uncontrolled overflow, or a per-class policy gate.

    In policy mode ``gates`` holds each class's pass probability: its weight
    as given (literal), or divided by the largest weight (max_normalized),
    so that the highest-priority class always passes.
    """

    mode: str
    weights: PolicyWeights | None = None
    weight_scaling: str = LITERAL
    gates: tuple[float, ...] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.weight_scaling not in SCALINGS:
            raise ConfigurationError(
                f"weight_scaling must be one of {SCALINGS}, got {self.weight_scaling!r}"
            )
        if (self.mode == POLICY) != (self.weights is not None):
            raise ConfigurationError("weights must be supplied iff mode is 'policy'")
        if self.weights is not None:
            gates = self.weights.weights
            if self.weight_scaling == MAX_NORMALIZED:
                top = max(gates)
                gates = tuple(w / top for w in gates)
            object.__setattr__(self, "gates", gates)


UNCONTROLLED_STRATEGY = StrategySpec(UNCONTROLLED)


def _admission(times: np.ndarray, holds: np.ndarray, ports: int) -> np.ndarray:
    """Admitted flags of the arrivals at sorted ``times`` on ``ports`` ports.

    ``times`` and ``holds`` are contiguous float64 arrays. While every
    earlier arrival is admitted, arrival i finds at most
    busy_i = #{j < i : times[j] + holds[j] >= times[i]} ports busy (a session
    ending exactly at times[i] has in fact left, so a tie can end this
    prefix early but never late). Every arrival before the first
    busy_i >= ports is therefore admitted. busy_i is counted over a window
    of leading arrivals that doubles until it holds that arrival, so the
    cost is bounded by the prefix, not by the stream. ``_pooled_admission``
    takes over from there, over memoryviews of the rest of the arrays (no
    copy), with the prefix's sessions still in progress as its heap.
    """
    n = len(times)
    window = 2 * ports + 1
    while True:
        w = min(window, n)
        ends = np.sort(times[:w] + holds[:w])
        # every j >= i ends at or after times[i], so "< times[i]" counts only j < i
        busy = np.arange(w) - np.searchsorted(ends, times[:w], "left")
        full = np.flatnonzero(busy >= ports)
        if len(full) or w == n:
            break
        window *= 2
    admitted = np.ones(n, dtype=bool)
    if len(full):
        start = int(full[0])
        ends = times[:start] + holds[:start]
        admitted[start:] = np.frombuffer(
            _pooled_admission(
                memoryview(times[start:]),
                memoryview(holds[start:]),
                ports,
                np.sort(ends[ends > times[start]]).tolist(),
            ),
            dtype=bool,
        )
    return admitted


def _pooled_admission(
    times: Sequence[float],
    holds: Sequence[float],
    ports: int,
    departures: list[float],
) -> bytearray:
    """Admitted flags of the arrivals at sorted ``times`` on ``ports`` ports.

    ``departures`` is a heap of the end times of at most ``ports`` earlier
    sessions, each holding a port until it ends; the loop consumes it.
    Arrival i is admitted, and holds a port for ``holds[i]``, when a port is
    free at ``times[i]``: surely while the heap holds fewer than ``ports``
    sessions, and after that exactly when the earliest end is at or before
    ``times[i]``, whose port it then takes over. Otherwise every arrival
    before that end is blocked, so that run is skipped in one bisection.
    Only the arrivals the loop reads are turned into floats.
    """
    if len(departures) > ports:
        raise InternalConsistencyError(
            f"{len(departures)} sessions in progress on {ports} ports"
        )
    n = len(times)
    admitted = bytearray(n)
    i = 0
    while i < n and len(departures) < ports:
        heappush(departures, times[i] + holds[i])
        admitted[i] = 1
        i += 1
    while i < n and departures:  # an empty heap here means no ports at all
        t = times[i]
        if departures[0] <= t:
            heapreplace(departures, t + holds[i])
            admitted[i] = 1
            i += 1
        else:
            i = bisect_left(times, departures[0], i + 1)
    return admitted


def run(
    workload: WorkloadSpec,
    capacities: Sequence[int],
    strategy: StrategySpec,
    horizon: float,
    warmup: float,
    seed: int,
    stream: ArrivalStream | None = None,
) -> RunMetrics:
    """Simulate the workload against the partitioned server, return counters.

    The seed drives everything. The arrival stream is
    ``merged_arrival_stream(replace(workload, seed=seed), horizon)``: pass
    it as ``stream`` to share one stream among the strategies run at this
    seed, or leave ``stream`` out and the run builds it. Policy gate
    uniforms, one per arrival in arrival order, are drawn from
    ``default_rng(SeedSequence([_GATE_TAG, seed]))``, a generator apart
    from the stream's, so uncontrolled and policy runs at the same seed see
    the same arrivals. Counters only include requests arriving at or after
    warmup; earlier requests still evolve the state.
    """
    if not 0 <= warmup < horizon:
        raise ValueError(f"warmup must lie in [0, horizon), got {warmup} vs {horizon}")
    if strategy.mode == POLICY and len(strategy.weights) < len(workload.clusters):
        raise ConfigurationError(
            f"policy weights cover {len(strategy.weights)} classes but the "
            f"workload has {len(workload.clusters)}"
        )
    if len(capacities) < 1:
        raise ValueError("at least one partition is required")
    for j, c in enumerate(capacities):
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise ValueError(f"capacity[{j}] must be a non-negative integer, got {c!r}")

    if stream is None:
        stream = merged_arrival_stream(replace(workload, seed=seed), horizon)
    # float64 in native order, contiguous: the numpy prefix sums ends in the
    # same precision as the loop, and the loop's memoryviews can index them
    times = np.ascontiguousarray(stream.time, np.float64)
    holds = np.ascontiguousarray(stream.hold, np.float64)
    classes = stream.class_id
    counted = times >= warmup
    passed = np.ones(len(stream), dtype=bool)
    if strategy.mode == POLICY:
        gate_rng = np.random.default_rng(np.random.SeedSequence([_GATE_TAG, seed]))
        passed = gate_rng.random(len(stream)) < np.array(strategy.gates)[classes]
        times, holds = times[passed], holds[passed]
    admitted = np.zeros(len(stream), dtype=bool)
    admitted[passed] = _admission(times, holds, sum(capacities))

    num_classes = len(workload.clusters)

    def per_class(mask: np.ndarray) -> list[int]:
        return np.bincount(classes[counted & mask], minlength=num_classes).tolist()

    offered = per_class(counted)
    admits = per_class(admitted)
    policed = per_class(~passed)
    blocked = per_class(passed & ~admitted)
    return RunMetrics(
        offered=sum(offered),
        admitted=sum(admits),
        policed=sum(policed),
        blocked=sum(blocked),
        per_class=tuple(map(ClassCounts, offered, admits, policed, blocked)),
        seed=seed,
    )
