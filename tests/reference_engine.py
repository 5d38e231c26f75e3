"""The per-partition event loop that ``vodsim.engine.run`` replaced, kept as
a differential oracle.

Each request is one object; a probe starts at the class's home partition
(class_id mod k) and walks the partitions cyclically to the first free
port. Departures are events carrying the partition they free, and events
at equal times order departure-first, then by insertion sequence.
``reference_run`` must return the same ``RunMetrics`` as ``engine.run``,
and ``reference_outcomes`` each arrival's outcome as ``engine._flags``
gives it: the pooled engine rests on admission depending only on the
number of free ports, which this loop does not assume.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from vodsim.engine import StrategySpec
from vodsim.errors import ConfigurationError, InternalConsistencyError
from vodsim.metrics import ClassCounts, RunMetrics
from vodsim.traffic import _GATE_TAG, WorkloadSpec, merged_arrival_stream

DEPARTURE = 0
ARRIVAL = 1


@dataclass(slots=True)
class SessionRequest:
    """One timed request: when it arrives, how long it holds a port if admitted."""

    class_id: int
    arrival_time: float
    holding_time: float

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError(f"arrival_time must be >= 0, got {self.arrival_time}")
        if not self.holding_time > 0:
            raise ValueError(f"holding_time must be > 0, got {self.holding_time}")


class Event(NamedTuple):
    """One entry of the event queue; orders by (time, kind, seq).

    Departures carry the freed partition and the departing class;
    arrivals carry the request. kind makes simultaneous departures sort
    before simultaneous arrivals, seq keeps insertion (FIFO) order within
    a kind. seq is unique, so comparison never reaches the payload.
    """

    time: float
    kind: int
    seq: int
    partition: int = -1
    class_id: int = -1
    request: Optional[SessionRequest] = None


@dataclass(slots=True)
class ClusterState:
    """Live occupancy of the k partitions."""

    capacities: tuple[int, ...]
    occupied: list[int] = None  # type: ignore[assignment]
    free_ports: int = 0

    def __post_init__(self) -> None:
        self.capacities = tuple(self.capacities)
        if len(self.capacities) < 1:
            raise ValueError("at least one partition is required")
        # the domain of ``engine.run``: Python or numpy integers, no bools
        for j, c in enumerate(self.capacities):
            if not isinstance(c, (int, np.integer)) or isinstance(c, bool) or c < 0:
                raise ValueError(f"capacity[{j}] must be a non-negative integer, got {c!r}")
        self.capacities = tuple(map(int, self.capacities))
        if self.occupied is None:
            self.occupied = [0] * len(self.capacities)
        else:
            self.occupied = list(self.occupied)
            if len(self.occupied) != len(self.capacities):
                raise ValueError("occupied and capacities must have equal length")
            for j, (q, c) in enumerate(zip(self.occupied, self.capacities)):
                if not isinstance(q, int) or q < 0 or q > c:
                    raise ValueError(f"occupied[{j}] = {q!r} outside 0..{c}")
        self.free_ports = sum(self.capacities) - sum(self.occupied)


@dataclass(frozen=True, slots=True)
class AdmissionOutcome:
    """Result of one admission decision.

    kind is admitted, policed, or blocked; partition names the partition
    that accepted the request and is set exactly when kind is admitted.
    """

    kind: str
    partition: int | None = None

    def __post_init__(self) -> None:
        if (self.kind == "admitted") != (self.partition is not None):
            raise ValueError("partition must be set exactly for admitted outcomes")


POLICED = AdmissionOutcome("policed")
BLOCKED = AdmissionOutcome("blocked")


def admit(
    state: ClusterState,
    request: SessionRequest,
    strategy: StrategySpec,
    rng: random.Random | np.random.Generator,
) -> AdmissionOutcome:
    """Decide one request: gate it (if gated), then probe for a free port.

    The probe starts at home = class_id mod k and walks the partitions
    cyclically; the request is admitted at the first partition with a free
    port (its occupancy incremented), and blocked if all k are full. A
    policed request never touches the state and consumes exactly one draw
    from the gate generator.
    """
    gates = strategy.gates
    if gates is not None:
        try:
            gate = gates[request.class_id]
        except IndexError:
            raise ValueError(
                f"class_id {request.class_id} outside 0..{len(gates) - 1}"
            ) from None
        if rng.random() >= gate:
            return POLICED

    if state.free_ports == 0:
        return BLOCKED
    capacities = state.capacities
    occupied = state.occupied
    k = len(capacities)
    home = request.class_id % k
    for step in range(k):
        j = home + step
        if j >= k:
            j -= k
        if occupied[j] < capacities[j]:
            occupied[j] += 1
            state.free_ports -= 1
            return AdmissionOutcome("admitted", j)
    raise InternalConsistencyError(
        f"free_ports={state.free_ports} but every partition probe failed"
    )


def release(state: ClusterState, partition_index: int) -> ClusterState:
    """Free one port in the given partition (a session departed). Mutates state."""
    if not 0 <= partition_index < len(state.occupied):
        raise ValueError(
            f"partition_index {partition_index} outside 0..{len(state.occupied) - 1}"
        )
    if state.occupied[partition_index] < 1:
        raise InternalConsistencyError(
            f"release on empty partition {partition_index}: departure without admission"
        )
    state.occupied[partition_index] -= 1
    state.free_ports += 1
    return state


def request_list(workload: WorkloadSpec, horizon: float) -> list[SessionRequest]:
    """The merged arrival stream as one request object per arrival."""
    s = merged_arrival_stream(workload, horizon)
    return [
        SessionRequest(c, t, h)
        for c, t, h in zip(s.class_id.tolist(), s.time.tolist(), s.hold.tolist())
    ]


def reference_run(
    workload: WorkloadSpec,
    capacities: Sequence[int],
    strategy: StrategySpec,
    horizon: float,
    warmup: float,
    seed: int,
) -> RunMetrics:
    """The per-request, per-partition form of ``vodsim.engine.run``."""
    if not 0 <= warmup < horizon:
        raise ValueError(f"warmup must lie in [0, horizon), got {warmup} vs {horizon}")
    if strategy.gates is not None and len(strategy.gates) < len(workload.clusters):
        raise ConfigurationError(
            f"policy gates cover {len(strategy.gates)} classes but the "
            f"workload has {len(workload.clusters)}"
        )
    requests, kinds = reference_outcomes(workload, capacities, strategy, horizon, seed)
    return reference_counts(len(workload.clusters), requests, kinds, warmup, seed)


def reference_outcomes(
    workload: WorkloadSpec,
    capacities: Sequence[int],
    strategy: StrategySpec,
    horizon: float,
    seed: int,
) -> tuple[list[SessionRequest], list[str]]:
    """Each request of the run's stream and its outcome kind (admitted,
    policed or blocked), in arrival order, warmup or not."""
    state = ClusterState(tuple(capacities))
    requests = request_list(replace(workload, seed=seed), horizon)
    # one scalar draw per request, in arrival order, from the run's gate generator
    gate_rng = np.random.default_rng(np.random.SeedSequence([_GATE_TAG, seed]))

    kinds: list[str] = []
    departures: list[Event] = []
    push, pop = heapq.heappush, heapq.heappop
    seq = 0
    for req in requests:
        t = req.arrival_time
        while departures and departures[0][0] <= t:
            release(state, pop(departures).partition)
        outcome = admit(state, req, strategy, gate_rng)
        kinds.append(outcome.kind)
        if outcome.kind == "admitted":
            seq += 1
            push(
                departures,
                Event(t + req.holding_time, DEPARTURE, seq, outcome.partition, req.class_id),
            )
            if __debug__:
                j = outcome.partition
                if not 0 <= state.occupied[j] <= state.capacities[j]:
                    raise InternalConsistencyError(
                        f"occupancy bound violated at partition {j}"
                    )

    while departures and departures[0][0] <= horizon:
        release(state, pop(departures).partition)
    if __debug__ and sum(state.occupied) != len(departures):
        raise InternalConsistencyError(
            "final occupancy inconsistent with outstanding departures"
        )
    return requests, kinds


def reference_counts(
    num_classes: int,
    requests: Sequence[SessionRequest],
    kinds: Sequence[str],
    warmup: float,
    seed: int,
) -> RunMetrics:
    """The per-class counts of the requests arriving at or after warmup."""
    counts = {kind: [0] * num_classes for kind in ClassCounts._fields}
    for req, kind in zip(requests, kinds):
        if req.arrival_time >= warmup:
            counts["offered"][req.class_id] += 1
            counts[kind][req.class_id] += 1
    per_class = tuple(
        ClassCounts(*(counts[kind][c] for kind in ClassCounts._fields))
        for c in range(num_classes)
    )
    return RunMetrics(
        *(sum(counts[kind]) for kind in ClassCounts._fields), per_class=per_class, seed=seed
    )
