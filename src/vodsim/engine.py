"""Event-driven simulation of the partitioned loss server.

Requests from the merged arrival stream ask the server for a free port;
blocked and policed requests leave the system (blocked calls cleared, no
retry). A strategy is its tuple of per-class Bernoulli gates, or None
(uncontrolled), and ``run`` counts from ``_flags``: which arrivals pass the
gates, and which are admitted.

A request that passes the gate is blocked exactly when all N = sum of C_j
ports of all partitions are busy; which partition's port it takes changes
no count, so the engine keeps no home partition and no probe order.

A run is strictly single-threaded and a pure function of its arguments.
Runs given one drawn stream share its memo of the per-class counts of the
arrivals from the first counted one on: a pure function of the stream and
that index, which keys it and is stored with it in one assignment, so
these runs too may execute concurrently.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapreplace
from itertools import repeat
from operator import sub
from typing import Sequence

import numpy as np

from .analytic import _check_capacity, _check_gates
from .errors import ConfigurationError, InternalConsistencyError
from .metrics import ClassCounts, RunMetrics
from .traffic import _GATE_TAG, ArrivalStream, WorkloadSpec, merged_arrival_stream

# The CLI and CSV strategy names, and the uncontrolled strategy (no gates).
# They live here, not in config, because perfbench/worker.py reads
# UNCONTROLLED and UNCONTROLLED_STRATEGY from engine; POLICY stays beside them.
UNCONTROLLED = "uncontrolled"
POLICY = "policy"
UNCONTROLLED_STRATEGY = None

# A blocked run shorter than this is skipped by a bisection of this many
# arrivals rather than of the rest of the stream. Only the heap loop (below
# ``_ROUNDS_MIN_PORTS`` ports) reads it. Runs average 2 arrivals, none longer,
# on configs/erlang_check.cfg (2 ports, 40% blocked), and 33 on 120 ports (14%
# longer) and 76 on 50 (42%) at reference multiplier 15.5. On a 2-core Xeon
# the window saved 13%, 10% and 4% of an ``_admission`` call on these streams.
_WINDOW = 64

# From this many ports up, ``_admission`` goes on from its numpy prefix in
# rounds over all ports (``_admission_rounds``), below it with the heap loop
# (``_pooled_admission``). A round is about a dozen numpy calls, a heap step
# one admitted arrival, and there are about admitted / ports rounds. Measured
# (BENCH_12.json), the rounds cost more than the heap loop below about 65
# ports at saturated load and below about 125 just past the knee, 0.4-0.7
# times as much at 300 ports, and 15-30 times as much on the 2-port
# configs/erlang_check.cfg.
_ROUNDS_MIN_PORTS = 128


def _admission(times: np.ndarray, holds: np.ndarray, ports: int) -> np.ndarray | None:
    """Admitted flags of the arrivals at sorted ``times`` on ``ports`` ports,
    or None, and no flags built, when no arrival finds all ports busy.

    ``times`` and ``holds`` are contiguous float64 arrays. While every
    earlier arrival is admitted, arrival i finds at most
    busy_i = #{j < i : times[j] + holds[j] >= times[i]} ports busy (a session
    ending exactly at times[i] has in fact left, so a tie can end this
    prefix early but never late). Every arrival before the first
    busy_i >= ports is therefore admitted. As every j >= i ends at or after
    times[i], with a window's ends sorted, busy_i >= ports reads as the
    order statistic ends[i - ports] >= times[i], whatever the window. A
    stream of fewer than 4 * (2 * ports + 1) arrivals, which the windows
    below would cover in two passes when its first window does not fill
    the ports, is counted in one pass over all of it. A longer one is
    counted in passes over leading windows of 2 * ports + 1 arrivals, then
    twice, four times ... as many, until a window holds that arrival; a
    window that would leave fewer arrivals after it than it holds takes the
    whole stream instead. That arrival lies at an index p >= ports
    (busy_i <= i), or p = n when there is none. The one pass over a short
    stream covers n < 4 * (2p + 1) arrivals; on a longer one the last pass
    covers fewer than 4p + 2 and all passes together fewer than 6p + 2.
    Either way the cost is bounded by the prefix, not by the stream.
    From that arrival s on, a continuation takes over with the prefix's
    sessions that end at or after times[s]. There are exactly ``ports``:
    at least ``ports`` by the choice of s, and at most busy_{s-1} + 1 <=
    ``ports``, since all but arrival s - 1's own were counted at s - 1.
    Both continuations count one that ends at times[s] as free: the
    rounds (``_admission_rounds``) on ``_ROUNDS_MIN_PORTS`` ports or more,
    the heap loop (``_pooled_admission``) on fewer.
    """
    n = len(times)
    w = 2 * ports + 1
    if n < 4 * w:
        w = n
    while True:
        ends = times[:w] + holds[:w]
        ends.sort()
        full = (ends[: max(w - ports, 0)] >= times[ports:w]).nonzero()[0]
        if len(full) or w == n:
            break
        w *= 2
        if n - w < w:
            w = n
    if not len(full):
        return None
    start = int(full[0]) + ports
    ends = times[:start] + holds[:start]
    ends = ends[ends >= times[start]]
    ends.sort()
    admitted = np.ones(n, dtype=bool)
    admitted[start:] = (_admission_rounds if ports >= _ROUNDS_MIN_PORTS else _pooled_admission)(
        times[start:], holds[start:], ports, ends
    )
    return admitted


def _admission_rounds(
    times: np.ndarray, holds: np.ndarray, ports: int, ends: np.ndarray
) -> np.ndarray:
    """Admitted flags of the arrivals at sorted ``times`` on ``ports`` ports.

    ``ends`` holds the sorted end times of the latest earlier session on
    each of the ``ports`` ports. Each port keeps a free index, the first
    arrival at or after its session's end. In one round every port whose
    free index lies in the stream takes the first arrival at or after it
    that no port has taken yet, the ports in the order of their free
    indices, and its free index becomes the first arrival at or after the
    taken arrival's end. In numpy: the sorted free indices q are
    ranked among the untaken arrivals, r = q - #(taken < q); port j of the
    order gets rank max(r_k + j - k, k <= j), the first one free of the
    ports before it; and a rank r maps back to the index
    r + #(taken c_k with c_k - k <= r). No port's free index ever
    decreases, so taken arrivals below the least one are dropped, which
    shifts every rank by the same amount.

    The rounds claim arrivals in another order than the heap loop, and
    the result is exact in any order of claims: every taken arrival finds
    its port's earlier session ended and at most one session on each other
    port, so fewer than ``ports`` earlier sessions in progress; every
    untaken one finds each port busy with an earlier session (a port free
    at it would have taken it, or an arrival before it). That is the rule
    "admitted iff fewer than ``ports`` earlier admitted sessions are in
    progress at its time", which has one solution, the heap loop's. The
    rounds take about admitted / ports numpy steps.
    """
    if len(ends) != ports:
        raise InternalConsistencyError(f"{len(ends)} sessions in progress on {ports} ports")
    n = len(times)
    admitted = np.zeros(n, dtype=bool)
    taken = np.empty(0, np.intp)
    while True:
        free = times.searchsorted(ends)  # sorted, as ``ends`` is
        free = free[: free.searchsorted(n)]
        if not len(free):
            return admitted
        taken = taken[taken.searchsorted(free[0]) :]
        order = np.arange(len(free))
        ranks = free - taken.searchsorted(free)
        ranks = np.maximum.accumulate(ranks - order) + order
        claims = ranks + (taken - np.arange(len(taken))).searchsorted(ranks, "right")
        claims = claims[: claims.searchsorted(n)]  # ascending
        admitted[claims] = True
        taken = np.concatenate((taken, claims))
        taken.sort(kind="stable")  # a merge of two ascending runs
        ends = times[claims] + holds[claims]
        ends.sort()


def _pooled_admission(
    times: np.ndarray, holds: np.ndarray, ports: int, ends: np.ndarray
) -> np.ndarray:
    """Admitted flags of the arrivals at sorted ``times`` on ``ports`` ports.

    ``ends`` holds the sorted end times of the latest earlier session on
    each of the ``ports`` ports, and as a list it is a heap of them that
    the loop keeps up to date. Arrival i is admitted, and holds a port for
    ``holds[i]``, exactly when the earliest end is at or before
    ``times[i]``, whose port it then takes over. Every arrival before that
    end is blocked, so the loop takes one step per admitted arrival: it
    admits arrival i, and when the next arrival comes before the new
    earliest end, bisects for the first arrival at or after it, within the
    next ``_WINDOW`` arrivals when that end lies among them. The loop reads
    memoryviews of the arrays (no copy), so only the arrivals it reads are
    turned into floats.
    """
    if len(ends) != ports:
        raise InternalConsistencyError(f"{len(ends)} sessions in progress on {ports} ports")
    n = len(times)
    admitted = bytearray(n)
    times, holds, departures = memoryview(times), memoryview(holds), ends.tolist()
    window = _WINDOW  # a local, as the loop reads it on every blocked run
    last = n - window  # the window after arrival i lies in the stream iff i < last
    i = bisect_left(times, departures[0]) if ports else n
    while i < n:
        heapreplace(departures, times[i] + holds[i])
        admitted[i] = 1
        end = departures[0]
        i += 1
        if i < n and times[i] < end:
            if i < last and times[i + window] >= end:
                i = bisect_left(times, end, i + 1, i + window)
            else:
                i = bisect_left(times, end, i + 1)
    return np.frombuffer(admitted, dtype=bool)


def _flags(
    stream: ArrivalStream, gates: Sequence[float] | None, seed: int, ports: int
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``(passed, admitted)``: the ascending indices of the arrivals of ``stream``
    that pass the ``gates``, None when all pass, and ``_admission``'s flags over
    those on ``ports`` ports, None when none is blocked. Only when some gate is
    below 1.0, which every uniform in [0, 1) passes, are gate uniforms drawn,
    one per arrival in order, from ``default_rng(SeedSequence([_GATE_TAG, seed]))``.
    """
    if min(gates or (1.0,)) >= 1.0:
        return None, _admission(stream.time, stream.hold, ports)
    top = max(gates)
    u = np.random.default_rng(np.random.SeedSequence([_GATE_TAG, seed])).random(len(stream))
    passed = (u < top).nonzero()[0]
    if min(gates) < top:
        # u < gates[c] implies u < top, so the classes' own gates only thin these
        passed = passed[u.take(passed) < np.array(gates).take(stream.class_id.take(passed))]
    del u  # n doubles, freed before the takes and the admission
    return passed, _admission(stream.time.take(passed), stream.hold.take(passed), ports)


def run(
    workload: WorkloadSpec,
    capacities: Sequence[int],
    strategy: Sequence[float] | None,
    horizon: float,
    warmup: float,
    seed: int,
    stream: ArrivalStream | None = None,
) -> RunMetrics:
    """Simulate the workload against the partitioned server, return counters.

    ``strategy`` is the gate tuple, each class's pass probability in [0, 1],
    or None (uncontrolled), which passes all as gates of 1.0 do; a gate
    tuple is checked with ``pooled_blocking``'s rule, ``_check_gates``.
    The seed drives everything. The arrival stream is
    ``merged_arrival_stream(workload.with_seed(seed), horizon)``: pass it as
    ``stream`` to share one stream among the strategies run at this seed, or
    leave ``stream`` out and the run builds it. A stream drawn for an equal
    workload, seed and horizon is that stream; any other, one drawn for
    another workload, seed or horizon or one built by a caller, is a
    ``ConfigurationError``. ``_flags`` draws the gates from a generator
    apart from the stream's, so uncontrolled and policy runs at the same
    seed see the same arrivals. Counters only include requests arriving at
    or after warmup; earlier requests still evolve the state.
    """
    if not 0 <= warmup < horizon:
        raise ValueError(f"warmup must lie in [0, horizon), got {warmup} vs {horizon}")
    if strategy is not None:
        _check_gates(strategy, workload)
    if len(capacities) < 1:
        raise ValueError("at least one partition is required")
    if not all(type(c) is int and c >= 0 for c in capacities):
        capacities = [_check_capacity(c, f"capacity[{j}]") for j, c in enumerate(capacities)]
    spec = workload.with_seed(seed)  # checks the seed before the record, where 3.0 equals 3

    num_classes = len(workload.clusters)
    if stream is None:
        stream = merged_arrival_stream(spec, horizon)
    elif stream._drawn_for != (spec, horizon):
        raise ConfigurationError("the stream was not drawn for this workload, seed and horizon")
    # drawn arrays are contiguous native float64, class ids intp (bincount's index type)
    # times are sorted, so the counted arrivals (at or after warmup) are a suffix
    first = int(stream.time.searchsorted(warmup))
    classes = stream.class_id[first:]
    # one read of the memo, which a run in another thread may replace whole
    counted_from, offered = stream._offered
    if counted_from != first:
        offered = tuple(np.bincount(classes, minlength=num_classes).tolist())
        object.__setattr__(stream, "_offered", (first, offered))
    passed, admitted = _flags(stream, strategy, seed, sum(capacities))
    entered = offered
    if passed is not None:  # ascending, so its counted arrivals are a suffix too
        first = int(passed.searchsorted(first))
        classes = stream.class_id.take(passed[first:])
        entered = np.bincount(classes, minlength=num_classes).tolist()
    admits = entered  # unless some arrival found all ports busy
    if admitted is not None:
        admits = np.bincount(classes[admitted[first:]], minlength=num_classes).tolist()
    # each count is of a subset of the arrivals of the one before, so every
    # column is >= 0, and offered = admitted + policed + blocked by arithmetic
    policed = list(map(sub, offered, entered))
    blocked = list(map(sub, entered, admits))
    # tuple.__new__ is what the named tuples' _make calls, less its length check
    counts = zip(offered, admits, policed, blocked)
    per_class = tuple(map(tuple.__new__, repeat(ClassCounts), counts))
    if min(policed, default=0) < 0 or min(blocked, default=0) < 0:
        raise InternalConsistencyError(f"negative per-class counts {per_class}")
    totals = (sum(offered), sum(admits), sum(policed), sum(blocked), per_class, int(seed))
    return tuple.__new__(RunMetrics, totals)
