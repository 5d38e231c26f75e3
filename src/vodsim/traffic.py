"""Multirate workload construction and seeded Poisson arrival generation.

A workload is a set of client clusters, each offering sessions at a rate
derived from its traffic rate in Mb/s and the bandwidth one admitted stream
consumes. Arrivals are Poisson per cluster (inverse-CDF exponential gaps),
holding times are exponential with a per-cluster mean, and the merged
stream is the time-sorted superposition of all clusters, returned as an
:class:`ArrivalStream` of parallel numpy arrays (arrival time, holding
time, class id) rather than one object per request.

All randomness flows from explicit seeds. Generator state is single-owner:
one stream is advanced by one caller at a time; distinct seeds may run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Seeds are unsigned 64-bit integers: every seed, derived ones included,
# must lie below this.
SEED_LIMIT = 2**64

# SeedSequence stream tags, so holding-mean draws and arrival draws never
# share a generator even under the same base seed.
_HOLD_DRAW_TAG = 0
_ARRIVAL_TAG = 1


@dataclass(frozen=True)
class ClusterSpec:
    """One client population: its traffic rate and derived session behavior.

    request_rate is traffic_rate divided by the owning workload's
    per-stream bandwidth; interactive_rate is an optional second Poisson
    stream whose sessions also hold one port each.
    """

    class_id: int
    traffic_rate: float
    request_rate: float
    mean_holding: float
    interactive_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise ValueError(f"class_id must be >= 0, got {self.class_id}")
        for name in ("traffic_rate", "request_rate", "interactive_rate"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not math.isfinite(self.mean_holding) or self.mean_holding <= 0:
            raise ValueError(f"mean_holding must be > 0, got {self.mean_holding}")


@dataclass(frozen=True)
class WorkloadSpec:
    """A full client population plus the parameters its clusters must obey."""

    clusters: tuple[ClusterSpec, ...]
    per_stream_bandwidth: float
    min_hold: float
    max_hold: float
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.clusters, tuple):
            object.__setattr__(self, "clusters", tuple(self.clusters))
        if not math.isfinite(self.per_stream_bandwidth) or self.per_stream_bandwidth <= 0:
            raise ValueError(
                f"per_stream_bandwidth must be > 0, got {self.per_stream_bandwidth}"
            )
        if not 0 < self.min_hold <= self.max_hold:
            raise ValueError(
                f"holding bounds must satisfy 0 < min <= max, "
                f"got [{self.min_hold}, {self.max_hold}]"
            )
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        for position, c in enumerate(self.clusters):
            if c.class_id != position:
                raise ValueError(
                    f"cluster at position {position} has class_id {c.class_id}; "
                    "class ids must be the 0-based cluster positions"
                )
            expected = c.traffic_rate / self.per_stream_bandwidth
            if not math.isclose(c.request_rate, expected, rel_tol=1e-9, abs_tol=1e-12):
                raise ValueError(
                    f"cluster {c.class_id}: request_rate {c.request_rate} does not "
                    f"match traffic_rate/per_stream_bandwidth = {expected}"
                )
            if not self.min_hold <= c.mean_holding <= self.max_hold:
                raise ValueError(
                    f"cluster {c.class_id}: mean_holding {c.mean_holding} outside "
                    f"[{self.min_hold}, {self.max_hold}]"
                )

    def total_arrival_rate(self) -> float:
        """Sum of steady and interactive request rates, in requests/s."""
        return sum(c.request_rate + c.interactive_rate for c in self.clusters)

    def offered_erlangs(self) -> float:
        """Total offered load: sum over clusters of arrival rate times mean hold."""
        return sum(
            (c.request_rate + c.interactive_rate) * c.mean_holding
            for c in self.clusters
        )


@dataclass(frozen=True, eq=False)
class ArrivalStream:
    """The merged arrivals of one run, as parallel arrays sorted by time.

    Arrival i comes at ``time[i]``, holds a port for ``hold[i]`` seconds if
    admitted, and belongs to class ``class_id[i]``. A cluster's steady and
    interactive arrivals share its class id and are not told apart.
    """

    time: np.ndarray
    hold: np.ndarray
    class_id: np.ndarray

    def __len__(self) -> int:
        return len(self.time)


def build_workload(
    num_clusters: int,
    min_rate: float,
    max_rate: float,
    per_stream_bandwidth: float,
    min_hold: float,
    max_hold: float,
    seed: int,
    interactive_rate: float = 0.0,
) -> WorkloadSpec:
    """Assemble a workload of clusters with linearly spaced traffic rates.

    Cluster c gets traffic rate min_rate + c * (max_rate - min_rate) /
    (num_clusters - 1), a single cluster gets min_rate, and its request rate
    is that over per_stream_bandwidth. Each cluster's holding mean is drawn
    once, seeded, uniform over [min_hold, max_hold], and fixed into its spec,
    so rescaling rates or rerunning with a different stream seed never
    redraws it. The specs check every other rule.
    """
    if num_clusters < 1:
        raise ValueError(f"cluster count must be >= 1, got {num_clusters}")
    if not 0 <= min_rate <= max_rate:
        raise ValueError(f"rates must satisfy 0 <= min <= max, got [{min_rate}, {max_rate}]")
    if not math.isfinite(per_stream_bandwidth) or per_stream_bandwidth <= 0:
        raise ValueError(f"per_stream_bandwidth must be > 0, got {per_stream_bandwidth}")
    rng = np.random.default_rng(np.random.SeedSequence([_HOLD_DRAW_TAG, seed]))
    mean_holdings = rng.uniform(min_hold, max_hold, num_clusters).tolist()
    step = (max_rate - min_rate) / (num_clusters - 1) if num_clusters > 1 else 0.0
    clusters = tuple(
        ClusterSpec(
            class_id=c,
            traffic_rate=min_rate + c * step,
            request_rate=(min_rate + c * step) / per_stream_bandwidth,
            mean_holding=mean_holding,
            interactive_rate=interactive_rate,
        )
        for c, mean_holding in enumerate(mean_holdings)
    )
    return WorkloadSpec(clusters, per_stream_bandwidth, min_hold, max_hold, seed)


def scale_workload(spec: WorkloadSpec, multiplier: float) -> WorkloadSpec:
    """Scale every cluster's arrival rates by a load multiplier; holds unchanged."""
    if not math.isfinite(multiplier) or multiplier < 0:
        raise ValueError(f"multiplier must be finite and >= 0, got {multiplier}")
    clusters = tuple(
        replace(
            c,
            traffic_rate=c.traffic_rate * multiplier,
            request_rate=c.traffic_rate * multiplier / spec.per_stream_bandwidth,
            interactive_rate=c.interactive_rate * multiplier,
        )
        for c in spec.clusters
    )
    return replace(spec, clusters=clusters)


def _uniform_open(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms on (0, 1): redraw the (vanishingly rare) exact zeros."""
    u = rng.random(n)
    mask = u == 0.0
    while mask.any():
        u[mask] = rng.random(int(mask.sum()))
        mask = u == 0.0
    return u


def _arrival_times(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """Cumulative Poisson arrival times on [0, horizon), drawn in chunks."""
    if rate <= 0:
        return np.empty(0)
    expected = rate * horizon
    chunk = max(16, int(expected + 6.0 * math.sqrt(expected)) + 16)
    gaps = -np.log1p(-_uniform_open(rng, chunk)) / rate
    times = np.cumsum(gaps)
    while times[-1] < horizon:
        gaps = -np.log1p(-_uniform_open(rng, chunk)) / rate
        times = np.concatenate([times, times[-1] + np.cumsum(gaps)])
    return times[times < horizon]


def _holding_times(rng: np.random.Generator, mean: float, n: int) -> np.ndarray:
    return -mean * np.log1p(-_uniform_open(rng, n))


def merged_arrival_stream(spec: WorkloadSpec, horizon: float) -> ArrivalStream:
    """Superpose all cluster streams into one time-sorted arrival stream.

    Each cluster draws from its own generator, spawned deterministically
    from the workload seed, so the merged stream is a pure function of
    (spec, horizon). Ties in arrival time keep cluster order (stable sort).
    """
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")

    root = np.random.SeedSequence([_ARRIVAL_TAG, spec.seed])
    children = root.spawn(len(spec.clusters))

    # an empty first block lets a workload without arrivals take the same path
    times_blocks: list[np.ndarray] = [np.empty(0)]
    holds_blocks: list[np.ndarray] = [np.empty(0)]
    class_blocks: list[int] = [0]
    # a denormal rate makes an infinite gap, which rightly means no arrival
    with np.errstate(over="ignore"):
        for cluster, child in zip(spec.clusters, children):
            rng = np.random.default_rng(child)
            for rate in (cluster.request_rate, cluster.interactive_rate):
                times = _arrival_times(rng, rate, horizon)
                if len(times) == 0:
                    continue
                times_blocks.append(times)
                holds_blocks.append(_holding_times(rng, cluster.mean_holding, len(times)))
                class_blocks.append(cluster.class_id)

    all_times = np.concatenate(times_blocks)
    order = np.argsort(all_times, kind="stable")
    class_ids = np.repeat(class_blocks, [len(t) for t in times_blocks])
    return ArrivalStream(
        all_times[order], np.concatenate(holds_blocks)[order], class_ids[order]
    )
