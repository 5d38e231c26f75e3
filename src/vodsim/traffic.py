"""Multirate workload construction and seeded Poisson arrival generation.

A workload is a set of client clusters, each offering sessions at a rate
derived from its traffic rate in Mb/s and the bandwidth one admitted stream
consumes. Arrivals are Poisson per cluster and holding times exponential
with a per-cluster mean. The merged stream, the superposition of all
clusters, is drawn whole from one generator per run: a Poisson count,
sorted times from normalised exponential spacings, and a class mark per
arrival. The marks are looked up in a guide table of equal cells of the
uniform, exact because the cell count is a power of two; only the few
arrivals whose mark reaches a class bound inside its cell are bisected
again. It is returned as an :class:`ArrivalStream` of parallel numpy
arrays (arrival time, holding time, class id) rather than one object per
request, written in place in the buffers the generator filled.

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

# SeedSequence stream tags, so holding-mean draws, arrival draws and policy
# gate draws never share a generator even under the same base seed.
_HOLD_DRAW_TAG = 0
_ARRIVAL_TAG = 1
_GATE_TAG = 2


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


def _class_marks(u: np.ndarray, bounds: np.ndarray, total: float) -> np.ndarray:
    """``searchsorted(bounds[:-1], u * total, "right")``, bit for bit.

    ``bounds`` are the cumulative rates of the live classes and ``total``
    their sum; searching only the inner bounds maps every mark, even one
    that rounds up to the total, onto a live class. ``u`` is overwritten
    with the marks ``u * total``.

    A guide table of M cells, M a power of two about 8 per live class (at
    most 2**16 and at most the arrival count), holds for cell k the number
    of inner bounds at or below its edge fl((k / M) * total). u * M and
    k / M are exact, and rounding is monotone, so an arrival with
    floor(u * M) = k has a mark fl(u * total) at or above its cell's edge:
    the guide entry counts only bounds at or below the mark, and is the
    answer unless the next bound is at or below the mark too. Only those
    arrivals, about one in twenty at the reference load, are bisected again.
    """
    inner = np.append(bounds[:-1], np.inf)
    cells = 1 << min(16, (8 * len(inner) - 1).bit_length(), max(len(u), 1).bit_length() - 1)
    guide = np.searchsorted(inner, np.arange(cells) / cells * total, "right")
    index = guide[(u * cells).astype(np.intp)]
    u *= total
    recheck = np.flatnonzero(inner[index] <= u)
    index[recheck] = np.searchsorted(inner, u[recheck], "right")
    return index


def merged_arrival_stream(spec: WorkloadSpec, horizon: float) -> ArrivalStream:
    """The merged arrivals of all clusters on [0, horizon), sorted by time.

    One generator, seeded from the workload seed, draws the whole stream,
    so it is a pure function of (spec, horizon). With class c arriving at
    rate lambda_c + i_c (steady plus interactive) and Lambda their sum:

    - the arrival count is Poisson(Lambda * horizon);
    - given n arrivals, the times are the normalised partial sums of n + 1
      standard exponentials, which are n sorted uniforms on (0, 1) (Renyi
      1953), scaled by the horizon;
    - each arrival is marked with class c with probability
      lambda_c / Lambda, which gives independent Poisson streams per class
      (the colouring theorem): a uniform u times Lambda is bisected into
      the cumulative class rates. A guide table gives the bisection's
      answer for almost every arrival in one lookup, bit for bit; see
      ``_class_marks`` for why it is exact;
    - its hold is exponential with its class's mean.

    A class with rate 0 is never marked. A denormal rate needs no guard: it
    only makes the Poisson mean tiny.
    """
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    rates = np.array([c.request_rate + c.interactive_rate for c in spec.clusters])
    live = np.flatnonzero(rates > 0)
    bounds = np.cumsum(rates[live])
    total = float(bounds[-1]) if len(live) else 0.0
    rng = np.random.default_rng(np.random.SeedSequence([_ARRIVAL_TAG, spec.seed]))
    n = int(rng.poisson(total * horizon))
    sums = np.cumsum(rng.standard_exponential(n + 1))
    # x = sums[k] / sums[n] < 1 gives horizon * x < horizon for a normal
    # horizon. But sums[n - 1] rounds to sums[n] when the last spacing is
    # below half an ulp of the sum (x = 1), and a subnormal horizon can round
    # horizon * x up to itself: the clip to the largest double below the
    # horizon keeps every time in [0, horizon). The arithmetic runs in place
    # in the buffer of the sums, with the same operations in the same order.
    times = sums[:n]
    times /= sums[n]
    times *= horizon
    np.minimum(times, np.nextafter(horizon, 0.0), out=times)
    classes = live[_class_marks(rng.random(n), bounds, total)]
    holds = rng.standard_exponential(n)
    holds *= np.array([c.mean_holding for c in spec.clusters])[classes]
    return ArrivalStream(times, holds, classes)
