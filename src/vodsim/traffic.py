"""Multirate workload construction and seeded Poisson arrival generation.

A workload is a set of client clusters, each offering sessions at a rate
derived from its traffic rate in Mb/s and the bandwidth one admitted stream
consumes. Arrivals are Poisson per cluster and holding times exponential
with a per-cluster mean. The merged stream, the superposition of all
clusters, is drawn whole from one generator per run
(:func:`merged_arrival_stream`) and returned as an :class:`ArrivalStream`
of parallel numpy arrays rather than one object per request. Its class
marks are looked up in a guide table (Chen & Asau's indexed search).

All randomness flows from explicit seeds. Generator state is single-owner:
one stream is advanced by one caller at a time; distinct seeds may run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    """One client population: its traffic rate in Mb/s and its sessions.

    Its workload derives its class id and request rate. interactive_rate
    is an optional second Poisson stream, in requests/s, whose sessions
    also hold one port each.
    """

    traffic_rate: float
    mean_holding: float
    interactive_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("traffic_rate", "interactive_rate"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not math.isfinite(self.mean_holding) or self.mean_holding <= 0:
            raise ValueError(f"mean_holding must be > 0, got {self.mean_holding}")


def _check_seed(seed: int) -> None:
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < SEED_LIMIT):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")


@dataclass(frozen=True)
class WorkloadSpec:
    """Client clusters, one stream's bandwidth and the arrival seed; cluster c is class c."""

    clusters: tuple[ClusterSpec, ...]
    per_stream_bandwidth: float
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.clusters, tuple):
            object.__setattr__(self, "clusters", tuple(self.clusters))
        if not math.isfinite(self.per_stream_bandwidth) or self.per_stream_bandwidth <= 0:
            raise ValueError(
                f"per_stream_bandwidth must be > 0, got {self.per_stream_bandwidth}"
            )
        _check_seed(self.seed)
        # derived from the frozen clusters, so never stale; not a field, so
        # repr, == and hash ignore it
        object.__setattr__(self, "_tables", _stream_tables(self))

    def __reduce__(self) -> tuple:
        """Pickle the fields alone: a load rebuilds read-only tables."""
        return type(self), (self.clusters, self.per_stream_bandwidth, self.seed)

    def arrival_rates(self) -> list[float]:
        """traffic_rate / per_stream_bandwidth + interactive_rate per class, in requests/s."""
        bandwidth = self.per_stream_bandwidth
        return [c.traffic_rate / bandwidth + c.interactive_rate for c in self.clusters]

    def with_seed(self, seed: int) -> WorkloadSpec:
        """``replace(self, seed=seed)``, checking only the seed, the one
        field that changed; the copy shares this workload's tables."""
        _check_seed(seed)
        spec = object.__new__(type(self))
        spec.__dict__.update(self.__dict__, seed=seed)
        return spec

    def total_arrival_rate(self) -> float:
        """Sum of steady and interactive request rates, in requests/s."""
        return sum(self.arrival_rates())

    def offered_erlangs(self) -> float:
        """Total offered load: sum over clusters of arrival rate times mean hold."""
        return sum(
            rate * c.mean_holding for rate, c in zip(self.arrival_rates(), self.clusters)
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
    # (class count, horizon) of a stream that ``merged_arrival_stream`` drew,
    # with read-only arrays; None for a stream built by a caller
    _drawn_for: tuple | None = field(default=None, init=False, repr=False)

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
    (num_clusters - 1), and a single cluster gets min_rate. Each holding
    mean is drawn once, seeded, uniform over [min_hold, max_hold], and
    fixed into its cluster, so rescaling rates or rerunning with a
    different stream seed never redraws it. The specs check every other rule.
    """
    if num_clusters < 1:
        raise ValueError(f"cluster count must be >= 1, got {num_clusters}")
    if not 0 <= min_rate <= max_rate:
        raise ValueError(f"rates must satisfy 0 <= min <= max, got [{min_rate}, {max_rate}]")
    # rng.uniform(5, 2) would draw from [2, 5] without a word
    if not 0 < min_hold <= max_hold:
        raise ValueError(f"hold bounds must satisfy 0 < min <= max, got [{min_hold}, {max_hold}]")
    rng = np.random.default_rng(np.random.SeedSequence([_HOLD_DRAW_TAG, seed]))
    mean_holdings = rng.uniform(min_hold, max_hold, num_clusters).tolist()
    step = (max_rate - min_rate) / (num_clusters - 1) if num_clusters > 1 else 0.0
    clusters = tuple(
        ClusterSpec(
            traffic_rate=min_rate + c * step,
            mean_holding=mean_holding,
            interactive_rate=interactive_rate,
        )
        for c, mean_holding in enumerate(mean_holdings)
    )
    return WorkloadSpec(clusters, per_stream_bandwidth, seed)


def scale_workload(spec: WorkloadSpec, multiplier: float) -> WorkloadSpec:
    """Scale every cluster's arrival rates by a load multiplier; holds unchanged."""
    if not math.isfinite(multiplier) or multiplier < 0:
        raise ValueError(f"multiplier must be finite and >= 0, got {multiplier}")
    clusters = tuple(
        ClusterSpec(c.traffic_rate * multiplier, c.mean_holding, c.interactive_rate * multiplier)
        for c in spec.clusters
    )
    return replace(spec, clusters=clusters)


def _stream_tables(spec: WorkloadSpec) -> tuple:
    """The per-workload constants of a stream: ``(live, total, inner, guide, means)``.

    - ``live``: the ids of the classes with a rate > 0, or None when every
      class is live;
    - ``total``: the last of ``bounds``, the cumulative rates of the live
      classes (0.0 with none);
    - ``inner``: the inner bounds ``bounds[:-1]``, then inf;
    - ``guide``: for each cell k of M equal cells of [0, 1), the class of
      every u in it, or -1 when the searches of its edge marks
      fl((k / M) * total) and fl(((k + 1) / M) * total) in ``inner`` differ;
      M is a power of two, about 64 per live class and at most 2**16;
    - ``means``: the holding means of the live classes.

    ``WorkloadSpec`` builds them once and every replication of a sweep point
    shares them, so the arrays are read-only.
    """
    rates = spec.arrival_rates()
    # a derived rate overflows where its inputs do not: 1.0 / 1e-310 is inf
    if not math.isfinite(sum(rates)):
        raise ValueError("the arrival rates must be finite, and so must their sum")
    rates = np.array(rates)
    live = np.flatnonzero(rates > 0)
    bounds = np.cumsum(rates[live])
    total = float(bounds[-1]) if len(live) else 0.0
    inner = np.append(bounds[:-1], np.inf)
    cells = 1 << min(16, (64 * len(inner) - 1).bit_length())
    edges = np.searchsorted(inner, np.arange(cells + 1) / cells * total, "right")
    guide = np.where(edges[:-1] == edges[1:], edges[:-1], -1)
    means = np.array([c.mean_holding for c in spec.clusters])[live]
    for table in (live, inner, guide, means):
        table.flags.writeable = False
    return (None if len(live) == len(rates) else live, total, inner, guide, means)


def _class_marks(
    u: np.ndarray, inner: np.ndarray, guide: np.ndarray, total: float
) -> np.ndarray:
    """``searchsorted(inner, u * total, "right")``, bit for bit; ``u`` is kept.

    ``inner`` and ``guide`` come from ``_stream_tables``: searching only
    the inner bounds maps every mark, even one that rounds up to the total,
    onto a live class. With M = len(guide), a power of two, u * M and
    k / M are exact, and rounding is monotone, so a u in cell k has a mark
    fl(u * total) between the cell's edge marks: a cell whose edges find
    one class finds it for every u in it. A cell marked -1 has an inner
    bound above its lower edge and at or below its upper one, so at most
    live - 1 cells are; only their arrivals (under 1.5% at the reference
    load) are bisected.
    """
    index = guide[(u * len(guide)).astype(np.intp)]
    unsure = np.flatnonzero(index < 0)
    index[unsure] = np.searchsorted(inner, u[unsure] * total, "right")
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
    only makes the Poisson mean tiny. The arrays are read-only, and the
    stream records what it was drawn for, so ``engine.run`` need not check it.
    """
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    live, total, inner, guide, means = spec._tables
    rng = np.random.default_rng(np.random.SeedSequence([_ARRIVAL_TAG, spec.seed]))
    n = int(rng.poisson(total * horizon))
    # Three n-length buffers hold the stream: the exponentials become the
    # sums and then the times, the uniforms are marked and then become the
    # holds, and the class ids are the guide's lookup (gathered through
    # ``live`` when some class has rate 0).
    sums = rng.standard_exponential(n + 1)
    np.cumsum(sums, out=sums)
    times = sums[:n]
    times /= sums[n]
    times *= horizon
    # x = sums[k] / sums[n] < 1 gives horizon * x < horizon for a normal
    # horizon. But sums[n - 1] rounds to sums[n] when the last spacing is
    # below half an ulp of the sum (x = 1), and a subnormal horizon can round
    # horizon * x up to itself: the times at or past the horizon, a suffix
    # since they ascend, are clipped to the largest double below it.
    if n and times[-1] >= horizon:
        times[times.searchsorted(horizon):] = np.nextafter(horizon, 0.0)
    u = rng.random(n)
    index = _class_marks(u, inner, guide, total)
    holds = rng.standard_exponential(n, out=u)
    holds *= means[index]
    stream = ArrivalStream(times, holds, index if live is None else live[index])
    for array in (times, holds, stream.class_id):
        array.flags.writeable = False
    object.__setattr__(stream, "_drawn_for", (len(spec.clusters), horizon))
    return stream
