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
from dataclasses import dataclass, field

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
    interactive arrivals share its class id and are not told apart. Nothing
    writes to a drawn stream, so any number of runs may share it.
    """

    time: np.ndarray
    hold: np.ndarray
    class_id: np.ndarray
    # the (spec, horizon) of a stream that ``merged_arrival_stream`` drew,
    # with read-only arrays; None for a stream built by a caller, which
    # ``engine.run`` refuses
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
    return WorkloadSpec(clusters, spec.per_stream_bandwidth, spec.seed)


def _stream_tables(spec: WorkloadSpec) -> tuple:
    """The per-workload constants of a stream: ``(total, inner, guide, means)``.

    - ``total``: the last of ``bounds``, the cumulative rates of the classes
      up to the last one with a rate > 0 (0.0 with none); the zero-rate
      classes after it are left out;
    - ``inner``: the inner bounds ``bounds[:-1]``, then inf;
    - ``guide``: for each cell k of M equal cells of [0, 1), the class of
      every u in it, or -1 when the searches of its edge marks
      fl((k / M) * total) and fl(((k + 1) / M) * total) in ``inner`` differ;
      M is a power of two, about 64 per bound and at most 2**16;
    - ``means``: the holding means of all classes.

    ``WorkloadSpec`` builds them once and every replication of a sweep point
    shares them, so the arrays are read-only.
    """
    rates = spec.arrival_rates()
    # a derived rate overflows where its inputs do not: 1.0 / 1e-310 is inf
    if not math.isfinite(sum(rates)):
        raise ValueError("the arrival rates must be finite, and so must their sum")
    live = len(rates)
    while live and not rates[live - 1]:
        live -= 1
    # with no live class, one bound of 0.0 gives total 0.0 and inner [inf]
    inner = np.cumsum(rates[:live] or [0.0])
    total = float(inner[-1])
    inner[-1] = np.inf
    cells = 1 << min(16, (64 * len(inner) - 1).bit_length())
    edges = np.searchsorted(inner, np.arange(cells + 1) / cells * total, "right")
    guide = np.where(edges[:-1] == edges[1:], edges[:-1], -1)
    means = np.array([c.mean_holding for c in spec.clusters])
    for table in (inner, guide, means):
        table.flags.writeable = False
    return total, inner, guide, means


def _class_marks(
    u: np.ndarray, inner: np.ndarray, guide: np.ndarray, total: float
) -> np.ndarray:
    """``searchsorted(inner, u * total, "right")``, bit for bit; ``u`` is kept.

    ``inner`` and ``guide`` come from ``_stream_tables``: searching only
    the inner bounds maps every mark, even one that rounds up to the total,
    onto the last class with a rate > 0. A zero-rate class before it has
    an empty interval [b, b), which a "right" search never returns, so the
    search gives the class id itself. With M = len(guide), a power of two,
    u * M and k / M are exact, and rounding is monotone, so a u in cell k
    has a mark fl(u * total) between the cell's edge marks: a cell whose
    edges find one class finds it for every u in it. A cell marked -1 has
    an inner bound above its lower edge and at or below its upper one, so
    at most len(inner) - 1 cells are; only their arrivals (under 1.5% at
    the reference load) are bisected.
    """
    # u * M in [0, M) truncates to u's cell as astype(np.intp) does, so "clip" clips
    # nothing; unlike "raise" it does not buffer ``out``: the lookup overwrites in place
    index = np.empty(len(u), np.intp)
    np.multiply(u, len(guide), out=index, casting="unsafe")
    guide.take(index, out=index, mode="clip")
    unsure = (index < 0).nonzero()[0]
    index[unsure] = inner.searchsorted(u[unsure] * total, "right")
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
    stream records the ``(spec, horizon)`` it was drawn for: ``engine.run``
    runs it for an equal workload, seed and horizon alone.
    """
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    total, inner, guide, means = spec._tables
    rng = np.random.default_rng(np.random.SeedSequence([_ARRIVAL_TAG, spec.seed]))
    n = int(rng.poisson(total * horizon))
    # Three n-length buffers hold the stream: the exponentials become the
    # sums and then the times, the uniforms are marked and then become the
    # holds, and the guide's lookup gives the class ids. Besides them only a
    # gather of the holding means and a byte mask of the arrivals to bisect are n long.
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
    holds *= means.take(index)
    for array in (times, holds, index):
        array.flags.writeable = False
    stream = ArrivalStream(times, holds, index)
    object.__setattr__(stream, "_drawn_for", (spec, horizon))
    return stream
