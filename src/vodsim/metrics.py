"""Counters, per-run metrics, replication statistics, CSV output.

Three per-run metrics are reported everywhere, one per CSV column pair:
``server_blocking`` is the fraction of requests that reached the partitions
and found them all full, ``total_denial`` additionally counts requests
rejected by the policy gate, and ``policed_fraction`` counts those alone.
A metric with a zero denominator raises ``UndefinedMetricError``;
``aggregate`` then reports no value, which the CSV writes as an empty
field, never as 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import UndefinedMetricError

_CSV_HEADER = (
    "traffic_rate_mbps,offered_erlangs,strategy,replications,"
    "mean_server_blocking,ci95_server,mean_total_denial,ci95_total,"
    "mean_policed_fraction"
)

# 97.5th percentile of the standard normal; replication counts are small,
# so this is the usual large-sample approximation, not a t quantile.
_Z95 = 1.96

_COUNTS = ("offered", "admitted", "policed", "blocked")


ClassCounts = namedtuple("ClassCounts", _COUNTS)
ClassCounts.__doc__ = """Post-warmup (offered, admitted, policed, blocked) counts of one
request class; it checks nothing."""


RunMetrics = namedtuple("RunMetrics", (*_COUNTS, "per_class", "seed"))
RunMetrics.__doc__ = """Post-warmup counts of one simulation run: the totals, a
``ClassCounts`` per class and the run seed. It checks nothing: ``engine.run``,
which counts nested subsets of the arrivals, checks that every count is >= 0."""


def _ratio(name: str, numerator: int, denominator: int) -> float:
    if denominator == 0:
        raise UndefinedMetricError(f"{name} undefined: zero denominator")
    return numerator / denominator


def server_blocking(m) -> float:
    """blocked / (offered - policed) of one run (or one class): the loss
    seen by requests that passed the gate."""
    return _ratio("server blocking", m.blocked, m.offered - m.policed)


def total_denial(m) -> float:
    """(blocked + policed) / offered of one run (or one class): every way a
    request can be turned away."""
    return _ratio("total denial", m.blocked + m.policed, m.offered)


def policed_fraction(m) -> float:
    """policed / offered of one run (or one class): the requests the policy
    gate rejected."""
    return _ratio("policed fraction", m.policed, m.offered)


def aggregate(replications: Sequence, metric) -> tuple[float | None, float | None]:
    """Mean of ``metric`` over replications and its 95% normal-approximation
    (``_Z95``) halfwidth, or (None, None) when the metric is undefined in
    any replication.

    A single replication yields a degenerate interval (halfwidth 0).
    """
    n = len(replications)
    if n == 0:
        raise ValueError("replication statistics need at least one replication")
    try:
        values = [metric(m) for m in replications]
    except UndefinedMetricError:
        return None, None
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, _Z95 * math.sqrt(variance) / math.sqrt(n)


@dataclass(frozen=True)
class SweepPoint:
    """The replications of one (traffic rate, strategy) sweep cell.

    A point holds only its replications; every statistic is ``aggregate``
    of one per-run metric over them. mean_blocking is the mean
    ``server_blocking``, None when that was undefined in some replication.
    Each read recomputes it.
    """

    traffic_rate: float
    offered_erlangs: float
    strategy: str
    replications: tuple[RunMetrics, ...]

    @property
    def mean_blocking(self) -> float | None:
        return aggregate(self.replications, server_blocking)[0]

    @classmethod
    def from_replications(
        cls,
        traffic_rate: float,
        offered_erlangs: float,
        strategy: str,
        replications: Iterable[RunMetrics],
    ) -> "SweepPoint":
        return cls(traffic_rate, offered_erlangs, strategy, tuple(replications))


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def to_csv(points: Iterable[SweepPoint]) -> str:
    """Serialize sweep points to CSV, deterministically.

    One row per point, ordered by ascending traffic rate then strategy
    name. Numbers use shortest-form 12-significant-digit formatting, so
    identical inputs always produce byte-identical output.
    """
    lines = [_CSV_HEADER]
    for p in sorted(points, key=lambda p: (p.traffic_rate, p.strategy)):
        server_mean, server_hw = aggregate(p.replications, server_blocking)
        total_mean, total_hw = aggregate(p.replications, total_denial)
        policed_mean, _ = aggregate(p.replications, policed_fraction)
        lines.append(
            ",".join(
                (
                    _fmt(p.traffic_rate),
                    _fmt(p.offered_erlangs),
                    p.strategy,
                    str(len(p.replications)),
                    _fmt(server_mean),
                    _fmt(server_hw),
                    _fmt(total_mean),
                    _fmt(total_hw),
                    _fmt(policed_mean),
                )
            )
        )
    return "\n".join(lines) + "\n"
