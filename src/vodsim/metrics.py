"""Counters, blocking probabilities, replication statistics, CSV output.

Two blocking scopes are reported everywhere: ``server`` is the fraction of
requests that reached the partitions and found them all full, and
``total_denial`` additionally counts requests rejected by the policy gate.
A metric with a zero denominator raises ``UndefinedMetricError`` and is
serialized as an absent value, never as 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import UndefinedMetricError

SCOPES = ("server", "total_denial")

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


def blocking_probability(m, scope: str = "server") -> float:
    """Blocking probability of one run (or one class) under the given scope.

    server: blocked / (offered - policed), the loss seen by requests that
    passed the gate. total_denial: (blocked + policed) / offered, every
    way a request can be turned away.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    if scope == "server":
        denominator = m.offered - m.policed
        numerator = m.blocked
    else:
        denominator = m.offered
        numerator = m.blocked + m.policed
    if denominator == 0:
        raise UndefinedMetricError(
            f"{scope} blocking undefined: zero denominator "
            f"(offered={m.offered}, policed={m.policed})"
        )
    return numerator / denominator


def policed_fraction(m) -> float:
    """Fraction of offered requests the policy gate rejected."""
    if m.offered == 0:
        raise UndefinedMetricError("policed fraction undefined: no offered requests")
    return m.policed / m.offered


def aggregate(replications: Sequence, scope: str = "server") -> tuple[float, float]:
    """Mean blocking over replications and a 95% normal-approximation halfwidth.

    A single replication yields a degenerate interval (halfwidth 0).
    """
    if len(replications) == 0:
        raise ValueError("aggregate requires at least one replication")
    values = [blocking_probability(m, scope) for m in replications]
    return _mean_and_halfwidth(values)


def _mean_and_halfwidth(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, _Z95 * math.sqrt(variance) / math.sqrt(n)


def _stats(replications: Sequence, metric) -> tuple[float | None, float | None]:
    """(mean, halfwidth) of ``metric`` over replications, or (None, None)
    when the metric is undefined in any replication."""
    try:
        return _mean_and_halfwidth([metric(m) for m in replications])
    except UndefinedMetricError:
        return None, None


@dataclass(frozen=True)
class SweepPoint:
    """The replications of one (traffic rate, strategy) sweep cell.

    A point holds only its replications; every statistic is derived from
    them by one function, as a mean with a 95% normal-quantile (1.96)
    halfwidth. mean_blocking is server-scope and None when the metric was
    undefined in some replication. Each read recomputes it.
    """

    traffic_rate: float
    offered_erlangs: float
    strategy: str
    replications: tuple[RunMetrics, ...]

    @property
    def mean_blocking(self) -> float | None:
        return _stats(self.replications, blocking_probability)[0]

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
        server_mean, server_hw = _stats(p.replications, blocking_probability)
        total_mean, total_hw = _stats(
            p.replications, lambda m: blocking_probability(m, "total_denial")
        )
        policed_mean, _ = _stats(p.replications, policed_fraction)
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
