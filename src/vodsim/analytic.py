"""Closed-form blocking and admission probabilities for a partitioned loss server.

Pure functions only: no state, no randomness. Everything here is safe to
call concurrently. Arguments are validated on the way in and results are
sanity-checked on the way out; an out-of-range result raises
``InternalConsistencyError`` instead of being clamped, so formula bugs
surface instead of hiding.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, InternalConsistencyError

if TYPE_CHECKING:
    from .traffic import WorkloadSpec


def _check_load(erlangs: float) -> float:
    """Offered traffic in erlangs (arrival rate times mean holding time)."""
    if not math.isfinite(erlangs) or erlangs < 0:
        raise ValueError(f"offered load must be finite and >= 0, got {erlangs}")
    return float(erlangs)


def _check_capacity(capacity: int, name: str = "capacity") -> int:
    """Capacity of one server partition, in ports: a non-bool Python or numpy integer."""
    if not isinstance(capacity, (int, np.integer)) or isinstance(capacity, bool) or capacity < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {capacity!r}")
    return int(capacity)


def _check_gates(gates: Sequence[float], workload: WorkloadSpec) -> None:
    """One policy gate per class of the workload, each a pass probability."""
    if len(gates) != len(workload.clusters):
        raise ConfigurationError(
            f"policy gates cover {len(gates)} classes but the "
            f"workload has {len(workload.clusters)}"
        )
    for i, g in enumerate(gates):
        if not 0.0 <= g <= 1.0:  # also false for a nan
            raise ConfigurationError(f"gate[{i}] = {g} is outside [0, 1]")


def _checked_probability(p: float, context: str) -> float:
    if not 0.0 <= p <= 1.0:
        raise InternalConsistencyError(f"{context} produced {p}, outside [0, 1]")
    return p


def erlang_b(load: float, capacity: int) -> float:
    """Erlang-B blocking probability of an M/M/C/C loss system.

    B(E, C) = (E^C / C!) / sum_{k=0..C} (E^k / k!), evaluated through the
    numerically stable recurrence

        B(E, 0) = 1
        B(E, C) = E * B(E, C-1) / (C + E * B(E, C-1))

    which never forms a factorial. Strictly decreasing in C for E > 0 and
    nondecreasing in E for fixed C.
    """
    e = _check_load(load)
    c = _check_capacity(capacity)
    b = 1.0
    for n in range(1, c + 1):
        b = e * b / (n + e * b)
    return _checked_probability(b, "erlang_b")


def erlang_b_direct(load: float, capacity: int) -> float:
    """Erlang-B from the literal sum of E^k / k! for k = 0..C.

    An independent oracle for :func:`erlang_b`. Each term is the previous
    one times E / k, so no factorial is formed; the only limit is a sum
    that overflows a double, which raises ``ValueError``.
    """
    e = _check_load(load)
    c = _check_capacity(capacity)
    terms = [1.0]  # e^0 / 0!
    for k in range(1, c + 1):
        terms.append(terms[-1] * e / k)
    denominator = math.fsum(terms)
    if not math.isfinite(denominator):
        raise ValueError(
            f"factorial-sum form overflowed at load {e}, capacity {c}; "
            "use erlang_b (recurrence form) instead"
        )
    return _checked_probability(terms[-1] / denominator, "erlang_b_direct")


def pooled_blocking(
    workload: WorkloadSpec, ports: int, gates: Sequence[float] | None = None
) -> float:
    """Steady-state server blocking of a workload on ``ports`` pooled ports.

    erlang_b(sum over classes c of g_c * (lambda_c + i_c) * h_c, ports),
    with g_c the pass probability of class c's policy gate (1 when
    ``gates`` is None). It is exact because a request that reaches the
    server is blocked exactly when all ports are busy, Erlang-B does not
    depend on the holding-time law (Sevastyanov 1957), and a Bernoulli gate
    thins a Poisson stream into a Poisson stream. ``engine.run`` takes the
    same gates: any other number of gates than of classes, or a gate outside
    [0, 1], is a ``ConfigurationError``.
    """
    if gates is None:
        gates = (1.0,) * len(workload.clusters)
    _check_gates(gates, workload)
    load = sum(
        g * r * c.mean_holding
        for g, r, c in zip(gates, workload.arrival_rates(), workload.clusters)
    )
    return erlang_b(load, ports)


def chain_blocking(chain: Iterable[tuple[float, int]]) -> float:
    """Probability that every partition in the chain blocks simultaneously.

    ``chain`` is the ordered (offered erlangs, ports) pairs of the
    partitions an overflowing request has found fully occupied. The
    per-partition blocking events are treated as independent, so the
    result is the product of the per-stage Erlang-B values. An empty chain
    yields 1 (empty product).
    """
    p = 1.0
    for erlangs, ports in chain:
        p *= erlang_b(erlangs, ports)
    return _checked_probability(p, "chain_blocking")


def free_port_selection_prob(
    k: int, j: int, capacity_j: int, occupied_j: int
) -> float:
    """Probability that a request lands on partition j of k and finds a free port.

    Combines the geometric chance of reaching the j-th partition under
    memoryless uniform selection with the fraction of ports currently free
    there:

        (1 - 1/k)^(j-1) * (1/k) * (C_j - Q_j) / C_j

    Q_j is the instantaneous occupancy, supplied by the caller; this module
    never owns state.
    """
    if k < 1:
        raise ValueError(f"partition count k must be >= 1, got {k}")
    if not 1 <= j <= k:
        raise ValueError(f"partition index j must be in 1..{k}, got {j}")
    c = _check_capacity(capacity_j)
    if c == 0:
        raise ValueError("capacity_j must be >= 1 (free fraction divides by it)")
    if occupied_j < 0 or occupied_j > c:
        raise ValueError(f"occupied_j must be in 0..{c}, got {occupied_j}")
    p = (1.0 - 1.0 / k) ** (j - 1) * (1.0 / k) * ((c - occupied_j) / c)
    return _checked_probability(p, "free_port_selection_prob")


def policy_admission_prob(weight: float, base: float) -> float:
    """Admission probability after the per-class policy gate: weight * base."""
    for name, value in (("weight", weight), ("base", base)):
        if not math.isfinite(value) or not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be a probability in [0, 1], got {value}")
    return _checked_probability(weight * base, "policy_admission_prob")
