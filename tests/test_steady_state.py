"""Steady-state check of the simulator against the exact pooled blocking.

Past the start-empty transient, a request that reaches the server is
blocked exactly when all N ports are busy, so each sweep point's server
blocking is ``pooled_blocking`` of its gated offered load. This holds for
both strategies at every load, from nearly idle to saturated.
"""

import time
from pathlib import Path

from vodsim.analytic import pooled_blocking
from vodsim.cli import _replications
from vodsim.config import load_config
from vodsim.metrics import aggregate
from vodsim.traffic import scale_workload

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "steady_state.cfg"
# six of the 30 reference sweep points: the knee (multipliers 1 to 3), then
# on to the heaviest
POINTS = (0, 1, 2, 4, 12, 29)


def test_sweep_points_match_pooled_blocking():
    start = time.perf_counter()
    config = load_config(CONFIG)
    base = config.workload()
    ports = sum(config.capacities())
    strategies = config.strategy_specs()
    assert len(strategies) == 2
    for point in POINTS:
        scaled = scale_workload(base, base.clusters[point].traffic_rate / config.min_rate)
        results = _replications(config, scaled, strategies, point)
        for (name, strategy), (_, replications) in zip(strategies, results):
            mean, halfwidth = aggregate(replications, "server")
            exact = pooled_blocking(scaled, ports, strategy.gates)
            assert abs(mean - exact) <= max(0.01, 3 * halfwidth), (
                f"point {point} {name}: simulated {mean:.5f} +- {halfwidth:.5f}, "
                f"exact {exact:.5f}"
            )
    assert time.perf_counter() - start < 15.0
