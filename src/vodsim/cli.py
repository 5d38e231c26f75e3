"""Command-line interface: run a scenario, sweep the load range, or check
the simulator against the closed-form blocking value.

Commands
    vodsim run --config PATH [--seed N] [--strategy uncontrolled|policy|both] [--out PATH]
    vodsim sweep --config PATH --out PATH
    vodsim compare-analytic --config PATH --tolerance X

Human-readable summaries go to stdout, errors to stderr, CSV to --out.
Exit codes: 0 success, 2 configuration error, 3 internal consistency error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .analytic import pooled_blocking
from .config import (
    BOTH,
    POINT_SEED_STRIDE,
    SWEEP_PER_CLUSTER,
    ScenarioConfig,
    load_config,
)
from .engine import POLICY, UNCONTROLLED, UNCONTROLLED_STRATEGY, StrategySpec, run
from .errors import ConfigurationError, InternalConsistencyError
from .metrics import RunMetrics, SweepPoint, _stats, blocking_probability, to_csv
from .traffic import WorkloadSpec, merged_arrival_stream, scale_workload


def _replications(
    config: ScenarioConfig,
    workload: WorkloadSpec,
    strategies: Sequence[tuple[str, StrategySpec]],
    point_index: int = 0,
) -> list[tuple[str, tuple[RunMetrics, ...]]]:
    """Run the replications of sweep point ``point_index`` under each strategy.

    Replication r runs with seed + point_index * POINT_SEED_STRIDE + r. Its
    arrival stream is built once and every strategy runs on it; only one
    stream is alive at a time. Returns (name, replications) per strategy.
    """
    first = config.seed + point_index * POINT_SEED_STRIDE
    capacities = config.capacities()
    runs: list[list[RunMetrics]] = [[] for _ in strategies]
    for seed in range(first, first + config.replications):
        stream = merged_arrival_stream(workload.with_seed(seed), config.horizon)
        for out, (_, strategy) in zip(runs, strategies):
            out.append(
                run(
                    workload, capacities, strategy,
                    config.horizon, config.warmup, seed, stream,
                )
            )
        del stream
    return [(name, tuple(out)) for (name, _), out in zip(strategies, runs)]


def run_sweep(config: ScenarioConfig) -> list[SweepPoint]:
    """Simulate every sweep point for every configured strategy.

    In global mode (the default) sweep point c scales every cluster's
    arrival rate by traffic_rate_c / min_rate, so the sweep traces system
    blocking against total offered load. In per_cluster mode the load is
    fixed at the base scenario and each point reports one cluster's own
    blocking.
    """
    base = config.workload()
    strategies = config.strategy_specs()

    if config.sweep_mode == SWEEP_PER_CLUSTER:
        offered_total = base.offered_erlangs()
        points = []
        for name, replications in _replications(config, base, strategies):
            for class_id, cluster in enumerate(base.clusters):
                # each run's class of this cluster as a run of its own, whose
                # counts engine.run has checked
                views = [(m.per_class[class_id], m.seed) for m in replications]
                points.append(
                    SweepPoint.from_replications(
                        cluster.traffic_rate,
                        offered_total,
                        name,
                        (RunMetrics._make((*c, (c,), seed)) for c, seed in views),
                    )
                )
        return points

    if config.min_rate <= 0:
        raise ConfigurationError(
            "global sweep needs min_rate > 0 (load multipliers are relative to it)"
        )
    points = []
    for point_index, cluster in enumerate(base.clusters):
        scaled = scale_workload(base, cluster.traffic_rate / config.min_rate)
        offered = scaled.offered_erlangs()
        for name, replications in _replications(config, scaled, strategies, point_index):
            points.append(
                SweepPoint.from_replications(
                    cluster.traffic_rate, offered, name, replications
                )
            )
    return points


def run_scenario(config: ScenarioConfig) -> list[SweepPoint]:
    """Run the base scenario (no load scaling) once per configured strategy."""
    workload = config.workload()
    offered = workload.offered_erlangs()
    return [
        SweepPoint.from_replications(config.max_rate, offered, name, replications)
        for name, replications in _replications(config, workload, config.strategy_specs())
    ]


@dataclass(frozen=True)
class AnalyticComparison:
    """Simulated server blocking next to its Erlang-B value on all ports."""

    offered_erlangs: float
    capacity: int
    analytic_blocking: float
    simulated_blocking: float
    ci95_halfwidth: float
    absolute_difference: float
    tolerance: float
    passed: bool


def compare_analytic(config: ScenarioConfig, tolerance: float = 0.02) -> AnalyticComparison:
    """Validate the simulator against the exact steady-state blocking value.

    A request is blocked exactly when all N = sum of C_j ports are busy,
    whichever partition it lands on, so the server is a full-availability
    loss system and its blocking is Erlang-B of the total offered load on
    N ports, for any partition layout and any holding-time distribution.
    The simulation always runs uncontrolled, since the closed form
    describes the ungated server.
    """
    if not tolerance >= 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    workload = config.workload()
    capacity = sum(config.capacities())
    analytic = pooled_blocking(workload, capacity)
    [(_, replications)] = _replications(
        config, workload, [(UNCONTROLLED, UNCONTROLLED_STRATEGY)]
    )
    empty = sum(m.offered == 0 for m in replications)
    if 0 < empty < len(replications):
        raise ConfigurationError(
            f"{empty} of {len(replications)} replications offered no request after "
            "the warmup, so their blocking is undefined; raise the load or the horizon"
        )
    simulated, halfwidth = _stats(replications, blocking_probability)
    if simulated is None:
        # zero offered traffic in every replication: nothing was ever denied
        simulated, halfwidth = 0.0, 0.0
    difference = abs(simulated - analytic)
    return AnalyticComparison(
        offered_erlangs=workload.offered_erlangs(),
        capacity=capacity,
        analytic_blocking=analytic,
        simulated_blocking=simulated,
        ci95_halfwidth=halfwidth,
        absolute_difference=difference,
        tolerance=tolerance,
        passed=difference <= tolerance,
    )


def _print_points(config: ScenarioConfig, points: list[SweepPoint]) -> None:
    print(
        f"{'rate_mbps':>10} {'strategy':<44} {'server_blocking':>16} "
        f"{'ci95':>9} {'vs_threshold':>12}"
    )
    for p in sorted(points, key=lambda p: (p.traffic_rate, p.strategy)):
        mean, halfwidth = _stats(p.replications, blocking_probability)
        if mean is None:
            blocking, ci, verdict = "n/a", "n/a", "n/a"
        else:
            blocking = f"{mean:.6f}"
            ci = f"{halfwidth:.6f}"
            verdict = "below" if mean <= config.threshold else "above"
        print(f"{p.traffic_rate:>10.4g} {p.strategy:<44} {blocking:>16} {ci:>9} {verdict:>12}")


def _check_out(path: str) -> None:
    """Refuse an --out that names a directory or lies in a missing one,
    before any run, so a typo costs no simulation."""
    out = Path(path)
    if out.is_dir():
        raise ConfigurationError(f"cannot write CSV {path}: it is a directory")
    if not out.parent.is_dir():
        raise ConfigurationError(f"cannot write CSV {path}: no directory {out.parent}")


def _write_csv(path: str, points: list[SweepPoint]) -> None:
    text = to_csv(points)
    try:
        Path(path).write_text(text, newline="\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write CSV {path}: {exc}") from None


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.strategy is not None:
        config = replace(config, strategy=args.strategy)
    if args.out is not None:
        _check_out(args.out)
    points = run_scenario(config)
    print(f"scenario run: {config.num_clusters} clusters, seed {config.seed}, "
          f"{config.replications} replications, threshold {config.threshold}")
    _print_points(config, points)
    if args.out is not None:
        _write_csv(args.out, points)
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    _check_out(args.out)
    points = run_sweep(config)
    print(f"sweep ({config.sweep_mode}): {config.num_clusters} points, "
          f"seed {config.seed}, {config.replications} replications per point")
    _print_points(config, points)
    _write_csv(args.out, points)
    print(f"wrote {args.out}")
    return 0


def _cmd_compare_analytic(args) -> int:
    config = load_config(args.config)
    report = compare_analytic(config, args.tolerance)
    print(f"offered load:        {report.offered_erlangs:.6g} erlangs")
    print(f"ports:               {report.capacity}")
    print(f"analytic blocking:   {report.analytic_blocking:.6f}")
    print(f"simulated blocking:  {report.simulated_blocking:.6f} "
          f"(ci95 half-width {report.ci95_halfwidth:.6f})")
    print(f"abs difference:      {report.absolute_difference:.6f}")
    print(f"tolerance:           {report.tolerance:.6f}")
    print(f"result:              {'PASS' if report.passed else 'FAIL'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vodsim",
        description="Partitioned video-on-demand server blocking simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate the base scenario once per strategy")
    p_run.add_argument("--config", required=True, help="path to key=value config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument(
        "--strategy",
        choices=(UNCONTROLLED, POLICY, BOTH),
        default=None,
        help="override the config strategy",
    )
    p_run.add_argument("--out", default=None, help="also write results as CSV")
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep blocking across the traffic range")
    p_sweep.add_argument("--config", required=True, help="path to key=value config file")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_cmp = sub.add_parser(
        "compare-analytic",
        help="compare uncontrolled simulation against Erlang-B on all ports",
    )
    p_cmp.add_argument("--config", required=True, help="path to key=value config file")
    p_cmp.add_argument(
        "--tolerance",
        type=float,
        default=0.02,
        help="max allowed |simulated - analytic| (default 0.02)",
    )
    p_cmp.set_defaults(handler=_cmd_compare_analytic)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
