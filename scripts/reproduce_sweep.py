#!/usr/bin/env python3
"""Reproduce the headline blocking-vs-load experiment.

Runs the reference 30-point sweep twice: once with the default strategies
(uncontrolled next to the uniform-literal policy) and once with the
capacity-proportional, max-normalized policy variant. Writes one CSV per
sweep; plot blocking against traffic_rate_mbps or offered_erlangs with any
external tool.

The variant's rows equal the uncontrolled rows of the first CSV in every
column but strategy: both presets weight every class equally, and
max-normalizing equal weights makes every gate 1.0, so nothing is policed.
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

from vodsim.cli import run_sweep
from vodsim.config import parse_config
from vodsim.metrics import to_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=42, help="base seed")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = replace(parse_config(""), seed=args.seed)

    started = time.perf_counter()
    default_points = run_sweep(config)
    (out_dir / "sweep_uniform_literal.csv").write_text(
        to_csv(default_points), newline="\n"
    )

    capacity_config = replace(
        config,
        strategy="policy",
        policy_preset="capacity_proportional",
        weight_scaling="max_normalized",
    )
    capacity_points = run_sweep(capacity_config)
    (out_dir / "sweep_capacity_max_normalized.csv").write_text(
        to_csv(capacity_points), newline="\n"
    )
    elapsed = time.perf_counter() - started

    for name, points in (
        ("uncontrolled", [p for p in default_points if p.strategy == "uncontrolled"]),
        ("uniform-literal policy", [p for p in default_points if p.strategy != "uncontrolled"]),
        ("capacity/max-normalized policy", capacity_points),
    ):
        ordered = sorted(points, key=lambda p: p.traffic_rate)
        lo, hi = ordered[0].mean_blocking, ordered[-1].mean_blocking
        print(f"{name:<32} blocking {lo:.4f} -> {hi:.4f} across the sweep")
    print(f"wrote 2 CSV files to {out_dir}/ in {elapsed:.1f}s (seed {args.seed})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
