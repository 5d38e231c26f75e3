#!/usr/bin/env python3
"""vodsim benchmark: one workload per call, results as a JSON last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. Each call

1. starts a fresh interpreter 15 times (after one unmeasured warm start)
   to time set-up: ``import vodsim``, ``load_config`` and ``build_workload``;
2. starts one worker process that repeats whole rounds of the workload, all
   with the same inputs, until S seconds (set-up included) are used
   (--trace 1 makes every second round a traced one);
3. checks the first round against computations made apart from the program
   (perfbench/oracles.py) and every round against the first;
4. prints the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1) as ``{"correct", "attempted", "failed", "metrics"}``.

An operation is one simulated replication. Scratch files go to
perfbench/out/. Exit code 0 when a result was printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The reference scenario of the paper, written out in full so that the
# oracles and the program read the same parameters.
REFERENCE = {
    "num_clusters": 30,
    "min_rate": 1.0,
    "max_rate": 15.5,
    "per_stream_bandwidth": 100.0,
    "num_partitions": 30,
    "ports_per_partition": 10,
    "min_hold": 1.0,
    "max_hold": 200.0,
    "horizon": 500.0,
    "warmup": 50.0,
    "replications": 20,
    "seed": 42,
    "strategy": "both",
    "policy_preset": "uniform",
    "weight_scaling": "literal",
}

# One round of each workload; a run repeats whole rounds. Round sizes are
# set so that a round takes about 2-3 s on a 2-core host.
WORKLOADS = {
    # the headline sweep: 30 load points x {uncontrolled, uniform-literal
    # policy}, with fewer replications than the reference's 20
    "ref_sweep": {"kind": "sweep", "scenario": {"replications": 2}, "kernel_size": 4},
    # reference lightest point (multiplier 1, 266 erlangs on 300 ports)
    "light_admit": {
        "kind": "point", "multiplier": 1.0, "replications": 300,
        "scenario": {"strategy": "uncontrolled"}, "kernel_size": 1,
    },
    # reference heaviest point (multiplier 15.5, 4,119 erlangs), long enough
    # that the start-empty transient is gone (warmup 5x the largest mean hold)
    "saturated_block": {
        "kind": "point", "multiplier": 15.5, "replications": 6,
        "scenario": {"strategy": "uncontrolled", "horizon": 5000.0, "warmup": 1000.0},
        "steady_state": True, "kernel_size": 16,
    },
}

SETUP_STARTS = 15
# Kernel units run after each set-up start, as a share of its time. The
# shared host drifts by up to 50% within minutes and the kernel drifts with
# it (see README.md and calibrate.py).
SETUP_KERNEL_SHARE = 0.5
MIN_ROUNDS = 3
SATURATED_FLOOR = 0.002
LIGHT_FLOOR = 0.01
SPEARMAN_MIN = 0.95
# ref_sweep takes its holding means from the scenario seed. One draw moves
# the offered load by about 12% and the admitted arrivals, which cost 4-5x
# a blocked one, by about 20%, so the seed is picked among those that offer
# the reference's load to within this share (see _sweep_seed).
SWEEP_LOAD_TOLERANCE = 0.01
UNIFORM_LITERAL_POLICED = 1 - 1 / 30

LAYER_UNITS = {
    "config.load_s": "s",
    "traffic.build_workload_s": "s",
    "traffic.stream_s": "s",
    "traffic.stream_ns_per_arrival": "ns",
    "traffic.stream_calls": "count",
    "traffic.arrivals": "count",
    "traffic.stream_unique_ratio": "ratio",
    "traffic.stream_peak_mb": "MB",
    "engine.run_s": "s",
    "engine.runs": "count",
    "engine.self_s": "s",
    "engine.self_ns_per_arrival": "ns",
    "engine.offered": "count",
    "engine.admitted": "count",
    "engine.blocked": "count",
    "engine.policed": "count",
    "engine.admit_ratio": "ratio",
    "metrics.aggregate_s": "s",
    "metrics.to_csv_s": "s",
    "metrics.csv_bytes": "bytes",
    "cli.self_s": "s",
    "analytic.erlang_b_us": "us",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def _config_text(scenario: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in scenario.items())


def _sweep_seed(seed: int) -> int:
    """The first scenario seed from seed*1000 on whose offered load at
    multiplier 1 lies within SWEEP_LOAD_TOLERANCE of the reference's."""
    target = oracles.offered_erlangs(REFERENCE, 1.0)
    candidate = seed * 1000
    while True:
        offered = oracles.offered_erlangs(dict(REFERENCE, seed=candidate), 1.0)
        if abs(offered - target) <= SWEEP_LOAD_TOLERANCE * target:
            return candidate
        candidate += 1


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _check_source(vodsim_file: str) -> None:
    if not Path(vodsim_file).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported vodsim from {vodsim_file}, not from {SRC}")


def _setup_s(config_path: Path, env: dict) -> tuple[float, float]:
    """Median time from starting an interpreter to a built workload, raw and
    in reference-host seconds (each start scaled by the units run right
    after it)."""
    samples, scaled = [], []
    pacer = calibrate.Pacer(SETUP_KERNEL_SHARE)
    for i in range(SETUP_STARTS + 1):
        started = perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "setup", str(config_path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up start failed: {done.stderr.strip()[-500:]}")
        ready, vodsim_file = done.stdout.split()[:2]
        _check_source(vodsim_file)
        if i > 0:  # the first start may compile bytecode
            samples.append(float(ready) - started)
            pacer.reset()
            pacer.after(samples[-1])
            scaled.append(samples[-1] * pacer.scale())
    return statistics.median(samples), statistics.median(scaled)


def _simulate(spec: dict, out_dir: Path, env: dict) -> dict:
    spec_path, out_path = out_dir / "spec.json", out_dir / "result.json"
    spec_path.write_text(json.dumps(spec))
    out_path.unlink(missing_ok=True)
    with open(out_dir / "worker.log", "w") as log:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "simulate", str(spec_path), str(out_path)],
            env=env, stdout=log, stderr=subprocess.STDOUT, timeout=spec["seconds"] + 150,
        )
    if done.returncode != 0 or not out_path.exists():
        tail = (out_dir / "worker.log").read_text()[-800:]
        raise BenchError(f"worker exited {done.returncode}: {tail}")
    result = json.loads(out_path.read_text())
    _check_source(result["vodsim_file"])
    return result


# ---------------------------------------------------------------- checks


def _cell_multiplier(cell: dict, workload: dict, scenario: dict) -> float:
    if workload["kind"] == "point":
        return workload["multiplier"]
    return cell["traffic_rate"] / scenario["min_rate"]


def _check_cells(cells: list[dict], workload: dict, scenario: dict) -> list[str]:
    """Counts, conservation, offered load and blocking of every cell."""
    errors = []
    n = scenario["num_clusters"]
    ports = scenario["num_partitions"] * scenario["ports_per_partition"]
    span = scenario["horizon"] - scenario["warmup"]
    reps_expected = (
        workload["replications"] if workload["kind"] == "point" else scenario["replications"]
    )
    arrivals_by_rate: dict[float, list] = {}
    for cell in cells:
        label = f"{cell['strategy']}@{cell['traffic_rate']:g}"
        m = _cell_multiplier(cell, workload, scenario)
        reps = cell["reps"]
        if len(reps) != reps_expected:
            errors.append(f"{label}: {len(reps)} replications, expected {reps_expected}")
            continue
        offered = oracles.offered_erlangs(scenario, m)
        if not math.isclose(cell["offered_erlangs"], offered, rel_tol=1e-9):
            errors.append(f"{label}: offered {cell['offered_erlangs']} erlangs, oracle {offered}")
        for r in reps:
            o, a, p, b = r["totals"]
            if o != a + p + b:
                errors.append(f"{label} seed {r['seed']}: offered {o} != {a}+{p}+{b}")
            if len(r["per_class"]) != n:
                errors.append(f"{label} seed {r['seed']}: {len(r['per_class'])} classes")
                continue
            if [sum(col) for col in zip(*r["per_class"])] != r["totals"]:
                errors.append(f"{label} seed {r['seed']}: per-class counts do not sum to totals")
            if any(c[0] != c[1] + c[2] + c[3] for c in r["per_class"]):
                errors.append(f"{label} seed {r['seed']}: per-class conservation violated")
        class_arrivals = [sum(r["per_class"][c][0] for r in reps) for c in range(n)]
        arrivals_by_rate.setdefault(cell["traffic_rate"], []).append(class_arrivals)
        for c, (count, rate) in enumerate(zip(class_arrivals, oracles.request_rates(scenario, m))):
            if not oracles.within_poisson(count, rate * span * len(reps)):
                errors.append(f"{label} class {c}: {count} arrivals, Poisson mean {rate * span * len(reps):.1f}")
        policed = sum(r["totals"][2] for r in reps)
        total = sum(r["totals"][0] for r in reps)
        if cell["strategy"] == "uncontrolled":
            if policed:
                errors.append(f"{label}: {policed} policed without a gate")
            values = [r["totals"][3] / r["totals"][0] for r in reps]
            mean, halfwidth = oracles.mean_t_halfwidth(values)
            exact = oracles.erlang_b(offered, ports)
            if workload.get("steady_state"):
                if abs(mean - exact) > 3 * halfwidth + SATURATED_FLOOR:
                    errors.append(f"{label}: blocking {mean:.5f} +- {halfwidth:.5f}, Erlang-B {exact:.5f}")
            elif mean - exact > max(LIGHT_FLOOR, 3 * halfwidth):
                errors.append(f"{label}: blocking {mean:.5f} +- {halfwidth:.5f} above Erlang-B {exact:.5f}")
            cell["check_blocking"] = mean
            cell["check_offered"] = offered
        elif not oracles.within_binomial(policed, total, UNIFORM_LITERAL_POLICED):
            errors.append(f"{label}: policed {policed}/{total}, expected share {UNIFORM_LITERAL_POLICED:.4f}")
    for rate, per_strategy in arrivals_by_rate.items():
        if any(counts != per_strategy[0] for counts in per_strategy):
            errors.append(f"rate {rate:g}: strategies saw different arrivals at equal seeds")
    return errors


def _check_csv(text: str, cells: list[dict]) -> list[str]:
    """Recompute the CSV's means from the raw counts."""
    rows = list(csv.DictReader(io.StringIO(text)))
    ordered = sorted(cells, key=lambda c: (c["traffic_rate"], c["strategy"]))
    if len(rows) != len(ordered):
        return [f"CSV has {len(rows)} rows for {len(ordered)} cells"]
    errors = []
    for row, cell in zip(rows, ordered):
        totals = [r["totals"] for r in cell["reps"]]
        expected = {
            "traffic_rate_mbps": cell["traffic_rate"],
            "offered_erlangs": cell["offered_erlangs"],
            "replications": len(totals),
            "mean_server_blocking": statistics.fmean(b / (o - p) for o, a, p, b in totals),
            "mean_total_denial": statistics.fmean((b + p) / o for o, a, p, b in totals),
            "mean_policed_fraction": statistics.fmean(p / o for o, a, p, b in totals),
        }
        if row["strategy"] != cell["strategy"]:
            errors.append(f"CSV row {row} out of order")
            continue
        for key, value in expected.items():
            if not math.isclose(float(row[key]), value, rel_tol=1e-10, abs_tol=1e-12):
                errors.append(f"CSV {cell['strategy']}@{cell['traffic_rate']:g} {key}: {row[key]}, recomputed {value}")
    return errors


def _check(result: dict, workload: dict, scenario: dict) -> list[str]:
    first = result["first"]
    if first is None:
        return ["no round completed"]
    cells = first["cells"]
    errors = _check_cells(cells, workload, scenario)
    errors += _check_csv(first["csv"], cells)
    digests = {r["csv_sha256"] for r in result["rounds"] if r["ok"]}
    if len(digests) != 1:
        errors.append(f"identical rounds wrote {len(digests)} different CSVs")
    if workload["kind"] == "sweep":
        uncontrolled = sorted(
            (c["check_offered"], c["check_blocking"]) for c in cells if "check_blocking" in c
        )
        if len(uncontrolled) != scenario["num_clusters"]:
            errors.append(f"{len(uncontrolled)} uncontrolled sweep points")
        else:
            rho = oracles.spearman(*map(list, zip(*uncontrolled)))
            print(f"uncontrolled blocking vs load: Spearman rho {rho:.4f}")
            if rho < SPEARMAN_MIN:
                errors.append(f"Spearman rho {rho:.4f} < {SPEARMAN_MIN}")
    return errors


# ---------------------------------------------------------------- main


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "vodsim" / "__init__.py").is_file():
        print(f"no vodsim source under {SRC}", file=sys.stderr)
        return 2

    started = perf_counter()
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32
    scenario = dict(REFERENCE, **workload["scenario"])
    if workload["kind"] == "sweep":
        # the sweep derives its replication seeds from the scenario seed
        scenario["seed"] = _sweep_seed(seed)
    else:
        # holding means stay the reference's (seed 42), so the offered load is
        # the reference point's; --seed picks the arrival streams
        scenario["replications"] = workload["replications"]
    out_dir = HERE / "out" / f"{args.workload}-{args.seed}-{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "scenario.cfg"
    config_path.write_text(_config_text(scenario))
    env = _child_env()

    heaviest = scenario["max_rate"] / scenario["min_rate"]
    spec = {
        "kind": workload["kind"],
        "config": str(config_path),
        "multiplier": workload.get("multiplier"),
        "stream_seeds": [
            seed * 1_000_000 + r for r in range(workload.get("replications", 0))
        ],
        "seconds": args.seconds,
        "min_rounds": MIN_ROUNDS,
        "kernel_size": workload["kernel_size"],
        "trace": bool(args.trace),
        "erlang_b_offered": oracles.offered_erlangs(scenario, workload.get("multiplier", heaviest)),
        "ports": scenario["num_partitions"] * scenario["ports_per_partition"],
    }

    try:
        setup_raw, setup_s = _setup_s(config_path, env)
        # set-up counts against --seconds, so a call lasts about that long
        spec["seconds"] = max(0.0, args.seconds - (perf_counter() - started))
        result = _simulate(spec, out_dir, env)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    errors = _check(result, workload, scenario)
    if result["failure"]:
        print(f"failed rounds: {result['failure']}")
    for line in errors[:20]:
        print(f"CHECK FAILED: {line}")
    ok_rounds = [r for r in result["rounds"] if r["ok"]]
    per_round = workload["replications"] if workload["kind"] == "point" else (
        scenario["num_clusters"] * 2 * scenario["replications"]
    )
    attempted = per_round * len(result["rounds"])
    failed = per_round * (len(result["rounds"]) - len(ok_rounds))
    # the first round warms caches and lazy set-up: it is checked, not timed
    timed = [r for r in result["rounds"][1:] if r["ok"]]
    plain = [r for r in timed if not r["traced"]]
    if ok_rounds:
        print(f"{args.workload}: {len(result['rounds'])} rounds, CSV sha256 {ok_rounds[0]['csv_sha256']}")
    if plain:
        wall_raw = statistics.median(r["wall_s"] for r in plain)
        wall_s = statistics.median(r["wall_s"] * r["scale"] for r in plain)
        print(f"measured: wall {wall_raw:.4f} s, set-up {setup_raw:.4f} s")

    if not plain:
        metrics = {}
    elif args.trace:
        traced = [r["wall_s"] * r["scale"] for r in timed if r["traced"]]
        layers = result.get("layers", {})
        if result.get("absent"):
            print(f"absent boundaries: {', '.join(result['absent'])}")
        if traced:
            layers["trace.overhead_s"] = statistics.median(traced) - wall_s
        metrics = {k: _metric(layers[k], u) for k, u in LAYER_UNITS.items() if k in layers}
    else:
        metrics = {
            "wall_s": _metric(wall_s, "s"),
            "setup_s": _metric(setup_s, "s"),
            "sim_arrivals_per_s": _metric(ok_rounds[0]["offered"] / wall_s, "1/s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
    print(json.dumps({
        "correct": not errors and bool(ok_rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
