"""The process that simulates: one fresh interpreter, one thread.

    worker.py setup CONFIG
        import vodsim, load the config and build its workload, then print
        the monotonic clock: the moment the first arrival could be drawn.
    worker.py simulate SPEC_JSON OUT_JSON
        repeat whole rounds of the workload SPEC_JSON describes until its
        seconds are used, and write per-round wall times (with the mean
        time of the kernel units run in between, when untraced), the
        results of the first round, peak memory and, when traced,
        per-layer figures.

run.py starts both; it alone checks results, so this file holds no oracle.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import statistics
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

# kernel time run between the pieces of a round, as a share of the round's
# own time (see calibrate.Pacer)
KERNEL_SHARE = 0.25


def _setup(config_path: str) -> None:
    import vodsim
    from vodsim.config import load_config

    load_config(config_path).workload()
    ready = perf_counter()
    print(repr(ready))
    print(vodsim.__file__)


def _cells(points) -> list[dict]:
    """Counts of every sweep cell, per replication and per class."""
    return [
        {
            "traffic_rate": p.traffic_rate,
            "offered_erlangs": p.offered_erlangs,
            "strategy": p.strategy,
            "reps": [
                {
                    "seed": m.seed,
                    "totals": [m.offered, m.admitted, m.policed, m.blocked],
                    "per_class": [
                        [c.offered, c.admitted, c.policed, c.blocked] for c in m.per_class
                    ],
                }
                for m in p.replications
            ],
        }
        for p in points
    ]


def _sweep_round(spec: dict, out_dir: Path):
    """`vodsim sweep` through the CLI entry point; run_sweep's return value
    is kept for the checks, which need per-class counts the CSV omits."""
    import vodsim.cli as cli

    captured = []
    run_sweep = cli.run_sweep

    def keep(config):
        points = run_sweep(config)
        captured.append(points)
        return points

    cli.run_sweep = keep
    csv_path = out_dir / "sweep.csv"
    try:
        code = cli.main(["sweep", "--config", spec["config"], "--out", str(csv_path)])
    finally:
        cli.run_sweep = run_sweep
    if code != 0:
        raise RuntimeError(f"vodsim sweep exited {code}")
    return captured[-1], csv_path.read_text()


def _point_round(spec: dict, out_dir: Path):
    """Uncontrolled replications at one load multiplier, aggregated and
    serialized the way `vodsim run` and `vodsim sweep` do it."""
    import vodsim.config as config_mod
    import vodsim.engine as engine
    import vodsim.metrics as metrics
    import vodsim.traffic as traffic

    config = config_mod.load_config(spec["config"])
    base = config.workload()
    scaled = traffic.scale_workload(base, spec["multiplier"])
    capacities = config.capacities()
    replications = tuple(
        engine.run(
            scaled, capacities, engine.UNCONTROLLED_STRATEGY,
            config.horizon, config.warmup, seed,
        )
        for seed in spec["stream_seeds"]
    )
    point = metrics.SweepPoint.from_replications(
        spec["multiplier"] * config.min_rate, scaled.offered_erlangs(),
        engine.UNCONTROLLED, replications,
    )
    return [point], metrics.to_csv([point])


def _run_info(args, kwargs, result):
    return (result.offered, result.admitted, result.policed, result.blocked)


def _stream_info(args, kwargs, result):
    spec, horizon = (*args, *kwargs.values())[:2]
    return (len(result), (spec, horizon))


def _csv_info(args, kwargs, result):
    return len(result.encode())


def _layers(tracer, scale: float) -> dict[str, float]:
    """Per-layer figures of one traced round, from its spans; times are
    multiplied by scale, to reference-host seconds."""
    s = tracer.summary()

    def total(name, key="total_s"):
        return scale * s.get(name, {}).get(key, 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    streams = [sp for sp in tracer.spans if sp.name == "traffic.merged_arrival_stream"]
    runs = [sp.info for sp in tracer.spans if sp.name == "engine.run"]
    arrivals = sum(sp.info[0] for sp in streams)
    unique = len({sp.info[1] for sp in streams})
    offered, admitted, policed, blocked = (sum(col) for col in zip(*runs)) if runs else (0,) * 4
    csv_bytes = sum(sp.info for sp in tracer.spans if sp.name == "metrics.to_csv")
    cli_self = scale * sum(v["self_s"] for k, v in s.items() if k.startswith("cli."))
    return {
        "config.load_s": total("config.load_config"),
        "traffic.build_workload_s": total("traffic.build_workload"),
        "traffic.stream_s": total("traffic.merged_arrival_stream"),
        "traffic.stream_ns_per_arrival": (
            1e9 * total("traffic.merged_arrival_stream") / arrivals if arrivals else 0.0
        ),
        "traffic.stream_calls": calls("traffic.merged_arrival_stream"),
        "traffic.arrivals": arrivals,
        "traffic.stream_unique_ratio": unique / len(streams) if streams else 0.0,
        "engine.run_s": total("engine.run"),
        "engine.runs": calls("engine.run"),
        "engine.self_s": total("engine.run", "self_s"),
        "engine.self_ns_per_arrival": (
            1e9 * total("engine.run", "self_s") / arrivals if arrivals else 0.0
        ),
        "engine.offered": offered,
        "engine.admitted": admitted,
        "engine.blocked": blocked,
        "engine.policed": policed,
        "engine.admit_ratio": admitted / offered if offered else 0.0,
        "metrics.aggregate_s": total("metrics.from_replications"),
        "metrics.to_csv_s": total("metrics.to_csv"),
        "metrics.csv_bytes": csv_bytes,
        "cli.self_s": cli_self,
    }


def _stream_peak_mb(tracer) -> float:
    """tracemalloc peak of the largest stream call, repeated alone after the
    timed rounds so that tracemalloc does not slow any span."""
    import vodsim.traffic as traffic

    streams = [sp for sp in tracer.spans if sp.name == "traffic.merged_arrival_stream"]
    if not streams:
        return 0.0
    spec, horizon = max(streams, key=lambda sp: sp.info[0]).info[1]
    tracemalloc.start()
    try:
        traffic.merged_arrival_stream(spec, horizon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _erlang_b_us(offered: float, ports: int) -> float:
    """Per-call time of the program's erlang_b in reference-host
    microseconds: median of batches, each scaled by the kernel units run
    right after it; 0 if the function is gone."""
    import calibrate

    erlang_b = getattr(sys.modules.get("vodsim.analytic"), "erlang_b", None)
    if erlang_b is None:
        return 0.0
    batches = []
    pacer = calibrate.Pacer(1.0)
    for _ in range(7):
        start = perf_counter()
        for _ in range(200):
            erlang_b(offered, ports)
        elapsed = perf_counter() - start
        pacer.reset()
        pacer.after(elapsed)
        batches.append(elapsed * pacer.scale() / 200)
    return 1e6 * statistics.median(batches)


def _simulate(spec_path: str, out_path: str) -> None:
    import calibrate
    import tracing
    import vodsim
    import vodsim.cli  # every binding exists before any is patched

    spec = json.loads(Path(spec_path).read_text())
    out_dir = Path(out_path).parent
    do_round = _sweep_round if spec["kind"] == "sweep" else _point_round
    # the sweep round is a call of the CLI; the other rounds bypass it
    outer = "cli.main" if spec["kind"] == "sweep" else "bench.round"

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer({
            "engine.run": _run_info,
            "traffic.merged_arrival_stream": _stream_info,
            "metrics.to_csv": _csv_info,
        })
    pacer = calibrate.Pacer(KERNEL_SHARE, spec["kernel_size"])

    def traced_unit(size):
        # a span of its own, so the caller's self time excludes the kernel
        return tracer.span("bench.kernel", calibrate.timed, size)

    rounds, layer_rounds = [], []
    first = None
    failure = None
    started = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        pacer.reset()
        pacer.unit = traced_unit if traced else calibrate.timed
        # bound after the tracer, so that kernel units run outside engine.run
        engine_run = getattr(sys.modules.get("vodsim.engine"), "run", None)
        paced = tracing.patch_bindings(engine_run, pacer.wrap(engine_run)) if engine_run else []
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(sink):
                if traced:
                    points, csv_text = tracer.span(outer, do_round, spec, out_dir)
                else:
                    points, csv_text = do_round(spec, out_dir)
        except Exception as exc:  # a failed round is counted, not fatal
            points, csv_text = None, None
            failure = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0 - pacer.kernel_s
        tracing.restore(paced)
        if traced:
            tracer.uninstall()
        pacer.unit = calibrate.timed
        pacer.after(wall - pacer.work_s)
        record = {"wall_s": wall, "scale": pacer.scale(), "traced": traced, "ok": points is not None}
        if points is not None:
            record["csv_sha256"] = hashlib.sha256(csv_text.encode()).hexdigest()
            record["offered"] = sum(m.offered for p in points for m in p.replications)
            if first is None:
                first = {"cells": _cells(points), "csv": csv_text}
            if traced:
                layer_rounds.append(_layers(tracer, record["scale"]))
        rounds.append(record)
        enough = len(rounds) >= spec["min_rounds"]
        if enough and perf_counter() - started >= spec["seconds"]:
            break

    result = {
        "vodsim_file": vodsim.__file__,
        "rounds": rounds,
        "first": first,
        "failure": failure,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None and layer_rounds:
        layers = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        layers["traffic.stream_peak_mb"] = _stream_peak_mb(tracer)
        layers["analytic.erlang_b_us"] = _erlang_b_us(spec["erlang_b_offered"], spec["ports"])
        result["layers"] = layers
        result["absent"] = tracer.absent
        (out_dir / "spans.json").write_text(json.dumps(tracer.dump()))
    Path(out_path).write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        _setup(sys.argv[2])
    elif sys.argv[1:2] == ["simulate"] and len(sys.argv) == 4:
        _simulate(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
