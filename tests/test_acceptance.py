"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete. Every tolerance is pinned here; nothing is deferred to
later calibration. The statistical criteria use frozen seeds, so their
outcomes are deterministic.
"""

import hashlib
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from vodsim.analytic import (
    chain_blocking,
    erlang_b,
    erlang_b_direct,
    free_port_selection_prob,
    policy_admission_prob,
)
from vodsim.cli import run_sweep
from vodsim.config import parse_config
from vodsim.engine import UNCONTROLLED_STRATEGY, run
from vodsim.metrics import aggregate
from vodsim.traffic import ClusterSpec, WorkloadSpec, merged_arrival_stream


# SHA-256 of the default-scenario `vodsim sweep` CSV; CHANGES.md logs each
# re-pin with the per-point comparison that justified it
REFERENCE_SWEEP_SHA256 = "468d721fe76cc03a13d9d78edbe84f9c7d606896b4e9d8c23d04316a71828531"


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def two_per_second_cluster():
    """One cluster at 2 requests/s with a 1 s mean hold: 2 erlangs offered."""
    cluster = ClusterSpec(0, 2.0, 2.0, 1.0)
    return WorkloadSpec((cluster,), 1.0, 1.0, 1.0, 0)


def test_criterion_1_erlang_b_oracle_equivalence():
    with criterion(1, "erlang_b matches the factorial-sum oracle to 1e-12"):
        start = time.perf_counter()
        for e in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            for c in range(21):
                assert abs(erlang_b(e, c) - erlang_b_direct(e, c)) < 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_unit_formula_values():
    with criterion(2, "hand-derived formula values reproduced"):
        assert abs(erlang_b(2.0, 2) - 0.4) < 1e-12
        assert free_port_selection_prob(2, 2, 10, 5) == pytest.approx(0.125, abs=1e-12)
        assert policy_admission_prob(0.25, 0.125) == pytest.approx(0.03125, abs=1e-12)
        assert chain_blocking([(1.0, 1), (2.0, 2)]) == pytest.approx(0.2, abs=1e-12)


def test_criterion_3_simulation_matches_erlang_b():
    label = "single-partition simulation agrees with erlang_b(2, 2) = 0.4"
    with criterion(3, label):
        start = time.perf_counter()
        workload = two_per_second_cluster()
        target = erlang_b(2.0, 2)
        covered = 0
        for b in range(20):
            base_seed = 1_000 * (b + 1)
            replications = [
                run(workload, [2], UNCONTROLLED_STRATEGY, 5_000.0, 500.0, base_seed + r)
                for r in range(20)
            ]
            mean, halfwidth = aggregate(replications, "server")
            assert mean == pytest.approx(target, abs=0.02)
            if mean - halfwidth <= target <= mean + halfwidth:
                covered += 1
        assert covered >= 18, f"95% CI covered the analytic value in {covered}/20 seeds"
        assert time.perf_counter() - start < 30.0


def test_criterion_4_interarrival_sums_are_erlang():
    label = "sums of K consecutive inter-arrivals pass a KS test vs the Erlang law"
    with criterion(4, label):
        start = time.perf_counter()
        workload = replace(two_per_second_cluster(), seed=505)
        stream = merged_arrival_stream(workload, 26_000.0)
        gaps = np.diff(stream.time, prepend=0.0)
        n = 10_000
        for k in (2, 5):
            assert len(gaps) >= k * n
            sums = gaps[: k * n].reshape(-1, k).sum(axis=1)
            result = scipy.stats.kstest(sums, scipy.stats.gamma(a=k, scale=0.5).cdf)
            assert result.pvalue > 0.01, f"K={k}: p={result.pvalue}"
        assert time.perf_counter() - start < 5.0


def test_criterion_5_superposition_is_poisson():
    label = "merged 30-cluster inter-arrivals pass a KS test vs Exponential(sum of rates)"
    with criterion(5, label):
        start = time.perf_counter()
        config = replace(parse_config(""), seed=23)
        workload = config.workload()
        total_rate = workload.total_arrival_rate()
        n = 10_000
        stream = merged_arrival_stream(workload, (n + 1_000) / total_rate)
        gaps = np.diff(stream.time, prepend=0.0)[:n]
        assert len(gaps) == n
        result = scipy.stats.kstest(gaps, scipy.stats.expon(scale=1 / total_rate).cdf)
        assert result.pvalue > 0.01, f"p={result.pvalue}"
        assert time.perf_counter() - start < 5.0


def test_criterion_6_default_sweep_properties():
    label = (
        "default sweep: blocking monotone in load, policy never above "
        "uncontrolled, counters conserved"
    )
    with criterion(6, label):
        start = time.perf_counter()
        config = parse_config("")  # strategy=both: uncontrolled + uniform-literal
        both = run_sweep(config)
        capacity_config = replace(
            config,
            strategy="policy",
            policy_preset="capacity_proportional",
            weight_scaling="max_normalized",
        )
        capacity_sweep = run_sweep(capacity_config)

        by_strategy = {}
        for p in both + capacity_sweep:
            by_strategy.setdefault(p.strategy, []).append(p)
        uncontrolled = sorted(by_strategy["uncontrolled"], key=lambda p: p.traffic_rate)
        uniform = sorted(
            by_strategy["policy-uniform-literal"], key=lambda p: p.traffic_rate
        )
        capacity = sorted(
            by_strategy["policy-capacity_proportional-max_normalized"],
            key=lambda p: p.traffic_rate,
        )
        assert len(uncontrolled) == len(uniform) == len(capacity) == 30

        # (a) monotone blocking under increasing offered load
        rho = scipy.stats.spearmanr(
            [p.traffic_rate for p in uncontrolled],
            [p.mean_blocking for p in uncontrolled],
        ).statistic
        assert rho >= 0.95, f"Spearman rho = {rho}"

        # (b) policy never blocks more than uncontrolled at matched seeds
        for policy_points in (uniform, capacity):
            for unc, pol in zip(uncontrolled, policy_points):
                assert pol.traffic_rate == unc.traffic_rate
                assert pol.mean_blocking <= unc.mean_blocking, (
                    f"rate {unc.traffic_rate}: policy {pol.mean_blocking} > "
                    f"uncontrolled {unc.mean_blocking}"
                )

        # (c) conservation holds exactly in every replication
        for p in both + capacity_sweep:
            for m in p.replications:
                assert m.offered == m.admitted + m.policed + m.blocked
                for c in m.per_class:
                    assert c.offered == c.admitted + c.policed + c.blocked

        assert time.perf_counter() - start < 120.0


def test_criterion_7_cli_sweep_is_byte_deterministic(tmp_path):
    label = "two `vodsim sweep` invocations with one config produce identical CSV bytes"
    with criterion(7, label):
        config_path = tmp_path / "default.cfg"
        config_path.write_text("")  # the default scenario
        outputs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            started = time.perf_counter()
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "vodsim",
                    "sweep",
                    "--config",
                    str(config_path),
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            assert time.perf_counter() - started < 120.0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].split(b"\n", 1)[0].startswith(b"traffic_rate_mbps,")
        # golden bytes of the reference sweep: a refactor must leave them unchanged
        assert hashlib.sha256(outputs[0]).hexdigest() == REFERENCE_SWEEP_SHA256


def test_criterion_8_empty_config_is_reference_scenario():
    label = "empty config parses to the reference parameters"
    with criterion(8, label):
        config = parse_config("")
        assert config.num_clusters == 30
        assert config.min_rate == 1.0
        assert config.max_rate == 15.5
        assert config.min_hold == 1.0
        assert config.max_hold == 200.0
        assert config.num_partitions == 30
        assert config.horizon == 500.0
