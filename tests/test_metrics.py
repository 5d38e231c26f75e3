"""Tests for counters, per-run metrics, aggregation, and CSV output."""

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vodsim.engine import UNCONTROLLED_STRATEGY, run
from vodsim.errors import UndefinedMetricError
from vodsim.metrics import (
    ClassCounts,
    RunMetrics,
    SweepPoint,
    aggregate,
    policed_fraction,
    server_blocking,
    to_csv,
    total_denial,
)
from vodsim.traffic import WorkloadSpec


def mk(offered, admitted, policed, blocked, seed=0):
    per_class = (ClassCounts(offered, admitted, policed, blocked),) if offered else ()
    return RunMetrics(
        offered=offered,
        admitted=admitted,
        policed=policed,
        blocked=blocked,
        per_class=per_class,
        seed=seed,
    )


class TestConstructionInvariants:
    def test_warmup_within_horizon(self):
        # the counters cover [warmup, horizon); run refuses a window that is empty
        # or starts before time zero
        empty = WorkloadSpec((), 1.0, 0)
        for warmup in (100.0, 150.0, -1.0):
            with pytest.raises(ValueError, match="warmup"):
                run(empty, [1], UNCONTROLLED_STRATEGY, 100.0, warmup, seed=0)

    def test_valid_construction(self):
        m = mk(100, 60, 30, 10)
        assert m.offered == 100


ADMITTED = ClassCounts(1, 1, 0, 0)


class TestCountChecks:
    """A RunMetrics, like a ClassCounts, holds the counts it is given, as
    given: the one count check is ``engine.run``'s. The ids are the ones
    these cases had when the constructor still judged counts; the counts it
    refused were deleted with its checks."""

    @pytest.mark.parametrize(
        "counts",
        [
            pytest.param((1, 1, 0, 0), id="counts7-None"),
            pytest.param((True, True, False, False), id="counts8-None"),
            pytest.param((True, 0, 0, True), id="counts9-None"),
            pytest.param((2**70, 2**70 - 1, 0, 1), id="counts10-None"),
            pytest.param((0, 0, 0, 0), id="counts11-None"),
        ],
    )
    def test_class_counts_and_totals(self, counts):
        assert all(v is c for v, c in zip(RunMetrics(*counts, (), 0), counts))

    @pytest.mark.parametrize(
        "totals, per_class",
        [
            pytest.param((0, 0, 0, 0), (ClassCounts(0, 0, 0, 0),), id="totals4-per_class4-None"),
            pytest.param(
                (3, 2, 0, 1), [ADMITTED, ClassCounts(2, 1, 0, 1)], id="totals5-per_class5-None"
            ),
            pytest.param((1, 1, 0, 0), (), id="totals6-per_class6-None"),
        ],
    )
    def test_per_class_sums(self, totals, per_class):
        m = RunMetrics(*totals, per_class, 0)
        assert m == (*totals, per_class, 0) and m.per_class is per_class


class TestBlockingProbability:
    def test_no_losses_is_zero_in_both_scopes(self):
        m = mk(100, 100, 0, 0)
        assert server_blocking(m) == 0.0
        assert total_denial(m) == 0.0

    def test_pure_blocking_matches_both_scopes(self):
        m = mk(100, 60, 0, 40)
        assert server_blocking(m) == pytest.approx(0.4)
        assert total_denial(m) == pytest.approx(0.4)

    def test_policed_requests_split_the_scopes(self):
        m = mk(100, 40, 50, 10)
        assert server_blocking(m) == pytest.approx(0.2)
        assert total_denial(m) == pytest.approx(0.6)

    def test_zero_offered_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            server_blocking(mk(0, 0, 0, 0))
        with pytest.raises(UndefinedMetricError):
            total_denial(mk(0, 0, 0, 0))

    def test_everything_policed_makes_server_scope_undefined(self):
        m = mk(10, 0, 10, 0)
        with pytest.raises(UndefinedMetricError):
            server_blocking(m)
        assert total_denial(m) == 1.0

    def test_works_on_class_counts(self):
        c = ClassCounts(10, 6, 0, 4)
        assert server_blocking(c) == pytest.approx(0.4)


class TestPolicedFraction:
    def test_fraction(self):
        assert policed_fraction(mk(100, 40, 50, 10)) == pytest.approx(0.5)

    def test_zero_offered_undefined(self):
        with pytest.raises(UndefinedMetricError):
            policed_fraction(mk(0, 0, 0, 0))


class TestAggregate:
    def test_identical_replications_have_zero_halfwidth(self):
        reps = [mk(100, 60, 0, 40, seed=s) for s in range(5)]
        mean, hw = aggregate(reps, server_blocking)
        assert mean == pytest.approx(0.4)
        assert hw == 0.0

    def test_single_replication_is_degenerate(self):
        mean, hw = aggregate([mk(100, 60, 0, 40)], server_blocking)
        assert mean == pytest.approx(0.4)
        assert hw == 0.0

    def test_two_values_normal_approximation(self):
        reps = [mk(10, 7, 0, 3, seed=0), mk(10, 5, 0, 5, seed=1)]
        mean, hw = aggregate(reps, server_blocking)
        assert mean == pytest.approx(0.4)
        # 1.96 * stdev({0.3, 0.5}) / sqrt(2) = 1.96 * 0.14142 / 1.41421
        assert hw == pytest.approx(1.96 * math.sqrt(0.02) / math.sqrt(2), rel=1e-9)
        assert hw == pytest.approx(0.196, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], server_blocking)

    @given(st.lists(st.integers(min_value=0, max_value=10), min_size=2, max_size=8))
    def test_permutation_invariant(self, blocked_counts):
        reps = [mk(10, 10 - b, 0, b, seed=i) for i, b in enumerate(blocked_counts)]
        shuffled = reps[:]
        random.Random(1).shuffle(shuffled)
        assert aggregate(reps, server_blocking) == aggregate(shuffled, server_blocking)


@st.composite
def replications(draw):
    """One run's counts, small enough that zero denominators are common."""
    offered = draw(st.integers(0, 20))
    policed = draw(st.integers(0, offered))
    blocked = draw(st.integers(0, offered - policed))
    return mk(offered, offered - policed - blocked, policed, blocked)


def make_point(rate, strategy="uncontrolled", blocked=40, seed=0):
    reps = (mk(100, 100 - blocked, 0, blocked, seed=seed),)
    return SweepPoint.from_replications(rate, rate * 10.0, strategy, reps)


class TestSweepPoint:
    def test_from_replications_computes_server_stats(self):
        p = make_point(2.0, blocked=40)
        assert p.mean_blocking == pytest.approx(0.4)

    def test_undefined_metric_becomes_absent(self):
        reps = (mk(0, 0, 0, 0),)
        p = SweepPoint.from_replications(1.0, 0.0, "uncontrolled", reps)
        assert p.mean_blocking is None

    def test_no_replications_is_one_value_error_everywhere(self):
        # a point with no replications has no mean, not a zero division
        p = SweepPoint.from_replications(1.0, 2.0, "s", [])
        message = "replication statistics need at least one replication"
        for reduce in (lambda: aggregate([], server_blocking), lambda: p.mean_blocking, lambda: to_csv([p])):
            with pytest.raises(ValueError, match=message):
                reduce()


class TestToCsv:
    HEADER = (
        "traffic_rate_mbps,offered_erlangs,strategy,replications,"
        "mean_server_blocking,ci95_server,mean_total_denial,ci95_total,"
        "mean_policed_fraction"
    )

    def test_empty_is_header_only(self):
        assert to_csv([]) == self.HEADER + "\n"

    def test_one_point_two_lines(self):
        text = to_csv([make_point(2.0)])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == self.HEADER

    def test_rows_sorted_by_rate_then_strategy(self):
        points = [
            make_point(2.0, "uncontrolled"),
            make_point(1.0, "policy-uniform-literal"),
            make_point(1.0, "uncontrolled"),
        ]
        rows = to_csv(points).splitlines()[1:]
        keys = [(float(r.split(",")[0]), r.split(",")[2]) for r in rows]
        assert keys == sorted(keys)

    def test_deterministic_bytes(self):
        points = [make_point(1.0), make_point(2.0, "policy-uniform-literal")]
        assert to_csv(points) == to_csv(points)

    def test_absent_values_serialized_empty(self):
        reps = (mk(0, 0, 0, 0),)
        p = SweepPoint.from_replications(1.0, 0.0, "uncontrolled", reps)
        row = to_csv([p]).splitlines()[1].split(",")
        assert row[4] == "" and row[5] == "" and row[8] == ""

    def test_round_trip_to_twelve_significant_digits(self):
        reps = (
            mk(997, 600, 0, 397, seed=0),
            mk(1003, 599, 0, 404, seed=1),
        )
        p = SweepPoint.from_replications(1.2345678901234, 17.123456789012, "u", reps)
        row = to_csv([p]).splitlines()[1].split(",")
        assert float(row[0]) == pytest.approx(p.traffic_rate, rel=1e-11)
        assert float(row[1]) == pytest.approx(p.offered_erlangs, rel=1e-11)
        assert float(row[4]) == pytest.approx(p.mean_blocking, rel=1e-11)

    def test_probability_precision_at_least_six_digits(self):
        reps = (mk(3, 2, 0, 1),)
        p = SweepPoint.from_replications(1.0, 1.0, "u", reps)
        row = to_csv([p]).splitlines()[1].split(",")
        # 1/3 rendered with 12 significant digits, far more than 6
        assert row[4] == "0.333333333333"

    @given(st.lists(replications(), min_size=1, max_size=6))
    @example([mk(0, 0, 0, 0), mk(10, 6, 0, 4)])
    @example([mk(10, 0, 10, 0), mk(10, 2, 5, 3)])
    def test_statistics_match_aggregate(self, reps):
        p = SweepPoint.from_replications(1.0, 10.0, "u", reps)
        row = to_csv([p]).splitlines()[1].split(",")
        server_undefined = any(m.offered == m.policed for m in reps)
        offered_undefined = any(m.offered == 0 for m in reps)
        if server_undefined:
            assert aggregate(reps, server_blocking) == (None, None)
            assert p.mean_blocking is None
            assert row[4:6] == ["", ""]
        else:
            server = aggregate(reps, server_blocking)
            assert p.mean_blocking == server[0]
            assert row[4:6] == [f"{v:.12g}" for v in server]
        if offered_undefined:
            assert aggregate(reps, total_denial) == (None, None)
            assert row[6:9] == ["", "", ""]
        else:
            total = aggregate(reps, total_denial)
            policed = math.fsum(m.policed / m.offered for m in reps) / len(reps)
            assert row[6:9] == [f"{v:.12g}" for v in (*total, policed)]
