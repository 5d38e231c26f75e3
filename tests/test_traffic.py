"""Tests for workload construction and Poisson stream generation."""

import math

import numpy as np
import pytest
import scipy.stats

from reference_engine import SessionRequest
from vodsim.traffic import (
    ClusterSpec,
    WorkloadSpec,
    build_workload,
    merged_arrival_stream,
    scale_workload,
)


def single_cluster_workload(rate_per_s, mean_hold, seed, interactive=0.0):
    cluster = ClusterSpec(
        class_id=0,
        traffic_rate=rate_per_s,
        request_rate=rate_per_s,
        mean_holding=mean_hold,
        interactive_rate=interactive,
    )
    return WorkloadSpec(
        clusters=(cluster,),
        per_stream_bandwidth=1.0,
        min_hold=mean_hold,
        max_hold=mean_hold,
        seed=seed,
    )


def reference_rates(count, min_rate, max_rate, per_stream_bandwidth=1.0):
    """A workload whose only varying inputs are the cluster count and rates."""
    return build_workload(count, min_rate, max_rate, per_stream_bandwidth, 1.0, 2.0, seed=0)


class TestBuildClusters:
    def test_reference_scale_rates(self):
        clusters = reference_rates(30, 1.0, 15.5).clusters
        rates = [c.traffic_rate for c in clusters]
        assert rates == [1.0 + 0.5 * c for c in range(30)]
        assert rates[1] == 1.5
        assert rates[-1] == 15.5

    def test_single_cluster_uses_min_rate(self):
        (only,) = reference_rates(1, 5.0, 5.0).clusters
        assert only.traffic_rate == 5.0

    def test_three_point_spacing(self):
        rates = [c.traffic_rate for c in reference_rates(3, 1.0, 2.0).clusters]
        assert rates == [1.0, 1.5, 2.0]

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="cluster count"):
            reference_rates(0, 1.0, 2.0)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="rates"):
            reference_rates(3, 2.0, 1.0)

    def test_request_rates_derived_from_bandwidth(self):
        clusters = reference_rates(2, 1.0, 2.0, per_stream_bandwidth=0.5).clusters
        assert [c.request_rate for c in clusters] == [2.0, 4.0]


class TestRequestRate:
    def test_division(self):
        clusters = reference_rates(2, 1.0, 15.5, per_stream_bandwidth=0.5).clusters
        assert [c.request_rate for c in clusters] == [2.0, 31.0]

    def test_zero_traffic_is_zero(self):
        base = reference_rates(2, 0.0, 0.0, per_stream_bandwidth=0.5)
        assert [c.request_rate for c in base.clusters] == [0.0, 0.0]
        scaled = scale_workload(reference_rates(2, 1.0, 2.0), 0.0)
        assert [c.request_rate for c in scaled.clusters] == [0.0, 0.0]

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="per_stream_bandwidth"):
            reference_rates(2, 1.0, 2.0, per_stream_bandwidth=0.0)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="per_stream_bandwidth"):
            reference_rates(2, 1.0, 2.0, per_stream_bandwidth=-1.0)

    def test_scaled_request_rate_is_scaled_traffic_over_bandwidth(self):
        # bit-equal: the sweep's CSV depends on these exact doubles
        base = reference_rates(30, 1.0, 15.5, per_stream_bandwidth=100.0)
        for multiplier in (1.5, 1 / 3, 15.5):
            scaled = scale_workload(base, multiplier)
            assert [c.request_rate for c in scaled.clusters] == [
                c.traffic_rate * multiplier / 100.0 for c in base.clusters
            ]


class TestMergedStream:
    def test_poisson_count_band(self):
        spec = single_cluster_workload(2.0, 5.0, seed=101)
        stream = merged_arrival_stream(spec, 10_000.0)
        expected = 20_000
        assert abs(len(stream) - expected) <= 3 * math.sqrt(expected)

    def test_empty_cluster_list(self):
        spec = WorkloadSpec((), 1.0, 1.0, 2.0, 0)
        stream = merged_arrival_stream(spec, 100.0)
        assert len(stream) == len(stream.hold) == len(stream.class_id) == 0

    def test_superposed_rate_within_three_sigma(self):
        c0 = ClusterSpec(0, 3.0, 3.0, 2.0)
        c1 = ClusterSpec(1, 5.0, 5.0, 2.0)
        spec = WorkloadSpec((c0, c1), 1.0, 2.0, 2.0, 7)
        horizon = 5_000.0
        stream = merged_arrival_stream(spec, horizon)
        expected = 8.0 * horizon
        assert abs(len(stream) - expected) <= 3 * math.sqrt(expected)

    def test_deterministic_for_identical_spec(self):
        spec = single_cluster_workload(2.0, 5.0, seed=55)
        a = merged_arrival_stream(spec, 500.0)
        b = merged_arrival_stream(spec, 500.0)
        for name in ("time", "hold", "class_id"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        a = merged_arrival_stream(single_cluster_workload(2.0, 5.0, seed=1), 100.0)
        b = merged_arrival_stream(single_cluster_workload(2.0, 5.0, seed=2), 100.0)
        assert a.time.tolist() != b.time.tolist()

    def test_sorted_and_within_horizon(self):
        spec = single_cluster_workload(10.0, 1.0, seed=3)
        stream = merged_arrival_stream(spec, 200.0)
        times = stream.time.tolist()
        assert times == sorted(times)
        assert all(0 <= t < 200.0 for t in times)

    def test_holding_times_positive_and_finite(self):
        spec = single_cluster_workload(20.0, 0.01, seed=4)
        stream = merged_arrival_stream(spec, 500.0)
        assert len(stream) > 0
        assert np.all(stream.hold > 0) and np.all(np.isfinite(stream.hold))

    def test_holding_times_have_their_cluster_mean(self):
        c0 = ClusterSpec(0, 10.0, 10.0, 2.0)
        c1 = ClusterSpec(1, 10.0, 10.0, 10.0)
        spec = WorkloadSpec((c0, c1), 1.0, 2.0, 10.0, 6)
        stream = merged_arrival_stream(spec, 5_000.0)
        for cluster in spec.clusters:
            holds = stream.hold[stream.class_id == cluster.class_id]
            # five standard errors of an exponential sample mean
            tolerance = 5 * cluster.mean_holding / math.sqrt(len(holds))
            assert holds.mean() == pytest.approx(cluster.mean_holding, abs=tolerance)

    def test_interactive_stream_disabled_by_default(self):
        spec = single_cluster_workload(5.0, 1.0, seed=5)
        assert spec.clusters[0].interactive_rate == 0.0
        stream = merged_arrival_stream(spec, 100.0)
        assert abs(len(stream) - 500) <= 3 * math.sqrt(500)

    def test_interactive_stream_present_when_enabled(self):
        # the steady arrivals are drawn first from the cluster's generator,
        # so enabling the interactive stream adds arrivals and moves none
        steady = merged_arrival_stream(single_cluster_workload(5.0, 1.0, seed=5), 200.0)
        both = merged_arrival_stream(
            single_cluster_workload(5.0, 1.0, seed=5, interactive=2.0), 200.0
        )
        assert np.isin(steady.time, both.time).all()
        extra = len(both) - len(steady)
        assert abs(extra - 400) <= 3 * math.sqrt(400)
        assert set(both.class_id.tolist()) == {0}

    def test_rejects_nonpositive_horizon(self):
        spec = single_cluster_workload(1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            merged_arrival_stream(spec, 0.0)

    def test_merged_interarrivals_look_exponential(self):
        # small version of the superposition check; the acceptance suite
        # runs the full N=1e4 test
        c0 = ClusterSpec(0, 2.0, 2.0, 1.0)
        c1 = ClusterSpec(1, 6.0, 6.0, 1.0)
        spec = WorkloadSpec((c0, c1), 1.0, 1.0, 1.0, 11)
        stream = merged_arrival_stream(spec, 400.0)
        gaps = np.diff(stream.time, prepend=0.0)
        result = scipy.stats.kstest(gaps, scipy.stats.expon(scale=1 / 8.0).cdf)
        assert result.pvalue > 0.01


class TestWorkloadSpec:
    def test_request_rate_mismatch_rejected(self):
        bad = ClusterSpec(0, 4.0, 5.0, 1.0)
        with pytest.raises(ValueError, match="request_rate"):
            WorkloadSpec((bad,), 1.0, 1.0, 2.0, 0)

    def test_holding_mean_outside_bounds_rejected(self):
        bad = ClusterSpec(0, 4.0, 4.0, 10.0)
        with pytest.raises(ValueError, match="mean_holding"):
            WorkloadSpec((bad,), 1.0, 1.0, 2.0, 0)

    def test_cluster_rejects_nonpositive_hold_and_negative_rate(self):
        with pytest.raises(ValueError, match="mean_holding"):
            ClusterSpec(0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="request_rate"):
            ClusterSpec(0, 1.0, -1.0, 1.0)

    def test_inverted_hold_bounds_rejected(self):
        with pytest.raises(ValueError, match="min <= max"):
            WorkloadSpec((), 1.0, 5.0, 2.0, 0)

    def test_class_ids_must_be_positions(self):
        shifted = ClusterSpec(1, 4.0, 4.0, 1.5)
        with pytest.raises(ValueError, match="class ids"):
            WorkloadSpec((shifted,), 1.0, 1.0, 2.0, 0)

    def test_seed_range_enforced(self):
        with pytest.raises(ValueError, match="seed"):
            WorkloadSpec((), 1.0, 1.0, 2.0, -1)
        with pytest.raises(ValueError, match="seed"):
            WorkloadSpec((), 1.0, 1.0, 2.0, 2**64)

    def test_offered_erlangs_sums_rate_times_hold(self):
        c0 = ClusterSpec(0, 2.0, 2.0, 3.0)
        c1 = ClusterSpec(1, 4.0, 4.0, 1.5, interactive_rate=1.0)
        spec = WorkloadSpec((c0, c1), 1.0, 1.0, 4.0, 0)
        assert spec.offered_erlangs() == pytest.approx(2 * 3.0 + 5 * 1.5)


class TestBuildAndScaleWorkload:
    def test_holding_means_within_bounds(self):
        w = build_workload(30, 1.0, 15.5, 100.0, 1.0, 200.0, seed=42)
        assert len(w.clusters) == 30
        assert all(1.0 <= c.mean_holding <= 200.0 for c in w.clusters)

    def test_holding_means_deterministic_per_seed(self):
        a = build_workload(5, 1.0, 2.0, 1.0, 1.0, 9.0, seed=13)
        b = build_workload(5, 1.0, 2.0, 1.0, 1.0, 9.0, seed=13)
        c = build_workload(5, 1.0, 2.0, 1.0, 1.0, 9.0, seed=14)
        assert [x.mean_holding for x in a.clusters] == [x.mean_holding for x in b.clusters]
        assert [x.mean_holding for x in a.clusters] != [x.mean_holding for x in c.clusters]

    def test_scaling_multiplies_rates_not_holds(self):
        base = build_workload(4, 1.0, 4.0, 2.0, 1.0, 5.0, seed=1)
        scaled = scale_workload(base, 3.0)
        for b, s in zip(base.clusters, scaled.clusters):
            assert s.traffic_rate == pytest.approx(3.0 * b.traffic_rate)
            assert s.request_rate == pytest.approx(3.0 * b.request_rate)
            assert s.mean_holding == b.mean_holding
        assert scaled.offered_erlangs() == pytest.approx(3.0 * base.offered_erlangs())

    def test_negative_multiplier_rejected(self):
        base = build_workload(2, 1.0, 2.0, 1.0, 1.0, 2.0, seed=0)
        with pytest.raises(ValueError):
            scale_workload(base, -1.0)


class TestSessionRequest:
    """The request object of the reference engine in tests/."""

    def test_rejects_nonpositive_holding(self):
        with pytest.raises(ValueError):
            SessionRequest(0, 1.0, 0.0)

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            SessionRequest(0, -1.0, 1.0)


def test_erlang_sum_of_k_interarrivals_smoke():
    """Sums of K consecutive gaps from one stream follow the K-stage Erlang law."""
    spec = single_cluster_workload(2.0, 1.0, seed=21)
    stream = merged_arrival_stream(spec, 3_000.0)
    gaps = np.diff(stream.time, prepend=0.0)
    k = 2
    usable = (len(gaps) // k) * k
    sums = gaps[:usable].reshape(-1, k).sum(axis=1)
    result = scipy.stats.kstest(sums, scipy.stats.gamma(a=k, scale=1 / 2.0).cdf)
    assert result.pvalue > 0.01


def test_interarrival_sums_match_packages_own_density():
    """Same check, but against a CDF integrated from this package's density.

    Ties the generator to the analytic module directly instead of going
    through an external distribution.
    """
    from scipy.integrate import cumulative_trapezoid

    from vodsim.analytic import erlang_k_pdf

    rate, k = 2.0, 5
    spec = single_cluster_workload(rate, 1.0, seed=21)
    stream = merged_arrival_stream(spec, 3_000.0)
    gaps = np.diff(stream.time, prepend=0.0)
    usable = (len(gaps) // k) * k
    sums = gaps[:usable].reshape(-1, k).sum(axis=1)

    grid = np.linspace(0.0, 30.0 / rate, 6001)  # tail mass beyond is ~1e-9
    pdf = np.array([erlang_k_pdf(k, rate, float(t)) for t in grid])
    cdf = cumulative_trapezoid(pdf, grid, initial=0.0)
    result = scipy.stats.kstest(sums, lambda x: np.interp(x, grid, cdf))
    assert result.pvalue > 0.01
