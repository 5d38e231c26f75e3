"""Tests for workload construction and Poisson stream generation."""

import gc
import hashlib
import math
import pickle
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_engine import SessionRequest
from vodsim.config import POINT_SEED_STRIDE, parse_config
from vodsim.traffic import (
    _ARRIVAL_TAG,
    ClusterSpec,
    WorkloadSpec,
    _class_marks,
    _stream_tables,
    build_workload,
    merged_arrival_stream,
    scale_workload,
)


def single_cluster_workload(rate_per_s, mean_hold, seed, interactive=0.0):
    cluster = ClusterSpec(
        traffic_rate=rate_per_s,
        mean_holding=mean_hold,
        interactive_rate=interactive,
    )
    return WorkloadSpec(clusters=(cluster,), per_stream_bandwidth=1.0, seed=seed)


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
        spec = reference_rates(2, 1.0, 2.0, per_stream_bandwidth=0.5)
        assert spec.arrival_rates() == [2.0, 4.0]


class TestRequestRate:
    def test_division(self):
        spec = reference_rates(2, 1.0, 15.5, per_stream_bandwidth=0.5)
        assert spec.arrival_rates() == [2.0, 31.0]

    def test_zero_traffic_is_zero(self):
        base = reference_rates(2, 0.0, 0.0, per_stream_bandwidth=0.5)
        assert base.arrival_rates() == [0.0, 0.0]
        scaled = scale_workload(reference_rates(2, 1.0, 2.0), 0.0)
        assert scaled.arrival_rates() == [0.0, 0.0]

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="per_stream_bandwidth"):
            reference_rates(2, 1.0, 2.0, per_stream_bandwidth=0.0)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="per_stream_bandwidth"):
            reference_rates(2, 1.0, 2.0, per_stream_bandwidth=-1.0)

    def test_overflowing_rate_rejected(self):
        # 1.0 / 1e-310 overflows to inf, though both inputs are finite
        with pytest.raises(ValueError, match="must be finite"):
            build_workload(1, 1.0, 1.0, 1e-310, 1.0, 1.0, 0)

    def test_scaled_request_rate_is_scaled_traffic_over_bandwidth(self):
        # bit-equal: the sweep's CSV depends on these exact doubles
        base = reference_rates(30, 1.0, 15.5, per_stream_bandwidth=100.0)
        for multiplier in (1.5, 1 / 3, 15.5):
            scaled = scale_workload(base, multiplier)
            assert scaled.arrival_rates() == [
                c.traffic_rate * multiplier / 100.0 for c in base.clusters
            ]


class TestMergedStream:
    def test_poisson_count_band(self):
        spec = single_cluster_workload(2.0, 5.0, seed=101)
        stream = merged_arrival_stream(spec, 10_000.0)
        expected = 20_000
        assert abs(len(stream) - expected) <= 3 * math.sqrt(expected)

    def test_empty_cluster_list(self):
        spec = WorkloadSpec((), 1.0, 0)
        stream = merged_arrival_stream(spec, 100.0)
        assert len(stream) == len(stream.hold) == len(stream.class_id) == 0

    def test_superposed_rate_within_three_sigma(self):
        c0 = ClusterSpec(3.0, 2.0)
        c1 = ClusterSpec(5.0, 2.0)
        spec = WorkloadSpec((c0, c1), 1.0, 7)
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
        c0 = ClusterSpec(10.0, 2.0)
        c1 = ClusterSpec(10.0, 10.0)
        spec = WorkloadSpec((c0, c1), 1.0, 6)
        stream = merged_arrival_stream(spec, 5_000.0)
        for class_id, cluster in enumerate(spec.clusters):
            holds = stream.hold[stream.class_id == class_id]
            # five standard errors of an exponential sample mean
            tolerance = 5 * cluster.mean_holding / math.sqrt(len(holds))
            assert holds.mean() == pytest.approx(cluster.mean_holding, abs=tolerance)

    def test_interactive_stream_disabled_by_default(self):
        spec = single_cluster_workload(5.0, 1.0, seed=5)
        assert spec.clusters[0].interactive_rate == 0.0
        stream = merged_arrival_stream(spec, 100.0)
        assert abs(len(stream) - 500) <= 3 * math.sqrt(500)

    def test_interactive_stream_present_when_enabled(self):
        # steady and interactive arrivals of a cluster form one Poisson
        # stream of rate 5 + 2, all in the cluster's class
        both = merged_arrival_stream(
            single_cluster_workload(5.0, 1.0, seed=5, interactive=2.0), 200.0
        )
        assert abs(len(both) - 1_400) <= 3 * math.sqrt(1_400)
        assert set(both.class_id.tolist()) == {0}

    @pytest.mark.parametrize(
        "rates", [(2.0, 0.0, 3.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 5.0), (6.0, 0.0, 0.0)]
    )
    def test_zero_rate_class_never_arrives(self, rates):
        clusters = tuple(ClusterSpec(r, 1.0) for r in rates)
        live = {c for c, r in enumerate(rates) if r > 0}
        for seed in range(20):
            stream = merged_arrival_stream(WorkloadSpec(clusters, 1.0, seed), 50.0)
            assert set(stream.class_id.tolist()) == live

    def test_per_class_counts_are_poisson(self):
        rates = (1.0, 3.0, 6.0)
        clusters = tuple(ClusterSpec(r, 2.0) for r in rates)
        horizon = 2_000.0
        stream = merged_arrival_stream(WorkloadSpec(clusters, 1.0, 8), horizon)
        counts = np.bincount(stream.class_id, minlength=3)
        for count, rate in zip(counts.tolist(), rates):
            mean = rate * horizon
            assert abs(count - mean) <= 4 * math.sqrt(mean)

    @pytest.mark.parametrize("rate, interactive", [(0.0, 0.0), (0.0, 1e-310)])
    def test_no_or_denormal_rate_gives_an_empty_stream_quietly(self, rate, interactive):
        clusters = tuple(ClusterSpec(rate, 1.0, interactive) for _ in range(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream = merged_arrival_stream(WorkloadSpec(clusters, 1.0, 0), 500.0)
        assert len(stream) == len(stream.hold) == len(stream.class_id) == 0

    @pytest.mark.parametrize(
        "rate, horizon", [(1_000.0, 3.0), (1e308, sys.float_info.min), (1e308, 1e-308)]
    )
    def test_times_lie_before_the_horizon(self, rate, horizon):
        # the last two horizons are the smallest normal double and a
        # subnormal one, whose times carry the fewest significant bits
        arrivals = 0
        for seed in range(50):
            stream = merged_arrival_stream(single_cluster_workload(rate, 1.0, seed), horizon)
            assert np.all(stream.time >= 0) and np.all(stream.time < horizon)
            arrivals += len(stream)
        assert arrivals > 0

    def test_rejects_nonpositive_horizon(self):
        spec = single_cluster_workload(1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            merged_arrival_stream(spec, 0.0)

    def test_merged_interarrivals_look_exponential(self):
        # small version of the superposition check; the acceptance suite
        # runs the full N=1e4 test
        c0 = ClusterSpec(2.0, 1.0)
        c1 = ClusterSpec(6.0, 1.0)
        spec = WorkloadSpec((c0, c1), 1.0, 11)
        stream = merged_arrival_stream(spec, 400.0)
        gaps = np.diff(stream.time, prepend=0.0)
        result = scipy.stats.kstest(gaps, scipy.stats.expon(scale=1 / 8.0).cdf)
        assert result.pvalue > 0.01


class TestWorkloadSpec:
    def test_cluster_rejects_nonpositive_hold_and_negative_rate(self):
        with pytest.raises(ValueError, match="mean_holding"):
            ClusterSpec(1.0, 0.0)
        with pytest.raises(ValueError, match="traffic_rate"):
            ClusterSpec(-1.0, 1.0)

    def test_inverted_hold_bounds_rejected(self):
        with pytest.raises(ValueError, match="min <= max"):
            build_workload(2, 1.0, 2.0, 1.0, 5.0, 2.0, seed=0)

    @pytest.mark.parametrize("seed", [0, 8, 2**64 - 1])
    def test_with_seed_equals_replace(self, seed):
        spec = reference_point(2.5, 7)
        reseeded = spec.with_seed(seed)
        assert type(reseeded) is WorkloadSpec
        assert reseeded == replace(spec, seed=seed)
        assert reseeded.clusters is spec.clusters
        assert spec.seed == 7

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, np.float64(7.0), "7"])
    def test_with_seed_rejects_what_replace_rejects(self, seed):
        spec = reference_point(1.0, 7)
        with pytest.raises(ValueError) as expected:
            replace(spec, seed=seed)
        with pytest.raises(ValueError) as got:
            spec.with_seed(seed)
        assert str(got.value) == str(expected.value)

    def test_seed_range_enforced(self):
        with pytest.raises(ValueError, match="seed"):
            WorkloadSpec((), 1.0, -1)
        with pytest.raises(ValueError, match="seed"):
            WorkloadSpec((), 1.0, 2**64)
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer, got 1.5"):
            WorkloadSpec((), 1.0, 1.5)

    @pytest.mark.parametrize("seed", [np.uint64(7), np.int64(7), np.uint8(7)])
    def test_integer_seed_of_any_type_draws_the_int_seeds_stream(self, seed):
        spec = reference_point(1.0, 0)
        expected = merged_arrival_stream(spec.with_seed(int(seed)), 50.0)
        for reseeded in (spec.with_seed(seed), replace(spec, seed=seed)):
            got = merged_arrival_stream(reseeded, 50.0)
            assert np.array_equal(got.time, expected.time)
            assert np.array_equal(got.hold, expected.hold)
            assert np.array_equal(got.class_id, expected.class_id)

    def test_cluster_list_is_held_as_a_tuple(self):
        # a list of clusters is frozen, so the spec equals and hashes like
        # the one built from a tuple
        c = ClusterSpec(2.0, 1.5)
        from_list = WorkloadSpec([c], 1.0, 0)
        assert type(from_list.clusters) is tuple
        assert from_list == WorkloadSpec((c,), 1.0, 0)
        assert hash(from_list) == hash(WorkloadSpec((c,), 1.0, 0))

    def test_offered_erlangs_sums_rate_times_hold(self):
        c0 = ClusterSpec(2.0, 3.0)
        c1 = ClusterSpec(4.0, 1.5, interactive_rate=1.0)
        spec = WorkloadSpec((c0, c1), 1.0, 0)
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
            assert s.mean_holding == b.mean_holding
        assert scaled.arrival_rates() == pytest.approx([3.0 * r for r in base.arrival_rates()])
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


def rate_workload(rates, seed, interactive=0.0):
    """One cluster per rate, bandwidth 1, every holding mean 1.5."""
    clusters = tuple(ClusterSpec(r, 1.5, interactive) for r in rates)
    return WorkloadSpec(clusters, 1.0, seed)


def reference_point(multiplier, seed):
    base = build_workload(30, 1.0, 15.5, 100.0, 1.0, 200.0, seed=42)
    return replace(scale_workload(base, multiplier), seed=seed)


# (workload, horizon) -> SHA-256 of the little-endian bytes of time, hold and
# class_id, in that order. Any change to how a stream is drawn changes these.
STREAM_DIGESTS = {
    "reference_x1": (
        lambda: (reference_point(1.0, 7), 500.0),
        "2d261accccecf1d2bc6fb690e99d8b0f50f30e6a2393db690c1247a171a4a391",
    ),
    "reference_x15.5": (
        lambda: (reference_point(15.5, 7), 500.0),
        "c3819821eef5182ec2f526401c7391e2deaf2e2839bdd0f8cd0a2de60b0628a4",
    ),
    "zero_rates_first": (
        lambda: (rate_workload((0.0, 0.0, 3.0, 5.0, 1.0), 3), 200.0),
        "9caa1b86f92c8487c10114c03a4f5286e0694dcb04f32c955830930b883568c9",
    ),
    "zero_rates_middle": (
        lambda: (rate_workload((3.0, 0.0, 0.0, 5.0, 1.0), 3), 200.0),
        "5defe8b1ef8d4dbd2fed9e2c98088c3e550c59c653fb627de364a1a646eccdac",
    ),
    "zero_rates_last": (
        lambda: (rate_workload((3.0, 5.0, 1.0, 0.0, 0.0), 3), 200.0),
        "8b0d9a58062e6754206317d8d0cfd92d0091058f22293b2bff2ce754b4d143f6",
    ),
    "classes_3000": (
        lambda: (build_workload(3_000, 0.0, 30.0, 1.0, 1.0, 5.0, seed=5), 1.0),
        "917519e7fd2dfcc28d1ed8ed8dc26c52f172835c9bbb451f4b5769f388d1c4dd",
    ),
    "tiny_rate_first": (
        lambda: (rate_workload((1e-300, 1e3), 9), 20.0),
        "93e398d65bb8f12c755c699842504de7c10905d70ed013a81cd69cf722fa75c7",
    ),
    "tiny_rate_last": (
        lambda: (rate_workload((1e3, 1e-300), 9), 20.0),
        "ab2b852f0dbc7cbc1dd61f1fd6e35aad117f46ac10401ccc14aab8cf1c3551b1",
    ),
    "interactive_only": (
        lambda: (rate_workload((0.0, 0.0, 0.0), 4, interactive=2.0), 300.0),
        "d40abdaad582fd2a4798b8eaa52ed5a721d8a257add3ecdb115d6c6a890798ea",
    ),
}


@pytest.mark.parametrize("case", sorted(STREAM_DIGESTS))
def test_stream_golden_digest(case):
    build, digest = STREAM_DIGESTS[case]
    stream = merged_arrival_stream(*build())
    assert len(stream) > 0
    h = hashlib.sha256()
    for a, dtype in ((stream.time, "<f8"), (stream.hold, "<f8"), (stream.class_id, "<i8")):
        h.update(np.ascontiguousarray(a, dtype).tobytes())
    assert h.hexdigest() == digest


def replayed_stream(spec, horizon):
    """(time, hold, class_id) by the documented recipe, from a fresh
    generator, with no table, guide or buffer reuse: the times clipped by
    ``np.minimum``, the marks found by bisecting every one."""
    rates = np.array(
        [c.traffic_rate / spec.per_stream_bandwidth + c.interactive_rate for c in spec.clusters]
    )
    live = np.flatnonzero(rates > 0)
    bounds = np.cumsum(rates[live])
    total = float(bounds[-1]) if len(live) else 0.0
    rng = np.random.default_rng(np.random.SeedSequence([_ARRIVAL_TAG, spec.seed]))
    n = int(rng.poisson(total * horizon))
    sums = np.cumsum(rng.standard_exponential(n + 1))
    time = np.minimum(sums[:n] / sums[n] * horizon, np.nextafter(horizon, 0.0))
    class_id = live[np.searchsorted(bounds[:-1], rng.random(n) * total, "right")]
    means = np.array([c.mean_holding for c in spec.clusters])
    hold = rng.standard_exponential(n) * means[class_id]
    return time, hold, class_id


def assert_replayed(stream, spec, horizon):
    """The stream equals its replay bit for bit, dtypes included."""
    arrays = (stream.time, stream.hold, stream.class_id)
    for got, want in zip(arrays, replayed_stream(spec, horizon)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# zeros, rates whose bound rounds onto the one before (1e-17 beside 1.0),
# and rates whose total is subnormal (below 2.2e-308)
MARK_RATES = [0.0, 1.0, 2.5, 7.0, 1e-17, 1e-300, 1e-308, 1.5e-308, 5e-324]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(MARK_RATES), min_size=1, max_size=12),
    st.integers(0, 3_000),
    st.integers(0, 2**64 - 1),
)
@example([1e-308, 0.0, 1e-308], 3_000, 0)
@example([1.0, 1e-17, 1e-17, 0.0, 2.5], 3_000, 1)
@example([0.0] * 5 + [7.0, 1e-17] * 20, 3_000, 2)
def test_marks_equal_a_bisection_of_the_same_uniforms(rates, expected, seed):
    spec = rate_workload(rates, seed)
    total = sum(rates)
    # a horizon giving about ``expected`` arrivals, capped for subnormal totals
    horizon = min(expected / total, 1e308) if total > 0 and expected else 1.0
    stream = merged_arrival_stream(spec, horizon)
    assert stream.class_id.tolist() == replayed_stream(spec, horizon)[2].tolist()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(MARK_RATES), min_size=1, max_size=12),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=300),
)
# 1/3 * 3 rounds to the bound 1.0 inside a cell of the guide: the tie must
# be bisected, and bisected to the right
@example([1.0, 2.0], [1 / 3] * 64)
@example([1.0, 0.0, 1.0, 1.0, 1.0], [k / 64 for k in range(64)] + [0.5, 0.75])
# trailing zero-rate classes: a mark that rounds up to the total still
# lands on the last live class, 0 and 1 here
@example([5e-324, 0.0], [0.75])
@example([0.0, 5e-324, 0.0, 0.0], [0.75])
def test_guide_table_equals_a_bisection_of_any_uniforms(rates, u):
    live = np.flatnonzero(np.array(rates) > 0)
    bounds = np.cumsum(np.array(rates)[live])
    total = float(bounds[-1]) if len(live) else 0.0
    u = np.array(u, np.float64)
    expected = np.searchsorted(bounds[:-1], u * total, "right")
    if len(live):  # with no live class no arrival is drawn, and class 0 is marked
        expected = live[expected]
    table_total, inner, guide, _ = _stream_tables(rate_workload(rates, 0))
    assert table_total == total
    marks = u.copy()
    assert _class_marks(marks, inner, guide, table_total).tolist() == expected.tolist()
    assert marks.tolist() == u.tolist()


@pytest.mark.parametrize("n", [0, 1, 1_000])
@pytest.mark.parametrize("rates", [[1.0, 2.0], [1.0, 0.0, 1.0, 1.0, 1.0], [0.0]])
def test_class_marks_are_a_fresh_writeable_intp_array(rates, n):
    # the marks are the stream's class ids, made read-only after: they must
    # be their own buffer, not a view of the uniforms or of the tables
    total, inner, guide, _ = _stream_tables(rate_workload(rates, 0))
    u = np.random.default_rng(n).random(n)
    marks = _class_marks(u, inner, guide, total)
    assert marks.dtype == np.intp and len(marks) == n
    assert marks.flags.writeable and marks.flags.c_contiguous and marks.base is None
    for array in (u, inner, guide):
        assert not np.shares_memory(marks, array)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(MARK_RATES), min_size=1, max_size=12))
@example([1.0, 2.0])
@example([1.0, 1e-17, 1e-17, 0.0, 2.5])
@example([7.0, 1e-17] * 6)
def test_guide_marks_exactly_the_cells_a_bound_crosses(rates):
    total, inner, guide, _ = _stream_tables(rate_workload(rates, 0))
    count = len(inner)  # the classes up to the last live one, or 1 with none
    cells = len(guide)
    assert cells & (cells - 1) == 0 and (cells == 2**16 or 64 * count <= cells < 128 * count)
    edges = np.arange(cells + 1) / cells * total
    bounds = inner[:-1, None]
    # a bound above a cell's lower edge mark and at or below its upper one
    crossed = ((edges[:-1] < bounds) & (bounds <= edges[1:])).any(axis=0)
    assert (guide < 0).tolist() == crossed.tolist()
    assert (guide < 0).sum() <= count - 1
    assert guide[~crossed].tolist() == (edges[:-1, None] >= bounds.T).sum(axis=1)[~crossed].tolist()


def trimmed_tables(spec):
    """``_stream_tables`` by its earlier recipe, which trimmed the trailing
    zero rates with ``np.trim_zeros`` and appended inf to the inner bounds."""
    bounds = np.cumsum(np.trim_zeros(np.array(spec.arrival_rates()), "b"))
    total = float(bounds[-1]) if len(bounds) else 0.0
    inner = np.append(bounds[:-1], np.inf)
    cells = 1 << min(16, (64 * len(inner) - 1).bit_length())
    edges = np.searchsorted(inner, np.arange(cells + 1) / cells * total, "right")
    guide = np.where(edges[:-1] == edges[1:], edges[:-1], -1)
    means = np.array([c.mean_holding for c in spec.clusters])
    return total, inner, guide, means


def assert_tables_bit_equal(rates, interactive=0.0):
    spec = rate_workload(rates, 0, interactive)
    got, want = _stream_tables(spec), trimmed_tables(spec)
    assert type(got[0]) is float and got[0].hex() == want[0].hex()
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "rates, interactive",
    [
        ([0.0, 0.0, 3.0, 5.0], 0.0),  # leading zeros
        ([3.0, 0.0, 0.0, 5.0], 0.0),  # inner zeros
        ([3.0, 5.0, 0.0, 0.0], 0.0),  # trailing zeros
        ([0.0, 2.0, 0.0, 1.0, 0.0, 0.0], 0.0),  # all three
        ([0.0], 0.0),
        ([0.0] * 7, 0.0),
        ([-0.0, 1.0, -0.0], -0.0),  # negative zero rates
        ([-0.0, -0.0], -0.0),
        ([1e-300, 1e-308, 1.5e-308, 5e-324], 0.0),  # subnormal bounds and total
        ([5e-324, 0.0, 5e-324, 0.0], 0.0),
        ([1.0, 1e-17, 1e-17, 0.0, 2.5], 0.0),  # bounds that round onto the one before
    ],
)
def test_tables_equal_the_trimmed_recipe(rates, interactive):
    assert_tables_bit_equal(rates, interactive)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(MARK_RATES), min_size=1, max_size=12))
def test_tables_of_any_mark_rates_equal_the_trimmed_recipe(rates):
    assert_tables_bit_equal(rates)


@pytest.mark.parametrize("point", range(30))
def test_reference_point_marks_equal_a_bisection_of_every_mark(point):
    # the first replication's stream of each reference load point
    config = parse_config("")
    base = config.workload()
    spec = scale_workload(base, base.clusters[point].traffic_rate / config.min_rate)
    spec = spec.with_seed(config.seed + point * POINT_SEED_STRIDE)
    stream = merged_arrival_stream(spec, config.horizon)
    assert stream.class_id.tolist() == replayed_stream(spec, config.horizon)[2].tolist()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(MARK_RATES), min_size=1, max_size=12),
    st.integers(0, 3_000),
    st.integers(0, 2**64 - 1),
    st.sampled_from([None, 2e-308, 1e-308, 1e-310, 5e-324]),
)
@example([1.0, 0.0, 1e-17, 7.0], 3_000, 3, None)
@example([7.0] * 12, 5, 4, 2e-308)
@example([2.5, 0.0, 5e-324], 3, 5, 5e-324)
def test_whole_stream_equals_its_recipe_replayed(rates, expected, seed, subnormal):
    if subnormal is None:
        spec = rate_workload(rates, seed)
        total = sum(rates)
        horizon = min(expected / total, 1e308) if total > 0 and expected else 1.0
    else:
        # rates near the largest double, so a subnormal horizon sees a few
        # arrivals whose times carry few significant bits
        spec = rate_workload([r * 2e306 for r in rates], seed)
        horizon = subnormal
    assert_replayed(merged_arrival_stream(spec, horizon), spec, horizon)


_default_rng = np.random.default_rng


class _TiedSums:
    """A generator whose first exponentials end in spacings far below an ulp
    of their sum, so the last times round to the horizon and are clipped."""

    def __init__(self, seed_sequence, tail):
        self._rng = _default_rng(seed_sequence)
        self._tail = tail
        self.poisson = self._rng.poisson
        self.random = self._rng.random

    def standard_exponential(self, size, out=None):
        if self._tail is None:
            return self._rng.standard_exponential(size, out=out)
        draws = self._rng.standard_exponential(size)
        draws[-len(self._tail):] = self._tail
        self._tail = None
        return draws


@pytest.mark.parametrize("tail", [(1e-300,), (1e-300,) * 3, (0.0,) * 40])
def test_times_rounding_to_the_horizon_are_clipped_as_np_minimum_clips(monkeypatch, tail):
    monkeypatch.setattr(np.random, "default_rng", lambda seq: _TiedSums(seq, tail))
    spec, horizon = rate_workload((3.0, 0.0, 5.0), 6), 10.0
    stream = merged_arrival_stream(spec, horizon)
    assert len(stream) > len(tail)
    clipped = np.nextafter(horizon, 0.0)
    # the last len(tail) partial sums equal the whole sum: their times are 1 * horizon
    assert stream.time[-len(tail):].tolist() == [clipped] * len(tail)
    assert stream.time[-len(tail) - 1] < clipped
    assert_replayed(stream, spec, horizon)


def stream_bytes(stream):
    return stream.time.tobytes(), stream.hold.tobytes(), stream.class_id.tobytes()


def assert_tables_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


class TestWorkloadTables:
    """A workload builds its stream tables once and holds them: a seed-only
    copy shares them, any other copy rebuilds them from its own clusters,
    and no two workloads or threads ever see each other's."""

    def test_replications_share_the_tables(self):
        spec = reference_point(1.0, 7)
        assert spec.with_seed(8)._tables is spec._tables

    def test_replace_rebuilds_equal_tables(self):
        spec = rate_workload((1.0, 0.0, 2.5), 7)
        rebuilt = replace(spec, seed=8)
        assert rebuilt._tables is not spec._tables
        assert_tables_equal(rebuilt._tables, spec._tables)

    @pytest.mark.parametrize("rates", [(1.0, 0.0, 2.5), (2.0, 3.0)])
    def test_pickle_round_trip_draws_the_same_stream(self, rates):
        spec = rate_workload(rates, 11)
        loaded = pickle.loads(pickle.dumps(spec))
        assert loaded == spec and repr(loaded) == repr(spec)
        assert_tables_equal(loaded._tables, spec._tables)
        assert stream_bytes(merged_arrival_stream(loaded, 50.0)) == stream_bytes(
            merged_arrival_stream(spec, 50.0)
        )

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickle_load_rebuilds_read_only_tables(self, protocol):
        for spec in (reference_point(1.0, 7), rate_workload((1.0, 0.0, 2.5), 11)):
            data = pickle.dumps(spec, protocol)
            loaded = pickle.loads(data)
            assert loaded == spec
            assert_tables_equal(loaded._tables, spec._tables)
            arrays = [t for t in loaded._tables if isinstance(t, np.ndarray)]
            assert arrays and not any(a.flags.writeable for a in arrays)
        # the reference pickle holds the fields, not the 2,048-cell guide
        assert len(pickle.dumps(reference_point(1.0, 7), protocol)) < 2_048 * 8

    def test_repr_and_eq_ignore_the_tables(self):
        spec = rate_workload((1.0, 2.0), 3)
        other = rate_workload((1.0, 2.0), 3)
        assert other._tables is not spec._tables
        assert other == spec and hash(other) == hash(spec)
        assert "_tables" not in repr(spec)
        assert "_tables" not in {f.name for f in fields(spec)}

    def test_alternating_workloads_give_their_own_streams(self):
        a = reference_point(1.0, 7)
        b = rate_workload((0.0, 3.0, 5.0), 7)
        for spec in (a, b, a, replace(b, seed=8), replace(a, seed=9), b):
            assert_replayed(merged_arrival_stream(spec, 50.0), spec, 50.0)

    def test_equal_but_distinct_cluster_tuples(self):
        a = rate_workload((1.0, 0.0, 2.5), 3)
        b = rate_workload((1.0, 0.0, 2.5), 3)
        assert a.clusters == b.clusters and a.clusters is not b.clusters
        for spec in (a, b, a):
            assert_replayed(merged_arrival_stream(spec, 100.0), spec, 100.0)

    def test_tuple_built_after_the_previous_one_was_collected(self):
        # Each tuple is dropped before the next of its size is built, which
        # may then take its id; the live class moves, so a new tuple given
        # the old tuple's tables would mark the wrong class.
        for k in range(12):
            rates = [0.0, 0.0, 0.0]
            rates[k % 3] = 5.0
            c0, c1, c2 = (ClusterSpec(r, 1.5) for r in rates)
            stream = merged_arrival_stream(WorkloadSpec((c0, c1, c2), 1.0, k), 100.0)
            assert set(stream.class_id.tolist()) == {k % 3}
            del c0, c1, c2, stream
            gc.collect()

    def test_tables_are_read_only(self):
        tables = rate_workload((1.0, 0.0, 2.0), 0)._tables
        _, inner, guide, means = tables
        for table in (inner, guide, means):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_two_threads_give_the_serial_streams(self):
        workloads = (
            reference_point(1.0, 0),
            rate_workload((0.0, 3.0, 5.0), 0),
            rate_workload((2.0, 1e-17, 0.0, 7.0), 0),
        )
        # pairs of one workload, so that the two threads often ask for the
        # same tables at once, and for others' just after
        specs = [
            replace(w, seed=seed) for pair in range(0, 40, 2)
            for w in workloads for seed in (pair, pair + 1)
        ]
        serial = [stream_bytes(merged_arrival_stream(spec, 30.0)) for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(merged_arrival_stream, spec, 30.0) for spec in specs]
                threaded = [stream_bytes(f.result(timeout=60)) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
