"""Tests for strategies and full simulation runs, and for the per-partition
reference engine that ``run`` is checked against."""

import dataclasses
import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engine import (
    BLOCKED,
    POLICED,
    AdmissionOutcome,
    ClusterState,
    Event,
    SessionRequest,
    admit,
    reference_counts,
    reference_outcomes,
    reference_run,
    release,
)
from vodsim.analytic import erlang_b, pooled_blocking
from vodsim.config import POINT_SEED_STRIDE, ScenarioConfig, parse_config
from vodsim.engine import (
    _ROUNDS_MIN_PORTS,
    UNCONTROLLED_STRATEGY,
    _admission,
    _admission_rounds,
    _flags,
    _pooled_admission,
    run,
)
from vodsim.errors import ConfigurationError, InternalConsistencyError
from vodsim.metrics import ClassCounts, RunMetrics, server_blocking
from vodsim.traffic import (
    ArrivalStream,
    ClusterSpec,
    WorkloadSpec,
    merged_arrival_stream,
    scale_workload,
)


def make_workload(rate, mean_hold, *, num_clusters=1, interactive=0.0, seed=0):
    clusters = (ClusterSpec(rate, mean_hold, interactive),) * num_clusters
    return WorkloadSpec(clusters, 1.0, seed)


def req(class_id=0, t=1.0, hold=1.0):
    return SessionRequest(class_id, t, hold)


class TestClusterState:
    def test_defaults_to_empty(self):
        s = ClusterState((2, 3))
        assert s.occupied == [0, 0]
        assert s.free_ports == 5

    def test_rejects_overfull_initial_occupancy(self):
        with pytest.raises(ValueError):
            ClusterState((2,), occupied=[3])

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            ClusterState((-1,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ClusterState(())

    def test_takes_the_capacities_run_takes(self):
        # Python or numpy integers, kept as Python ints; run refuses the rest
        s = ClusterState((np.int64(2), np.uint8(3), 1))
        assert s.capacities == (2, 3, 1) and all(type(c) is int for c in s.capacities)
        assert s.free_ports == 6
        for bad in (1.5, True, np.float64(2.0), np.bool_(True), np.int64(-1)):
            with pytest.raises(ValueError, match="capacity"):
                ClusterState((2, bad))


class TestEventOrdering:
    def test_departure_sorts_before_arrival_at_equal_time(self):
        dep = Event(5.0, 0, 10, partition=1)
        arr = Event(5.0, 1, 2, request=req())
        assert dep < arr

    def test_fifo_within_kind(self):
        first = Event(5.0, 0, 1, partition=0)
        second = Event(5.0, 0, 2, partition=1)
        assert first < second

    def test_time_dominates(self):
        assert Event(1.0, 1, 99) < Event(2.0, 0, 1)


class TestAdmit:
    def test_blocked_when_all_partitions_full(self):
        state = ClusterState((1, 1), occupied=[1, 1])
        rng = random.Random(0)
        assert admit(state, req(), UNCONTROLLED_STRATEGY, rng) is BLOCKED
        policy = (1.0,)
        assert admit(state, req(), policy, rng) is BLOCKED

    def test_unit_gate_with_free_port_admits(self):
        state = ClusterState((4,))
        policy = (1.0,)
        out = admit(state, req(), policy, random.Random(0))
        assert out == AdmissionOutcome("admitted", 0)
        assert state.occupied == [1]

    def test_zero_weight_is_always_policed(self):
        state = ClusterState((4, 4))
        policy = (0.0, 1.0)
        rng = random.Random(1)
        for _ in range(50):
            assert admit(state, req(class_id=0), policy, rng) is POLICED
        assert state.occupied == [0, 0]

    def test_cyclic_probe_from_home_partition(self):
        # class 0 homes at partition 0; 0 and 1 are full, so the request
        # overflows to partition 2
        state = ClusterState((1, 1, 1), occupied=[1, 1, 0])
        out = admit(state, req(class_id=0), UNCONTROLLED_STRATEGY, random.Random(0))
        assert out == AdmissionOutcome("admitted", 2)

    def test_probe_wraps_around(self):
        state = ClusterState((1, 1, 1), occupied=[0, 1, 1])
        out = admit(state, req(class_id=2), UNCONTROLLED_STRATEGY, random.Random(0))
        assert out == AdmissionOutcome("admitted", 0)

    def test_home_partition_is_class_mod_k(self):
        state = ClusterState((1, 1, 1))
        out = admit(state, req(class_id=4), UNCONTROLLED_STRATEGY, random.Random(0))
        assert out == AdmissionOutcome("admitted", 1)

    def test_exactly_one_increment_on_admit(self):
        state = ClusterState((2, 2))
        admit(state, req(class_id=1), UNCONTROLLED_STRATEGY, random.Random(0))
        assert sum(state.occupied) == 1
        assert state.free_ports == 3

    def test_class_outside_weights_rejected(self):
        state = ClusterState((2,))
        policy = (1.0,)
        with pytest.raises(ValueError, match="class_id"):
            admit(state, req(class_id=5), policy, random.Random(0))


class TestRelease:
    def test_decrements_by_one(self):
        state = ClusterState((3,), occupied=[3])
        release(state, 0)
        assert state.occupied == [2]
        assert state.free_ports == 1

    def test_empty_partition_is_internal_error(self):
        state = ClusterState((3,), occupied=[0])
        with pytest.raises(InternalConsistencyError):
            release(state, 0)

    def test_bad_index_rejected(self):
        state = ClusterState((3,))
        with pytest.raises(ValueError):
            release(state, 1)

    def test_admit_release_round_trip(self):
        state = ClusterState((2, 2), occupied=[1, 0])
        before = list(state.occupied)
        out = admit(state, req(), UNCONTROLLED_STRATEGY, random.Random(0))
        release(state, out.partition)
        assert state.occupied == before


class TestEffectiveGate:
    """The per-class pass probabilities a run applies."""

    def test_uniform_literal(self):
        # literal uniform weights reach the strategy as gates of 1/n
        ((_, gates),) = ScenarioConfig(num_clusters=4, strategy="policy").strategy_specs()
        assert gates == (0.25,) * 4

    def test_out_of_range_class(self):
        # two gates cover classes 0 and 1 only; a run that offers class 2 is
        # refused rather than given a made-up gate
        gates = (0.5, 0.5)
        with pytest.raises(ConfigurationError, match="class"):
            run(make_workload(1.0, 1.0, num_clusters=3), [1], gates, 100.0, 0.0, seed=0)

    @pytest.mark.parametrize("gates", [(0.5,), (0.5, 0.5, 0.0)], ids=["fewer", "more"])
    def test_gate_count_must_match_class_count(self, gates):
        # a run with more gates than classes would police by the first ones
        w = make_workload(1.0, 1.0, num_clusters=2)
        match = f"policy gates cover {len(gates)} classes but the workload has 2"
        with pytest.raises(ConfigurationError, match=match):
            run(w, [1], gates, 100.0, 0.0, seed=0)

    def test_uncontrolled_has_no_gates(self):
        assert UNCONTROLLED_STRATEGY is None

    def test_gates_precomputed(self):
        # a run applies the gates it is given: a class gated at 0 is
        # policed whole and a class gated at 1 never
        w = make_workload(2.0, 1.0, num_clusters=2)
        m = run(w, [4], (0.0, 1.0), 200.0, 0.0, seed=3)
        assert m.per_class[0].policed == m.per_class[0].offered > 0
        assert m.per_class[1].policed == 0 < m.per_class[1].offered

    def test_entries_must_be_probabilities(self):
        w = make_workload(1.0, 1.0, num_clusters=2)
        for bad in (1.5, -0.5, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigurationError, match=r"gate\[1\] = .* outside"):
                run(w, [1], (0.5, bad), 100.0, 0.0, seed=0)

    @pytest.mark.parametrize(
        "gates",
        [(0.3, 0.0, 0.3), (1 / 3,) * 3, (1.0,) * 3],
        ids=["per_class", "uniform", "all_pass"],
    )
    @pytest.mark.parametrize("ports", [3, _ROUNDS_MIN_PORTS])
    def test_gates_as_array_list_or_tuple_run_alike(self, gates, ports):
        # _check_gates takes any sequence of gates, so run and
        # pooled_blocking take a numpy array as they take a tuple
        w = make_workload(2.0 * ports / 3, 1.5, num_clusters=3)
        forms = (np.array(gates), list(gates), gates)
        runs = [run(w, [ports], g, 60.0, 10.0, 7) for g in forms]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0].offered > 0
        blocking = [pooled_blocking(w, ports, g) for g in forms]
        assert blocking[0] == blocking[1] == blocking[2]


class TestRun:
    def test_empty_workload_zeroes_everything(self):
        empty = WorkloadSpec((), 1.0, 0)
        for strategy in (UNCONTROLLED_STRATEGY, ()):
            m = run(empty, [2, 2], strategy, 100.0, 10.0, seed=1)
            assert (m.offered, m.admitted, m.policed, m.blocked) == (0, 0, 0, 0)

    def test_same_seed_reproduces_metrics(self):
        w = make_workload(2.0, 1.0)
        a = run(w, [2], UNCONTROLLED_STRATEGY, 500.0, 50.0, seed=7)
        b = run(w, [2], UNCONTROLLED_STRATEGY, 500.0, 50.0, seed=7)
        assert a == b

    def test_run_seed_overrides_workload_seed(self):
        a = run(make_workload(2.0, 1.0, seed=1), [2], UNCONTROLLED_STRATEGY, 500.0, 0.0, 3)
        b = run(make_workload(2.0, 1.0, seed=2), [2], UNCONTROLLED_STRATEGY, 500.0, 0.0, 3)
        assert a == b

    def test_conservation_total_and_per_class(self):
        w = make_workload(3.0, 2.0, num_clusters=4)
        m = run(w, [1, 1], UNCONTROLLED_STRATEGY, 300.0, 30.0, seed=11)
        assert m.offered == m.admitted + m.policed + m.blocked
        for c in m.per_class:
            assert c.offered == c.admitted + c.policed + c.blocked
        assert m.offered > 0

    def test_uncontrolled_never_polices(self):
        w = make_workload(5.0, 1.0, num_clusters=3)
        m = run(w, [2], UNCONTROLLED_STRATEGY, 200.0, 0.0, seed=2)
        assert m.policed == 0

    def test_policy_gate_polices_roughly_its_share(self):
        w = make_workload(5.0, 0.5, num_clusters=2)
        strategy = (0.5, 0.5)
        m = run(w, [100], strategy, 1_000.0, 0.0, seed=5)
        # both classes gated at 0.5: about half of all requests policed
        assert m.policed / m.offered == pytest.approx(0.5, abs=0.03)

    def test_warmup_excludes_early_arrivals(self):
        w = make_workload(2.0, 1.0)
        full = run(w, [2], UNCONTROLLED_STRATEGY, 400.0, 0.0, seed=9)
        trimmed = run(w, [2], UNCONTROLLED_STRATEGY, 400.0, 200.0, seed=9)
        assert trimmed.offered < full.offered

    def test_warmup_must_precede_horizon(self):
        w = make_workload(1.0, 1.0)
        with pytest.raises(ValueError):
            run(w, [1], UNCONTROLLED_STRATEGY, 100.0, 100.0, seed=0)

    def test_rejects_negative_capacity(self):
        for bad in (-1, np.int64(-1)):
            with pytest.raises(ValueError, match=r"capacity\[1\] must be a non-negative"):
                run(make_workload(1.0, 1.0), [2, bad], UNCONTROLLED_STRATEGY, 10.0, 0.0, 0)

    def test_rejects_non_integer_capacity(self):
        for bad in (1.5, True, np.float64(2.0), np.bool_(True)):
            with pytest.raises(ValueError, match="capacity"):
                run(make_workload(1.0, 1.0), [bad], UNCONTROLLED_STRATEGY, 10.0, 0.0, 0)

    def test_numpy_integer_capacities_and_seed_count_as_python_ints(self):
        # 300 erlangs on 300 ports; summed as numpy uint8, the ports would
        # wrap to 44 (and warn), and the record would hold a numpy seed
        w = make_workload(150.0, 1.0, num_clusters=2)
        strategy = (1.0, 0.9)
        expected = run(w, [200, 100], strategy, 20.0, 2.0, 3)
        m = run(w, [np.uint8(200), np.uint8(100)], strategy, 20.0, 2.0, np.uint64(3))
        assert m == expected and 0 < m.blocked < m.offered / 10
        assert type(m.seed) is int

    def test_rejects_no_partitions(self):
        with pytest.raises(ValueError, match="partition"):
            run(make_workload(1.0, 1.0), [], UNCONTROLLED_STRATEGY, 10.0, 0.0, 0)

    def test_weights_must_cover_all_classes(self):
        w = make_workload(1.0, 1.0, num_clusters=3)
        short = (0.5, 0.5)
        with pytest.raises(ConfigurationError, match="covers? 2 classes"):
            run(w, [1], short, 100.0, 10.0, seed=0)

    def test_single_partition_blocking_matches_erlang_b(self):
        # two erlangs offered to two ports: analytic blocking is 0.4
        w = make_workload(2.0, 1.0)
        m = run(w, [2], UNCONTROLLED_STRATEGY, 5_000.0, 500.0, seed=17)
        sim = server_blocking(m)
        assert sim == pytest.approx(erlang_b(2.0, 2), abs=0.03)

    def test_policy_blocks_no_more_than_uncontrolled_here(self):
        w = make_workload(4.0, 1.0, num_clusters=2)
        strategy = (0.5, 0.5)
        unc = run(w, [3], UNCONTROLLED_STRATEGY, 2_000.0, 200.0, seed=23)
        pol = run(w, [3], strategy, 2_000.0, 200.0, seed=23)
        assert server_blocking(pol) <= server_blocking(unc)

    def test_unit_gate_policy_equals_uncontrolled(self, monkeypatch):
        # every uniform in [0, 1) passes a gate of 1.0, so neither run draws
        # one: on a drawn stream, both run with the generator refused, on
        # both sides of _ROUNDS_MIN_PORTS
        def refuse(*args, **kwargs):
            raise AssertionError("a gate uniform was drawn")

        all_pass = (1.0, 1.0)
        for ports in (3, _ROUNDS_MIN_PORTS):
            w = make_workload(4.0 * ports / 3, 1.0, num_clusters=2)
            stream = merged_arrival_stream(w.with_seed(31), 100.0)
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", refuse)
                unc = run(w, [ports], UNCONTROLLED_STRATEGY, 100.0, 10.0, 31, stream)
                pol = run(w, [ports], all_pass, 100.0, 10.0, 31, stream)
            assert pol == unc
            assert pol.policed == 0 and pol.blocked > 0

    def test_interactive_sessions_occupy_ports(self):
        with_vcr = make_workload(1.0, 1.0, interactive=1.0)
        without = make_workload(1.0, 1.0)
        m_with = run(with_vcr, [1], UNCONTROLLED_STRATEGY, 2_000.0, 100.0, seed=3)
        m_without = run(without, [1], UNCONTROLLED_STRATEGY, 2_000.0, 100.0, seed=3)
        assert m_with.offered > m_without.offered
        assert server_blocking(m_with) > server_blocking(m_without)


def start_ends(ports, ends=()):
    """The sorted ends of one session per port: ``ends``, in any order, and
    sessions that ended at -inf on the ports that they leave free."""
    return np.sort(np.array([-math.inf] * (ports - len(ends)) + list(ends), float))


def admission_flags(times, holds, ports):
    """Admitted flags of ``_admission``, checked against the heap loop and the
    rounds, each over the whole stream from free ports, at any port count.
    ``_admission`` returns None, and builds no flags, only when it admits
    every arrival."""
    times, holds = np.array(times, float), np.array(holds, float)
    flags = _admission(times, holds, ports)
    flags = [True] * len(times) if flags is None else flags.tolist()
    assert _pooled_admission(times, holds, ports, start_ends(ports)).tolist() == flags
    assert _admission_rounds(times, holds, ports, start_ends(ports)).tolist() == flags
    return flags


def direct_count(times, holds, ports, ends=()):
    """Admitted flags from a count of the sessions in progress at each arrival.

    A session ending at t has left by an arrival at t.
    """
    ends = list(ends)
    flags = []
    for t, h in zip(times, holds):
        free = sum(1 for e in ends if e > t) < ports
        flags.append(free)
        if free:
            ends.append(t + h)
    return flags


@st.composite
def tied_float_streams(draw):
    """Sorted float times and holds, zero and infinite holds among them,
    where some sessions end exactly at the time of a later arrival."""
    holds = st.sampled_from([0.0, math.inf]) | st.floats(0.0, 10.0)
    arrivals = draw(st.lists(st.tuples(st.floats(0.0, 20.0), holds), max_size=30))
    for k, hold in draw(st.lists(st.tuples(st.integers(0, 29), holds), max_size=10)):
        if k < len(arrivals) and math.isfinite(arrivals[k][1]):
            arrivals.append((arrivals[k][0] + arrivals[k][1], hold))
    arrivals.sort(key=lambda a: a[0])
    return [t for t, _ in arrivals], [h for _, h in arrivals]


class TestPooledAdmission:
    def test_blocked_run_is_skipped_to_the_next_departure(self):
        times = [0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0]
        holds = [3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        # port busy over [0, 3): arrivals at 1, 1, 2 are blocked; the one at
        # 3 takes it, the second at 3 is blocked, the one at 4 takes it again
        assert admission_flags(times, holds, 1) == [1, 0, 0, 0, 1, 0, 1]

    def test_zero_ports_block_everything(self):
        assert admission_flags([0.0, 1.0], [1.0, 1.0], 0) == [0, 0]

    def test_initial_departures_hold_ports(self):
        one = np.array([5.0]), np.array([1.0])
        assert _pooled_admission(*one, 1, np.array([6.0])).tolist() == [False]
        assert _pooled_admission(*one, 1, np.array([5.0])).tolist() == [True]

    @pytest.mark.parametrize(
        "ports, sessions, admit",
        [
            pytest.param(0, 1, _pooled_admission, id="0"),
            pytest.param(2, 3, _pooled_admission, id="2"),
            pytest.param(0, 1, _admission_rounds, id="rounds-0"),
            pytest.param(2, 3, _admission_rounds, id="rounds-2"),
            pytest.param(2, 1, _pooled_admission, id="fewer-2"),
            pytest.param(2, 1, _admission_rounds, id="rounds-fewer-2"),
        ],
    )
    def test_more_sessions_than_ports_is_an_internal_error(self, ports, sessions, admit):
        # a continuation starts from exactly one session per port
        ends = 6.0 + np.arange(sessions, dtype=float)
        with pytest.raises(InternalConsistencyError, match="sessions in progress"):
            admit(np.array([5.0]), np.array([1.0]), ports, ends)

    def test_zero_hold_tie_with_the_first_full_arrival(self):
        # the zero hold at 1 ends when it arrives, at the time of the first
        # arrival that finds the one port full: it must not free that port
        assert admission_flags([0.0, 1.0, 1.0], [5.0, 3.0, 0.0], 1) == [1, 0, 0]
        # a zero hold ahead of a tie has left, so the next arrival is admitted
        assert admission_flags([0.0, 0.0, 1.0], [0.0, 2.0, 1.0], 1) == [1, 1, 0]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5)), max_size=40),
        st.data(),
    )
    def test_integer_times_match_a_direct_count(self, arrivals, data):
        # with integer times most arrivals tie with a departure, and a zero
        # hold ends at its own arrival; a port whose session ends at t must
        # be free for an arrival at t. Up to one port per arrival, so the
        # no-blocking prefix can be any part of the stream.
        ports = data.draw(st.integers(0, len(arrivals)))
        arrivals.sort(key=lambda a: a[0])
        times = [float(t) for t, _ in arrivals]
        holds = [float(h) for _, h in arrivals]
        assert admission_flags(times, holds, ports) == direct_count(times, holds, ports)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5)), max_size=40),
        st.lists(st.integers(0, 25), max_size=8),
        st.data(),
    )
    def test_start_heap_matches_a_direct_count(self, arrivals, ends, data):
        # sessions in progress at the start, at most one per port, end
        # before, at and after the first arrival, ties included; the ports
        # they leave free start from sessions that ended at -inf
        ports = data.draw(st.integers(len(ends), len(ends) + len(arrivals)))
        arrivals.sort(key=lambda a: a[0])
        times = np.array([t for t, _ in arrivals], float)
        holds = np.array([h for _, h in arrivals], float)
        expected = direct_count(times.tolist(), holds.tolist(), ports, ends)
        for admit in (_pooled_admission, _admission_rounds):
            assert admit(times, holds, ports, start_ends(ports, ends)).tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 300).flatmap(
            lambda n: st.lists(
                st.tuples(st.integers(0, 300), st.integers(0, 200)), min_size=n, max_size=n
            )
        ),
        st.integers(1, 3),
    )
    def test_long_blocked_runs_match_a_direct_count(self, arrivals, ports):
        # up to one arrival per time unit and holds up to 200 units on 1-3
        # ports: blocked runs both shorter and longer than the bisection
        # window (a third of the examples have one longer), and runs that
        # reach the end of the stream. The length is drawn first, so that
        # long streams are as likely as short ones.
        arrivals.sort(key=lambda a: a[0])
        times = [float(t) for t, _ in arrivals]
        holds = [float(h) for _, h in arrivals]
        assert admission_flags(times, holds, ports) == direct_count(times, holds, ports)

    @pytest.mark.parametrize("tail", [0, 1, 70])
    @pytest.mark.parametrize("blocked", [1, 63, 64, 65, 66, 130])
    def test_blocked_run_at_the_window_edge(self, blocked, tail):
        # one port, taken at 0 until 100, then ``blocked`` arrivals before
        # 100, an arrival at exactly 100 that takes the port until 250,
        # another such run, and ``tail`` arrivals one apart after 250
        gap = [1.0 + 98.0 * k / blocked for k in range(blocked)]
        times = [0.0] + gap + [100.0] + [t + 100.0 for t in gap] + [250.0]
        times += [251.0 + k for k in range(tail)]
        holds = [100.0] + [1.0] * blocked + [150.0] + [1.0] * blocked + [0.5]
        holds += [0.5] * tail
        expected = [1] + [0] * blocked + [1] + [0] * blocked + [1] + [1] * tail
        assert direct_count(times, holds, 1) == expected
        assert admission_flags(times, holds, 1) == expected

    @pytest.mark.parametrize(
        "n, full",
        [
            # around 4(2N + 1) = 28, the shortest stream not taken in one
            # pass, with the first full arrival at N or N + 1
            (27, 3),
            (28, 3),
            (29, 3),
            (27, 4),
            (28, 4),
            (27, 26),  # the last arrival of a stream taken in one pass
            (20, 16),  # shorter streams taken in one pass
            (20, 19),
            (10, 9),
            (40, 6),  # the last arrival of the first window of 2N + 1 = 7
            (40, 7),  # the first arrival after it, in a second window of 14
            (28, 27),  # the last arrival, after windows of 7 and 14 and then all 28
            (29, 20),  # a third window of 28 would leave 1 after it: all 29
            (40, 39),  # windows of 7 and 14, then all 40
            (60, 59),  # windows of 7, 14 and 28, then all 60
            (27, None),  # no arrival finds all ports busy
            (28, None),
            (40, None),
            (20, None),
            (0, None),
        ],
    )
    def test_first_full_arrival_at_a_pass_edge(self, n, full):
        # three ports, one arrival per time unit; each hold ends before the
        # next arrival, except the three just before ``full``, whose sessions
        # are all in progress when arrival ``full`` comes and end one apart
        # after it, so the loop starts from a heap of three
        times = [float(i) for i in range(n)]
        holds = [0.5] * n
        if full is not None:
            holds[full - 3 : full] = [3.6] * 3
        expected = direct_count(times, holds, 3)
        assert (expected.index(False) if False in expected else None) == full
        assert admission_flags(times, holds, 3) == expected

    @settings(max_examples=300, deadline=None)
    @given(tied_float_streams(), st.data())
    def test_first_full_arrival_is_the_order_statistic(self, stream, data):
        # the continuation starts at the first arrival whose earlier sessions
        # end at or after it on every port (a tie counts as busy); before it
        # nothing is blocked, and with no such arrival no flags are built
        times, holds = stream
        n = len(times)
        ports = data.draw(st.sampled_from([0, n, n + 1]) | st.integers(0, n))
        starts = []

        def loop(times, holds, ports, departures):
            starts.append(n - len(times))
            return _pooled_admission(times, holds, ports, departures)

        with mock.patch("vodsim.engine._pooled_admission", loop):
            flags = _admission(np.array(times), np.array(holds), ports)
        full = next(
            (
                i
                for i, t in enumerate(times)
                if sum(times[j] + holds[j] >= t for j in range(i)) >= ports
            ),
            None,
        )
        assert starts == ([] if full is None else [full])
        expected = direct_count(times, holds, ports)
        assert (flags is None) == (full is None)
        assert (expected if flags is None else flags.tolist()) == expected
        assert all(expected[:full])


@pytest.mark.parametrize("ports", [3, 1_000])
@pytest.mark.parametrize(
    "strategy", [UNCONTROLLED_STRATEGY, (1.0, 0.5, 0.2)], ids=["strategy0", "strategy1"]
)
def test_run_records_are_plain_named_tuples(ports, strategy):
    # run builds its records with tuple.__new__, which skips _make's length
    # check; 3 ports block some arrivals (the admitted bincount), 1,000 none
    m = run(make_workload(2.0, 1.5, num_clusters=3), [ports], strategy, 200.0, 20.0, 9)
    assert (m.blocked > 0) == (ports == 3)
    assert type(m) is RunMetrics and len(m) == len(RunMetrics._fields)
    assert len(m.per_class) == 3
    for c in m.per_class:
        assert type(c) is ClassCounts and len(c) == len(ClassCounts._fields) == 4
        assert all(type(v) is int for v in c)
        assert ClassCounts(**c._asdict()) == c
    assert RunMetrics(**m._asdict()) == m
    assert m._asdict()["per_class"] is m.per_class


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_policed_share_is_binomial(seed):
    # four classes gated at 0.1 to 0.4, about 5,000
    # arrivals each: each class's policed count is Binomial(offered, 1 - gate)
    gates = (0.1, 0.2, 0.3, 0.4)
    w = make_workload(50.0, 0.01, num_clusters=4)
    m = run(w, [1_000], gates, 100.0, 0.0, seed)
    for c, gate in zip(m.per_class, gates):
        assert c.offered > 4_000
        sd = math.sqrt(c.offered * gate * (1 - gate))
        assert abs(c.policed - c.offered * (1 - gate)) <= 4.5 * sd


def test_drawn_stream_arrays_are_read_only():
    s = merged_arrival_stream(make_workload(2.0, 1.0, num_clusters=3, seed=4), 100.0)
    for array in (s.time, s.hold, s.class_id):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
        with pytest.raises(ValueError, match="read-only"):
            array *= 1


def _rebuilt(s):
    return ArrivalStream(s.time, s.hold, s.class_id)


def _copied(s):
    return ArrivalStream(s.time.copy(), s.hold.copy(), s.class_id.copy())


def _built(s):
    return ArrivalStream(np.array([1.0, 2.0]), np.ones(2), np.zeros(2, np.intp))


@pytest.mark.parametrize("build", [_rebuilt, _copied, _built])
def test_caller_built_stream_is_refused(build):
    # even one of a drawn stream's own arrays, for this workload, seed and
    # horizon: run accepts only the stream merged_arrival_stream drew
    w = make_workload(2.0, 1.0, num_clusters=2)
    stream = build(merged_arrival_stream(w.with_seed(5), 100.0))
    for strategy in (UNCONTROLLED_STRATEGY, (1.0, 0.5)):
        with pytest.raises(ConfigurationError, match="not drawn for this workload"):
            run(w, [3], strategy, 100.0, 10.0, 5, stream=stream)


def test_drawn_stream_run_for_another_workload_or_horizon_is_checked():
    wide = make_workload(2.0, 1.0, num_clusters=3)
    s = merged_arrival_stream(wide.with_seed(5), 100.0)
    m = run(wide, [3], UNCONTROLLED_STRATEGY, 100.0, 10.0, 5, stream=s)
    assert m.offered > 0
    # the record compares by value: an equal workload built afresh, with
    # its own clusters tuple and tables, runs the stream as its own
    fresh = make_workload(2.0, 1.0, num_clusters=3)
    assert fresh.clusters is not wide.clusters and fresh._tables is not wide._tables
    assert run(fresh, [3], UNCONTROLLED_STRATEGY, 100.0, 10.0, 5, stream=s) == m
    others = [
        (make_workload(2.0, 1.0, num_clusters=2), 100.0, 5),  # class count
        (wide, 50.0, 5),  # horizon
        (wide, 100.0, 6),  # seed
        (scale_workload(wide, 15.5), 100.0, 5),  # load point, as many classes
        (replace(wide, per_stream_bandwidth=2.0), 100.0, 5),  # bandwidth
    ]
    for workload, horizon, seed in others:
        with pytest.raises(ConfigurationError, match="not drawn for this workload"):
            run(workload, [3], UNCONTROLLED_STRATEGY, horizon, 10.0, seed, stream=s)


@pytest.mark.parametrize("passed", [False, True], ids=["no_stream", "stream"])
@pytest.mark.parametrize("seed", [-5, 3.0])
def test_bad_seed_is_refused_with_or_without_a_stream(seed, passed):
    # checked before the stream: a drawn stream's seed 3 equals 3.0
    w = make_workload(2.0, 1.0)
    stream = merged_arrival_stream(w.with_seed(3), 100.0) if passed else None
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
        run(w, [2], UNCONTROLLED_STRATEGY, 100.0, 10.0, seed, stream=stream)


@pytest.mark.parametrize("ports", [3, _ROUNDS_MIN_PORTS])
def test_drawn_stream_runs_as_its_checked_copy(ports):
    w = make_workload(2.0 * ports / 3, 1.5, num_clusters=3)
    s = merged_arrival_stream(replace(w, seed=9), 200.0)
    for strategy in (UNCONTROLLED_STRATEGY, (1.0, 0.5, 0.2)):
        m = run(w, [ports], strategy, 200.0, 20.0, 9, stream=s)
        assert m.blocked > 0
        assert run(w, [ports], strategy, 200.0, 20.0, 9) == m


@pytest.mark.parametrize("ports", [3, _ROUNDS_MIN_PORTS])
def test_runs_on_one_stream_at_two_warmups_equal_runs_on_fresh_streams(ports):
    # both strategies at two warmups on one stream, in an order where a run
    # follows one at another warmup and one at its own: each counts as a
    # run that draws its own stream
    w = make_workload(2.0 * ports / 3, 1.5, num_clusters=3)
    s = merged_arrival_stream(w.with_seed(9), 200.0)
    policy = (1.0, 0.5, 0.2)
    cases = [(UNCONTROLLED_STRATEGY, 0.0), (policy, 80.0), (UNCONTROLLED_STRATEGY, 80.0)]
    shared = [run(w, [ports], strategy, 200.0, warmup, 9, stream=s) for strategy, warmup in cases]
    for (strategy, warmup), m in zip(cases, shared):
        assert m == run(w, [ports], strategy, 200.0, warmup, 9)
    assert shared[0].offered > shared[1].offered == shared[2].offered
    assert shared[1].policed > 0 and shared[2].blocked > 0


@pytest.mark.parametrize("ports", [3, _ROUNDS_MIN_PORTS])
def test_runs_leave_their_stream_as_drawn(ports):
    # a drawn stream is its three arrays and what it was drawn for, and no
    # run writes to it
    w = make_workload(2.0 * ports / 3, 1.5, num_clusters=3)
    s = merged_arrival_stream(w.with_seed(9), 200.0)
    before = {f.name: getattr(s, f.name) for f in dataclasses.fields(s)}
    for warmup in (0.0, 80.0):
        for strategy in (UNCONTROLLED_STRATEGY, (1.0, 0.5, 0.2)):
            run(w, [ports], strategy, 200.0, warmup, 9, stream=s)
    assert all(getattr(s, name) is value for name, value in before.items())
    assert list(before) == ["time", "hold", "class_id", "_drawn_for"]


@pytest.mark.parametrize(
    "gates",
    [(0.3, 0.0, 0.3), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (1 / 3, 1 / 3, 1 / 3)],
    ids=["per_class", "all_pass", "none_pass", "uniform"],
)
@pytest.mark.parametrize("ports", [3, _ROUNDS_MIN_PORTS])
def test_gate_filter_equals_reference_engine(gates, ports):
    # run compares every uniform with the largest gate, then with its own
    # class's gate only when the gates differ; the reference engine makes
    # one draw per request and compares it with that request's gate
    w = make_workload(2.0 * ports / 3, 1.5, num_clusters=3)
    for warmup in (0.0, 20.0):
        args = (w, [ports], gates, 60.0, warmup, 7)
        m = run(*args)
        assert m == reference_run(*args)
        for c, gate in zip(m.per_class, gates):
            assert c.offered > 0
            assert (c.policed == 0) == (gate == 1.0)
            assert (c.policed == c.offered) == (gate == 0.0)


@pytest.mark.parametrize("ports, rate", [(3, 0.05), (300, 20.0)])
def test_run_that_blocks_nothing_admits_every_entered_arrival(ports, rate):
    # light enough that no arrival finds all ports busy, on both sides of
    # _ROUNDS_MIN_PORTS: run counts admissions without admitted flags
    w = make_workload(rate, 1.0, num_clusters=3)
    s = merged_arrival_stream(w.with_seed(4), 100.0)
    assert len(s) > 10 and _admission(s.time, s.hold, ports) is None
    for strategy in (UNCONTROLLED_STRATEGY, (1.0, 0.5, 0.0)):
        args = (w, [ports], strategy, 100.0, 10.0, 4)
        m = run(*args)
        assert m.blocked == 0 and m.admitted == m.offered - m.policed > 0
        for c in m.per_class:
            assert c.blocked == 0 and c.admitted == c.offered - c.policed
        assert (m.policed > 0) == (strategy is not None)
        assert m == reference_run(*args)
        assert run(*args, stream=s) == m


@st.composite
def small_runs(
    draw, rates=(0.0, 0.5, 2.0, 6.0), capacity=st.integers(0, 3), horizons=(5.0, 30.0)
):
    """A small workload, server, strategy and window for the differential test."""
    k = draw(st.integers(1, 4))
    clusters = []
    for c in range(k):
        rate = draw(st.sampled_from(rates))
        clusters.append(
            ClusterSpec(
                rate,
                draw(st.sampled_from([0.5, 1.0, 3.0])),
                draw(st.sampled_from([0.0, 0.0, 1.5])),
            )
        )
    workload = WorkloadSpec(tuple(clusters), 1.0, 0)
    # numpy integers too, which both engines take as Python ints
    port_count = st.one_of(capacity, capacity.map(np.int64))
    capacities = draw(st.lists(port_count, min_size=1, max_size=4))
    gates = draw(st.lists(st.sampled_from([0.0, 1.0, 0.3]), min_size=k, max_size=k))
    if draw(st.booleans()):
        strategy = UNCONTROLLED_STRATEGY
    else:
        strategy = tuple(gates)
    horizon = draw(st.sampled_from(horizons))
    warmup = draw(st.sampled_from([0.0, 0.4 * horizon]))
    seed = draw(st.integers(0, 2**64 - 1))
    return workload, capacities, strategy, horizon, warmup, seed


def check_against_reference_engine(case):
    workload, capacities, strategy, horizon, warmup, seed = case
    requests, kinds = reference_outcomes(workload, capacities, strategy, horizon, seed)
    expected = reference_counts(len(workload.clusters), requests, kinds, warmup, seed)
    assert run(*case) == expected
    # a stream built once for the seed, as the CLI shares it among strategies
    stream = merged_arrival_stream(replace(workload, seed=seed), horizon)
    assert run(*case, stream=stream) == expected
    # the flags too, each arrival's, warmup or not; None reads as every arrival
    passed, admitted = _flags(stream, strategy, seed, int(sum(capacities)))
    assert (passed is None) == (min(strategy or (1.0,)) == 1.0)
    entered = [i for i, kind in enumerate(kinds) if kind != "policed"]
    assert (list(range(len(kinds))) if passed is None else passed.tolist()) == entered
    admits = [kinds[i] == "admitted" for i in entered]
    assert ([True] * len(entered) if admitted is None else admitted.tolist()) == admits


@settings(max_examples=100, deadline=None)
@given(small_runs(), st.data())
def test_per_class_records_are_checked_class_counts(case, data):
    # ``run`` builds its records unchecked, after one check of all classes,
    # so each must still be what a checked ClassCounts would be
    workload, capacities, _, horizon, warmup, seed = case
    k = len(workload.clusters)
    gates = data.draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=k, max_size=k))
    for strategy in (UNCONTROLLED_STRATEGY, tuple(gates)):
        args = (workload, capacities, strategy, horizon, warmup, seed)
        records = run(*args).per_class
        expected = reference_run(*args).per_class
        assert len(records) == len(expected) == k
        for c, e in zip(records, expected):
            assert type(c) is ClassCounts
            assert all(type(v) is int and v >= 0 for v in c)
            assert c.offered == c.admitted + c.policed + c.blocked
            assert c == e


def test_negative_class_counts_are_an_internal_error(monkeypatch):
    # flags read as bytes rather than as bools index the arrivals by 1, so
    # each of the n reads as the second, of one class, which offered fewer
    w = make_workload(1.0, 1.0, num_clusters=2)
    stream = merged_arrival_stream(w, 10.0)
    assert 0 < np.bincount(stream.class_id).min() < len(stream)
    monkeypatch.setattr(
        "vodsim.engine._admission", lambda times, holds, ports: np.ones(len(times), np.uint8)
    )
    with pytest.raises(InternalConsistencyError, match="negative per-class counts"):
        run(w, [1], UNCONTROLLED_STRATEGY, 10.0, 0.0, 0, stream=stream)


@settings(max_examples=150, deadline=None)
@given(small_runs())
def test_run_equals_reference_engine(case):
    check_against_reference_engine(case)


@settings(max_examples=50, deadline=None)
@given(
    small_runs(
        rates=(100.0, 250.0, 600.0), capacity=st.integers(40, 120), horizons=(2.0, 6.0)
    )
)
def test_run_equals_reference_engine_on_many_ports(case):
    # 40 to 480 ports offered up to 7,200 erlangs over a few seconds, so most
    # runs leave the numpy prefix, on both sides of the choice between the
    # heap loop and the rounds that is made at _ROUNDS_MIN_PORTS
    check_against_reference_engine(case)


@pytest.mark.parametrize("point", range(30))
def test_reference_sweep_streams_admit_alike_on_both_paths(point):
    # the first replication's stream of each reference load point, on the
    # reference server: the rounds that ``_admission`` picks there and the
    # heap loop over the whole stream admit the same arrivals
    config = parse_config("")
    ports = sum(config.capacities())
    assert ports >= _ROUNDS_MIN_PORTS
    base = config.workload()
    workload = scale_workload(base, base.clusters[point].traffic_rate / config.min_rate)
    seed = config.seed + point * POINT_SEED_STRIDE
    s = merged_arrival_stream(replace(workload, seed=seed), config.horizon)
    flags = _admission(s.time, s.hold, ports)
    assert not flags.all()  # every point blocks at these seeds, so it reaches the rounds
    loop = _pooled_admission(s.time, s.hold, ports, start_ends(ports))
    assert flags.tolist() == loop.tolist()
