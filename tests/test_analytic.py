"""Unit and property tests for the closed-form probability functions."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vodsim.analytic import (
    _check_capacity,
    _checked_probability,
    chain_blocking,
    erlang_b,
    erlang_b_direct,
    free_port_selection_prob,
    policy_admission_prob,
    pooled_blocking,
)
from vodsim.config import parse_config
from vodsim.engine import run
from vodsim.errors import ConfigurationError, InternalConsistencyError
from vodsim.traffic import ClusterSpec, WorkloadSpec, scale_workload

# Bounded so the recurrence never underflows to exactly 0, which would
# break strict-monotonicity assertions on denormal-range values.
loads = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
capacities = st.integers(min_value=0, max_value=50)


class TestOfferedLoad:
    """Every closed form takes offered load as finite erlangs >= 0."""

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="offered load"):
            erlang_b(-0.1, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="offered load"):
            erlang_b_direct(bad, 1)

    def test_accepts_zero(self):
        assert chain_blocking([(0.0, 1)]) == 0.0


class TestPartitionSpec:
    """Every closed form takes a partition's capacity as a non-bool Python or
    numpy integer >= 0, the capacities ``engine.run`` takes."""

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="capacity"):
            erlang_b(1.0, -1)

    def test_rejects_non_integer(self):
        for bad in (1.5, 2.0, True, np.bool_(True), np.float64(2.0)):
            with pytest.raises(ValueError, match="capacity"):
                erlang_b(1.0, bad)

    def test_accepts_zero(self):
        assert erlang_b_direct(1.0, 0) == 1.0

    def test_accepts_numpy_integers(self):
        # a port total summed from numpy capacities, as a Python int
        for c in (np.int64(2), np.uint8(2)):
            assert erlang_b(2.0, c) == erlang_b_direct(2.0, c) == erlang_b(2.0, 2)
            assert type(_check_capacity(c)) is int
        w = WorkloadSpec((ClusterSpec(250.0, 1.0),), 1.0, 0)
        assert pooled_blocking(w, np.int64(300)) == pooled_blocking(w, 300) > 0

    def test_chain_stage_capacity_is_not_truncated(self):
        # a stage of 1.5 ports is rejected, not computed as 1 port
        with pytest.raises(ValueError, match="capacity"):
            chain_blocking([(1.0, 1.5)])


class TestErlangB:
    def test_zero_servers_block_everything(self):
        assert erlang_b(1.0, 0) == 1.0

    def test_no_offered_load(self):
        assert erlang_b(0.0, 5) == 0.0

    def test_two_erlangs_two_ports(self):
        # (2^2/2!) / (1 + 2 + 2^2/2!) = 2/5
        assert erlang_b(2.0, 2) == pytest.approx(0.4, abs=1e-12)

    def test_one_erlang_one_port(self):
        assert erlang_b(1.0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_negative_load(self):
        with pytest.raises(ValueError):
            erlang_b(-1.0, 3)

    def test_rejects_nan_load(self):
        with pytest.raises(ValueError):
            erlang_b(float("nan"), 3)

    def test_accepts_domain_types(self):
        # offered erlangs may be an int or a float; ports are an int
        assert erlang_b(2, 2) == erlang_b(2.0, 2) == pytest.approx(0.4)

    @given(loads, capacities)
    def test_result_is_probability(self, e, c):
        assert 0.0 <= erlang_b(e, c) <= 1.0

    @given(loads, st.integers(min_value=1, max_value=50))
    def test_strictly_decreasing_in_capacity(self, e, c):
        assert erlang_b(e, c) < erlang_b(e, c - 1)

    @given(loads, loads, capacities)
    def test_nondecreasing_in_load(self, e1, e2, c):
        lo, hi = sorted((e1, e2))
        assert erlang_b(lo, c) <= erlang_b(hi, c)

    @given(loads, st.integers(min_value=1, max_value=50))
    def test_recurrence_consistency(self, e, c):
        prev = erlang_b(e, c - 1)
        assert erlang_b(e, c) == e * prev / (c + e * prev)


class TestErlangBDirect:
    def test_matches_recurrence_example(self):
        assert erlang_b_direct(2.0, 2) == pytest.approx(0.4, abs=1e-12)

    def test_trivial_values(self):
        assert erlang_b_direct(0.0, 3) == 0.0
        assert erlang_b_direct(1.0, 0) == 1.0

    def test_overflowing_sum_names_alternative(self):
        # 1000^k / k! passes the largest double near k = 1000
        with pytest.raises(ValueError, match="overflowed.*use erlang_b"):
            erlang_b_direct(1000.0, 1000)


class TestPooledBlocking:
    def workload(self):
        c0 = ClusterSpec(2.0, 3.0)
        c1 = ClusterSpec(4.0, 1.5, interactive_rate=1.0)
        return WorkloadSpec((c0, c1), 1.0, 0)

    def test_ungated_is_erlang_b_of_the_offered_load(self):
        w = self.workload()
        assert pooled_blocking(w, 10) == erlang_b(w.offered_erlangs(), 10)

    def test_gates_thin_each_class(self):
        # class 0 offers 6 erlangs, class 1 offers 5 * 1.5 = 7.5
        w = self.workload()
        assert pooled_blocking(w, 4, (0.5, 0.0)) == pytest.approx(erlang_b(3.0, 4))
        assert pooled_blocking(w, 4, (1.0, 1.0)) == pooled_blocking(w, 4)

    def test_one_gate_per_class(self):
        # fewer or more gates than classes, refused as engine.run refuses them
        for gates in [(1.0,), (1.0, 1.0, 1.0)]:
            message = f"policy gates cover {len(gates)} classes but the workload has 2"
            with pytest.raises(ConfigurationError, match=message):
                pooled_blocking(self.workload(), 4, gates)

    @pytest.mark.parametrize("bad", [1.5, -0.5, float("nan"), float("inf"), -float("inf")])
    def test_bad_gate_refused_as_run_refuses_it(self, bad):
        # one gate rule for both, so a gate is never read as a load
        w = self.workload()
        with pytest.raises(ConfigurationError) as analytic:
            pooled_blocking(w, 4, (0.5, bad))
        with pytest.raises(ConfigurationError) as simulated:
            run(w, [4], (0.5, bad), 10.0, 0.0, seed=0)
        assert str(analytic.value) == str(simulated.value) == f"gate[1] = {bad} is outside [0, 1]"

    def test_reference_server_equals_literal_sum(self):
        # the reference sweep's 300 ports: the literal sum is finite on its
        # first 7 points (265.7 to 1,062.9 erlangs) and overflows above them
        config = parse_config("")
        base = config.workload()
        ports = sum(config.capacities())
        checked = 0
        for cluster in base.clusters:
            scaled = scale_workload(base, cluster.traffic_rate / config.min_rate)
            try:
                direct = erlang_b_direct(scaled.offered_erlangs(), ports)
            except ValueError as exc:
                assert "overflowed" in str(exc)
                continue
            assert pooled_blocking(scaled, ports) == pytest.approx(direct, rel=1e-12, abs=0)
            checked += 1
        assert (ports, checked) == (300, 7)

    def test_gate_above_one_is_refused_where_its_load_is_in_range(self):
        # 2 erlangs through a gate of 2.0 would be 4 erlangs on 2 ports, 0.6154
        w = WorkloadSpec((ClusterSpec(2.0, 1.0),), 1.0, 0)
        assert pooled_blocking(w, 2, (1.0,)) == erlang_b(2.0, 2)
        with pytest.raises(ConfigurationError, match=r"gate\[0\] = 2.0 is outside \[0, 1\]"):
            pooled_blocking(w, 2, (2.0,))


class TestChainBlocking:
    def test_empty_chain_is_unit(self):
        assert chain_blocking([]) == 1.0
        assert chain_blocking(iter(())) == 1.0

    def test_single_stage_equals_erlang_b(self):
        assert chain_blocking([(2.0, 2)]) == pytest.approx(0.4, abs=1e-12)

    def test_two_stage_product(self):
        # 0.5 * 0.4
        assert chain_blocking([(1.0, 1), (2.0, 2)]) == pytest.approx(0.2, abs=1e-12)

    @given(
        st.lists(st.tuples(loads, capacities), max_size=6),
        st.lists(st.tuples(loads, capacities), max_size=6),
    )
    def test_concatenation_equals_product_of_parts(self, left, right):
        whole = chain_blocking(left + right)
        parts = chain_blocking(left) * chain_blocking(right)
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-300)


class TestFreePortSelection:
    def test_single_partition_all_free(self):
        assert free_port_selection_prob(1, 1, 10, 0) == 1.0

    def test_second_of_two_half_occupied(self):
        # (1/2) * (1/2) * (5/10)
        assert free_port_selection_prob(2, 2, 10, 5) == pytest.approx(0.125, abs=1e-12)

    def test_fully_occupied_partition_is_zero(self):
        assert free_port_selection_prob(4, 2, 8, 8) == 0.0

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            free_port_selection_prob(2, 1, 10, 11)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            free_port_selection_prob(2, 1, 0, 0)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            free_port_selection_prob(2, 3, 10, 0)

    def test_rejects_no_partitions(self):
        with pytest.raises(ValueError, match="partition count k must be >= 1, got 0"):
            free_port_selection_prob(0, 1, 10, 0)

    @given(
        st.integers(min_value=1, max_value=40),
        st.data(),
        st.integers(min_value=1, max_value=64),
    )
    def test_range_and_zero_iff_full(self, k, data, c):
        j = data.draw(st.integers(min_value=1, max_value=k))
        q = data.draw(st.integers(min_value=0, max_value=c))
        p = free_port_selection_prob(k, j, c, q)
        assert 0.0 <= p <= 1.0
        assert (p == 0.0) == (q == c)

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=64),
        st.data(),
    )
    def test_strictly_decreasing_in_j_when_ports_free(self, k, c, data):
        q = data.draw(st.integers(min_value=0, max_value=c - 1))
        values = [free_port_selection_prob(k, j, c, q) for j in range(1, k + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestPolicyWeights:
    """A class's policy weight is its gate, the probability a request passes."""

    def test_valid(self):
        # each of three weights thins the admission of its own class
        w = (0.5, 0.3, 0.2)
        thinned = [policy_admission_prob(g, 0.5) for g in w]
        assert thinned == pytest.approx([0.25, 0.15, 0.1], abs=1e-12)


def test_out_of_range_result_is_an_internal_error():
    # a formula bug surfaces instead of being clamped
    with pytest.raises(InternalConsistencyError, match=r"x produced 1.5, outside \[0, 1\]"):
        _checked_probability(1.5, "x")


class TestPolicyAdmission:
    def test_unit_weight_is_identity(self):
        assert policy_admission_prob(1.0, 0.125) == 0.125

    def test_zero_weight_blocks_class(self):
        assert policy_admission_prob(0.0, 0.9) == 0.0

    def test_quarter_weight_product(self):
        assert policy_admission_prob(0.25, 0.125) == pytest.approx(0.03125, abs=1e-12)

    @pytest.mark.parametrize("w,b", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)])
    def test_rejects_out_of_range(self, w, b):
        with pytest.raises(ValueError):
            policy_admission_prob(w, b)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_never_exceeds_either_factor(self, w, b):
        assert policy_admission_prob(w, b) <= min(w, b)


@settings(max_examples=30)
@given(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    st.integers(min_value=0, max_value=1000),
)
def test_direct_and_recurrence_agree_wherever_direct_is_defined(e, c):
    try:
        direct = erlang_b_direct(e, c)
    except ValueError as exc:
        assume("overflowed" not in str(exc))  # skip a sum past the largest double
        raise
    assert erlang_b(e, c) == pytest.approx(direct, rel=1e-9, abs=1e-12)
