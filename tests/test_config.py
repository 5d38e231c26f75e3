"""Tests for the key=value config format and scenario defaults."""

import math

import pytest

from vodsim.config import ScenarioConfig, parse_config
from vodsim.errors import ConfigurationError


class TestDefaults:
    def test_empty_text_gives_reference_scenario(self):
        c = parse_config("")
        assert c.num_clusters == 30
        assert c.min_rate == 1.0
        assert c.max_rate == 15.5
        assert c.min_hold == 1.0
        assert c.max_hold == 200.0
        assert c.num_partitions == 30
        assert c.horizon == 500.0

    def test_remaining_defaults(self):
        c = parse_config("")
        assert c.ports_per_partition == 10
        assert c.replications == 20
        assert c.warmup == pytest.approx(50.0)
        assert c.strategy == "both"
        assert c.policy_preset == "uniform"
        assert c.weight_scaling == "literal"
        assert c.threshold == 0.05
        assert c.interactive_rate == 0.0
        assert c.sweep_mode == "global"

    def test_comments_and_blanks_ignored(self):
        c = parse_config("# comment only\n\n  \nseed = 7   # trailing comment\n")
        assert c.seed == 7

    def test_empty_text_equals_default_constructor_field_for_field(self):
        assert parse_config("") == ScenarioConfig()

    def test_warmup_defaults_to_tenth_of_horizon(self):
        assert parse_config("horizon = 1000").warmup == pytest.approx(100.0)

    def test_explicit_warmup_respected(self):
        c = parse_config("horizon = 1000\nwarmup = 5")
        assert c.warmup == 5.0


class TestProseVariant:
    def test_lower_rate_and_hold_variant(self):
        c = parse_config("max_rate = 5.0\nmax_hold = 30\n")
        assert c.max_rate == 5.0
        assert c.max_hold == 30.0
        # everything else stays at the reference values
        assert c.num_clusters == 30
        assert c.horizon == 500.0


class TestParseErrors:
    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config("seed = 1\nmystery = 3\n")

    def test_bad_value_names_line_and_key(self):
        with pytest.raises(ConfigurationError, match="line 1.*replications"):
            parse_config("replications = soon\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigurationError, match="key = value"):
            parse_config("just some words\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_invariant_violation_names_offending_line(self):
        with pytest.raises(ConfigurationError, match="min_hold.*line 1"):
            parse_config("min_hold = 300\n")

    @pytest.mark.parametrize(
        "key", ["strategy", "policy_preset", "weight_scaling", "sweep_mode"]
    )
    def test_bad_choice_rejected(self, key):
        with pytest.raises(ConfigurationError, match=rf"{key} must be one of.*line 1"):
            parse_config(f"{key} = sometimes\n")

    def test_warmup_at_horizon_rejected(self):
        with pytest.raises(ConfigurationError, match="warmup"):
            parse_config("horizon = 100\nwarmup = 100\n")

    def test_last_replication_seed_must_fit_64_bits(self):
        # defaults: 30 points, 20 replications
        limit = 2**64 - 1 - 29 * 10007 - 19
        assert parse_config(f"seed = {limit}").seed == limit
        with pytest.raises(ConfigurationError, match="last replication seed"):
            parse_config(f"seed = {limit + 1}")

    def test_non_finite_floats_rejected(self):
        for text in ("horizon = nan", "interactive_rate = inf", "min_rate = -inf"):
            with pytest.raises(ConfigurationError, match="finite"):
                parse_config(text)

    def test_heaviest_run_must_fit_arrival_bound(self):
        # the reference top point offers 15.5 * 30 * 8.25 / 100 = 38.3625
        # arrivals/s, so 10**8 arrivals are reached at a horizon of 2.61e6 s
        assert parse_config("horizon = 2.6e6").horizon == 2.6e6
        with pytest.raises(ConfigurationError, match="arrivals.*horizon = 2700000"):
            parse_config("horizon = 2.7e6")

    def test_partition_count_bounded(self):
        assert parse_config("num_partitions = 1000000").num_partitions == 10**6
        with pytest.raises(ConfigurationError, match="num_partitions"):
            parse_config("num_partitions = 1000001")

    def test_cluster_count_bounded_without_traffic(self):
        # with no traffic the arrival bound is 0, so only the cap stops this
        # before the workload allocates a spec per cluster
        idle = "min_rate = 0\nmax_rate = 0\nstrategy = uncontrolled\n"
        assert parse_config(idle + "num_clusters = 1000000").num_clusters == 10**6
        with pytest.raises(ConfigurationError, match="num_clusters.*line 4"):
            parse_config(idle + "num_clusters = 1000001")

    def test_port_total_bounded(self):
        text = "num_partitions = 10\nports_per_partition = 1000000"
        assert parse_config(text).capacities() == [10**6] * 10
        with pytest.raises(ConfigurationError, match="ports_per_partition.*line 2"):
            parse_config("num_partitions = 10\nports_per_partition = 1000001")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            parse_config("seed = -1\n")


class TestScenarioHelpers:
    def test_capacities_equal_ports(self):
        c = ScenarioConfig(num_partitions=3, ports_per_partition=4)
        assert c.capacities() == [4, 4, 4]

    def test_workload_matches_config(self):
        c = ScenarioConfig(num_clusters=5, min_rate=1.0, max_rate=3.0)
        w = c.workload()
        assert len(w.clusters) == 5
        assert w.per_stream_bandwidth == c.per_stream_bandwidth
        assert all(c.min_hold <= cl.mean_holding <= c.max_hold for cl in w.clusters)

    def test_uniform_weights(self):
        c = ScenarioConfig(num_clusters=4)
        w = c.policy_weights()
        assert w.weights == (0.25,) * 4

    def test_capacity_proportional_equals_uniform_for_equal_ports(self):
        c = ScenarioConfig(num_clusters=30, policy_preset="capacity_proportional")
        assert max(
            abs(a - b)
            for a, b in zip(c.policy_weights().weights, (1 / 30,) * 30)
        ) < 1e-12

    def test_weights_sum_to_one(self):
        for preset in ("uniform", "capacity_proportional"):
            c = ScenarioConfig(num_clusters=30, policy_preset=preset)
            assert math.fsum(c.policy_weights().weights) == pytest.approx(1.0, abs=1e-9)

    def test_strategy_specs_cardinality(self):
        assert [n for n, _ in ScenarioConfig(strategy="both").strategy_specs()] == [
            "uncontrolled",
            "policy-uniform-literal",
        ]
        assert len(ScenarioConfig(strategy="uncontrolled").strategy_specs()) == 1
        assert len(ScenarioConfig(strategy="policy").strategy_specs()) == 1

    def test_policy_strategy_name_tracks_preset_and_scaling(self):
        c = ScenarioConfig(
            strategy="policy",
            policy_preset="capacity_proportional",
            weight_scaling="max_normalized",
        )
        (name,) = [n for n, _ in c.strategy_specs()]
        assert name == "policy-capacity_proportional-max_normalized"
