"""Tests for the key=value config format and scenario defaults."""

import math
from dataclasses import fields, replace
from pathlib import Path

import pytest

import vodsim.config
from vodsim.cli import compare_analytic, main
from vodsim.config import ScenarioConfig, load_config, parse_config
from vodsim.errors import ConfigurationError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def policy_gates(**overrides):
    """The gates of the policy strategy of ``ScenarioConfig(**overrides)``."""
    ((_, gates),) = ScenarioConfig(strategy="policy", **overrides).strategy_specs()
    return gates


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

    @pytest.mark.parametrize("key", sorted(vodsim.config._CHOICES))
    def test_bad_choice_rejected(self, key):
        with pytest.raises(ConfigurationError, match=rf"{key} must be one of.*line 1"):
            parse_config(f"{key} = sometimes\n")

    def test_every_str_key_has_its_choices(self):
        # a new str key without choices would take any value
        str_keys = {key for key, kind in vodsim.config._PARSERS.items() if kind is str}
        assert str_keys == set(vodsim.config._CHOICES)

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

    @pytest.mark.parametrize(
        "text, bound",
        [
            # the rates' sum overflows, though a tiny horizon keeps the
            # expected arrivals below the arrival bound
            (
                "num_clusters = 2\ninteractive_rate = 1e308\nhorizon = 5e-324",
                "total request rate",
            ),
            ("max_hold = 1e308\nhorizon = 10", "offered load"),
            ("min_hold = 1e308\nmax_hold = 1e308\ninteractive_rate = 1", "offered load"),
            # no traffic, so only an end of a drawn hold could overflow
            ("min_rate = 0\nmax_rate = 0\nmax_hold = 1e307", "session end"),
            (
                "min_rate = 1e200\nmax_rate = 1e300\n"
                "per_stream_bandwidth = 1e308\nhorizon = 1e-90",
                "top traffic rate",
            ),
        ],
        ids=["rate-sum", "hold", "both-holds", "idle-hold", "scaled-traffic-rate"],
    )
    def test_heaviest_run_stays_below_the_largest_double(self, text, bound):
        with pytest.raises(ConfigurationError, match=f"heaviest run's {bound}"):
            parse_config(text)

    def test_huge_finite_values_within_the_bounds_are_accepted(self):
        assert parse_config("min_rate = 0\nmax_rate = 0\nmax_hold = 1e305").max_hold == 1e305
        assert parse_config("max_hold = 1e300").max_hold == 1e300

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

    def test_unknown_scaling_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "softmax.cfg"
        cfg.write_text("weight_scaling = softmax\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "weight_scaling must be one of" in capsys.readouterr().err


class TestValueTypes:
    def test_each_key_parses_as_its_field_type(self, tmp_path):
        # types, not values: 30.0 == 30, so comparing configs would hide an
        # int key parsed as a float
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text((CONFIGS / "reference.cfg").read_text() + "warmup = 50\n")
        parsed = load_config(cfg)
        for f in fields(ScenarioConfig):
            expected = float if f.name == "warmup" else type(f.default)
            assert type(getattr(parsed, f.name)) is expected, f.name

    @pytest.mark.parametrize("text", ["num_clusters = 2.0", "seed = 1.5"])
    def test_float_for_an_int_key_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(text + "\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "bad value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_clusters", 2.0),
            ("replications", 1.5),
            ("ports_per_partition", True),
            ("horizon", "5"),
            ("min_rate", False),
            ("warmup", "1"),
            ("strategy", 1),
            ("seed", None),
        ],
    )
    def test_wrong_type_from_python_is_a_configuration_error(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be of type"):
            ScenarioConfig(**{"horizon": 5.0, field: value})

    def test_an_int_stands_for_a_float(self):
        config = ScenarioConfig(horizon=5, warmup=1, min_rate=1, threshold=0)
        assert config == ScenarioConfig(horizon=5.0, warmup=1.0, min_rate=1.0, threshold=0.0)
        assert ScenarioConfig(horizon=5).warmup == 0.5

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "num_clusters = 3\nseed = 7\n"
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(text.encode("utf-8-sig"))
        assert load_config(cfg) == parse_config(text)

    def test_byte_order_mark_then_non_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfseed = 4\xff\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "cannot read config" in capsys.readouterr().err


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
        # literal gates are the preset weights, 1/n for either preset
        for preset in ("uniform", "capacity_proportional"):
            for n in (1, 3, 4, 7, 30):
                gates = policy_gates(num_clusters=n, policy_preset=preset)
                assert gates == (1.0 / n,) * n

    def test_max_normalized_gates_are_one(self):
        for preset in ("uniform", "capacity_proportional"):
            gates = policy_gates(
                num_clusters=30, policy_preset=preset, weight_scaling="max_normalized"
            )
            assert gates == (1.0,) * 30

    def test_capacity_proportional_equals_uniform_for_equal_ports(self):
        for scaling in ("literal", "max_normalized"):
            assert policy_gates(
                policy_preset="capacity_proportional", weight_scaling=scaling
            ) == policy_gates(weight_scaling=scaling)

    def test_capacity_proportional_needs_a_port(self):
        c = ScenarioConfig(ports_per_partition=0, policy_preset="capacity_proportional")
        with pytest.raises(ConfigurationError, match="at least one port"):
            c.strategy_specs()
        assert len(replace(c, strategy="uncontrolled").strategy_specs()) == 1

    def test_weights_sum_to_one(self):
        for preset in ("uniform", "capacity_proportional"):
            gates = policy_gates(num_clusters=30, policy_preset=preset)
            assert math.fsum(gates) == pytest.approx(1.0, abs=1e-9)

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


class TestShippedConfigs:
    def test_reference_cfg_is_the_empty_config(self):
        assert load_config(CONFIGS / "reference.cfg") == parse_config("")

    def test_every_config_loads(self):
        paths = sorted(CONFIGS.glob("*.cfg"))
        assert len(paths) >= 4
        for path in paths:
            load_config(path)

    def test_erlang_check_passes_compare_analytic(self):
        # the README's compare-analytic command
        assert compare_analytic(load_config(CONFIGS / "erlang_check.cfg"), 0.02).passed
