"""Tests for sweep orchestration, analytic comparison, and the CLI surface."""

import hashlib
import random
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

import vodsim.cli
import vodsim.engine
import vodsim.traffic
from vodsim.cli import compare_analytic, main, run_scenario, run_sweep
from vodsim.config import ScenarioConfig, parse_config
from vodsim.errors import ConfigurationError, InternalConsistencyError
from vodsim.metrics import to_csv

SMALL = """
num_clusters = 2
min_rate = 1.0
max_rate = 2.0
per_stream_bandwidth = 1.0
num_partitions = 2
ports_per_partition = 2
min_hold = 1
max_hold = 2
horizon = 50
replications = 2
seed = 5
"""


# Reference scenario through the paths the default sweep leaves out: the
# capacity-proportional preset, max-normalized gates, interactive streams,
# per-cluster points.
GOLDEN_VARIANT = """
policy_preset = capacity_proportional
weight_scaling = max_normalized
interactive_rate = 0.05
sweep_mode = per_cluster
replications = 2
"""
GOLDEN_VARIANT_SHA256 = "abb6e5edd94ccd9037120ec83086c877eca35053fbd83d27c17c65b828426acf"

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_config(**overrides):
    return replace(parse_config(SMALL), **overrides)


class TestRunSweep:
    def test_cardinality_points_times_strategies(self):
        points = run_sweep(small_config())
        assert len(points) == 4  # 2 rates x 2 strategies

    def test_single_strategy_cardinality(self):
        points = run_sweep(small_config(strategy="uncontrolled"))
        assert len(points) == 2

    def test_deterministic_csv(self):
        a = to_csv(run_sweep(small_config()))
        b = to_csv(run_sweep(small_config()))
        assert a == b

    def test_replication_seeds_follow_contract(self):
        config = small_config(strategy="uncontrolled")
        points = run_sweep(config)
        for index, p in enumerate(sorted(points, key=lambda p: p.traffic_rate)):
            assert [m.seed for m in p.replications] == [
                config.seed + index * 10007 + r for r in range(config.replications)
            ]

    def test_strategies_see_matched_seeds(self):
        points = run_sweep(small_config())
        by_rate = {}
        for p in points:
            by_rate.setdefault(p.traffic_rate, []).append(
                tuple(m.seed for m in p.replications)
            )
        for seeds in by_rate.values():
            assert len(set(seeds)) == 1

    def test_offered_erlangs_scale_with_multiplier(self):
        points = run_sweep(small_config(strategy="uncontrolled"))
        ordered = sorted(points, key=lambda p: p.traffic_rate)
        assert ordered[1].offered_erlangs == pytest.approx(
             2.0 * ordered[0].offered_erlangs
        )

    def test_global_sweep_rejects_zero_min_rate(self):
        with pytest.raises(ConfigurationError, match="min_rate"):
            run_sweep(small_config(min_rate=0.0))

    def test_per_cluster_mode_reports_each_class(self):
        points = run_sweep(small_config(sweep_mode="per_cluster"))
        assert len(points) == 4
        rates = sorted({p.traffic_rate for p in points})
        assert rates == [1.0, 2.0]
        # fixed load: every row carries the same total offered erlangs
        assert len({p.offered_erlangs for p in points}) == 1
        for p in points:
            for m in p.replications:
                assert len(m.per_class) == 1

    def test_per_cluster_points_are_classes_of_the_base_runs(self):
        config = small_config(strategy="both", sweep_mode="per_cluster")
        base = {p.strategy: p.replications for p in run_scenario(config)}
        class_of = {c.traffic_rate: k for k, c in enumerate(config.workload().clusters)}
        points = run_sweep(config)
        assert len(points) == 4
        for p in points:
            for m, whole in zip(p.replications, base[p.strategy], strict=True):
                counts = whole.per_class[class_of[p.traffic_rate]]
                assert (m.offered, m.admitted, m.policed, m.blocked) == counts
                assert m.per_class == (counts,)
                assert m.seed == whole.seed

    def test_conservation_in_every_replication(self):
        for p in run_sweep(small_config()):
            for m in p.replications:
                assert m.offered == m.admitted + m.policed + m.blocked

    def test_max_normalized_policy_admits_like_uncontrolled(self):
        # equal preset weights, max-normalised, make every gate 1.0
        policy = run_sweep(
            small_config(
                strategy="policy",
                policy_preset="capacity_proportional",
                weight_scaling="max_normalized",
            )
        )
        uncontrolled = run_sweep(small_config(strategy="uncontrolled"))
        assert len(policy) == len(uncontrolled) == 2
        for p, u in zip(policy, uncontrolled, strict=True):
            assert p.traffic_rate == u.traffic_rate
            assert p.replications == u.replications
            assert all(m.policed == 0 for m in p.replications)

    def test_golden_variant_digest(self, tmp_path):
        cfg = tmp_path / "variant.cfg"
        cfg.write_text(GOLDEN_VARIANT)
        out = tmp_path / "variant.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_VARIANT_SHA256


class TestRunScenario:
    def test_one_point_per_strategy(self):
        points = run_scenario(small_config())
        assert [p.strategy for p in points] == ["uncontrolled", "policy-uniform-literal"]

    def test_deterministic(self):
        assert to_csv(run_scenario(small_config())) == to_csv(
            run_scenario(small_config())
        )


class TestSharedStream:
    """Each replication's arrival stream is built once, for every strategy."""

    @pytest.fixture
    def stream_seeds(self, monkeypatch):
        seeds = []
        build = vodsim.traffic.merged_arrival_stream

        def counted(spec, horizon):
            seeds.append(spec.seed)
            return build(spec, horizon)

        for module in (vodsim.cli, vodsim.engine):
            monkeypatch.setattr(module, "merged_arrival_stream", counted)
        return seeds

    def test_global_sweep_builds_one_per_point_and_replication(self, stream_seeds):
        config = small_config(strategy="both")
        run_sweep(config)
        assert len(stream_seeds) == config.num_clusters * config.replications
        assert len(set(stream_seeds)) == len(stream_seeds)

    def test_per_cluster_sweep_builds_one_per_replication(self, stream_seeds):
        # the load is fixed, so the sweep has one load point
        config = small_config(strategy="both", sweep_mode="per_cluster")
        run_sweep(config)
        assert len(stream_seeds) == config.replications
        assert len(set(stream_seeds)) == len(stream_seeds)

    def test_scenario_builds_one_per_replication(self, stream_seeds):
        config = small_config(strategy="both")
        run_scenario(config)
        assert stream_seeds == [config.seed + r for r in range(config.replications)]


class TestCompareAnalytic:
    def test_two_erlang_two_port_agreement(self):
        config = ScenarioConfig(
            num_clusters=1,
            min_rate=2.0,
            max_rate=2.0,
            per_stream_bandwidth=1.0,
            num_partitions=1,
            ports_per_partition=2,
            min_hold=1.0,
            max_hold=1.0,
            horizon=5_000.0,
            warmup=500.0,
            replications=5,
            seed=1,
        )
        report = compare_analytic(config, tolerance=0.02)
        assert report.offered_erlangs == pytest.approx(2.0)
        assert report.analytic_blocking == pytest.approx(0.4, abs=1e-12)
        assert report.absolute_difference < 0.02
        assert report.passed

    def test_zero_traffic_reports_zero_for_both(self):
        config = ScenarioConfig(
            num_clusters=1,
            min_rate=0.0,
            max_rate=0.0,
            num_partitions=1,
            ports_per_partition=3,
            horizon=100.0,
            replications=2,
        )
        report = compare_analytic(config)
        assert report.analytic_blocking == 0.0
        assert report.simulated_blocking == 0.0
        assert report.passed

    def test_some_empty_replications_are_a_configuration_error(self, tmp_path, capsys):
        # 1 request per 50 s: 12 of 20 replications offer nothing, and
        # reading their undefined blocking as 0 gave 0 against Erlang-B 1
        text = (
            "num_clusters = 1\nmin_rate = 0.02\nmax_rate = 0.02\n"
            "per_stream_bandwidth = 1\nnum_partitions = 1\nports_per_partition = 0\n"
            "min_hold = 1\nmax_hold = 1\nhorizon = 50\nwarmup = 0\nreplications = 20\n"
        )
        with pytest.raises(ConfigurationError, match="12 of 20 replications offered no"):
            compare_analytic(parse_config(text))
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text(text)
        assert main(["compare-analytic", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "12 of 20 replications" in err

    def test_zero_capacity_blocks_everything_in_both(self):
        config = ScenarioConfig(
            num_clusters=1,
            min_rate=2.0,
            max_rate=2.0,
            per_stream_bandwidth=1.0,
            num_partitions=1,
            ports_per_partition=0,
            min_hold=1.0,
            max_hold=1.0,
            horizon=200.0,
            replications=2,
        )
        report = compare_analytic(config)
        assert report.analytic_blocking == 1.0
        assert report.simulated_blocking == 1.0

    def test_multi_partition_compares_against_all_ports(self):
        # two partitions of one port pool into one Erlang-B system on 2 ports
        config = ScenarioConfig(
            num_clusters=1,
            min_rate=2.0,
            max_rate=2.0,
            per_stream_bandwidth=1.0,
            num_partitions=2,
            ports_per_partition=1,
            min_hold=1.0,
            max_hold=1.0,
            horizon=5_000.0,
            warmup=500.0,
            replications=10,
            seed=1,
        )
        report = compare_analytic(config)
        assert report.capacity == 2
        assert report.analytic_blocking == pytest.approx(0.4, abs=1e-12)
        assert report.passed


class TestMainCli:
    def write_config(self, tmp_path, text=SMALL):
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        return str(path)

    def test_run_succeeds(self, tmp_path, capsys):
        code = main(["run", "--config", self.write_config(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "uncontrolled" in out
        assert "policy-uniform-literal" in out

    def test_run_strategy_override(self, tmp_path, capsys):
        code = main(
            ["run", "--config", self.write_config(tmp_path), "--strategy", "uncontrolled"]
        )
        assert code == 0
        assert "policy" not in capsys.readouterr().out

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", self.write_config(tmp_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("traffic_rate_mbps,")
        assert len(lines) == 5  # header + 2 rates x 2 strategies

    def test_sweep_byte_identical_across_invocations(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_compare_analytic_reports_pass(self, tmp_path, capsys):
        text = (
            "num_clusters = 1\nmin_rate = 2.0\nmax_rate = 2.0\n"
            "per_stream_bandwidth = 1.0\nnum_partitions = 1\n"
            "ports_per_partition = 2\nmin_hold = 1\nmax_hold = 1\n"
            "horizon = 2000\nreplications = 3\nseed = 2\n"
        )
        code = main(
            ["compare-analytic", "--config", self.write_config(tmp_path, text),
             "--tolerance", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "analytic blocking:   0.400000" in out
        assert "PASS" in out

    def test_config_error_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", self.write_config(tmp_path, "mystery = 1\n")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_non_utf8_config_exits_2_without_traceback(self, tmp_path, command):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_bytes(b"seed = 4\xff\n")
        result = subprocess.run(
            [sys.executable, "-m", "vodsim", command, "--config", str(cfg),
             "--out", str(tmp_path / "x.csv")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2, result.stderr
        assert "configuration error: cannot read config" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("target", ["missing-parent", "directory"])
    def test_unwritable_out_exits_2_without_traceback(self, tmp_path, command, target):
        out = tmp_path / "missing" / "x.csv" if target == "missing-parent" else tmp_path
        result = subprocess.run(
            [sys.executable, "-m", "vodsim", command, "--config",
             self.write_config(tmp_path), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2, result.stderr
        assert "configuration error: cannot write CSV" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("target", ["missing-parent", "directory"])
    def test_unwritable_out_refused_before_any_run(
        self, tmp_path, capsys, monkeypatch, command, target
    ):
        def never(config):
            raise AssertionError("simulated before checking --out")

        monkeypatch.setattr(vodsim.cli, "run_sweep", never)
        monkeypatch.setattr(vodsim.cli, "run_scenario", never)
        out = tmp_path / "missing" / "x.csv" if target == "missing-parent" else tmp_path
        code = main([command, "--config", self.write_config(tmp_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "configuration error: cannot write CSV" in captured.err

    @pytest.mark.parametrize(
        "text",
        [
            "per_stream_bandwidth = inf\n",
            "max_rate = inf\n",
            "min_hold = inf\nmax_hold = inf\n",
            "seed = 18446744073709551615\nreplications = 2\n",
            "per_stream_bandwidth = 1e-310\n",
            "max_rate = 1e308\n",
            "interactive_rate = 1e308\n",
            "horizon = 1e308\n",
            "min_rate = 1e-310\nmax_rate = 1\n",
            "num_partitions = 18446744073709551615\n",
            "num_clusters = 1000000000\nmin_rate = 0\nmax_rate = 0\nstrategy = uncontrolled\n",
        ],
        ids=[
            "bandwidth-inf",
            "max-rate-inf",
            "holds-inf",
            "seed-past-2-64",
            "bandwidth-tiny",
            "max-rate-huge",
            "interactive-rate-huge",
            "horizon-huge",
            "min-rate-tiny",
            "partitions-past-2-64",
            "idle-clusters-past-cap",
        ],
    )
    def test_unusable_values_exit_2_without_traceback(self, tmp_path, text):
        result = subprocess.run(
            [sys.executable, "-m", "vodsim", "run", "--config",
             self.write_config(tmp_path, text)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2, result.stderr
        assert "configuration error" in result.stderr
        assert "Traceback" not in result.stderr

    def test_compare_analytic_refuses_a_huge_port_total(self, tmp_path):
        # Erlang-B loops once per port, so 10**12 ports would not finish
        text = "num_clusters = 1\nnum_partitions = 1\nports_per_partition = 1000000000000\n"
        result = subprocess.run(
            [sys.executable, "-m", "vodsim", "compare-analytic", "--config",
             self.write_config(tmp_path, text)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert "ports_per_partition" in result.stderr
        assert "Traceback" not in result.stderr

    def test_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def boom(config):
            raise InternalConsistencyError("induced for the exit-code contract")

        monkeypatch.setattr(vodsim.cli, "run_scenario", boom)
        code = main(["run", "--config", self.write_config(tmp_path)])
        assert code == 3
        assert "internal consistency error" in capsys.readouterr().err


EXTREME_BASE = {"num_clusters": "2", "horizon": "2", "replications": "2"}
EXTREME_VALUES = ["0", "-1", "1e-310", "1e308", "inf", "nan", "18446744073709551615", "x"]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("value", EXTREME_VALUES)
@pytest.mark.parametrize("key", [f.name for f in fields(ScenarioConfig)])
def test_extreme_value_exits_0_or_2(tmp_path, key, value, command):
    """Any single key set to an extreme value runs or is a configuration error."""
    values = {**EXTREME_BASE, key: value}
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    argv = [command, "--config", str(cfg)]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "extreme.csv")]
    assert main(argv) in (0, 2)


@pytest.mark.parametrize(
    "command, config, digest",
    [
        pytest.param(
            "sweep",
            CONFIGS / "erlang_check.cfg",
            "84826816df54bfc3f5e6e02e7a1d11b788048ea2702ebae38e0a12719e530b72",
            id="erlang-check-sweep",
        ),
        pytest.param(
            "sweep",
            "sweep_mode = per_cluster\n",
            "ea9c913d0afc9dc8bc2262f0bd6a439893cba24b3dc7ecedc0c483fc3978802c",
            id="per-cluster-sweep",
        ),
        pytest.param(
            "run",
            CONFIGS / "reference.cfg",
            "37a1a4ad95b76c566d604394182f07fb7e5c016fc09c66229cb1d62a14763034",
            id="reference-run",
        ),
        pytest.param(
            "sweep",
            "strategy = policy\npolicy_preset = capacity_proportional\n"
            "weight_scaling = max_normalized\n",
            "95e3723fb18a595bde7f6d2276edd232857e6f387f7b55fd25ff75645b7ba9bb",
            id="capacity-max-normalized-sweep",
        ),
        pytest.param(
            "sweep",
            "min_rate = 0\nsweep_mode = per_cluster\nreplications = 4\n",
            "c3c5c080929c7d986dabeab6b06a41956d8da7c34825bdf2dfd78ae169981ccb",
            id="zero-rate-class-per-cluster-sweep",
        ),
    ],
)
def test_pinned_output_digest(tmp_path, command, config, digest):
    """CSV outputs that no acceptance criterion pins: the 2-port sweep that
    the heap loop finishes, the per-cluster sweep mode, ``vodsim run --out``,
    the reference sweep's capacity/max-normalized policy variant, and a
    per-cluster sweep whose class 0 has rate 0."""
    if isinstance(config, str):
        (tmp_path / "scenario.cfg").write_text(config)
        config = tmp_path / "scenario.cfg"
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


FUZZ_KEYS = [
    "min_rate",
    "max_rate",
    "per_stream_bandwidth",
    "min_hold",
    "max_hold",
    "horizon",
    "warmup",
    "seed",
    "interactive_rate",
]
FUZZ_EDGES = ["0", "-1", "5e-324", "1e308", "nan", "inf"]
# a request rate whose sum overflows, and holds that overflow when drawn
FUZZ_FIXED = [
    "num_clusters = 2\ninteractive_rate = 1e308\nhorizon = 5e-324\nreplications = 1\n",
    "max_hold = 1e308\nhorizon = 10\nreplications = 1\n",
]


EDGE_CASES = 96

IN_RANGE_BASE = {
    "replications": "1",
    "num_clusters": "2",
    "min_rate": "1",
    "max_rate": "4",
    "per_stream_bandwidth": "1",
    "horizon": "20",
    "max_hold": "5",
    "num_partitions": "1",
    "ports_per_partition": "3",
}
# A min_rate of 0 gives class 0 rate 0, which a per-cluster sweep runs and a
# global sweep refuses.
IN_RANGE_VALUES = {
    "replications": ["1", "2", "3"],
    "num_clusters": ["1", "2", "3", "5"],
    "min_rate": ["0", "0.5", "1", "2"],
    "max_rate": ["2", "4", "8"],
    "per_stream_bandwidth": ["0.5", "1", "2"],
    "num_partitions": ["1", "2", "3"],
    "ports_per_partition": ["0", "1", "3", "70"],
    "min_hold": ["0.5", "1", "2"],
    "max_hold": ["2", "5", "10"],
    "horizon": ["5", "20", "50"],
    "warmup": ["0", "1", "4"],
    "seed": ["0", "7", str(2**63)],
    "strategy": ["uncontrolled", "policy", "both"],
    "policy_preset": ["uniform", "capacity_proportional"],
    "weight_scaling": ["literal", "max_normalized"],
    "interactive_rate": ["0", "0.5"],
    "sweep_mode": ["global", "per_cluster"],
}


def in_range_config(case):
    """The in-range base config with three to eight keys redrawn from their
    sets, drawn from ``random.Random(10_000 + case)``. 70 ports a partition
    come as 2 x 70 ports, past ``_ROUNDS_MIN_PORTS``, with 0.01 Mb/s
    sessions, hundreds of erlangs that fill them, so the rounds run."""
    rng = random.Random(10_000 + case)
    values = dict(IN_RANGE_BASE)
    for key in rng.sample(sorted(IN_RANGE_VALUES), rng.randint(3, 8)):
        values[key] = rng.choice(IN_RANGE_VALUES[key])
    if values["ports_per_partition"] == "70":
        values.update(num_partitions="2", per_stream_bandwidth="0.01")
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def fuzz_config(case):
    """The fixed configs, then one to three of the fuzzed keys set to edge
    values, drawn from ``random.Random(case)`` on one or two clusters; from
    case ``EDGE_CASES`` on, ``in_range_config(case - EDGE_CASES)``."""
    if case < len(FUZZ_FIXED):
        return FUZZ_FIXED[case]
    if case >= EDGE_CASES:
        return in_range_config(case - EDGE_CASES)
    rng = random.Random(case)
    values = {"num_clusters": rng.choice("12"), "replications": "1", "num_partitions": "1"}
    for key in rng.sample(FUZZ_KEYS, rng.randint(1, 3)):
        values[key] = rng.choice(FUZZ_EDGES)
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def run_config(tmp_path, capsys, text, command):
    """``main``'s exit code and stderr for ``command`` on a config of ``text``."""
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg)]
    if command != "compare-analytic":
        argv += ["--out", str(tmp_path / "fuzz.csv")]
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "compare-analytic"])
@pytest.mark.parametrize("case", range(2 * EDGE_CASES))
def test_fuzzed_config_exits_0_or_2(tmp_path, capsys, case, command):
    """Every case runs, or is a configuration error, without an exception
    or a warning (which the test settings make an error)."""
    code, err = run_config(tmp_path, capsys, fuzz_config(case), command)
    assert code == 2 if case < len(FUZZ_FIXED) else code in (0, 2)
    assert (code == 2) == err.startswith("configuration error: "), err


def test_in_range_configs_mostly_run_through_both_admission_paths(
    tmp_path, capsys, monkeypatch
):
    calls = Counter()
    for name in ("_admission_rounds", "_pooled_admission"):
        def counted(*args, admission=getattr(vodsim.engine, name), name=name):
            calls[name] += 1
            return admission(*args)

        monkeypatch.setattr(vodsim.engine, name, counted)
    # the in-range cases of test_fuzzed_config_exits_0_or_2, counted
    codes = Counter(
        run_config(tmp_path, capsys, in_range_config(case), command)[0]
        for case in range(EDGE_CASES)
        for command in ("run", "sweep", "compare-analytic")
    )
    assert set(codes) <= {0, 2} and codes[0] >= 250, codes
    assert calls["_admission_rounds"] and calls["_pooled_admission"], calls
