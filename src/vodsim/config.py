"""Scenario configuration: defaults, the key=value file format, presets.

The default configuration is the reference scenario: 30 client clusters
offering 1.0 to 15.5 Mb/s, 30 server partitions, port access times of 1 to
200 s, and a 500 s simulation horizon. A config file overrides individual
keys; everything unspecified keeps its default.

Format: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored, unknown keys rejected with the offending line number.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

from .engine import POLICY, UNCONTROLLED, UNCONTROLLED_STRATEGY, StrategySpec
from .errors import ConfigurationError
from .traffic import SEED_LIMIT, WorkloadSpec, build_workload

BOTH = "both"
STRATEGY_CHOICES = (UNCONTROLLED, POLICY, BOTH)
PRESET_UNIFORM = "uniform"
PRESET_CAPACITY = "capacity_proportional"
PRESET_CHOICES = (PRESET_UNIFORM, PRESET_CAPACITY)
SCALING_CHOICES = ("literal", "max_normalized")
SWEEP_GLOBAL = "global"
SWEEP_PER_CLUSTER = "per_cluster"
SWEEP_CHOICES = (SWEEP_GLOBAL, SWEEP_PER_CLUSTER)

# Spreads replication seeds of different sweep points apart: replication r
# of point p runs with seed + p * POINT_SEED_STRIDE + r. The offset is part
# of the reproducibility contract, so treat it as frozen.
POINT_SEED_STRIDE = 10007

# Larger configs fail fast: a run peaks at about 32 bytes per arrival
# (tracemalloc, one uncontrolled run of 192,000 arrivals at multiplier 15.5;
# a policy run adds its gate uniforms, then a copy of the arrivals that pass:
# 33 at the reference gates of 1/30, 32 when every gate is 1.0 (none drawn)),
# and the heaviest run of the reference scenario expects about 19,000. The
# workload builds one spec per cluster (MAX_COUNT caps clusters and
# partitions alike), and compare-analytic's Erlang-B loops once per port.
MAX_COUNT = 10**6
MAX_RUN_ARRIVALS = 10**8
MAX_PORTS = 10**7


@dataclass(frozen=True)
class ScenarioConfig:
    """One complete scenario; defaults are the reference parameters.

    warmup defaults to 10% of the horizon when not set explicitly.
    threshold only annotates reports (pass/fail per sweep point); it never
    changes simulation behavior.
    """

    num_clusters: int = 30
    min_rate: float = 1.0
    max_rate: float = 15.5
    per_stream_bandwidth: float = 100.0
    num_partitions: int = 30
    ports_per_partition: int = 10
    min_hold: float = 1.0
    max_hold: float = 200.0
    horizon: float = 500.0
    warmup: float | None = None
    replications: int = 20
    seed: int = 42
    strategy: str = BOTH
    policy_preset: str = PRESET_UNIFORM
    weight_scaling: str = "literal"
    threshold: float = 0.05
    interactive_rate: float = 0.0
    sweep_mode: str = SWEEP_GLOBAL

    def __post_init__(self) -> None:
        # each field holds its type: an int may stand for a float, a bool for
        # nothing, and None only for warmup
        for name, kind in _PARSERS.items():
            value = getattr(self, name)
            if value is None and name == "warmup":
                continue
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ConfigurationError(f"{name} must be of type {kind.__name__}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.warmup is None:
            object.__setattr__(self, "warmup", 0.1 * self.horizon)
        last_seed = (
            self.seed + (self.num_clusters - 1) * POINT_SEED_STRIDE + self.replications - 1
        )
        checks = [
            (
                1 <= self.num_clusters <= MAX_COUNT,
                f"num_clusters must lie in 1..{MAX_COUNT}",
            ),
            (
                1 <= self.num_partitions <= MAX_COUNT,
                f"num_partitions must lie in 1..{MAX_COUNT}",
            ),
            (self.ports_per_partition >= 0, "ports_per_partition must be >= 0"),
            (
                self.num_partitions * self.ports_per_partition <= MAX_PORTS,
                f"num_partitions * ports_per_partition must be at most {MAX_PORTS:.0e}",
            ),
            (self.replications >= 1, "replications must be >= 1"),
            (
                0 <= self.min_rate <= self.max_rate,
                f"rates must satisfy 0 <= min_rate <= max_rate, "
                f"got min_rate={self.min_rate} max_rate={self.max_rate}",
            ),
            (self.per_stream_bandwidth > 0, "per_stream_bandwidth must be > 0"),
            (
                0 < self.min_hold <= self.max_hold,
                f"hold times must satisfy 0 < min_hold <= max_hold, "
                f"got min_hold={self.min_hold} max_hold={self.max_hold}",
            ),
            (self.horizon > 0, "horizon must be > 0"),
            (
                0 <= self.warmup < self.horizon,
                f"warmup must lie in [0, horizon), got warmup={self.warmup} "
                f"horizon={self.horizon}",
            ),
            (0 <= self.seed < SEED_LIMIT, "seed must be an unsigned 64-bit integer"),
            (
                last_seed < SEED_LIMIT,
                f"the last replication seed, seed + (num_clusters - 1) * "
                f"{POINT_SEED_STRIDE} + replications - 1 = {last_seed}, must be "
                f"below 2**64",
            ),
            (
                self.strategy in STRATEGY_CHOICES,
                f"strategy must be one of {STRATEGY_CHOICES}",
            ),
            (
                self.policy_preset in PRESET_CHOICES,
                f"policy_preset must be one of {PRESET_CHOICES}",
            ),
            (
                self.weight_scaling in SCALING_CHOICES,
                f"weight_scaling must be one of {SCALING_CHOICES}",
            ),
            (0 <= self.threshold <= 1, "threshold must be a probability"),
            (self.interactive_rate >= 0, "interactive_rate must be >= 0"),
            (
                self.sweep_mode in SWEEP_CHOICES,
                f"sweep_mode must be one of {SWEEP_CHOICES}",
            ),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigurationError(message)
        # closed-form bounds on the heaviest run, the top global sweep point;
        # half the largest double covers the rounding of the sums they bound,
        # and a drawn standard exponential is below 745 (-log of 5e-324)
        top = max(1.0, self.max_rate / self.min_rate) if self.min_rate > 0 else 1.0
        rate = (self.min_rate + self.max_rate) / 2 / self.per_stream_bandwidth
        rate = top * self.num_clusters * (rate + self.interactive_rate)
        rate_keys = "num_clusters, min_rate, max_rate, per_stream_bandwidth, interactive_rate"
        half = sys.float_info.max / 2
        for what, bound, limit, keys in [
            ("top traffic rate", top * self.max_rate, half, "min_rate, max_rate"),
            ("total request rate", rate, half, rate_keys),
            ("offered load", rate * self.max_hold, half, f"{rate_keys}, max_hold"),
            ("session end", self.horizon + 745 * self.max_hold, half, "horizon, max_hold"),
            ("arrivals", self.horizon * rate, MAX_RUN_ARRIVALS, f"horizon, {rate_keys}"),
        ]:
            if not bound <= limit:
                raise ConfigurationError(
                    f"the heaviest run's {what} can reach {bound:.3g} (from {keys}), "
                    f"more than {limit:.3g}"
                )

    def capacities(self) -> list[int]:
        """Equal ports per partition, as a per-partition capacity list."""
        return [self.ports_per_partition] * self.num_partitions

    def workload(self) -> WorkloadSpec:
        return build_workload(
            num_clusters=self.num_clusters,
            min_rate=self.min_rate,
            max_rate=self.max_rate,
            per_stream_bandwidth=self.per_stream_bandwidth,
            min_hold=self.min_hold,
            max_hold=self.max_hold,
            seed=self.seed,
            interactive_rate=self.interactive_rate,
        )

    def strategy_specs(self) -> list[tuple[str, StrategySpec]]:
        """Named strategies this scenario runs, uncontrolled first.

        Both presets weight each of the n classes 1/n: capacity_proportional
        weights a class by the capacity of a partition, and every partition
        has ports_per_partition ports, though it needs at least one. Literal
        gates are the weights; max_normalized divides them by the largest,
        so every gate is 1.0 and the policy admits like uncontrolled.
        """
        policy_name = f"policy-{self.policy_preset}-{self.weight_scaling}"
        specs: list[tuple[str, StrategySpec]] = []
        if self.strategy in (UNCONTROLLED, BOTH):
            specs.append((UNCONTROLLED, UNCONTROLLED_STRATEGY))
        if self.strategy in (POLICY, BOTH):
            if self.policy_preset == PRESET_CAPACITY and self.ports_per_partition == 0:
                raise ConfigurationError(
                    "capacity_proportional weights need at least one port"
                )
            n = self.num_clusters
            gate = 1.0 / n if self.weight_scaling == "literal" else 1.0
            specs.append((policy_name, StrategySpec(gates=(gate,) * n)))
        return specs


# each key parses as its field's type; warmup, unset by default, as a float
_PARSERS = {
    name: float if kind == float | None else kind
    for name, kind in get_type_hints(ScenarioConfig).items()
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse key=value configuration text; unset keys take the defaults."""
    values: dict = {}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigurationError(
                f"line {lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in key_lines:
            raise ConfigurationError(
                f"line {lineno}: duplicate key {key!r} (first set at line {key_lines[key]})"
            )
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigurationError(
                f"line {lineno}: bad value for {key}: {value!r} ({exc})"
            ) from None
        key_lines[key] = lineno
    try:
        return ScenarioConfig(**values)
    except ConfigurationError as exc:
        involved = [
            f"{key} = {values[key]} (line {line})"
            for key, line in key_lines.items()
            if key in str(exc)
        ]
        detail = f" [{'; '.join(involved)}]" if involved else ""
        raise ConfigurationError(str(exc) + detail) from None


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)
