"""Blocking analysis for a partitioned video-on-demand server.

Analytic Erlang-B style formulas, a seeded multirate Poisson workload
generator, an event-driven loss-system simulator with uncontrolled or
per-class gated admission, and a sweep/report CLI.
"""

from .analytic import (
    chain_blocking,
    erlang_b,
    erlang_b_direct,
    free_port_selection_prob,
    policy_admission_prob,
    pooled_blocking,
)
from .config import ScenarioConfig, load_config, parse_config
from .engine import StrategySpec, run
from .errors import ConfigurationError, InternalConsistencyError, UndefinedMetricError
from .metrics import (
    ClassCounts,
    RunMetrics,
    SweepPoint,
    aggregate,
    blocking_probability,
    policed_fraction,
    to_csv,
)
from .traffic import (
    ArrivalStream,
    ClusterSpec,
    WorkloadSpec,
    build_workload,
    merged_arrival_stream,
    scale_workload,
)
from .cli import AnalyticComparison, compare_analytic, run_scenario, run_sweep

__version__ = "0.1.0"
