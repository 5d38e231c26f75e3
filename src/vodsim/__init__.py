"""Blocking analysis for a partitioned video-on-demand server.

Analytic Erlang-B style formulas, a seeded multirate Poisson workload
generator, an event-driven loss-system simulator with uncontrolled or
per-class gated admission, and a sweep/report CLI. Each name lives in its
module (``vodsim.engine.run``); the root holds only ``__version__``.
"""

__version__ = "0.1.0"
