"""Spans around the program's public functions, installed from outside.

The tracer replaces module attributes in the running process with timing
wrappers and puts the originals back afterwards; no file of the program is
changed. A function is patched under every name any loaded ``vodsim``
module binds it to, since ``from .engine import run`` makes a second
binding that patching ``vodsim.engine.run`` alone would miss. A boundary
that no longer exists is listed in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Boundaries to trace: (span name, module, attribute path).
BOUNDARIES = (
    ("cli.run_sweep", "vodsim.cli", "run_sweep"),
    ("engine.run", "vodsim.engine", "run"),
    ("traffic.merged_arrival_stream", "vodsim.traffic", "merged_arrival_stream"),
    ("metrics.from_replications", "vodsim.metrics", "SweepPoint.from_replications"),
    ("metrics.to_csv", "vodsim.metrics", "to_csv"),
    ("config.load_config", "vodsim.config", "load_config"),
    ("traffic.build_workload", "vodsim.traffic", "build_workload"),
    ("analytic.erlang_b", "vodsim.analytic", "erlang_b"),
)


def patch_bindings(original, replacement) -> list[tuple[object, str, object]]:
    """Bind replacement in place of original under every name a loaded
    vodsim module binds it to; return the bindings for ``restore``."""
    patched = []
    for module_key, module in list(sys.modules.items()):
        if module is None or not module_key.startswith("vodsim"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                patched.append((module, key, original))
                setattr(module, key, replacement)
    return patched


def restore(patched: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.info = None


class Tracer:
    """Records spans in memory; ``info`` hooks summarize a call's arguments
    and result right after it returns, outside the span's interval."""

    def __init__(self, info_hooks=None):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._info_hooks = info_hooks or {}
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        record = Span(name, parent, perf_counter())
        self.spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record.end = perf_counter()
            self._stack.pop()
        hook = self._info_hooks.get(name)
        if hook is not None:
            record.info = hook(args, kwargs, result)
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        self.absent = []
        for name, module_name, path in BOUNDARIES:
            owner = sys.modules.get(module_name)
            attr = path
            if owner is not None and "." in path:
                owner_name, attr = path.split(".", 1)
                owner = getattr(owner, owner_name, None)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(name)
                continue
            if isinstance(owner, type):
                # a classmethod: replace it on the class with the bound original
                self._patched.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, staticmethod(self._wrap(name, getattr(owner, attr))))
                continue
            original = getattr(owner, attr)
            self._patched += patch_bindings(original, self._wrap(name, original))

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total time and self time (total minus the
        time covered by direct children)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += s.end - s.start
            entry["self_s"] += s.end - s.start - child_time[i]
        return out

    def dump(self) -> list[list]:
        return [[s.name, s.parent, s.start, s.end] for s in self.spans]
