"""Span trees, self times and the span -> layer map of the traced run.

A traced session collects every span of its operations in memory:
the benchmark's own spans (``bench.*`` and the layer wrappers of
``worker.py``) and the spans the pipeline already emits (``parse``,
``preprocess``, ``cure`` and its phases, ``cache``, ``exec``).  All
of them come from one thread and nest properly, so a record's parent
is the nearest open record one level up.  A record's *self time* is
its duration minus the durations of its direct children; summing
self times by layer partitions the traced wall time exactly.

This module imports nothing from the program under test, so its
arithmetic is testable on hand-built records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

#: the benchmark's root span around one operation; its self time is
#: loop glue that no layer owns
OP_SPAN = "bench.op"
#: work done only because tracing is on (IR instruction counting);
#: excluded from both the layer sums and the traced wall
COUNT_SPAN = "bench.count"

#: per-layer time metrics (seconds per operation) in report order
TIME_LAYERS = (
    "cpp.preprocess_s", "frontend.parse_s",
    "core.constraints_s", "core.solve_s", "core.split_s",
    "core.instrument_s", "core.cure_self_s",
    "analysis.optimize_s", "analysis.lint_s",
    "cache.load_s", "cache.store_s", "bench.pristine_s",
    "interp.init_s", "interp.run_cured_s", "interp.run_raw_s",
    "interp.run_tree_s", "obs.collect_self_s",
    "faults.prepare_s", "faults.variant_s",
)

_BY_NAME = {
    "preprocess": "cpp.preprocess_s",
    "cpp.preprocess": "cpp.preprocess_s",
    "constraints": "core.constraints_s",
    "solve": "core.solve_s",
    "split": "core.split_s",
    "instrument": "core.instrument_s",
    "optimize": "analysis.optimize_s",
    "dataflow": "analysis.optimize_s",
    "analysis.lint": "analysis.lint_s",
    "bench.pristine": "bench.pristine_s",
    "interp.init": "interp.init_s",
    "interp.run": "interp.init_s",
    "obs.collect": "obs.collect_self_s",
    "faults.prepare": "faults.prepare_s",
    "faults.variant": "faults.variant_s",
    "workloads.generate": "workloads.generate_s",
}


@dataclass
class Span:
    """One finished span, with its place in the tree."""

    name: str
    start: float
    end: float
    depth: int
    attrs: dict = field(default_factory=dict)
    parent: Optional[int] = None      # index into the span list
    op: Optional[int] = None          # operation id of its root
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def to_json(self, index: int) -> dict:
        return {"id": index, "name": self.name,
                "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op,
                "attrs": {k: v for k, v in sorted(self.attrs.items())
                          if isinstance(v, (str, int, float, bool))}}


def build_tree(records: Iterable) -> list[Span]:
    """Turn tracer records (``name``, ``depth``, ``start``,
    ``duration``, ``attrs``) into spans in start order with parent
    links, child time and the operation id of their ``bench.op``
    root filled in."""
    spans = [Span(r.name, r.start, r.start + r.duration, r.depth,
                  dict(r.attrs)) for r in records]
    # a parent starts no later than its children and sits one level
    # up; at equal starts the shallower record comes first
    spans.sort(key=lambda s: (s.start, s.depth))
    stack: list[int] = []
    for i, s in enumerate(spans):
        while stack and spans[stack[-1]].depth >= s.depth:
            stack.pop()
        if stack:
            p = spans[stack[-1]]
            s.parent = stack[-1]
            p.child_time += s.duration
            s.op = p.op
        if s.name == OP_SPAN:
            s.op = s.attrs.get("op")
        stack.append(i)
    return spans


def layer_of(s: Span) -> Optional[str]:
    """The layer metric a span's self time belongs to; ``None`` for
    benchmark glue (the ``bench.op`` root and anything unknown)."""
    name, attrs = s.name, s.attrs
    if name in ("parse", "cure") and attrs.get("cached"):
        return "bench.pristine_s"
    if name == "parse":
        return "frontend.parse_s"
    if name == "cure":
        return "core.cure_self_s"
    if name == "cache":
        return ("cache.store_s" if attrs.get("op") == "store"
                else "cache.load_s")
    if name == "exec":
        if attrs.get("engine") == "tree":
            return "interp.run_tree_s"
        return ("interp.run_cured_s" if attrs.get("mode") == "cured"
                else "interp.run_raw_s")
    return _BY_NAME.get(name)


@dataclass
class LayerTimes:
    """Self time per layer over a set of operations."""

    seconds: dict[str, float]
    op_wall: float           # traced wall of the operations
    glue: float              # self time no layer owns
    counting: float          # tracing-only counting work, excluded
    ops: int


def layer_times(spans: list[Span]) -> LayerTimes:
    """Sum self times by layer over every span under a ``bench.op``
    root.  Spans outside any operation (setup, probes) are skipped."""
    seconds = {k: 0.0 for k in TIME_LAYERS}
    op_wall = glue = counting = 0.0
    ops = 0
    for s in spans:
        if s.op is None:
            continue
        if s.name == OP_SPAN and s.parent is None:
            op_wall += s.duration
            ops += 1
        if s.name == COUNT_SPAN:
            counting += s.duration
            continue
        layer = layer_of(s)
        if layer is None:
            glue += s.self_time
        else:
            seconds[layer] = seconds.get(layer, 0.0) + s.self_time
    return LayerTimes(seconds, op_wall, glue, counting, ops)

