"""Structured tracing for the curing/execution pipeline.

A :class:`Tracer` hands out *spans* — context managers timing one
phase of the pipeline (parse, cure, qualifier solving, dataflow,
execution).  Spans nest: each finished span records its name, its
depth in the stack of open spans, its start offset and its duration,
plus free-form attributes (engine name, workload, optimization
level).

The instrumented modules call :meth:`Tracer.span` unconditionally on
every pipeline entry, so the disabled path must cost nothing: when
``enabled`` is False the tracer returns one shared :class:`_NullSpan`
singleton — no allocation, no clock read, no record.  Enabling is a
per-collection decision (``repro metrics --timing``), never a global
default, which keeps benchmark measurements undisturbed.

Wall-clock durations are inherently non-deterministic; consumers that
need byte-identical output (the CI regression gate) simply leave the
tracer disabled and report only the deterministic counters of
:mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence


@dataclass
class SpanRecord:
    """One finished span."""

    name: str
    depth: int          # nesting depth at entry (0 = top level)
    start: float        # seconds since the tracer's epoch
    duration: float     # wall seconds
    attrs: dict[str, Any] = field(default_factory=dict)
    pid: int = 0        # recording process (0 = unknown/legacy)
    tid: int = 0        # recording OS thread (0 = unknown/legacy)

    def to_json(self) -> dict:
        return {"name": self.name, "depth": self.depth,
                "start": round(self.start, 6),
                "duration": round(self.duration, 6),
                "attrs": dict(self.attrs),
                "pid": self.pid, "tid": self.tid}


class _NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An open span; records itself on exit (even when the body
    raises, so a failing phase still shows its time)."""

    __slots__ = ("_tracer", "name", "attrs", "depth", "_t0")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.depth = 0
        self._t0 = 0.0

    def __enter__(self) -> "_LiveSpan":
        t = self._tracer
        self.depth = len(t._stack)
        t._stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        t1 = time.perf_counter()
        t = self._tracer
        if t._stack and t._stack[-1] is self:
            t._stack.pop()
        t.records.append(SpanRecord(
            self.name, self.depth, self._t0 - t._epoch,
            t1 - self._t0, self.attrs, os.getpid(),
            threading.get_native_id()))
        return False

    def set(self, **attrs: Any) -> "_LiveSpan":
        """Attach attributes discovered mid-span."""
        self.attrs.update(attrs)
        return self


class Tracer:
    """Collects span records; disabled (and free) by default."""

    def __init__(self) -> None:
        self.enabled = False
        self.records: list[SpanRecord] = []
        self._stack: list[_LiveSpan] = []
        self._epoch = time.perf_counter()

    def span(self, name: str, /, **attrs: Any) -> object:
        """A context manager timing ``name``; a shared no-op object
        when tracing is disabled.  ``name`` is positional-only so any
        keyword (even ``name=``) is a legal span attribute."""
        if not self.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name, attrs)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self.records = []
        self._stack = []
        self._epoch = time.perf_counter()

    def epoch_wall(self) -> float:
        """The tracer's epoch as absolute (unix) wall time, computed
        on demand — the anchor that lets span records captured in a
        worker process be rebased onto another process's timeline."""
        return time.time() - (time.perf_counter() - self._epoch)

    def phase_seconds(self) -> dict[str, float]:
        """Total wall seconds per span name.  Nested spans count
        toward their own name only; a parent's time includes its
        children (phase names are chosen to make that reading
        natural: ``cure`` contains ``solve``, ``dataflow``, ...)."""
        out: dict[str, float] = {}
        for r in self.records:
            out[r.name] = out.get(r.name, 0.0) + r.duration
        return out

    @contextmanager
    def capture(self) -> Iterator[list[SpanRecord]]:
        """Enable tracing for a block, yielding the (live) list that
        collects its records; previous tracer state is restored on
        exit."""
        prev_enabled = self.enabled
        prev_records = self.records
        prev_stack = self._stack
        self.records = []
        self._stack = []
        self.enabled = True
        try:
            yield self.records
        finally:
            self.enabled = prev_enabled
            self.records = prev_records
            self._stack = prev_stack

    @contextmanager
    def tap(self) -> Iterator[list[SpanRecord]]:
        """Like :meth:`capture`, but an enclosing capture keeps every
        record too: inside one, the yielded list is filled on exit with
        the records the block added to it; outside one, this is
        :meth:`capture`.  For measurements taken on the side (a
        ``--timing`` phase table) that must not hide spans from a
        trace being collected around them."""
        if not self.enabled:
            with self.capture() as records:
                yield records
            return
        seen: list[SpanRecord] = []
        start = len(self.records)
        try:
            yield seen
        finally:
            seen.extend(self.records[start:])


#: the process-wide tracer every instrumented module reports to
TRACER = Tracer()


def span(name: str, /, **attrs: Any) -> object:
    """Convenience alias for ``TRACER.span``."""
    return TRACER.span(name, **attrs)


def phase_seconds_of(records: list[SpanRecord],
                     depth: Optional[int] = None) -> dict[str, float]:
    """Aggregate a captured record list into per-name wall seconds,
    optionally restricted to one nesting depth."""
    out: dict[str, float] = {}
    for r in records:
        if depth is not None and r.depth != depth:
            continue
        out[r.name] = out.get(r.name, 0.0) + r.duration
    return out


def spans_to_wire(records: Sequence[SpanRecord],
                  tracer: Optional[Tracer] = None) -> list[dict]:
    """Serialize span records for shipping across a process boundary.

    Each worker process has its own tracer epoch (an arbitrary
    ``perf_counter`` origin), so relative ``start`` offsets from two
    processes do not share a timeline.  The wire format therefore
    carries *absolute* wall-clock starts; :func:`spans_from_wire`
    rebases them onto the receiving tracer's epoch."""
    t = tracer if tracer is not None else TRACER
    wall0 = t.epoch_wall()
    return [{"name": r.name, "depth": r.depth,
             "wall": wall0 + r.start, "duration": r.duration,
             "attrs": dict(r.attrs), "pid": r.pid, "tid": r.tid}
            for r in records]


def spans_from_wire(wire: Sequence[dict],
                    epoch_wall: Optional[float] = None
                    ) -> list[SpanRecord]:
    """Reconstruct :class:`SpanRecord`\\ s from wire dicts, rebased so
    ``start`` is relative to ``epoch_wall`` (default: the receiving
    process's global tracer epoch)."""
    anchor = (epoch_wall if epoch_wall is not None
              else TRACER.epoch_wall())
    return [SpanRecord(w["name"], w["depth"], w["wall"] - anchor,
                       w["duration"], dict(w.get("attrs") or {}),
                       int(w.get("pid", 0)), int(w.get("tid", 0)))
            for w in wire]


def chrome_trace(records: list[SpanRecord],
                 process_name: str = "repro") -> dict:
    """Convert span records to the Chrome ``trace_event`` JSON format
    (load the file in ``chrome://tracing`` or https://ui.perfetto.dev).

    Each span becomes one complete ("X") event; timestamps and
    durations are microseconds from the tracer's epoch.  Records carry
    the pid/tid that recorded them, so a merged multi-worker capture
    (a sharded sweep) renders as one lane per process instead of
    interleaving on a single row; the exporting process sorts first
    and is labelled ``process_name``, workers are labelled by pid."""
    here = os.getpid()
    lanes = sorted({(r.pid or 1, r.tid or 1) for r in records})
    pids = sorted({p for p, _ in lanes})
    # the exporting process leads; workers follow in pid order
    order = sorted(pids, key=lambda p: (p != here, p))
    events: list[dict] = []
    for i, p in enumerate(order):
        label = (process_name if p == here or len(pids) == 1
                 else f"{process_name} worker {p}")
        events.append({"name": "process_name", "ph": "M", "pid": p,
                       "tid": 1, "args": {"name": label}})
        events.append({"name": "process_sort_index", "ph": "M",
                       "pid": p, "tid": 1,
                       "args": {"sort_index": i}})
    for p, t in lanes:
        events.append({"name": "thread_name", "ph": "M", "pid": p,
                       "tid": t, "args": {"name": "pipeline"}})
    for r in sorted(records, key=lambda r: (r.start, r.depth)):
        ev: dict = {"name": r.name, "ph": "X", "pid": r.pid or 1,
                    "tid": r.tid or 1,
                    "ts": round(r.start * 1e6, 3),
                    "dur": round(r.duration * 1e6, 3),
                    "cat": "pipeline"}
        if r.attrs:
            ev["args"] = {k: v for k, v in sorted(r.attrs.items())}
        events.append(ev)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: list[SpanRecord], path: str,
                       process_name: str = "repro") -> None:
    """Write :func:`chrome_trace` output to ``path`` (``-`` for
    stdout)."""
    import json
    import sys
    payload = json.dumps(chrome_trace(records, process_name),
                         indent=1, sort_keys=False)
    if path == "-":
        sys.stdout.write(payload + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(payload + "\n")
