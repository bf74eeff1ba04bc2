"""The phase profiler: fold span records into a per-phase breakdown.

EffectiveSan's diagnostic tables (PAPERS.md) attribute cost to
individual check kinds and pipeline phases; this module is the phase
half.  It folds a span capture — from one workload, a whole sweep, or
a merged multi-worker trace — into a deterministic table of *where the
pipeline spends itself*: parse, preprocess, constraints, solve,
dataflow, check elimination, execution per engine, cache load/store.

Two serialization rules keep the output CI-gateable, mirroring
:mod:`repro.obs.metrics`:

* **counts are byte-stable** — ``repro profile`` collects on a *fresh*
  pipeline (no in-process tree caches, no disk cure cache), so the
  number of spans per phase is a pure function of the program and the
  options: two runs serialize byte-identically;
* **timing is excluded from gated output** — wall seconds are real
  seconds and only appear with ``include_timing``/``--timing``, like
  the metrics report's ``phases`` field.

Cache traffic (``cache:load``/``cache:store`` phases) appears when the
folded spans came from a cache-enabled collection (``repro sweep
--trace`` + :func:`fold_spans`); it is inherently cache-state-
dependent, so those phases ride in the timing section only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.obs.tracer import TRACER, SpanRecord

#: schema tag stamped into every serialized profile.
PROFILE_SCHEMA = "repro.obs.profile/1"

#: phases whose span counts depend on cache state rather than the
#: program; excluded from the deterministic (gated) serialization.
NONDET_PHASES = ("cache",)


def phase_key(record: SpanRecord) -> str:
    """The fold key of one span.  Span names are the phase; attrs that
    change what the phase *means* are appended — ``exec`` splits per
    engine and per raw/cured mode, ``cache`` per operation — so the
    breakdown answers "exec per engine, cache load vs store" directly.
    """
    a = record.attrs
    if record.name == "exec":
        return (f"exec:{a.get('engine', '?')}"
                f":{a.get('mode', '?')}")
    if record.name == "cache":
        return f"cache:{a.get('op', '?')}"
    if record.name == "optimize":
        return f"optimize:{a.get('level', '?')}"
    return record.name


@dataclass
class PhaseStat:
    """Aggregate of one phase: how many spans, how much wall."""

    count: int = 0
    seconds: float = 0.0

    def add(self, r: SpanRecord) -> None:
        self.count += 1
        self.seconds += r.duration

    def to_json(self, include_timing: bool = False) -> dict:
        out: dict[str, Any] = {"count": self.count}
        if include_timing:
            out["seconds"] = round(self.seconds, 6)
        return out


def fold_spans(records: Iterable[SpanRecord]
               ) -> dict[str, PhaseStat]:
    """Fold span records into ``{phase key: PhaseStat}``."""
    out: dict[str, PhaseStat] = {}
    for r in records:
        key = phase_key(r)
        stat = out.get(key)
        if stat is None:
            stat = out[key] = PhaseStat()
        stat.add(r)
    return out


def _is_nondet(phase: str) -> bool:
    return phase.split(":", 1)[0] in NONDET_PHASES


@dataclass
class ProfileReport:
    """Per-phase/per-workload breakdown of one profile collection."""

    engine: str
    optimize: str
    scale: Optional[int]
    #: workload name -> phase key -> stat
    workloads: dict[str, dict[str, PhaseStat]] = \
        field(default_factory=dict)

    def totals(self) -> dict[str, PhaseStat]:
        agg: dict[str, PhaseStat] = {}
        for phases in self.workloads.values():
            for key, stat in phases.items():
                t = agg.get(key)
                if t is None:
                    t = agg[key] = PhaseStat()
                t.count += stat.count
                t.seconds += stat.seconds
        return agg

    def to_json(self, include_timing: bool = False) -> dict:
        def fold(phases: dict[str, PhaseStat]) -> dict:
            return {k: s.to_json(include_timing)
                    for k, s in sorted(phases.items())
                    if include_timing or not _is_nondet(k)}
        return {"schema": PROFILE_SCHEMA,
                "engine": self.engine,
                "optimize": self.optimize,
                "scale": self.scale,
                "totals": fold(self.totals()),
                "workloads": {name: fold(phases)
                              for name, phases
                              in sorted(self.workloads.items())}}


# -- collection --------------------------------------------------------------


def profile_workload(w, *, engine: str = "closures",
                     optimize: Optional[str] = None,
                     scale: Optional[int] = None
                     ) -> list[SpanRecord]:
    """Capture the span stream of one workload's *fresh* pipeline.

    Deliberately bypasses the harness's pristine-tree caches and the
    on-disk cure cache: a cached collection would profile the cache,
    not the pipeline, and its span counts would depend on cache state.
    Here every phase runs for real — preprocess, parse, cure
    (constraints/solve/split/instrument/optimize/dataflow), then one
    raw and one cured execution on the selected engine — so the counts
    are a pure function of the program and the options."""
    from repro.cache import private_copy
    from repro.core import CureOptions, cure as _cure
    from repro.interp import run_cured, run_raw

    opts = CureOptions(trust_bad_casts=w.trust_bad_casts,
                       optimize=optimize)
    args = list(w.args) or None
    with TRACER.capture() as records:
        with TRACER.span("workload", name=w.name):
            prog = w.parse(scale)
            cured = _cure(private_copy(prog), options=opts,
                          name=w.name)
            run_raw(prog, args=args, stdin=w.stdin, engine=engine)
            run_cured(cured, args=args, stdin=w.stdin, engine=engine)
    return records


def profile_workload_wire(w, *, engine: str = "closures",
                          optimize: Optional[str] = None,
                          scale: Optional[int] = None) -> list[dict]:
    """:func:`profile_workload` in wire form (the shard body of
    :func:`collect_profile`: picklable, rebased by the parent)."""
    from repro.obs.tracer import spans_to_wire
    return spans_to_wire(profile_workload(
        w, engine=engine, optimize=optimize, scale=scale))


def collect_profile(workloads: Sequence, *,
                    engine: str = "closures",
                    optimize: Optional[str] = None,
                    scale: Optional[int] = None,
                    jobs=None,
                    trace: Optional[list] = None,
                    progress=None) -> ProfileReport:
    """Profile ``workloads`` (ordered by name) into a
    :class:`ProfileReport`, one shard per workload across ``jobs``
    workers.  A ``trace`` list additionally accumulates the merged
    span records (rebased onto this process's timeline) for
    Chrome-trace export."""
    from repro.obs.tracer import spans_from_wire
    from repro.sweep.runner import on_shard, run_sharded

    report = ProfileReport(
        engine=engine,
        optimize=optimize if optimize is not None else "flow",
        scale=scale)
    ordered = sorted(workloads, key=lambda w: w.name)
    tasks = [("profile", dict(name=w.name, engine=engine,
                              optimize=optimize, scale=scale))
             for w in ordered]
    anchor = TRACER.epoch_wall()
    wires = run_sharded(tasks, jobs, on_shard(
        progress, lambda kw, r: f"profiled {kw['name']}"))
    for w, wire in zip(ordered, wires):
        records = spans_from_wire(wire, anchor)
        report.workloads[w.name] = fold_spans(records)
        if trace is not None:
            trace.extend(records)
    return report


# -- rendering ---------------------------------------------------------------


def render_profile(report: ProfileReport,
                   include_timing: bool = False) -> str:
    """A fixed-width per-phase table (totals), then one block per
    workload.  Without timing the table is deterministic (counts
    only); with timing it adds wall seconds and cache phases."""
    def rows(phases: dict[str, PhaseStat], indent: str) -> list[str]:
        out = []
        for key in sorted(phases):
            if not include_timing and _is_nondet(key):
                continue
            s = phases[key]
            line = f"{indent}{key:<24} {s.count:>7}"
            if include_timing:
                line += f" {s.seconds:>9.3f}s"
            out.append(line)
        return out

    head = f"{'phase':<24} {'count':>7}"
    if include_timing:
        head += f" {'wall':>10}"
    lines = [f"engine: {report.engine}   "
             f"optimize: {report.optimize}   "
             f"workloads: {len(report.workloads)}",
             head, "-" * len(head)]
    lines += rows(report.totals(), "")
    for name in sorted(report.workloads):
        lines.append("")
        lines.append(f"{name}:")
        lines += rows(report.workloads[name], "  ")
    return "\n".join(lines)
