"""Sweep drivers with no home module — lint and analyze — plus the
``repro sweep`` matrix driver.

Every sweep is one list-level function that builds its per-workload
task list, hands it to :func:`~repro.sweep.runner.run_sharded` and
merges the results in task order.  Metrics, campaign, lint validation
and profile sweeps live beside their per-workload code
(:func:`repro.obs.metrics.collect_metrics`,
:func:`repro.faults.campaign.run_campaign`,
:func:`repro.faults.lintval.run_lint_validation`,
:func:`repro.obs.profile.collect_profile`); the two here only map
:mod:`repro.analysis`'s per-workload functions over a list.  None of them
branches on ``jobs``: the runner alone picks the inline executor or
the process pool, so the serialized output is byte-identical either
way (the property the CI determinism steps ``cmp``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.sweep.runner import on_shard, resolve_jobs, run_sharded

Progress = Optional[Callable[[str], None]]


# -- per-command drivers -----------------------------------------------------


def sharded_lint(workloads: Sequence, *, optimize: str = "flow",
                 scale: Optional[int] = None, jobs=None,
                 progress: Progress = None,
                 span_sink: Optional[list] = None) -> list:
    """Per-workload :class:`LintReport`s in input order."""
    tasks = [("lint", dict(name=w.name, optimize=optimize,
                           scale=scale)) for w in workloads]
    return run_sharded(tasks, jobs, on_shard(
        progress, lambda kw, r: f"linted {kw['name']}"),
        span_sink=span_sink)


def sharded_analyze(workloads: Sequence, *,
                    scale: Optional[int] = None, jobs=None,
                    progress: Progress = None,
                    span_sink: Optional[list] = None) -> list[dict]:
    """Per-workload ``repro analyze`` stats dicts in input order."""
    tasks = [("analyze", dict(name=w.name, scale=scale))
             for w in workloads]
    return run_sharded(tasks, jobs, on_shard(
        progress, lambda kw, r: f"analyzed {kw['name']}"),
        span_sink=span_sink)


# -- the full-matrix driver (`repro sweep`) ----------------------------------


@dataclass
class SweepArtifact:
    """One artifact of a matrix sweep (one output file)."""

    name: str                # e.g. "metrics-closures-flow"
    kind: str                # metrics | lint | campaign | analyze
    seconds: float
    ok: bool
    detail: str
    path: Optional[str] = None

    def to_json(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "seconds": round(self.seconds, 3), "ok": self.ok,
                "detail": self.detail, "path": self.path}


@dataclass
class SweepSummary:
    """Everything ``repro sweep`` ran, plus cache traffic."""

    jobs: int
    artifacts: list[SweepArtifact] = field(default_factory=list)
    cache: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.artifacts)

    def to_json(self) -> dict:
        return {"jobs": self.jobs, "ok": self.ok,
                "artifacts": [a.to_json() for a in self.artifacts],
                "cache": self.cache}

    def render(self) -> str:
        lines = [f"sweep: {len(self.artifacts)} artifacts, "
                 f"jobs={self.jobs}, "
                 f"{'ok' if self.ok else 'FAILURES'}"]
        width = max((len(a.name) for a in self.artifacts),
                    default=4)
        for a in self.artifacts:
            mark = "ok " if a.ok else "FAIL"
            lines.append(f"  {a.name:<{width}}  {mark} "
                         f"{a.seconds:7.2f}s  {a.detail}")
        if self.cache is not None:
            c = self.cache
            lines.append(f"  cure cache: {c['hits']} hits, "
                         f"{c['misses']} misses, "
                         f"{c['stores']} stores this sweep")
        return "\n".join(lines)


def count_sweep_shards(*, targets: Sequence[str],
                       engines: Sequence[str],
                       levels: Sequence[Optional[str]],
                       campaign: str = "smoke") -> int:
    """How many shard tasks :func:`run_sweep` will dispatch for this
    selection — the denominator of a live progress line."""
    from repro.faults.campaign import CAMPAIGNS
    from repro.workloads import all_workloads
    n_ws = len(list(all_workloads()))
    preset = CAMPAIGNS.get(campaign)
    n_camp = len(preset) if preset is not None else n_ws
    total = 0
    for target in targets:
        if target == "metrics":
            total += len(engines) * len(levels) * n_ws
        elif target == "lint":
            total += len(levels) * n_ws
        elif target == "campaign":
            total += len(levels) * n_camp
        elif target == "analyze":
            total += n_ws
    return total


def run_sweep(*, targets: Sequence[str] = ("metrics", "lint",
                                           "campaign"),
              engines: Sequence[str] = ("closures",),
              levels: Sequence[Optional[str]] = ("flow",),
              jobs=None, out_dir: Optional[str] = None,
              seed: int = 1337, campaign: str = "smoke",
              scale: Optional[int] = None,
              progress: Progress = None,
              shard_progress: Progress = None,
              trace: Optional[list] = None) -> SweepSummary:
    """Run the workload × engine × optimize matrix for the selected
    targets, sharding every sweep across ``jobs`` workers, and write
    one deterministic JSON artifact per matrix cell.

    ``shard_progress`` fires once per completed shard (per workload
    cell) — the hook the CLI's ``--progress`` line hangs off.  With
    ``trace`` a list, the whole sweep runs under span capture: the
    parent contributes one ``dispatch`` span per artifact and every
    worker ships its pipeline spans back (real pid/tid lanes), so one
    Chrome trace shows dispatch, per-shard parse/cure/exec, and cache
    hit/miss events across the entire pool."""
    import json as _json

    from repro.analysis import reports_json
    from repro.cache import get_cache
    from repro.faults.campaign import run_campaign
    from repro.faults.report import report_to_json
    from repro.obs.metrics import collect_metrics
    from repro.obs.serialize import stable_dumps
    from repro.obs.tracer import TRACER
    from repro.workloads import all_workloads

    n = resolve_jobs(jobs)
    ws = list(all_workloads())
    summary = SweepSummary(jobs=n)
    # Cache traffic is measured through the persistent (cross-
    # process) counters so shard traffic counts under jobs > 1.
    disk = get_cache()
    base = disk._read_counters()

    def emit(name: str, text: str) -> Optional[str]:
        if out_dir is None:
            return None
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, name + ".json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    def body() -> None:
        for target in targets:
            if target == "metrics":
                for engine in engines:
                    for level in levels:
                        name = f"metrics-{engine}-{level or 'flow'}"
                        t0 = time.perf_counter()
                        with TRACER.span("dispatch", artifact=name,
                                         jobs=n):
                            report = collect_metrics(
                                ws, engine=engine, optimize=level,
                                scale=scale, jobs=n, trace=trace,
                                progress=shard_progress)
                        dt = time.perf_counter() - t0
                        path = emit(name,
                                    stable_dumps(report.to_json()))
                        summary.artifacts.append(SweepArtifact(
                            name=name, kind="metrics", seconds=dt,
                            ok=True,
                            detail=(f"{len(report.workloads)} "
                                    "workloads"),
                            path=path))
                        note(f"{name}: {dt:.2f}s")
            elif target == "lint":
                for level in levels:
                    name = f"lint-{level or 'flow'}"
                    t0 = time.perf_counter()
                    with TRACER.span("dispatch", artifact=name,
                                     jobs=n):
                        reports = sharded_lint(
                            ws, optimize=level or "flow",
                            scale=scale, jobs=n, span_sink=trace,
                            progress=shard_progress)
                    dt = time.perf_counter() - t0
                    findings = sum(len(r.diagnostics)
                                   for r in reports)
                    path = emit(name, reports_json(reports))
                    summary.artifacts.append(SweepArtifact(
                        name=name, kind="lint", seconds=dt, ok=True,
                        detail=f"{findings} findings", path=path))
                    note(f"{name}: {dt:.2f}s")
            elif target == "campaign":
                for level in levels:
                    name = f"faults-{campaign}-{level or 'flow'}"
                    t0 = time.perf_counter()
                    with TRACER.span("dispatch", artifact=name,
                                     jobs=n):
                        report = run_campaign(
                            seed, campaign, scale=scale,
                            optimize=level, jobs=n, span_sink=trace,
                            progress=shard_progress)
                    dt = time.perf_counter() - t0
                    path = emit(name, report_to_json(report))
                    summary.artifacts.append(SweepArtifact(
                        name=name, kind="campaign", seconds=dt,
                        ok=report.ok,
                        detail=(f"{report.caught}/{report.injected} "
                                "caught"),
                        path=path))
                    note(f"{name}: {dt:.2f}s")
            elif target == "analyze":
                name = "analyze"
                t0 = time.perf_counter()
                with TRACER.span("dispatch", artifact=name, jobs=n):
                    stats = sharded_analyze(ws, scale=scale, jobs=n,
                                            span_sink=trace,
                                            progress=shard_progress)
                dt = time.perf_counter() - t0
                text = _json.dumps(stats, indent=2,
                                   sort_keys=True) + "\n"
                path = emit(name, text)
                summary.artifacts.append(SweepArtifact(
                    name=name, kind="analyze", seconds=dt, ok=True,
                    detail=f"{len(stats)} workloads", path=path))
                note(f"{name}: {dt:.2f}s")
            else:
                raise KeyError(
                    f"unknown sweep target {target!r} (known:"
                    " metrics, lint, campaign, analyze)")

    if trace is None:
        body()
    else:
        # Parent-side ``dispatch`` spans record into the capture;
        # every shard's spans (inline or pooled) arrive through the
        # drivers' span sinks, rebased onto the same tracer epoch —
        # one merged timeline.
        with TRACER.capture() as parent_records:
            body()
        trace.extend(parent_records)

    after = disk._read_counters()
    summary.cache = {k: after.get(k, 0) - base.get(k, 0)
                     for k in ("hits", "misses", "stores")}
    return summary
