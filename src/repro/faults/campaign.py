"""Fault-injection campaigns: the safety differential, measured.

For every (workload, mutation class) pair the campaign builds the
seeded attack variant, cures it, and executes:

* the cured program under **both** execution engines — these must
  terminate with the class's expected
  :class:`~repro.runtime.checks.MemorySafetyError` subclass, with
  bit-identical error message and failure record (the engines are a
  differential-testing pair even under injected faults);
* the raw (uninstrumented) program — hardware semantics: it may
  segfault, silently corrupt memory and keep running, or diverge.

A variant counts as *caught* only when every cured run traps with the
expected class.  Reports are deterministic: same seed, same campaign
→ the same JSON, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.bench.harness import pristine_parse
from repro.cache import private_copy
from repro.core import CureOptions, cure
from repro.faults.mutators import MUTATORS, FaultSpec, graft, make_variant
from repro.interp import run_cured, run_raw
from repro.runtime.checks import (CheckFailure, InterpreterLimitError,
                                  MemorySafetyError, ProgramAbort,
                                  ProgramExit, SegmentationFault)
from repro.workloads import Workload, all_workloads, get

#: step caps: variants trap at main entry, so cured runs need very few
#: steps; raw survivors would otherwise run the whole workload — cap
#: them hard, the campaign only needs the *differential*, not a full
#: raw execution.
CURED_MAX_STEPS = 2_000_000
RAW_MAX_STEPS = 200_000

#: the engines every variant's cured side runs under — a
#: differential pair, so their outcomes must agree
CURED_ENGINES = ("closures", "tree")

#: campaign name -> workload names (None = all 27)
CAMPAIGNS: dict[str, Optional[tuple[str, ...]]] = {
    "smoke": ("olden_power", "ptrdist_anagram", "ftpd",
              "apache_urlcount"),
    "full": None,
}


@dataclass
class RunOutcome:
    """One execution of one variant under one tool/engine."""

    tool: str                 # cured:closures | cured:tree | raw
    outcome: str              # trapped | crash | exit | limit | error
    error: Optional[str] = None      # exception class, if any
    message: Optional[str] = None    # str(exception)
    status: Optional[int] = None     # exit status, normal termination
    steps: int = 0
    failure: Optional[dict] = None   # CheckFailure record (trapped)

    def to_json(self) -> dict:
        return {"tool": self.tool, "outcome": self.outcome,
                "error": self.error, "message": self.message,
                "status": self.status, "steps": self.steps,
                "failure": self.failure}


@dataclass
class VariantReport:
    """One (workload, mutation class) variant's full differential."""

    workload: str
    mclass: str
    expected: str               # expected MemorySafetyError subclass
    description: str
    params: dict
    runs: list[RunOutcome] = field(default_factory=list)
    caught: bool = False        # all cured runs trap with expected
    engines_agree: bool = False  # cured runs bit-identical
    raw_outcome: str = ""       # the uninstrumented side, summarized

    def to_json(self) -> dict:
        return {"workload": self.workload, "mclass": self.mclass,
                "expected": self.expected,
                "description": self.description,
                "params": self.params,
                "caught": self.caught,
                "engines_agree": self.engines_agree,
                "raw_outcome": self.raw_outcome,
                "runs": [r.to_json() for r in self.runs]}


@dataclass
class CampaignReport:
    """A whole campaign's outcome."""

    seed: int
    campaign: str
    scale: Optional[int]
    classes: tuple[str, ...]
    #: check-elimination level of the cured runs (None = the
    #: pipeline default)
    optimize: Optional[str] = None
    variants: list[VariantReport] = field(default_factory=list)

    @property
    def injected(self) -> int:
        return len(self.variants)

    @property
    def caught(self) -> int:
        return sum(1 for v in self.variants if v.caught)

    @property
    def agreed(self) -> int:
        return sum(1 for v in self.variants if v.engines_agree)

    @property
    def ok(self) -> bool:
        return all(v.caught and v.engines_agree
                   for v in self.variants)

    def to_json(self) -> dict:
        return {"seed": self.seed, "campaign": self.campaign,
                "scale": self.scale, "classes": list(self.classes),
                "optimize": self.optimize,
                "summary": {"injected": self.injected,
                            "caught": self.caught,
                            "engines_agree": self.agreed,
                            "ok": self.ok},
                "variants": [v.to_json() for v in self.variants]}


def _classify(run: Callable[[], object], tool: str) -> RunOutcome:
    try:
        res = run()
        return RunOutcome(tool=tool, outcome="exit",
                          status=getattr(res, "status", None),
                          steps=getattr(res, "steps", 0))
    except MemorySafetyError as exc:
        return RunOutcome(
            tool=tool, outcome="trapped",
            error=type(exc).__name__, message=str(exc),
            failure=CheckFailure.from_exception(exc).to_json())
    except (SegmentationFault, ProgramAbort) as exc:
        return RunOutcome(tool=tool, outcome="crash",
                          error=type(exc).__name__, message=str(exc))
    except ProgramExit as exc:
        return RunOutcome(tool=tool, outcome="exit",
                          status=exc.status)
    except InterpreterLimitError as exc:
        return RunOutcome(tool=tool, outcome="limit",
                          error=type(exc).__name__, message=str(exc))
    except Exception as exc:  # infrastructure trouble, not a verdict
        return RunOutcome(tool=tool, outcome="error",
                          error=type(exc).__name__, message=str(exc))


def run_variant(w: Workload, spec: FaultSpec, *,
                scale: Optional[int] = None,
                optimize: Optional[str] = None,
                ) -> VariantReport:
    """Cure and execute one attack variant under both engines + raw.

    ``optimize`` selects the check-elimination level of the cured
    side; the campaign's contract is that the level never changes
    which faults are caught or the failure records they produce.
    """
    report = VariantReport(
        workload=w.name, mclass=spec.mclass,
        expected=spec.expected.__name__,
        description=spec.description, params=dict(spec.params))

    base = private_copy(pristine_parse(w, scale))
    graft(base, spec, name=f"{w.name}+{spec.mclass}")
    raw_prog = private_copy(base)
    # Variants always cure with default options (modulo the
    # elimination level): trusting the workload's bad casts
    # (bind_like) would also trust the *injected* evil casts and
    # neuter the attack.  The injected fault executes at main entry,
    # before any workload code whose kinds the stricter options might
    # change can run.  Provenance is on so trapped failures carry the
    # blame chain of the failing pointer; both engines run the same
    # cured object, so the chains are engine-identical by construction
    # (and engines_agree compares them).  Temporal classes opt into
    # lock-and-key checking (and, for the reuse class, the recycling
    # allocator on every side — the raw run reads recycled memory
    # where the cured run traps).
    cured = cure(base,
                 options=CureOptions(optimize=optimize,
                                     provenance=True,
                                     temporal=spec.temporal),
                 name=f"{w.name}+{spec.mclass}")

    args = list(w.args) or None
    cured_runs = []
    for engine in CURED_ENGINES:
        out = _classify(
            lambda e=engine: run_cured(
                cured, args=args, stdin=w.stdin,
                max_steps=CURED_MAX_STEPS, engine=e,
                detect_uninit=spec.detect_uninit,
                reuse_freed=spec.reuse_freed),
            f"cured:{engine}")
        cured_runs.append(out)
        report.runs.append(out)
    raw_out = _classify(
        lambda: run_raw(raw_prog, args=args, stdin=w.stdin,
                        max_steps=RAW_MAX_STEPS,
                        reuse_freed=spec.reuse_freed),
        "raw")
    report.runs.append(raw_out)

    report.caught = all(
        r.outcome == "trapped" and r.error == spec.expected.__name__
        for r in cured_runs)
    first = cured_runs[0]
    report.engines_agree = all(
        (r.outcome, r.error, r.message, r.failure) ==
        (first.outcome, first.error, first.message, first.failure)
        for r in cured_runs[1:])
    if raw_out.outcome == "crash":
        report.raw_outcome = f"crash:{raw_out.error}"
    elif raw_out.outcome == "exit":
        report.raw_outcome = f"exit:{raw_out.status}"
    else:
        report.raw_outcome = raw_out.outcome
    return report


def run_workload_campaign(name: str, seed: int,
                          classes: Sequence[str], *,
                          scale: Optional[int] = None,
                          optimize: Optional[str] = None
                          ) -> list[VariantReport]:
    """Every class variant of one workload, in ``classes`` order — the
    unit of work a campaign shards."""
    w = get(name)
    return [run_variant(w, make_variant(w.name, mclass, seed),
                        scale=scale, optimize=optimize)
            for mclass in classes]


def run_campaign(seed: int, campaign: str = "smoke", *,
                 workloads: Optional[Sequence[str]] = None,
                 classes: Optional[Sequence[str]] = None,
                 scale: Optional[int] = None,
                 optimize: Optional[str] = None,
                 jobs=None,
                 progress: Optional[Callable[[str], None]] = None,
                 span_sink: Optional[list] = None,
                 ) -> CampaignReport:
    """Run a named campaign: every mutation class against every
    selected workload, deterministically from ``seed``, one shard per
    workload across ``jobs`` workers.  An unknown campaign, class or
    workload raises :class:`KeyError` before any shard runs."""
    from repro.sweep.runner import on_shard, run_sharded
    if campaign not in CAMPAIGNS:
        raise KeyError(f"unknown campaign {campaign!r} "
                       f"(known: {', '.join(CAMPAIGNS)})")
    if workloads is not None:
        names: Sequence[str] = list(workloads)
    else:
        preset = CAMPAIGNS[campaign]
        names = (preset if preset is not None
                 else tuple(w.name for w in all_workloads()))
    mclasses = tuple(classes) if classes is not None \
        else tuple(MUTATORS)
    for m in mclasses:
        if m not in MUTATORS:
            raise KeyError(f"unknown mutation class {m!r}")
    for name in names:
        get(name)

    tasks = [("campaign", dict(name=name, seed=seed, classes=mclasses,
                               scale=scale, optimize=optimize))
             for name in names]
    results = run_sharded(tasks, jobs, on_shard(
        progress, lambda kw, variants: (
            f"{kw['name']:>18} "
            f"{sum(1 for v in variants if v.caught)}/{len(variants)} "
            "caught")), span_sink=span_sink)
    report = CampaignReport(seed=seed, campaign=campaign,
                            scale=scale, classes=mclasses,
                            optimize=optimize)
    for variants in results:
        report.variants.extend(variants)
    return report
