"""The benchmark harness: run a workload under every tool and collect
the measurements the paper's tables report.

For one workload the harness produces a :class:`BenchRow` containing:

* the source size (lines of code) — the "Lines of code" column;
* the static pointer-kind percentages — the "% sf/sq/w/rt" column;
* the cured/raw, purify/raw and valgrind/raw cycle ratios — the
  "CCured Ratio" and "Valgrind Ratio" columns;
* cast census, trusted-cast and split statistics for the Section 3/5
  analyses.

Trees come from one in-process memo keyed like the on-disk cure cache
(:func:`~repro.cache.parse_key`/:func:`~repro.cache.cure_key`: the
preprocessed source, the lint suppressions and, for a cure, the
canonical options), so equivalent option spellings share one tree
with the disk tier on or off.  Memoized trees are *pristine*: readers
and executions share them (the interpreter only stamps idempotent
per-``Varinfo``/type caches, so each ``Fundec``'s generated code is
shared too), and a caller that mutates one (curing, a fault graft)
takes a :func:`~repro.cache.private_copy` first.  Measurements are
deterministic (the cost model is exact), so whole runs are memoized
as well: a ``(workload, scale, engine, max_steps, tool, canonical
options)`` run (see :func:`_result_key`) is answered from
``_RESULT_CACHE`` after its first execution.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.baselines import PurifyChecker, ValgrindChecker
from repro.cache import (canonical_options, cure_key, get_cache,
                         parse_key, private_copy)
from repro.cil.program import Program
from repro.core import CureOptions, CuredProgram, cure as _cure
from repro.cpp import PreprocessError
from repro.frontend import parse_preprocessed, preprocess_unit
from repro.interp import ExecResult, run_cured, run_raw
from repro.obs.tracer import TRACER
from repro.runtime.checks import (CheckFailure, InterpreterLimitError,
                                  MemorySafetyError)
from repro.workloads import Workload


@dataclass
class ToolRun:
    tool: str
    cycles: int
    status: int
    steps: int
    stdout: str = ""
    #: run-time checks actually executed (0 for raw/baseline runs)
    checks: int = 0

    def ratio(self, base: "ToolRun") -> float:
        """Cycle ratio against ``base``; NaN when the base run did no
        work (a 0-cycle base means the ratio is undefined, and 0.0
        would silently read as 'no overhead' in a table)."""
        if not base.cycles:
            return math.nan
        return self.cycles / base.cycles


@dataclass
class BenchRow:
    """One row of a paper-style results table."""

    name: str
    lines: int
    kind_pct: dict[str, float]
    raw: ToolRun
    ccured: Optional[ToolRun] = None
    purify: Optional[ToolRun] = None
    valgrind: Optional[ToolRun] = None
    trusted_casts: int = 0
    census: dict[str, float] = field(default_factory=dict)
    split_fraction: float = 0.0
    meta_fraction: float = 0.0
    pointer_casts: int = 0

    @property
    def ccured_ratio(self) -> float:
        return self.ccured.ratio(self.raw) if self.ccured else 0.0

    @property
    def purify_ratio(self) -> float:
        return self.purify.ratio(self.raw) if self.purify else 0.0

    @property
    def valgrind_ratio(self) -> float:
        return self.valgrind.ratio(self.raw) if self.valgrind else 0.0

    def sf_sq_w_rt(self) -> str:
        p = self.kind_pct
        seq = p["seq"] + p.get("fseq", 0.0)  # CCured reported FSEQ
        return (f"{p['safe']*100:.0f}/{seq*100:.0f}/"          # as sq
                f"{p['wild']*100:.0f}/{p['rtti']*100:.0f}")


def count_lines(source: str) -> int:
    return sum(1 for line in source.splitlines()
               if line.strip() and not line.strip().startswith("//"))


# -- parse/cure cache: pristine trees by content key (module docstring) ------

_SOURCE_CACHE: dict[str, str] = {}
#: preprocessed text + lint suppressions per (workload, scale): the
#: content half of a tree's key, and the only name-keyed memo
_PP_CACHE: dict[tuple, tuple[str, tuple]] = {}
#: pristine parses and cures by parse_key/cure_key
_TREES: dict[str, object] = {}
#: memoized measurements:
#: key -> (cycles, status, steps, stdout, checks executed)
_RESULT_CACHE: dict[tuple, tuple[int, int, int, str, int]] = {}


def cached_source(w: Workload) -> str:
    """The workload's source text (generators like ijpeg are not free)."""
    src = _SOURCE_CACHE.get(w.name)
    if src is None:
        src = w.source()
        _SOURCE_CACHE[w.name] = src
    return src


def _preprocessed(w: Workload,
                  scale: Optional[int]) -> tuple[str, tuple]:
    """The preprocessed source text and the lint-suppression set —
    exactly what :meth:`Workload.parse` would feed the C parser, and
    therefore the content half of the workload's tree keys."""
    key = (w.name, scale if scale is not None else w.scale)
    got = _PP_CACHE.get(key)
    if got is None:
        from repro.workloads import PROGRAM_DIR
        text, sup = preprocess_unit(cached_source(w), w.name + ".c",
                                    [PROGRAM_DIR], w._defines(scale))
        got = (text, tuple(sorted(sup)))
        _PP_CACHE[key] = got
    return got


def _pristine(key: str, phase: str, name: str, build):
    """The memoized tree under ``key``: from memory, else from the
    disk cache (traced as a ``phase`` span with ``cached=True``), else
    from ``build()``, which is then stored on disk."""
    tree = _TREES.get(key)
    if tree is None:
        disk = get_cache()
        if disk.enabled:
            with TRACER.span(phase, name=name, cached=True):
                tree = disk.load(key)
        if tree is None:
            tree = build()
            disk.store(key, tree)
        _TREES[key] = tree
    return tree


def pristine_parse(w: Workload,
                   scale: Optional[int] = None) -> Program:
    """The shared pristine parse — read/interpret only, never cure.
    A miss lowers the text :func:`_preprocessed` already holds."""
    text, sup = _preprocessed(w, scale)
    return _pristine(
        parse_key(text, sup, w.name), "parse", w.name,
        lambda: parse_preprocessed([(w.name + ".c", text, sup)],
                                   w.name))


def pristine_cure(w: Workload,
                  options: Optional[CureOptions] = None,
                  scale: Optional[int] = None) -> CuredProgram:
    """The shared pristine cure — read/interpret only, never mutate.
    ``None`` options are the workload's defaults; a miss cures a
    private copy of the pristine parse (cheaper than re-parsing)."""
    text, sup = _preprocessed(w, scale)
    opts = options if options is not None else CureOptions(
        trust_bad_casts=w.trust_bad_casts)
    return _pristine(
        cure_key(text, sup, w.name, canonical_options(opts)), "cure",
        w.name,
        lambda: _cure(private_copy(pristine_parse(w, scale)),
                      options=opts, name=w.name))


def clear_program_cache() -> None:
    """Drop all in-process cached sources, trees and measurements
    (tests poking at tree internals).  The on-disk cure cache is
    untouched: a disk hit hands back a freshly unpickled tree, which
    is exactly the isolation this reset exists to restore."""
    _SOURCE_CACHE.clear()
    _PP_CACHE.clear()
    _TREES.clear()
    _RESULT_CACHE.clear()


def _result_key(w: Workload, scale: Optional[int], engine: str,
                max_steps: int, tool: str,
                options: Optional[CureOptions]) -> tuple:
    """The memoization key of one measurement — every dimension that
    can change the numbers.  The canonical options carry the
    check-elimination level, so no sweep reuses a stale result, while
    equivalent spellings share one measurement."""
    return (w.name, scale if scale is not None else w.scale,
            engine, max_steps, tool,
            canonical_options(options,
                              trust_bad_casts=w.trust_bad_casts))


def _measure(key: tuple, tool: str, runner) -> ToolRun:
    """A memoized measurement; ``runner`` executes on a cache miss."""
    got = _RESULT_CACHE.get(key)
    if got is None:
        res: ExecResult = runner()
        got = (res.cycles, res.status, res.steps, res.stdout,
               res.checks_executed)
        _RESULT_CACHE[key] = got
    return ToolRun(tool, *got)


def run_workload(w: Workload, *,
                 tools: tuple[str, ...] = ("ccured",),
                 options: Optional[CureOptions] = None,
                 scale: Optional[int] = None,
                 max_steps: int = 50_000_000,
                 engine: str = "closures") -> BenchRow:
    """Run one workload under raw + the requested tools."""
    src = cached_source(w)
    args = list(w.args) or None

    def uncured(tool: str, shadow=None) -> ToolRun:
        return _measure(
            _result_key(w, scale, engine, max_steps, tool, None), tool,
            lambda: run_raw(pristine_parse(w, scale), args=args,
                            stdin=w.stdin,
                            shadow=shadow() if shadow else None,
                            max_steps=max_steps, engine=engine))

    raw = uncured("raw")
    cured = pristine_cure(w, options=options, scale=scale)
    row = BenchRow(
        name=w.name,
        lines=count_lines(src),
        kind_pct=cured.kind_percentages(),
        raw=raw,
        trusted_casts=cured.trusted_casts,
        census=cured.census.fractions(),
        split_fraction=cured.split_result.split_fraction,
        meta_fraction=cured.split_result.meta_fraction,
        pointer_casts=cured.census.pointer_casts,
    )
    if "ccured" in tools:
        row.ccured = _measure(
            _result_key(w, scale, engine, max_steps, "ccured",
                        options), "ccured",
            lambda: run_cured(cured, args=args, stdin=w.stdin,
                              max_steps=max_steps, engine=engine))
        _assert_same_behaviour(w.name, raw, row.ccured)
    if "purify" in tools:
        row.purify = uncured("purify", PurifyChecker)
    if "valgrind" in tools:
        row.valgrind = uncured("valgrind", ValgrindChecker)
    return row


def _assert_same_behaviour(name: str, raw: ToolRun,
                           cured: ToolRun) -> None:
    """The cure must not change the observable behaviour of a correct
    program — checked on every benchmark run.  On a mismatch the
    error carries a stdout diff plus the cycle/step deltas, so a
    diverging workload is diagnosable from the failure alone."""
    if raw.status == cured.status and raw.stdout == cured.stdout:
        return
    lines = [f"{name}: cured behaviour diverged from raw "
             f"(status {raw.status} vs {cured.status})",
             f"  cycles: raw {raw.cycles} vs cured {cured.cycles} "
             f"(delta {cured.cycles - raw.cycles:+d})",
             f"  steps:  raw {raw.steps} vs cured {cured.steps} "
             f"(delta {cured.steps - raw.steps:+d})"]
    if raw.stdout != cured.stdout:
        diff = list(difflib.unified_diff(
            raw.stdout.splitlines(keepends=True),
            cured.stdout.splitlines(keepends=True),
            fromfile=f"{name}.raw.stdout",
            tofile=f"{name}.cured.stdout"))
        shown = diff[:40]
        lines.append("  stdout diff:")
        lines.extend("    " + d.rstrip("\n") for d in shown)
        if len(diff) > len(shown):
            lines.append(f"    ... {len(diff) - len(shown)} more "
                         "diff lines")
    raise AssertionError("\n".join(lines))


# -- failure-contained suite runs -------------------------------------------


@dataclass
class FailureRow:
    """A workload that failed somewhere in the bench pipeline."""

    name: str
    phase: str        # parse | cure | run | compare
    error: str        # exception class name
    detail: str       # str(exception), first line
    attempts: int = 1
    failure: Optional[dict] = None  # CheckFailure record, if any


@dataclass
class SuiteResult:
    """Outcome of a failure-contained benchmark sweep."""

    rows: list[BenchRow] = field(default_factory=list)
    failures: list[FailureRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _is_transient(exc: BaseException) -> bool:
    """Errors worth one retry: machine pressure, not program facts."""
    if isinstance(exc, (MemoryError, OSError)):
        return True
    return (isinstance(exc, InterpreterLimitError)
            and "wall-clock" in str(exc))


def _failure_phase(exc: BaseException) -> str:
    if isinstance(exc, PreprocessError):
        return "parse"
    if isinstance(exc, AssertionError):
        return "compare"
    return "run"


def run_suite(workloads: Iterable[Workload], *,
              tools: tuple[str, ...] = ("ccured",),
              options: Optional[CureOptions] = None,
              scale: Optional[int] = None,
              max_steps: int = 50_000_000,
              engine: str = "closures",
              retries: int = 1) -> SuiteResult:
    """Run a set of workloads, containing per-workload failures.

    A crashing, hanging (step/deadline-limited) or diverging workload
    becomes a :class:`FailureRow` instead of aborting the whole sweep;
    transient-looking errors get one bounded retry.  Only
    ``KeyboardInterrupt`` (and other non-``Exception`` exits) still
    propagates."""
    result = SuiteResult()
    for w in workloads:
        attempts = 0
        while True:
            attempts += 1
            try:
                result.rows.append(run_workload(
                    w, tools=tools, options=options, scale=scale,
                    max_steps=max_steps, engine=engine))
                break
            except Exception as exc:
                if _is_transient(exc) and attempts <= retries:
                    continue
                detail = str(exc).splitlines()[0] if str(exc) else ""
                failure = None
                if isinstance(exc, MemorySafetyError):
                    failure = CheckFailure.from_exception(
                        exc).to_json()
                result.failures.append(FailureRow(
                    name=w.name, phase=_failure_phase(exc),
                    error=type(exc).__name__, detail=detail,
                    attempts=attempts, failure=failure))
                break
    return result
