"""Per-function analysis statistics for ``repro analyze``.

Reports, for each function of a cured program, the CFG shape (blocks,
edges, back-edges), the number of dataflow facts generated, and how
many of its emitted checks each optimization level removes — the
straight-line ``local`` pass versus the flow-sensitive ``flow`` pass.

The program is cured with ``optimize="none"`` so the *emitted* check
set is the baseline; the two eliminators are then measured against
that same instrumentation (the local pass on a scratch copy of each
function, the flow pass read-only via :func:`analyze_fundec`).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Union

from repro.cil import stmt as S
from repro.cil.program import GFun, Program
from repro.analysis.eliminate import analyze_fundec
from repro.cache import private_copy
from repro.core.curer import CuredProgram, cure
from repro.core.optimize import _do_block
from repro.core.options import CureOptions


def _count_checks(b: S.Block) -> int:
    n = 0
    for s in b.stmts:
        if isinstance(s, S.InstrStmt):
            n += sum(1 for i in s.instrs if isinstance(i, S.Check))
        elif isinstance(s, S.Block):
            n += _count_checks(s)
        elif isinstance(s, S.If):
            n += _count_checks(s.then) + _count_checks(s.els)
        elif isinstance(s, S.Loop):
            n += _count_checks(s.body)
    return n


def analyze_fundec_stats(fd: S.Fundec) -> dict:
    """CFG/fact/elimination statistics for one (unoptimized-level)
    function definition."""
    fa = analyze_fundec(fd)
    scratch = private_copy(fd)
    elided_local = _do_block(scratch.body)
    return {
        "function": fd.name,
        "blocks": fa.n_blocks,
        "edges": fa.n_edges,
        "back_edges": fa.n_back_edges,
        "facts": fa.n_facts,
        "checks": fa.n_checks,
        "elided_local": elided_local,
        "elided_flow": fa.n_removable,
    }


def analyze_cured(cured: Union[CuredProgram, Program]) -> dict:
    """Statistics for every function of a cured program.  The program
    should have been cured with ``optimize="none"`` so the emitted
    check set is intact (``analyze_source`` arranges this)."""
    prog = cured.prog if isinstance(cured, CuredProgram) else cured
    functions = [analyze_fundec_stats(g.fundec)
                 for g in prog.globals if isinstance(g, GFun)]
    keys = ("blocks", "edges", "back_edges", "facts", "checks",
            "elided_local", "elided_flow")
    totals = {k: sum(f[k] for f in functions) for k in keys}
    return {"program": prog.name,
            "functions": functions,
            "totals": totals}


def analyze_source(source: str, name: str = "program",
                   options: Optional[CureOptions] = None,
                   include_dirs: Optional[Sequence[str]] = None) -> dict:
    """Cure ``source`` at ``optimize="none"`` and analyze it."""
    opts = dataclasses.replace(options or CureOptions(),
                               optimize="none")
    cured = cure(source, options=opts, name=name,
                 include_dirs=include_dirs)
    return analyze_cured(cured)


def analyze_workload(w, scale: Optional[int] = None) -> dict:
    """Analyze one benchmark workload at ``optimize="none"`` through
    the shared pristine parse/cure caches — the unit of work one shard
    of ``repro analyze`` runs.  The pristine cure is read, never
    mutated: :func:`analyze_fundec` is read-only and the local pass
    runs on a per-function copy."""
    from repro.bench.harness import pristine_cure
    return analyze_cured(pristine_cure(
        w, options=CureOptions(optimize="none"), scale=scale))


def render_table(stats: dict) -> str:
    """A readable fixed-width table of per-function statistics."""
    cols = ("function", "blocks", "edges", "back_edges", "facts",
            "checks", "elided_local", "elided_flow")
    rows = [dict(f) for f in stats["functions"]]
    rows.append({"function": "TOTAL", **stats["totals"]})
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows))
              for c in cols}
    lines = [f"program: {stats['program']}",
             "  ".join(c.ljust(widths[c]) for c in cols),
             "  ".join("-" * widths[c] for c in cols)]
    for r in rows:
        lines.append("  ".join(
            (str(r[c]).ljust(widths[c]) if c == "function"
             else str(r[c]).rjust(widths[c])) for c in cols))
    return "\n".join(lines)
