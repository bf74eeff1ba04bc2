"""Differential validation of ``repro lint`` against the fault
campaign.

The campaign (:mod:`repro.faults.campaign`) proves the *dynamic* side:
every injected fault traps in the cured run.  This module proves the
*static* side: for each mutation class whose fragment is statically
decidable — the bug is forced on every path, with constant shape — the
linter must flag the grafted site, and it must flag **nothing** in the
surrounding workload (which is pristine, running code).  That gives a
per-class precision/recall table (EXPERIMENTS E13) built from exactly
the same variants the dynamic campaign executes: same
``make_variant`` seeding, same graft, same cure options.

A variant's grafted instructions are distinguishable by file name: the
fragment is parsed as ``{workload}+{class}.c`` while workload code
lives in ``{workload}.c``, so "flagged at the grafted site" is a file
comparison, not a heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.analysis.lint import lint_cured
from repro.bench.harness import pristine_parse
from repro.cache import private_copy
from repro.core import CureOptions, cure
from repro.faults.mutators import MUTATORS, graft, make_variant
from repro.obs.serialize import stable_dumps
from repro.workloads import Workload, all_workloads

LINTVAL_SCHEMA = "repro.faults.lintval/1"

#: mutation classes whose injected bug is decidable by the must-
#: analysis, and the diagnostic each must raise at the grafted site.
STATIC_CLASSES: dict[str, str] = {
    "null-deref": "repro-E001",
    "bounds-off-by-one": "repro-E002",
    "double-free": "repro-E003",
    "use-after-free-reuse": "repro-E004",
    "uninit-pointer": "repro-E005",
    "invalid-free": "repro-E006",
}


@dataclass
class VariantLint:
    """Lint outcome of one (workload, class) variant."""

    workload: str
    mclass: str
    expected: Optional[str]      # diagnostic code, None if dynamic-only
    hit: bool                    # expected code present at graft site
    graft_codes: list[str] = field(default_factory=list)
    false_positives: int = 0     # diagnostics outside the graft file

    def to_json(self) -> dict:
        return {"workload": self.workload, "mclass": self.mclass,
                "expected": self.expected or "",
                "hit": self.hit, "graft_codes": self.graft_codes,
                "false_positives": self.false_positives}


@dataclass
class ClassLintRow:
    """Per-class aggregate over all workloads (one E13 table row)."""

    mclass: str
    expected: Optional[str]
    variants: int = 0
    hits: int = 0
    false_positives: int = 0

    @property
    def recall(self) -> Optional[float]:
        if self.expected is None or not self.variants:
            return None
        return self.hits / self.variants

    def to_json(self) -> dict:
        return {"mclass": self.mclass,
                "expected": self.expected or "",
                "variants": self.variants, "hits": self.hits,
                "false_positives": self.false_positives,
                "recall": self.recall}


@dataclass
class LintValidation:
    """The full differential run."""

    seed: int
    optimize: str
    variants: list[VariantLint] = field(default_factory=list)
    rows: list[ClassLintRow] = field(default_factory=list)

    @property
    def static_variants(self) -> int:
        return sum(r.variants for r in self.rows
                   if r.expected is not None)

    @property
    def static_hits(self) -> int:
        return sum(r.hits for r in self.rows
                   if r.expected is not None)

    @property
    def false_positives(self) -> int:
        return sum(v.false_positives for v in self.variants)

    @property
    def recall(self) -> Optional[float]:
        n = self.static_variants
        return (self.static_hits / n) if n else None

    @property
    def precision(self) -> Optional[float]:
        tp = self.static_hits
        return (tp / (tp + self.false_positives)
                if (tp + self.false_positives) else None)

    @property
    def ok(self) -> bool:
        return (self.static_hits == self.static_variants
                and self.false_positives == 0)

    def to_json(self) -> dict:
        return {"schema": LINTVAL_SCHEMA, "seed": self.seed,
                "optimize": self.optimize,
                "rows": [r.to_json() for r in self.rows],
                "variants": [v.to_json() for v in self.variants],
                "totals": {"static_variants": self.static_variants,
                           "static_hits": self.static_hits,
                           "false_positives": self.false_positives,
                           "recall": self.recall,
                           "precision": self.precision}}

    def dumps(self) -> str:
        return stable_dumps(self.to_json())

    def render(self) -> str:
        lines = [f"lint validation: seed={self.seed} "
                 f"optimize={self.optimize}",
                 f"{'class':24s} {'code':11s} {'hits':>9s} "
                 f"{'FPs':>4s} {'recall':>7s}"]
        for r in self.rows:
            rec = ("-" if r.recall is None
                   else f"{r.recall * 100:.0f}%")
            code = r.expected or "(dynamic)"
            lines.append(f"{r.mclass:24s} {code:11s} "
                         f"{r.hits:4d}/{r.variants:<4d} "
                         f"{r.false_positives:4d} {rec:>7s}")
        prec = ("-" if self.precision is None
                else f"{self.precision * 100:.0f}%")
        rec = ("-" if self.recall is None
               else f"{self.recall * 100:.0f}%")
        lines.append(f"static classes: {self.static_hits}/"
                     f"{self.static_variants} flagged at the grafted "
                     f"site, {self.false_positives} false "
                     f"positive(s) — precision {prec}, recall {rec}")
        return "\n".join(lines)


def lint_variant(w: Workload, mclass: str, seed: int, *,
                 optimize: str = "flow",
                 scale: Optional[int] = None) -> VariantLint:
    """Graft one campaign variant (exactly as the dynamic campaign
    does), cure it, lint it, and score the findings by file."""
    spec = make_variant(w.name, mclass, seed)
    base = private_copy(pristine_parse(w, scale))
    name = f"{w.name}+{spec.mclass}"
    graft(base, spec, name=name)
    cured = cure(base,
                 options=CureOptions(optimize=optimize,
                                     provenance=True,
                                     temporal=spec.temporal,
                                     trust_bad_casts=w.trust_bad_casts),
                 name=name)
    report = lint_cured(cured, name=name)
    graft_file = f"{name}.c"
    graft_codes = sorted({d.code for d in report.diagnostics
                          if d.file == graft_file})
    fps = sum(1 for d in report.diagnostics if d.file != graft_file)
    expected = STATIC_CLASSES.get(mclass)
    hit = expected in graft_codes if expected else bool(graft_codes)
    return VariantLint(workload=w.name, mclass=mclass,
                       expected=expected, hit=hit,
                       graft_codes=graft_codes,
                       false_positives=fps)


def validate_workload(w: Workload, classes: Iterable[str],
                      seed: int = 1, *, optimize: str = "flow",
                      scale: Optional[int] = None
                      ) -> list[VariantLint]:
    """Lint every class variant of one workload — the unit of work
    :func:`run_lint_validation` shards."""
    return [lint_variant(w, m, seed, optimize=optimize, scale=scale)
            for m in classes]


def aggregate_validation(seed: int, optimize: str,
                         classes: Iterable[str],
                         variants: Iterable[VariantLint]
                         ) -> LintValidation:
    """Fold per-variant outcomes into the per-class E13 rows.  Pure
    aggregation: the same variants in the same order produce
    byte-identical reports."""
    cs = list(classes)
    val = LintValidation(seed=seed, optimize=optimize)
    rows = {m: ClassLintRow(mclass=m, expected=STATIC_CLASSES.get(m))
            for m in cs}
    for v in variants:
        val.variants.append(v)
        row = rows[v.mclass]
        row.variants += 1
        row.hits += int(v.hit)
        row.false_positives += v.false_positives
    val.rows = [rows[m] for m in cs]
    return val


def run_lint_validation(seed: int = 1, *,
                        workloads: Optional[Iterable[Workload]] = None,
                        classes: Optional[Iterable[str]] = None,
                        optimize: str = "flow",
                        scale: Optional[int] = None, jobs=None,
                        progress: Optional[Callable[[str], None]]
                        = None) -> LintValidation:
    """Lint every (workload, class) variant, one shard per workload
    across ``jobs`` workers; aggregate per class."""
    from repro.sweep.runner import on_shard, run_sharded
    ws = list(workloads) if workloads is not None \
        else list(all_workloads())
    cs = list(classes) if classes is not None else list(MUTATORS)
    tasks = [("lintval", dict(name=w.name, classes=cs, seed=seed,
                              optimize=optimize, scale=scale))
             for w in ws]
    results = run_sharded(tasks, jobs, on_shard(
        progress, lambda kw, variants: (
            f"lintval {kw['name']}: "
            f"{sum(1 for v in variants if v.hit)} hits")))
    collected = [v for variants in results for v in variants]
    return aggregate_validation(seed, optimize, cs, collected)
