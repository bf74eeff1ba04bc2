"""One benchmark session, run as its own process by ``run.py``.

Usage: ``python3 perfbench/worker.py '<json config>'``.  The session
sets up (imports, inputs, oracle, pre-cures or cache population),
prints ``READY`` on stdout, runs its operations in a closed loop and
writes its samples to the ``out`` file of the config.  ``run.py``
times process start to ``READY`` as ``setup_s``.

Every timing the session reports carries the machine-speed factor
sampled around it (see ``calib.py``).

Roles: ``session`` sets up and measures; for ``sweep-warm`` a
``setup`` process fills the session's cure cache and a fresh ``pass``
process per sweep pass measures, so every pass starts with every
in-process cache empty, as a fresh ``repro metrics`` run does.

With ``trace`` on, the operations run under ``TRACER.capture()``:
the benchmark wraps each operation in a ``bench.op`` span and its
calls into each layer's public entry points in spans of their own
(see ``LayerWrappers``), and reads the spans the pipeline already
emits.  Spans stay in memory and are written with the result.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import spans as spanlib  # noqa: E402

#: started first thing in ``main``; every timing is scaled by it
SAMPLER = calib.Sampler()

#: cured closure runs re-run after the operations to measure the cost
#: of a first run on a fresh tree (closure compilation)
PROBE_RUNS = 8


def _tracer():
    from repro.obs.tracer import TRACER
    return TRACER


@contextmanager
def _span(trace: bool, name: str, **attrs):
    if trace:
        with _tracer().span(name, **attrs):
            yield
    else:
        yield


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mismatch(got: dict, want: dict) -> str:
    bad = [f"{k}: got {got.get(k)!r}, expected {v!r}"
           for k, v in sorted(want.items()) if got.get(k) != v]
    return "; ".join(bad)


# -- traced-mode layer wrappers -----------------------------------------------


class LayerWrappers:
    """Spans around the public entry points the pipeline calls on the
    benchmark's behalf (``collect_metrics`` and ``run_campaign`` call
    them internally), installed by rebinding the module attributes for
    the traced run only.  The ``interp.run`` wrapper's self time is
    ``Interpreter`` construction: its ``exec`` child is the run.
    ``Interpreter.run`` itself is wrapped to read the run's counters
    from the interpreter, so that a run that traps has them too."""

    def __init__(self) -> None:
        self.op = None
        self.runs: list[dict] = []     # one record per program run
        self.cures: list[tuple] = []   # (op, emitted, removed)
        self._stash: list[tuple] = []  # cured closure runs to probe
        self._open = None              # the record of the current run

    def install(self) -> None:
        import repro.bench.harness as harness
        import repro.faults.campaign as campaign
        import repro.interp as interp
        for mod in (harness, campaign):
            self._span(mod, "pristine_parse", "bench.pristine")
        self._span(harness, "pristine_cure", "bench.pristine")
        self._span(campaign, "make_variant", "faults.prepare")
        self._span(campaign, "graft", "faults.prepare")
        self._span(campaign, "run_variant", "faults.variant")
        for mod in (interp, campaign):
            self._run(mod, "run_cured", "cured")
            self._run(mod, "run_raw", "raw")
        real_run = interp.Interpreter.run

        def run(ip, *a, **kw):
            try:
                return real_run(ip, *a, **kw)
            finally:
                if self._open is not None:
                    self._open.update(
                        steps=ip.steps, cycles=ip.cost.total,
                        checks=ip.cost.checks_executed(),
                        peak_heap=ip.mem.bytes_allocated)
        interp.Interpreter.run = run
        real_cure = campaign.cure

        def cure(*a, **kw):
            cured = real_cure(*a, **kw)
            self.cures.append((self.op,
                               sum(cured.check_counts.values()),
                               cured.checks_removed))
            return cured
        campaign.cure = cure

    @staticmethod
    def _span(mod, attr: str, name: str) -> None:
        real = getattr(mod, attr)
        tracer = _tracer()

        def wrapper(*a, **kw):
            with tracer.span(name):
                return real(*a, **kw)
        setattr(mod, attr, wrapper)

    def _run(self, mod, attr: str, mode: str) -> None:
        real = getattr(mod, attr)
        tracer = _tracer()

        def wrapper(*a, **kw):
            rec = {"op": self.op, "mode": mode,
                   "engine": kw.get("engine", "closures")}
            self._open = rec
            t0 = time.perf_counter()
            try:
                with tracer.span("interp.run"):
                    return real(*a, **kw)
            finally:
                rec["wall"] = time.perf_counter() - t0
                self._open = None
                self.runs.append(rec)
                if (mode == "cured" and rec["engine"] == "closures"
                        and len(self._stash) < 32):
                    self._stash.append((real, a, kw, rec))
        setattr(mod, attr, wrapper)

    def first_run_extra(self) -> list[float]:
        """Re-run the shortest stashed cured runs on their (now
        compiled) trees; first wall minus steady wall, per run."""
        picked = sorted(self._stash, key=lambda s: s[3]["wall"])
        out = []
        for real, a, kw, rec in picked[:PROBE_RUNS]:
            t0 = time.perf_counter()
            try:
                real(*a, **kw)
            except Exception:
                pass    # injected faults trap again, as they did first
            out.append(rec["wall"] - (time.perf_counter() - t0))
        self._stash = []
        return out

    def run_counts(self, op) -> dict:
        """Runtime counters of the runs made during ``op``, trapped
        ones included."""
        c = {"runtime.steps": 0, "runtime.cycles": 0,
             "runtime.checks_executed": 0,
             "runtime.peak_heap_bytes": 0}
        for r in self.runs:
            if r["op"] == op and "steps" in r:
                c["runtime.steps"] += r["steps"]
                c["runtime.cycles"] += r["cycles"]
                c["runtime.checks_executed"] += r["checks"]
                c["runtime.peak_heap_bytes"] += r["peak_heap"]
        return c

    def engine_mismatch(self, op) -> str:
        """Where ``op`` ran one cured program under more than one
        engine, how the counters of each engine's run differ from the
        tree engine's, the independent interpreter ("" if they do
        not)."""
        cured = {r["engine"]: r for r in self.runs
                 if r["op"] == op and r["mode"] == "cured"}
        want = cured.get("tree")
        if want is None:
            return ""
        keys = ("steps", "cycles", "checks")
        return "; ".join(
            f"{engine} {k} {r.get(k)} != tree {want.get(k)}"
            for engine, r in sorted(cured.items()) if engine != "tree"
            for k in keys if r.get(k) != want.get(k))


class _InstrCounter:
    """IR size after lowering: instructions seen by ``walk_program``."""

    def __init__(self) -> None:
        from repro.cil.visitor import Visitor

        class Counter(Visitor):
            n = 0

            def visit_instr(self, i) -> None:
                self.n += 1
        self.cls = Counter

    def count(self, prog) -> int:
        from repro.cil.visitor import walk_program
        v = self.cls()
        walk_program(prog, v)
        return v.n


# -- workloads ----------------------------------------------------------------


class CompileCold:
    """preprocess -> parse_program -> cure (flow) -> CureCache.store ->
    lint_cured per program, every program a miss on an empty cache."""

    def __init__(self, cfg: dict, trace: bool) -> None:
        import inputs
        from repro.cache import code_fingerprint
        from repro.workloads import PROGRAM_DIR
        self.trace = trace
        self.include = [PROGRAM_DIR]
        with _span(trace, "workloads.generate"):
            keys = inputs.compile_draw_keys(cfg["seed"])
            self.ops = [inputs.make_program(k)
                        for k in keys[cfg["index"]::cfg["sessions"]]]
        self.oracle = cfg["oracle"]["compile"]
        self.cache_root = cfg["cache_dir"]
        self.caches: dict[int, object] = {}
        self.stored_bytes: dict[int, int] = {}
        self.instrs = _InstrCounter()
        code_fingerprint()   # once per process, as in any session

    @property
    def op_ids(self) -> list[str]:
        return [p.id for p in self.ops]

    def run(self, prog, cycle: int) -> dict:
        from repro.analysis.lint import lint_cured
        from repro.cache import CureCache, canonical_options, cure_key
        from repro.core import CureOptions, cure
        from repro.cpp import Preprocessor
        from repro.frontend import parse_program
        cache = self.caches.get(cycle)
        if cache is None:
            # a repeat of the draw gets a new empty store: every
            # compile stays a cold miss
            cache = CureCache(
                os.path.join(self.cache_root, f"c{cycle}"), True)
            self.caches[cycle] = cache
        defines = prog.defines or None
        # named by input id: two scales of a program that ignores
        # SCALE preprocess to the same text, yet are distinct inputs
        name = prog.id
        t0 = time.perf_counter()
        with _span(self.trace, "cpp.preprocess"):
            pp = Preprocessor(self.include, defines)
            text = pp.preprocess(prog.source, filename=name + ".c")
        opts = CureOptions(trust_bad_casts=prog.trust_bad_casts)
        key = cure_key(text, tuple(sorted(pp.lint_suppressions)),
                       name, canonical_options(opts))
        hit = cache.load(key)
        parsed = parse_program(prog.source, name,
                               include_dirs=self.include,
                               defines=defines)
        instrs = 0
        counting = 0.0
        if self.trace:
            t_count = time.perf_counter()
            with _span(True, spanlib.COUNT_SPAN):
                instrs = self.instrs.count(parsed)
            counting = time.perf_counter() - t_count
        cured = cure(parsed, options=opts, name=name)
        stored = cache.store(key, cured)
        with _span(self.trace, "analysis.lint"):
            report = lint_cured(cured)
        # tracing-only counting is not part of a compile
        wall = time.perf_counter() - t0 - counting
        grew = 0
        if self.trace:
            # each repeat of the draw has its own store: its growth
            # is this compile's entry
            size = cache.stats().bytes
            grew = size - self.stored_bytes.get(cycle, 0)
            self.stored_bytes[cycle] = size
        got = {"checks": {k.value: v for k, v in
                          sorted(cured.check_counts.items(),
                                 key=lambda kv: kv[0].value)},
               "removed": cured.checks_removed,
               "lint_findings": len(report.diagnostics),
               "cache_hit": hit is not None, "stored": stored}
        want = dict(self.oracle[prog.id], lint_findings=0,
                    cache_hit=False, stored=True)
        return {"wall": wall, "units": 1, "why": _mismatch(got, want),
                "counts": {
                    "cpp.out_bytes": len(text),
                    "frontend.instrs": instrs,
                    "core.checks_emitted": sum(got["checks"].values()),
                    "analysis.checks_removed": got["removed"],
                    "analysis.lint_findings": got["lint_findings"],
                    "cache.hits": int(hit is not None),
                    "cache.misses": int(hit is None),
                    "cache.bytes_stored": grew}}


class ExecLong:
    """Long raw and cured closure-engine runs of programs cured and
    run once, untimed, in setup; the operation is one
    ``Interpreter.run``."""

    def __init__(self, cfg: dict, trace: bool) -> None:
        import inputs
        from repro.core import CureOptions, cure
        from repro.frontend import parse_program
        from repro.workloads import PROGRAM_DIR
        self.trace = trace
        with _span(trace, "workloads.generate"):
            progs = inputs.exec_draw(cfg["seed"])
        pairs = [(p, mode) for p in progs for mode in ("raw", "cured")]
        self.ops = pairs[cfg["index"]::cfg["sessions"]]
        self.trees = {}
        for p, mode in self.ops:
            tree = parse_program(p.source, p.name,
                                 include_dirs=[PROGRAM_DIR],
                                 defines=p.defines)
            if mode == "cured":
                tree = cure(tree, options=CureOptions(
                    trust_bad_casts=p.trust_bad_casts), name=p.name)
            self.trees[(p.id, mode)] = tree
        self.oracle = cfg["oracle"]["exec"]
        # the first run on a tree compiles its closures: run each
        # once here, so that every timed run is a steady one
        for op in self.ops:
            self._interpreter(op).run(list(op[0].args) or None)

    @property
    def op_ids(self) -> list[str]:
        return [f"{p.id}:{mode}" for p, mode in self.ops]

    def _interpreter(self, op):
        from repro.interp import Interpreter
        p, mode = op
        tree = self.trees[(p.id, mode)]
        if mode == "cured":
            return Interpreter(tree.prog, cured=tree, stdin=p.stdin)
        return Interpreter(tree, stdin=p.stdin)

    def run(self, op, cycle: int) -> dict:
        p, mode = op
        with _span(self.trace, "interp.init"):
            ip = self._interpreter(op)
        t0 = time.perf_counter()
        res = ip.run(list(p.args) or None)
        wall = time.perf_counter() - t0
        got = {"status": res.status,
               "stdout_sha256": _stdout_digest(res.stdout),
               "steps": res.steps, "cycles": res.cycles,
               "checks_executed": res.checks_executed,
               "peak_heap": res.peak_heap}
        return {"wall": wall, "units": res.steps, "mode": mode,
                "why": _mismatch(got, self.oracle[f"{p.id}:{mode}"]),
                "counts": {"runtime.steps": res.steps,
                           "runtime.cycles": res.cycles,
                           "runtime.checks_executed":
                               res.checks_executed,
                           "runtime.peak_heap_bytes": res.peak_heap}}


class Faults:
    """One seeded ``run_campaign`` call per (workload, class) variant:
    graft, cure with provenance, run to a trap under closures, tree
    and raw, and judge."""

    def __init__(self, cfg: dict, trace: bool) -> None:
        import inputs
        from repro.bench.harness import pristine_parse
        from repro.workloads import get
        self.trace = trace
        self.seed, pairs = inputs.campaign_plan(cfg["seed"])
        self.ops = pairs[cfg["index"]::cfg["sessions"]]
        for name in sorted({w for w, _ in self.ops}):
            pristine_parse(get(name))

    @property
    def op_ids(self) -> list[str]:
        return [f"{w}+{m}" for w, m in self.ops]

    def run(self, op, cycle: int) -> dict:
        import inputs
        from repro.faults.campaign import run_campaign
        w, m = op
        t0 = time.perf_counter()
        report = run_campaign(self.seed, inputs.CAMPAIGN,
                              workloads=[w], classes=[m])
        wall = time.perf_counter() - t0
        v = report.variants[0]
        why = "" if (v.caught and v.engines_agree) else (
            f"caught={v.caught} engines_agree={v.engines_agree} "
            f"expected {v.expected}, got "
            + ",".join(f"{r.tool}:{r.outcome}:{r.error}"
                       for r in v.runs))
        traps = sum(1 for r in v.runs if r.outcome == "trapped")
        return {"wall": wall, "units": 1, "why": why,
                "counts": {"faults.caught": int(v.caught),
                           "faults.missed": int(not v.caught),
                           "runtime.traps": traps}}


def _sweep_opts(w):
    from repro.core import CureOptions
    # exactly the options collect_workload_metrics cures with
    return CureOptions(trust_bad_casts=w.trust_bad_casts,
                       optimize=None, provenance=False)


def sweep_setup(cfg: dict) -> None:
    """Fill this session's empty cure cache with every workload's
    parse and cure, as a first ``repro metrics`` run would."""
    from repro.bench.harness import pristine_cure, pristine_parse
    from repro.workloads import all_workloads
    for w in all_workloads():
        pristine_parse(w)
        pristine_cure(w, options=_sweep_opts(w))


class SweepPass:
    """One full ``collect_metrics`` pass over all 27 workloads against
    the warm cache, in a process of its own."""

    op_ids = ["pass"]

    def __init__(self, cfg: dict, trace: bool) -> None:
        self.trace = trace
        self.ops = ["pass"]
        self.oracle = cfg["oracle"]["sweep"]

    def run(self, op, cycle: int) -> dict:
        from repro.cache import get_cache
        from repro.obs.metrics import collect_metrics
        from repro.workloads import all_workloads
        cache = get_cache()
        before = (cache.session.hits, cache.session.misses)
        t0 = time.perf_counter()
        with _span(self.trace, "obs.collect"):
            report = collect_metrics(all_workloads())
        wall = time.perf_counter() - t0
        hits = cache.session.hits - before[0]
        misses = cache.session.misses - before[1]
        whys = []
        for wm in report.workloads:
            got = {"raw_steps": wm.raw_steps,
                   "cured_steps": wm.cured_steps,
                   "raw_cycles": wm.raw_cycles,
                   "cured_cycles": wm.cured_cycles,
                   "checks_executed": wm.checks_executed}
            bad = _mismatch(got, self.oracle[wm.name])
            if bad:
                whys.append(f"{wm.name}: {bad}")
        if misses:
            whys.append(f"warm cache missed {misses} times")
        if len(report.workloads) != len(self.oracle):
            whys.append(f"{len(report.workloads)} workloads measured")
        return {"wall": wall, "units": len(report.workloads),
                "why": "; ".join(whys),
                "counts": {
                    "cache.hits": hits, "cache.misses": misses,
                    "cache.bytes_stored": cache.stats().bytes,
                    "obs.site_hits": sum(s.hits for wm in
                                         report.workloads
                                         for s in wm.sites),
                    "runtime.steps": sum(wm.raw_steps + wm.cured_steps
                                         for wm in report.workloads),
                    "runtime.cycles": sum(wm.raw_cycles
                                          + wm.cured_cycles
                                          for wm in report.workloads),
                    "runtime.checks_executed": sum(
                        wm.checks_executed for wm in report.workloads),
                }}


WORKLOADS = {"compile-cold": CompileCold, "exec-long": ExecLong,
             "faults": Faults, "sweep-warm": SweepPass}


# -- the session loop ---------------------------------------------------------


def measure(cfg: dict, t_start: float) -> dict:
    trace = bool(cfg["trace"])
    out: dict = {"samples": []}
    if trace:
        tracer = _tracer()
        with tracer.capture() as setup_records:
            wl = WORKLOADS[cfg["workload"]](cfg, True)
        setup_spans = spanlib.build_tree(setup_records)
        out["generate_s"] = sum(s.duration for s in setup_spans
                                if s.name == "workloads.generate")
    else:
        wl = WORKLOADS[cfg["workload"]](cfg, False)
    t_ready = time.perf_counter()
    print("READY", flush=True)

    ids = wl.op_ids
    wrappers = LayerWrappers() if trace else None

    def run_one(j: int, cycle: int) -> dict:
        t0 = time.perf_counter()
        try:
            sample = wl.run(wl.ops[j], cycle)
        except Exception as exc:
            sample = {"wall": 0.0, "units": 0, "counts": {},
                      "why": f"{type(exc).__name__}: {exc}"}
        sample["window"] = (t0, time.perf_counter())
        return sample

    def loop() -> None:
        # whole rounds over the session's share, so that every run
        # measures the same mix of operations
        i = 0
        for cycle in range(cfg["rounds"]):
            for j in range(len(wl.ops)):
                if wrappers is None:
                    sample = run_one(j, cycle)
                else:
                    wrappers.op = i
                    with _tracer().span(spanlib.OP_SPAN, op=i,
                                        id=ids[j]):
                        sample = run_one(j, cycle)
                    for k, v in wrappers.run_counts(i).items():
                        sample["counts"].setdefault(k, v)
                    if not sample["why"]:
                        sample["why"] = wrappers.engine_mismatch(i)
                sample["op"] = ids[j]
                out["samples"].append(sample)
                i += 1

    if trace:
        wrappers.install()
        tracer = _tracer()
        with tracer.capture() as records:
            loop()
        out["first_run_extra"] = wrappers.first_run_extra()
        for op, emitted, removed in wrappers.cures:
            s = out["samples"][op]["counts"]
            s["core.checks_emitted"] = (s.get("core.checks_emitted", 0)
                                        + emitted)
            s["analysis.checks_removed"] = (
                s.get("analysis.checks_removed", 0) + removed)
        tree = spanlib.build_tree(records)
        lt = spanlib.layer_times(tree)
        out["layers"] = {"seconds": lt.seconds, "op_wall": lt.op_wall,
                         "glue": lt.glue, "counting": lt.counting,
                         "ops": lt.ops}
        out["spans"] = [s.to_json(i) for i, s in enumerate(tree)]
    else:
        loop()
    out["rss_mb"] = _rss_mb()
    SAMPLER.stop()
    out["setup_speed"] = SAMPLER.factor(t_start, t_ready)
    for sample in out["samples"]:
        sample["speed"] = SAMPLER.factor(*sample.pop("window"))
    return out


def main(argv: list[str]) -> int:
    t_start = time.perf_counter()
    SAMPLER.start()
    cfg = json.loads(argv[1])
    with open(cfg["oracle_path"], encoding="utf-8") as f:
        cfg["oracle"] = json.load(f)
    if cfg["role"] == "setup":
        sweep_setup(cfg)
        t_ready = time.perf_counter()
        print("READY", flush=True)
        SAMPLER.stop()
        result = {"samples": [], "rss_mb": _rss_mb(),
                  "setup_speed": SAMPLER.factor(t_start, t_ready)}
    else:
        result = measure(cfg, t_start)
    with open(cfg["out"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
