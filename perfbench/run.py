"""The repository benchmark: four workloads, timed end to end and, in a
separate traced run, layer by layer.

Usage::

    python3 perfbench/run.py --workload compile-cold --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload

Run it from anywhere inside a checkout of the repository; it builds
nothing (the program is pure Python under ``src/``) and reads and
writes only inside the checkout (``.perfbench/``).  Load is one client
in a closed loop: sessions run one after another, each in a fresh
process that sets up, reports ready and measures its share of the
run's operations in whole rounds.  ``setup_s`` is the median over
sessions of process start to ready.  The last stdout line is the JSON
result; the lines before it are a per-metric report with units and
sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
ORACLE = os.path.join(HERE, "oracle.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("compile-cold", "exec-long", "sweep-warm", "faults")
#: sessions per run: setup is measured once per session, and the
#: run's operations are split between them.  An exec-long setup runs
#: each of its operations once and a sweep-warm setup costs a third
#: of a pass, so those two get fewer sessions: a run of every
#: workload stays under two minutes on a 2-core x86-64 container
SESSIONS = {"compile-cold": 3, "exec-long": 2, "sweep-warm": 1,
            "faults": 3}
#: wall seconds of one round over a session's operations (2-core
#: x86-64 container); a run makes ``--seconds / NOMINAL_S`` rounds, at
#: least one, so every run measures whole rounds: the same mix of
#: operations, whatever the machine's speed
NOMINAL_S = {"compile-cold": 5.0, "exec-long": 5.0,
             "sweep-warm": 8.0, "faults": 4.0}
#: sessions in each half (untraced, traced) of a traced run
TRACE_SESSIONS = 2
#: a session process that outlives this is killed (the run fails)
SESSION_TIMEOUT_S = 170

#: per-layer time metrics: every layer's self time, then the glue
TIME_LAYERS = spans.TIME_LAYERS + ("bench.glue_s",)
COUNTS = (
    ("cpp.out_bytes", "bytes"), ("frontend.instrs", "count"),
    ("core.checks_emitted", "count"),
    ("analysis.checks_removed", "count"),
    ("analysis.lint_findings", "count"),
    ("cache.hits", "count"), ("cache.misses", "count"),
    ("cache.bytes_stored", "bytes"), ("obs.site_hits", "count"),
    ("faults.caught", "count"), ("faults.missed", "count"),
    ("runtime.traps", "count"), ("runtime.steps", "count"),
    ("runtime.cycles", "count"), ("runtime.checks_executed", "count"),
    ("runtime.peak_heap_bytes", "bytes"),
)

#: counts that may differ between runs of one operation: a pickled
#: tree carries process-global ids, which grow as a process compiles
INEXACT = frozenset({"cache.bytes_stored"})


class BenchError(Exception):
    """The benchmark itself could not run (not a program failure)."""


# -- sessions -----------------------------------------------------------------


def _spawn(cfg: dict, env: dict) -> tuple[float, dict]:
    """Run one worker process; returns (process start to READY, its
    result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(cfg)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(SESSION_TIMEOUT_S, proc.kill)
    timer.start()
    ready = None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"{cfg['workload']} {cfg['role']} process "
                         f"exited with status {proc.returncode}")
    with open(cfg["out"], encoding="utf-8") as f:
        return ready, json.load(f)


def run_sessions(workload: str, seed: int, seconds: float,
                 sessions: int, trace: bool, work: str) -> list[dict]:
    out = []
    rounds = max(1, round(seconds / NOMINAL_S[workload]))
    for i in range(sessions):
        sdir = os.path.join(work, f"{'t' if trace else 'u'}{i}")
        os.makedirs(sdir)
        # session i hashes strings with seed i: dict and set layouts
        # move a sweep pass by +-5% between hash seeds, so every run
        # measures the same few layouts
        env = dict(os.environ, REPRO_CACHE_DIR=os.path.join(sdir, "cache"),
                   REPRO_CACHE="on", PYTHONHASHSEED=str(i))
        cfg = {"workload": workload, "seed": seed, "index": i,
               "sessions": sessions, "rounds": rounds,
               "trace": int(trace), "oracle_path": ORACLE,
               "cache_dir": os.path.join(sdir, "cache"),
               "role": "session", "out": os.path.join(sdir, "r.json")}
        if workload == "sweep-warm":
            # one setup fills the session's cache; each pass is a
            # fresh process reading it, reported as a session of its
            # own that shares the setup
            ready, setup = _spawn(dict(cfg, role="setup"), env)
            for n in range(rounds):
                _, res = _spawn(dict(cfg, role="pass", rounds=1,
                                     out=os.path.join(sdir, f"p{n}.json")),
                                env)
                out.append(dict(res, setup_s=ready,
                                setup_speed=setup["setup_speed"]))
        else:
            ready, res = _spawn(cfg, env)
            out.append(dict(res, setup_s=ready))
    return out


# -- metrics ------------------------------------------------------------------


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile (``statistics.quantiles(n=10)``)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[q - 1]


def samples_of(sessions: list[dict]) -> list[dict]:
    return [s for r in sessions for s in r["samples"]]


def judge(sessions: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons).  An operation fails when it
    raised, did not match its expectation, or — for a repeated
    operation — produced counts that differ from its first run."""
    attempted = failed = 0
    reasons: list[str] = []
    first_counts: dict = {}
    for s in samples_of(sessions):
        attempted += 1
        why = s["why"]
        prev = first_counts.setdefault(s["op"], s["counts"])
        moved = [f"{k} {prev.get(k)} -> {v}"
                 for k, v in sorted(s["counts"].items())
                 if k not in INEXACT and prev.get(k) != v]
        if moved and not why:
            why = "counts differ from an earlier run: " + ", ".join(moved)
        if why:
            failed += 1
            reasons.append(f"{s['op']}: {why}")
    return attempted, failed, reasons


def end_to_end(workload: str, sessions: list[dict]) -> dict:
    """The BENCHMARK.json end-to-end metrics plus the report-only
    readings.  Times are scaled to the reference machine by the speed
    sampled around them (calib.py)."""
    samples = [s for s in samples_of(sessions) if s["units"]]
    scaled = [s["wall"] / s["speed"] for s in samples]
    units = sum(s["units"] for s in samples)
    # latency quantiles over operations: the median of each
    # operation's repeats first, so that noise in one repeat moves
    # its operation less
    per_op: dict = {}
    for s, w in zip(samples, scaled):
        if workload == "exec-long":
            # a run's size is the seed's choice: its latency is taken
            # per million steps, the time of a fixed amount of work
            w = w / s["units"] * 1e6
        per_op.setdefault(s["op"], []).append(w)
    walls = [statistics.median(ws) for ws in per_op.values()] or [0.0]
    setups = [r["setup_s"] / r["setup_speed"] for r in sessions]
    m = {
        "setup_s": (statistics.median(setups), "s", len(sessions)),
        "latency_p50_ms": (statistics.median(walls) * 1000, "ms",
                           len(samples)),
        "rate_per_s": (units / sum(scaled) if scaled else 0.0,
                       "1/s", len(samples)),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in sessions),
                        "MB", len(sessions)),
    }
    extra = {
        "latency_p90_ms": (_quantile(walls, 9) * 1000, "ms",
                           len(samples)),
        "unscaled_p50_ms": (statistics.median(
            s["wall"] for s in samples) * 1000 if samples else 0.0,
            "ms", len(samples)),
        "speed_factor": (statistics.median(
            s["speed"] for s in samples) if samples else 0.0, "x",
            len(samples)),
    }
    if workload == "exec-long":
        for mode in ("cured", "raw"):
            ms = [s for s in samples if s.get("mode") == mode]
            w = sum(s["wall"] / s["speed"] for s in ms)
            extra[f"{mode}_steps_per_s"] = (
                sum(s["units"] for s in ms) / w if w else 0.0,
                "steps/s", len(ms))
    return {"metrics": m, "extra": extra}


#: the workload-specific name of each generic metric, for the
#: report lines
ALIASES = {
    "compile-cold": {"latency_p50_ms": "compile_p50_ms",
                     "latency_p90_ms": "compile_p90_ms",
                     "rate_per_s": "compiles_per_s"},
    "exec-long": {"latency_p50_ms": "ms_per_Msteps_p50",
                  "latency_p90_ms": "ms_per_Msteps_p90",
                  "rate_per_s": "steps_per_s"},
    "sweep-warm": {"latency_p50_ms": "sweep_p50_ms",
                   "latency_p90_ms": "sweep_p90_ms",
                   "rate_per_s": "workloads_per_s"},
    "faults": {"latency_p50_ms": "variant_p50_ms",
               "latency_p90_ms": "variant_p90_ms",
               "rate_per_s": "variants_per_s"},
}


def per_layer(workload: str, untraced: list[dict],
              traced: list[dict]) -> dict:
    """The BENCHMARK.json per-layer metrics of a traced run."""
    seconds = {k: 0.0 for k in TIME_LAYERS}
    op_wall = glue = counting = 0.0
    ops = 0
    for r in traced:
        lay = r["layers"]
        for k, v in lay["seconds"].items():
            seconds[k] = seconds.get(k, 0.0) + v
        op_wall += lay["op_wall"]
        glue += lay["glue"]
        counting += lay["counting"]
        ops += lay["ops"]
    seconds["bench.glue_s"] = glue
    out = {k: (seconds[k] / ops if ops else 0.0, "s/op")
           for k in TIME_LAYERS}
    wall = op_wall - counting
    out["bench.coverage"] = ((wall - glue) / wall if wall else 0.0,
                             "ratio")
    run_raw = seconds["interp.run_raw_s"]
    out["interp.cured_raw_wall_ratio"] = (
        seconds["interp.run_cured_s"] / run_raw if run_raw else 0.0,
        "ratio")
    out["workloads.generate_s"] = (
        statistics.median(r.get("generate_s", 0.0) for r in traced),
        "s")
    probes = [x for r in traced for x in r.get("first_run_extra", [])]
    out["interp.first_run_extra_s"] = (
        statistics.mean(probes) if probes else 0.0, "s/run")
    # counts: each distinct operation once
    counts = {k: 0 for k, _ in COUNTS}
    seen = set()
    for s in samples_of(traced):
        if s["op"] in seen:
            continue
        seen.add(s["op"])
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
    for k, unit in COUNTS:
        out[k] = (counts[k], unit)
    lookups = counts["cache.hits"] + counts["cache.misses"]
    out["cache.hit_ratio"] = (counts["cache.hits"] / lookups
                              if lookups else 0.0, "ratio")
    plain = end_to_end(workload, untraced)
    with_trace = end_to_end(workload, traced)
    p50 = plain["metrics"]["latency_p50_ms"][0]
    out["bench.trace_overhead"] = (
        with_trace["metrics"]["latency_p50_ms"][0] / p50 - 1
        if p50 else 0.0, "ratio")
    out["bench.latency_p90_ms"] = (
        plain["extra"]["latency_p90_ms"][0], "ms")
    for mode in ("cured", "raw"):
        got = plain["extra"].get(f"{mode}_steps_per_s")
        out[f"interp.{mode}_steps_per_s"] = (got[0] if got else 0.0,
                                             "steps/s")
    return {"metrics": out, "plain": plain, "traced": with_trace}


# -- reporting ----------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report_lines(workload: str, seed: int, e2e: dict, attempted: int,
                 failed: int, reasons: list[str]) -> list[str]:
    alias = ALIASES[workload]
    lines = [f"== {workload} (seed {seed})"]
    rows = dict(e2e["metrics"])
    rows.update(e2e["extra"])
    for name, (value, unit, n) in rows.items():
        shown = alias.get(name, name)
        tag = f"  [{name}]" if shown != name else ""
        lines.append(f"  {shown:<22} {_fmt(value):>14} {unit:<8} "
                     f"n={n}{tag}")
    frac = failed / attempted if attempted else 0.0
    lines.append(f"  {'failed_frac':<22} {_fmt(frac):>14} {'ratio':<8} "
                 f"n={attempted}  ({failed} failed)")
    lines.extend(f"  FAIL {r}" for r in reasons[:20])
    return lines


def write_trace(workload: str, seed: int, traced: list[dict]) -> str:
    """The traced run's spans, one list per session, as JSON."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": workload, "seed": seed,
                   "sessions": [r.get("spans", []) for r in traced]},
                  f)
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: str) -> dict:
    if not trace:
        sessions = run_sessions(workload, seed, seconds, SESSIONS[workload],
                                False, work)
        attempted, failed, reasons = judge(sessions)
        e2e = end_to_end(workload, sessions)
        lines = report_lines(workload, seed, e2e, attempted, failed,
                             reasons)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u, _n) in e2e["metrics"].items()}
    else:
        # each half gets half the run's time
        untraced = run_sessions(workload, seed, seconds / 2,
                                TRACE_SESSIONS, False, work)
        traced = run_sessions(workload, seed, seconds / 2,
                              TRACE_SESSIONS, True, work)
        # the halves are judged apart: a traced run counts more
        a1, f1, r1 = judge(untraced)
        a2, f2, r2 = judge(traced)
        attempted, failed, reasons = a1 + a2, f1 + f2, r1 + r2
        pl = per_layer(workload, untraced, traced)
        lines = report_lines(workload, seed, pl["plain"], attempted,
                             failed, reasons)
        lines.append("  tracing overhead (traced vs untraced):")
        for k, (v, u, _n) in pl["traced"]["metrics"].items():
            base = pl["plain"]["metrics"][k][0]
            rel = (v / base - 1) * 100 if base else 0.0
            lines.append(f"    {k:<20} {_fmt(base):>12} -> "
                         f"{_fmt(v):>12} {u:<5} ({rel:+.1f}%)")
        lines.append("  per layer:")
        for k, (v, u) in pl["metrics"].items():
            lines.append(f"    {k:<30} {_fmt(v):>14} {u}")
        lines.append("  spans: " + os.path.relpath(
            write_trace(workload, seed, traced), ROOT))
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in pl["metrics"].items()}
    return {"attempted": attempted, "failed": failed,
            "metrics": metrics, "lines": lines}


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro "
              "is missing", file=sys.stderr)
        return 2
    if not os.path.isfile(ORACLE):
        print(f"perfbench: no oracle file {ORACLE}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace),
                os.path.join(work, name))
            print("\n".join(results[name]["lines"]), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
