"""Sharded sweeps: byte-identity with the serial path, under a real
two-worker process pool.

Every assertion here compares serialized artifacts with ``==`` on the
full text — the same check CI's determinism step performs with
``cmp`` — because the sweep's contract is not "equivalent results"
but "the same bytes".
"""

import json

import pytest

from repro.cli import main
from repro.obs.serialize import stable_dumps
from repro.faults.campaign import run_campaign
from repro.faults.lintval import run_lint_validation
from repro.obs.metrics import collect_metrics
from repro.sweep import (count_sweep_shards, resolve_jobs, run_sharded,
                         run_sweep, sharded_analyze, sharded_lint)
from repro.workloads import all_workloads, get

SOME = sorted(all_workloads(), key=lambda w: w.name)[:4]


# -- resolve_jobs ------------------------------------------------------------


def test_resolve_jobs_values():
    import os
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs("5") == 5
    cores = os.cpu_count() or 1
    assert resolve_jobs("auto") == cores
    assert resolve_jobs(0) == cores
    assert resolve_jobs(-2) == cores


def test_run_sharded_preserves_task_order():
    tasks = [("analyze", {"name": w.name, "scale": None})
             for w in SOME]
    serial = run_sharded(tasks, 1)
    pooled = run_sharded(tasks, 2)
    assert [r["program"] for r in pooled] \
        == [r["program"] for r in serial] \
        == [w.name for w in SOME]


def test_run_sharded_propagates_worker_errors():
    with pytest.raises(KeyError):
        run_sharded([("analyze", {"name": "no-such", "scale": None}),
                     ("analyze", {"name": SOME[0].name,
                                  "scale": None})], 2)


# -- per-driver byte-identity (serial vs jobs=2) -----------------------------


def test_sharded_metrics_byte_identical():
    serial = stable_dumps(collect_metrics(SOME).to_json())
    pooled = stable_dumps(collect_metrics(SOME, jobs=2).to_json())
    assert pooled == serial


def test_sharded_lint_byte_identical():
    from repro.analysis import lint_workload, reports_json
    serial = reports_json([lint_workload(w) for w in SOME])
    pooled = reports_json(sharded_lint(SOME, jobs=2))
    assert pooled == serial


def test_sharded_campaign_byte_identical():
    from repro.faults.report import report_to_json
    names = ["olden_power", "ptrdist_anagram"]
    serial = report_to_json(run_campaign(
        11, "smoke", workloads=names, optimize="local"))
    pooled = report_to_json(run_campaign(
        11, "smoke", workloads=names, optimize="local", jobs=2))
    assert pooled == serial


def test_sharded_campaign_rejects_unknown_selection(monkeypatch):
    # every selection error surfaces before a single shard runs
    import repro.sweep.runner as runner

    def no_shards(*a, **kw):
        raise AssertionError("a shard ran before selection was checked")
    monkeypatch.setattr(runner, "run_sharded", no_shards)
    for jobs in (1, 2):
        with pytest.raises(KeyError):
            run_campaign(1, "no-such-campaign", jobs=jobs)
        with pytest.raises(KeyError):
            run_campaign(1, "smoke", classes=["no-such-class"],
                         jobs=jobs)
        with pytest.raises(KeyError):
            run_campaign(1, "smoke", workloads=["no-such-workload"],
                         jobs=jobs)


def test_sharded_analyze_byte_identical():
    from repro.analysis import analyze_workload
    serial = json.dumps([analyze_workload(w) for w in SOME],
                        indent=2, sort_keys=True)
    pooled = json.dumps(sharded_analyze(SOME, jobs=2),
                        indent=2, sort_keys=True)
    assert pooled == serial


def test_sharded_lintval_byte_identical():
    ws = [get("olden_power"), get("ftpd")]
    cs = ["null-deref", "double-free"]
    serial = run_lint_validation(3, workloads=ws, classes=cs).dumps()
    pooled = run_lint_validation(3, workloads=ws, classes=cs,
                                 jobs=2).dumps()
    assert pooled == serial


def test_analyze_workload_reads_the_pristine_cure():
    """analyze reads the shared pristine cure in place: two calls
    agree, and the cured tree prints the same before and after."""
    from repro.analysis import analyze_workload
    from repro.bench.harness import pristine_cure
    from repro.core.options import CureOptions
    w = get("olden_power")
    pristine = pristine_cure(w, options=CureOptions(optimize="none"))
    before = pristine.to_c()
    first = analyze_workload(w)
    assert analyze_workload(w) == first
    assert pristine.to_c() == before


@pytest.mark.parametrize("timing", [False, True])
def test_collect_metrics_trace_spans_equal_at_every_jobs(timing):
    """The inline executor and the pool record the same spans, with
    or without the --timing tap inside each shard."""
    from collections import Counter
    ws = SOME[:2]
    collect_metrics(ws, timing=timing)      # warm the in-process memos
    names = {}
    for jobs in (1, 2):
        sink: list = []
        collect_metrics(ws, jobs=jobs, timing=timing, trace=sink)
        names[jobs] = Counter(r.name for r in sink)
    assert names[1] == names[2]
    assert names[1]["shard"] == names[1]["workload"] == len(ws)
    assert names[1]["exec"] >= 2 * len(ws)   # raw + cured per workload


# -- the matrix driver -------------------------------------------------------


def test_run_sweep_writes_deterministic_artifacts(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    targets = ("lint", "campaign")
    shards = count_sweep_shards(targets=targets, engines=("closures",),
                                levels=("flow",))
    for out, jobs in ((a, 1), (b, 2)):
        ticks: list = []
        summary = run_sweep(targets=targets, jobs=jobs,
                            out_dir=str(out),
                            shard_progress=ticks.append)
        assert summary.ok
        assert len(summary.artifacts) == 2
        # --progress ticks once per shard, whichever executor runs it
        assert len(ticks) == shards, jobs
    for name in ("lint-flow.json", "faults-smoke-flow.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_sweep_rejects_unknown_target():
    with pytest.raises(KeyError):
        run_sweep(targets=("no-such",), jobs=1)


# -- CLI ---------------------------------------------------------------------


def test_cli_metrics_jobs_byte_identical(tmp_path, capsys):
    serial = tmp_path / "serial.json"
    pooled = tmp_path / "pooled.json"
    sel = "olden_power,ptrdist_anagram"
    assert main(["metrics", "--workload", sel, "--quiet",
                 "--json", str(serial)]) == 0
    assert main(["metrics", "--workload", sel, "--quiet",
                 "--jobs", "2", "--json", str(pooled)]) == 0
    capsys.readouterr()
    assert pooled.read_bytes() == serial.read_bytes()


def test_cli_rejects_invalid_jobs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["metrics", "--workload", "olden_power",
              "--jobs", "nope"])
    assert exc.value.code == 2
    assert "invalid --jobs" in capsys.readouterr().err


def test_cli_sweep_and_cache_stats(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["sweep", "--targets", "lint", "--jobs", "2",
                 "--quiet", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "lint-flow" in text
    assert (out / "lint-flow.json").exists()
    assert main(["cache", "stats"]) == 0
    assert "cure cache at" in capsys.readouterr().out
    assert main(["cache", "stats", "--json", "-"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["enabled"] in (True, False)
    assert stats["entries"] >= 0


# -- PR 10: cross-process span capture ---------------------------------------


def test_run_sharded_span_sink_merges_worker_spans():
    from repro.sweep import run_sharded
    tasks = [("lint", {"name": w.name, "optimize": "flow",
                       "scale": None}) for w in SOME]
    sink: list = []
    import os
    plain = run_sharded(tasks, 2)
    traced = run_sharded(tasks, 2, span_sink=sink)
    # tracing never changes results
    assert [r.to_json() for r in traced] \
        == [r.to_json() for r in plain]
    pids = {r.pid for r in sink}
    assert len(pids) >= 2 and os.getpid() not in pids
    # one shard span per task, tagged with its workload (pipeline
    # spans inside vary with cache warmth; the boundary never does)
    shard_tags = {r.attrs.get("workload") for r in sink
                  if r.name == "shard"}
    assert shard_tags == {w.name for w in SOME}


def test_run_sharded_span_sink_serial_path():
    from repro.sweep import run_sharded
    import os
    sink: list = []
    run_sharded([("analyze", {"name": SOME[0].name,
                              "scale": None})], 1, span_sink=sink)
    assert sink and {r.pid for r in sink} == {os.getpid()}
    assert "shard" in {r.name for r in sink}


def test_run_sharded_under_spawn_context(monkeypatch):
    """Worker span capture under the spawn start method: fresh
    interpreters must import repro (the PYTHONPATH fallback), capture
    spans, and merge byte-identically to the serial path."""
    from repro.sweep import run_sharded
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    tasks = [("lint", {"name": w.name, "optimize": "flow",
                       "scale": None}) for w in SOME[:2]]
    sink: list = []
    pooled = run_sharded(tasks, 2, span_sink=sink)
    monkeypatch.delenv("REPRO_MP_START")
    serial = run_sharded(tasks, 1)
    assert [r.to_json() for r in pooled] \
        == [r.to_json() for r in serial]
    import os
    pids = {r.pid for r in sink}
    assert pids and os.getpid() not in pids


def test_mp_context_env_override(monkeypatch):
    from repro.sweep.runner import _mp_context
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    assert _mp_context().get_start_method() == "spawn"
    monkeypatch.setenv("REPRO_MP_START", "no-such-method")
    assert _mp_context().get_start_method() in ("fork", "spawn")


def test_ensure_child_path_exports_repro_dir(monkeypatch):
    import os
    import repro
    from repro.sweep.runner import _ensure_child_path
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    monkeypatch.delenv("PYTHONPATH", raising=False)
    _ensure_child_path()
    assert os.environ["PYTHONPATH"].split(os.pathsep)[0] == src
    # idempotent: a second call does not duplicate the entry
    _ensure_child_path()
    assert os.environ["PYTHONPATH"].split(os.pathsep).count(src) == 1


def test_sharded_metrics_traced_output_byte_identical():
    """The satellite guarantee: enabling tracing changes nothing
    about the report bytes, sharded or serial."""
    from repro.bench.harness import clear_program_cache
    ws = SOME[:3]
    sink: list = []
    plain = collect_metrics(ws, jobs=1)
    # cold in-process memos: the forked workers must really cure (the
    # disk cache answers, emitting cache spans), so the trace shows
    # the per-shard pipeline — while the report bytes cannot move
    clear_program_cache()
    traced = collect_metrics(ws, jobs=2, trace=sink)
    assert stable_dumps(plain.to_json()) \
        == stable_dumps(traced.to_json())
    names = {r.name for r in sink}
    assert {"shard", "cure", "exec", "cache"} <= names
    events = {r.attrs.get("event") for r in sink
              if r.name == "cache"}
    assert events & {"hit", "miss"}


def test_run_sweep_trace_merges_dispatch_and_workers(tmp_path):
    trace: list = []
    summary = run_sweep(targets=("lint",), jobs=2, trace=trace)
    assert summary.ok
    names = {r.name for r in trace}
    assert "dispatch" in names and "shard" in names
    assert len({r.pid for r in trace}) >= 3  # parent + 2 workers


def test_cli_sweep_trace_chrome_file(tmp_path, capsys):
    trace = tmp_path / "sweep-trace.json"
    assert main(["sweep", "--targets", "lint", "--jobs", "2",
                 "--quiet", "--trace", str(trace)]) == 0
    capsys.readouterr()
    doc = json.loads(trace.read_text())
    assert doc["displayTimeUnit"] == "ms"
    xs = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert len({e["pid"] for e in xs}) >= 3
    assert {e["name"] for e in xs} >= {"dispatch", "shard"}
    lanes = [e for e in doc["traceEvents"]
             if e.get("ph") == "M" and e["name"] == "process_name"]
    assert sum("worker" in m["args"]["name"] for m in lanes) >= 2


# -- PR 10: the --progress line ----------------------------------------------


class _FakeTTY:
    def __init__(self):
        self.text = ""

    def write(self, s):
        self.text += s

    def flush(self):
        pass

    def isatty(self):
        return True


def test_progress_line_draws_only_on_tty():
    from repro.sweep import ProgressLine
    import io
    plain = io.StringIO()          # not a TTY -> silent
    pl = ProgressLine(4, stream=plain)
    pl.tick()
    pl.close()
    assert plain.getvalue() == ""
    tty = _FakeTTY()
    pl = ProgressLine(4, stream=tty)
    pl.tick("ignored message")
    pl.tick()
    pl.close()
    assert "[2/4 shards]" in tty.text
    assert "elapsed" in tty.text
    assert tty.text.endswith("\n")


def test_progress_line_clamps_overshoot():
    from repro.sweep import ProgressLine
    tty = _FakeTTY()
    pl = ProgressLine(2, stream=tty)
    for _ in range(5):
        pl.tick()
    pl.close()
    assert "[2/2 shards]" in tty.text
    assert "[5/2" not in tty.text


def test_cli_progress_never_contaminates_stdout(capsys):
    """--progress with non-TTY stderr (the capsys case) must leave
    stdout parseable JSON and stderr empty of progress bytes."""
    names = ",".join(w.name for w in SOME[:2])
    assert main(["metrics", "--workload", names, "--jobs", "2",
                 "--progress", "--json", "-"]) == 0
    out, err = capsys.readouterr()
    json.loads(out)                      # stdout is pure JSON
    assert "\r" not in out and "shards]" not in out
    assert "shards]" not in err          # non-TTY stderr: suppressed
    assert main(["sweep", "--targets", "lint", "--jobs", "2",
                 "--progress", "--json", "-", "--quiet"]) == 0
    out, err = capsys.readouterr()
    # --json - interleaves with the summary table; the JSON document
    # comes first and must be uncontaminated
    assert "\r" not in out and "shards]" not in out
    assert "shards]" not in err
