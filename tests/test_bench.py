"""Unit tests for the benchmark harness, tables, and cost model."""

import json

import pytest

from repro.bench import (BenchRow, ToolRun, aggregate_census,
                         band_check, census_table, count_lines,
                         figure8_table, figure9_table, overhead_table,
                         run_workload)
from repro.cil.stmt import CheckKind
from repro.runtime.cost import CostModel
from repro.workloads import get


def mk_row(name="w", ccured=150, purify=3000, valgrind=2000,
           raw=100):
    row = BenchRow(
        name=name, lines=100,
        kind_pct={"safe": 0.8, "seq": 0.2, "wild": 0.0, "rtti": 0.0},
        raw=ToolRun("raw", raw, 0, 10))
    row.ccured = ToolRun("ccured", ccured, 0, 10)
    row.purify = ToolRun("purify", purify, 0, 10)
    row.valgrind = ToolRun("valgrind", valgrind, 0, 10)
    row.census = {"identical": 0.5, "upcast": 0.6, "downcast": 0.3,
                  "bad": 0.1}
    row.pointer_casts = 10
    return row


class TestRows:
    def test_ratios(self):
        row = mk_row()
        assert row.ccured_ratio == 1.5
        assert row.purify_ratio == 30.0
        assert row.valgrind_ratio == 20.0

    def test_sf_sq_w_rt_format(self):
        assert mk_row().sf_sq_w_rt() == "80/20/0/0"

    def test_missing_tools_are_zero(self):
        row = BenchRow(name="x", lines=1,
                       kind_pct={"safe": 1.0, "seq": 0, "wild": 0,
                                 "rtti": 0},
                       raw=ToolRun("raw", 100, 0, 1))
        assert row.ccured_ratio == 0.0
        assert row.valgrind_ratio == 0.0


class TestTables:
    def test_figure8_layout(self):
        table = figure8_table([mk_row("apache_x")])
        lines = table.splitlines()
        assert lines[0].startswith("Module")
        assert "x" in lines[-1] and "1.50" in lines[-1]

    def test_figure9_layout(self):
        table = figure9_table([mk_row("daemon")])
        assert "daemon" in table and "20.0" in table

    def test_overhead_table(self):
        table = overhead_table([mk_row()], "T")
        assert table.startswith("T")
        assert "30.0x" in table

    def test_census_table(self):
        table = census_table([mk_row()])
        assert "50%" in table
        assert "total pointer casts: 10" in table

    def test_band_check(self):
        assert band_check(1.5, 1.0, 2.0, "r") is None
        assert band_check(5.0, 1.0, 2.0, "r") is not None

    def test_aggregate_census_weighting(self):
        small = mk_row("a")
        small.pointer_casts = 10
        big = mk_row("b")
        big.pointer_casts = 90
        big.census = {"identical": 1.0, "upcast": 0.0,
                      "downcast": 0.0, "bad": 0.0}
        agg = aggregate_census([small, big])
        # 10*0.5 + 90*1.0 = 95 identical of 100
        assert agg["identical"] == pytest.approx(0.95)

    def test_count_lines_skips_blanks(self):
        assert count_lines("int x;\n\n  \nint y;\n") == 2


class TestHarness:
    def test_options_key_distinguishes_optimize_levels(self):
        # A ``--optimize=none|local|flow`` sweep must never reuse a
        # program cured at another level…
        from repro.cache import canonical_options
        from repro.core import CureOptions
        keys = {lvl: canonical_options(CureOptions(optimize=lvl))
                for lvl in ("none", "local", "flow")}
        assert len(set(keys.values())) == 3
        # …while equivalent spellings share one cache entry.
        assert canonical_options(CureOptions()) == \
            canonical_options(CureOptions(optimize="flow"))
        assert canonical_options(CureOptions(optimize_checks=False)) == \
            canonical_options(CureOptions(optimize="none"))

    def test_result_key_includes_engine_and_level(self):
        # Memoized measurements must be keyed by engine AND optimize
        # level: a closures run at --optimize=flow and a tree run at
        # --optimize=none measure different programs on different
        # machines and may never share a cache entry.
        from repro.bench.harness import _result_key
        from repro.core import CureOptions
        w = get("olden_bisort")
        keys = {_result_key(w, 3, engine, 1000, "ccured",
                            CureOptions(optimize=lvl))
                for engine in ("closures", "tree")
                for lvl in ("none", "local", "flow")}
        assert len(keys) == 6
        # raw runs carry the default level but still split by engine
        assert _result_key(w, 3, "closures", 1000, "raw", None) != \
            _result_key(w, 3, "tree", 1000, "raw", None)

    def test_pristine_cure_not_stale_across_levels(self):
        from repro.bench import pristine_cure
        from repro.core import CureOptions
        w = get("olden_em3d")
        by_level = {lvl: pristine_cure(
            w, options=CureOptions(optimize=lvl), scale=2)
            for lvl in ("none", "local", "flow")}
        assert by_level["none"].checks_removed == 0
        assert by_level["flow"].checks_removed > \
            by_level["local"].checks_removed > 0
        assert len({id(c) for c in by_level.values()}) == 3

    def test_run_workload_shapes(self):
        row = run_workload(get("olden_bisort"),
                           tools=("ccured",), scale=3)
        assert row.raw.cycles > 0
        assert row.ccured is not None
        assert row.ccured.status == row.raw.status
        assert 0.99 <= sum(row.kind_pct.values()) <= 1.01

    def test_run_workload_no_tools(self):
        row = run_workload(get("olden_bisort"), tools=(), scale=3)
        assert row.ccured is None
        assert row.pointer_casts >= 0

    def test_behaviour_divergence_would_raise(self):
        # _assert_same_behaviour is exercised on every ccured run; a
        # synthetic divergence raises.
        from repro.bench.harness import _assert_same_behaviour
        from repro.interp import ExecResult
        a = ExecResult(0, "x", CostModel(), 1)
        b = ExecResult(1, "x", CostModel(), 1)
        with pytest.raises(AssertionError):
            _assert_same_behaviour("w", a, b)


class TestCostModel:
    def test_basic_charges(self):
        c = CostModel()
        c.charge_instr()
        c.charge_mem(4)
        c.charge_mem(8)
        assert c.instrs == 1 and c.mems == 2
        assert c.cycles == 1 + 1 + 2

    def test_check_charges_tracked(self):
        c = CostModel()
        c.charge_check(CheckKind.SEQ_BOUNDS)
        c.charge_check(CheckKind.SEQ_BOUNDS)
        assert c.events["check:CHECK_SEQ_BOUNDS"] == 2

    def test_wide_charges(self):
        c = CostModel()
        c.charge_wide("SEQ")
        assert c.cycles == 2
        c.charge_wide("SAFE")
        assert c.cycles == 2  # SAFE is one word: free

    def test_summary_mentions_top_events(self):
        c = CostModel()
        for _ in range(5):
            c.charge_instr()
        assert "instr=5" in c.summary()

    def test_all_events_merges(self):
        c = CostModel()
        c.charge_instr()
        c.charge_split(3)
        ev = c.all_events()
        assert ev["instr"] == 1 and ev["split"] == 3


class TestTrajectory:
    """PR 10: the benchmark-trajectory ledger and its gate."""

    def _fake_record(self, speedup=4.0, steps=1000):
        from repro.bench import bench_record
        cells = {"spec_compress:cured": {
            "tree": {"seconds": 1.0, "steps": steps, "cycles": 5000,
                     "status": 0, "steps_per_sec": steps},
            "closures": {"seconds": 0.25, "steps": steps,
                         "cycles": 5000, "status": 0,
                         "steps_per_sec": steps * 4},
            "speedup": speedup}}
        return bench_record(cells, suite=(("spec_compress", 3),),
                            quick=True, unix_ts=1.0)

    def test_record_schema_and_ledger_round_trip(self, tmp_path):
        from repro.bench import (BENCH_SCHEMA, append_history,
                                 read_history)
        path = str(tmp_path / "hist.jsonl")
        rec = self._fake_record()
        assert rec["schema"] == BENCH_SCHEMA
        append_history(rec, path)
        append_history(self._fake_record(speedup=4.5), path)
        records = read_history(path)
        assert len(records) == 2
        assert records[0] == rec
        # each line is one compact standalone JSON document
        lines = open(path).read().splitlines()
        assert all(json.loads(ln)["schema"] == BENCH_SCHEMA
                   for ln in lines)

    def test_load_record_takes_last_ledger_line(self, tmp_path):
        from repro.bench import append_history, load_record
        path = str(tmp_path / "hist.jsonl")
        append_history(self._fake_record(speedup=4.0), path)
        append_history(self._fake_record(speedup=9.9), path)
        assert load_record(path)["cells"][
            "spec_compress:cured"]["speedup"] == 9.9

    def test_diff_passes_identical_and_within_slack(self):
        from repro.bench import diff_bench
        base = self._fake_record(speedup=4.0)
        assert diff_bench(base, base) == []
        # 3.0x against a 4.0x baseline survives 50% slack (floor 2.0)
        assert diff_bench(base,
                          self._fake_record(speedup=3.0)) == []

    def test_diff_fails_on_throughput_regression(self):
        from repro.bench import diff_bench
        base = self._fake_record(speedup=4.0)
        fails = diff_bench(base, self._fake_record(speedup=1.5))
        assert fails and "speedup" in fails[0]

    def test_diff_fails_on_exact_counter_drift(self):
        from repro.bench import diff_bench
        base = self._fake_record()
        drifted = self._fake_record()
        drifted["cells"]["spec_compress:cured"]["closures"][
            "steps"] += 1
        fails = diff_bench(base, drifted)
        assert any("steps" in f and "drifted" in f for f in fails)

    def test_diff_fails_on_missing_cell(self):
        from repro.bench import diff_bench
        base = self._fake_record()
        shrunk = self._fake_record()
        shrunk["cells"] = {}
        assert any("missing" in f for f in diff_bench(base, shrunk))

    def test_render_record_and_diff(self):
        from repro.bench import diff_bench, render_diff, \
            render_record
        rec = self._fake_record()
        assert "spec_compress:cured" in render_record(rec)
        bad = self._fake_record(speedup=1.0)
        fails = diff_bench(rec, bad)
        text = render_diff(rec, bad, fails, slack_pct=50.0)
        assert "FAIL" in text
        ok = render_diff(rec, rec, [], slack_pct=50.0)
        assert "ok: within thresholds" in ok

    def test_cli_bench_suite_appends_history(self, tmp_path,
                                             capsys):
        from repro.cli import main
        hist = str(tmp_path / "h.jsonl")
        assert main(["bench", "--quick", "--history", hist,
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert len(open(hist).read().splitlines()) == 1
        assert main(["bench", "--quick", "--history", hist,
                     "--quiet"]) == 0
        assert len(open(hist).read().splitlines()) == 2

    def test_cli_bench_diff_gates(self, tmp_path, capsys):
        from repro.cli import main
        base = tmp_path / "base.json"
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        base.write_text(json.dumps(self._fake_record(speedup=4.0)))
        good.write_text(json.dumps(self._fake_record(speedup=3.5)))
        bad.write_text(json.dumps(self._fake_record(speedup=1.0)))
        assert main(["bench", "diff", "--baseline", str(base),
                     "--current", str(good)]) == 0
        assert main(["bench", "diff", "--baseline", str(base),
                     "--current", str(bad)]) == 2
        capsys.readouterr()
        assert main(["bench", "diff"]) == 2
        assert "--baseline is required" in capsys.readouterr().err

    def test_committed_baseline_matches_quick_suite_shape(self):
        from repro.bench import BENCH_SCHEMA, QUICK_SUITE
        with open("baselines/bench-baseline.json") as f:
            rec = json.load(f)
        assert rec["schema"] == BENCH_SCHEMA
        expect = {f"{name}:{mode}" for name, _ in QUICK_SUITE
                  for mode in ("cured", "raw")}
        assert set(rec["cells"]) == expect
        for cell in rec["cells"].values():
            assert cell["tree"]["steps"] == cell["closures"]["steps"]
            assert cell["tree"]["cycles"] \
                == cell["closures"]["cycles"]
