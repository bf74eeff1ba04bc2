"""Tests of the benchmark itself: seeded inputs, the oracle's coverage
of every input a seed can pick, span self-time arithmetic, and that a
wrong expectation is reported as a failure.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(HERE, "oracle.json"), encoding="utf-8") as _f:
    ORACLE = json.load(_f)


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert inputs.inputs_digest(7) == inputs.inputs_digest(7)
    assert inputs.inputs_digest(7) != inputs.inputs_digest(8)
    for what in (inputs.compile_draw_keys, inputs.exec_draw,
                 inputs.campaign_plan):
        assert what(3) != what(4)


def test_compile_draw_is_stratified_distinct_and_covered():
    for seed in (1, 2, 3):
        keys = inputs.compile_draw_keys(seed)
        assert len(keys) == len(set(keys)) >= 100
        per = Counter(k[1] for k in keys if k[0] == "file")
        assert set(per.values()) == {inputs.SCALES_PER_WORKLOAD}
        assert len(per) == len(inputs.file_workloads())
        sizes = Counter(k[1] for k in keys if k[0] == "ijpeg")
        assert set(sizes.values()) == {inputs.IJPEG_PER_CLASS}
        for k in keys:
            assert inputs.make_program(k).id in ORACLE["compile"]


def test_exec_draw_is_above_default_and_covered():
    for seed in (1, 2, 3):
        progs = inputs.exec_draw(seed)
        assert [p.name for p in progs] == list(inputs.EXEC_PROGRAMS)
        for p in progs:
            assert int(p.defines["SCALE"]) > inputs.default_scale(
                p.source)
            for mode in ("raw", "cured"):
                assert f"{p.id}:{mode}" in ORACLE["exec"]


def _rec(name, start, duration, depth, **attrs):
    return SimpleNamespace(name=name, start=start, duration=duration,
                           depth=depth, attrs=attrs)


def test_self_time_partitions_the_traced_wall():
    records = [
        # op 0: glue 0.7, parse self 2.0 (its preprocess child 1.0),
        # cure self 0.5 with a 1.5 solve child
        _rec("bench.op", 0.0, 6.0, 0, op=0),
        _rec("parse", 0.5, 3.0, 1),
        _rec("preprocess", 1.0, 1.0, 2),
        _rec("cure", 3.5, 2.0, 1),
        _rec("solve", 3.7, 1.5, 2),
        # tracing-only counting is excluded from the wall
        _rec("bench.count", 5.6, 0.3, 1),
        # op 1: one cache load, no glue
        _rec("bench.op", 10.0, 1.0, 0, op=1),
        _rec("cache", 10.0, 1.0, 1, op="load"),
        # outside any op: ignored
        _rec("workloads.generate", 20.0, 5.0, 0),
    ]
    tree = spans.build_tree(records)
    lt = spans.layer_times(tree)
    assert lt.ops == 2 and lt.op_wall == 7.0
    assert lt.seconds["frontend.parse_s"] == 2.0
    assert lt.seconds["cpp.preprocess_s"] == 1.0
    assert lt.seconds["core.cure_self_s"] == 0.5
    assert lt.seconds["core.solve_s"] == 1.5
    assert lt.seconds["cache.load_s"] == 1.0
    assert abs(lt.glue - 0.7) < 1e-9 and abs(lt.counting - 0.3) < 1e-9
    assert abs(sum(lt.seconds.values()) + lt.glue + lt.counting
               - lt.op_wall) < 1e-9
    parents = {s.name: s.parent for s in tree}
    assert tree[parents["preprocess"]].name == "parse"
    assert {s.op for s in tree if s.name != "workloads.generate"} \
        == {0, 1}


def test_engine_counters_are_compared_with_the_tree_engine():
    w = worker.LayerWrappers()
    run_ = {"mode": "cured", "steps": 10, "cycles": 40, "checks": 2}
    w.runs = [dict(run_, op=0, engine="closures"),
              dict(run_, op=0, engine="tree"),
              dict(run_, op=0, engine="closures", mode="raw", steps=9),
              dict(run_, op=1, engine="closures", cycles=41),
              dict(run_, op=1, engine="tree")]
    assert w.engine_mismatch(0) == ""
    assert w.engine_mismatch(1) == "closures cycles 41 != tree 40"
    # no tree run, nothing to compare with
    w.runs = [dict(run_, op=2, engine="closures")]
    assert w.engine_mismatch(2) == ""


def test_wrong_expectation_is_reported_as_failure(tmp_path, monkeypatch,
                                                   capsys):
    oracle = json.loads(json.dumps(ORACLE))
    first = inputs.make_program(inputs.compile_draw_keys(1)[0])
    oracle["compile"][first.id]["removed"] += 1
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(oracle))
    # the sessions are still real worker processes; only the
    # expectations they are handed differ
    monkeypatch.setattr(run, "ORACLE", str(path))
    assert run.main(["--workload", "compile-cold", "--seed", "1",
                     "--seconds", "1"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] >= 100
    assert f"FAIL {first.id}: removed" in out
