"""Tests for the Purify-like and Valgrind-like baseline checkers:
what they catch, what they miss, and their overhead shape versus
CCured (the comparison underpinning Section 5 of the paper)."""

import pytest

from helpers import cure_src

from repro.baselines import (BaselineViolation, PurifyChecker,
                             ValgrindChecker)
from repro.bench import pristine_parse
from repro.frontend import parse_program
from repro.interp import Interpreter, run_cured, run_raw
from repro.runtime.checks import MemorySafetyError
from repro.workloads import all_workloads

HEAP_OVERRUN = """
#include <stdlib.h>
int main(void) {
  int *a = (int *)malloc(4 * sizeof(int));
  a[5] = 1;
  return 0;
}
"""

USE_AFTER_FREE = """
#include <stdlib.h>
int main(void) {
  int *p = (int *)malloc(sizeof(int));
  *p = 3;
  free(p);
  return *p;
}
"""

STACK_OOB = """
int main(void) {
  int a[4];
  int b[4];
  int i = 5;
  a[i] = 99;      /* lands inside b */
  return b[0] >= 0 ? 0 : 0;
}
"""

INTER_OBJECT = """
#include <stdlib.h>
int main(void) {
  int *a = (int *)malloc(16);
  int *b = (int *)malloc(16);
  /* pointer arithmetic that lands inside the *other* block */
  int diff = (int)(b - a);
  a[diff] = 7;    /* writes b[0]: both tools think it is fine */
  return 0;
}
"""

DOUBLE_FREE = """
#include <stdlib.h>
int main(void) {
  int *p = (int *)malloc(4);
  free(p);
  free(p);
  return 0;
}
"""

CLEAN = """
#include <stdlib.h>
int main(void) {
  int i, s = 0;
  int *a = (int *)malloc(64 * sizeof(int));
  for (i = 0; i < 64; i++) a[i] = i;
  for (i = 0; i < 64; i++) s += a[i];
  free(a);
  return s % 251;
}
"""


@pytest.mark.parametrize("tool", [PurifyChecker, ValgrindChecker])
class TestDetection:
    def test_heap_overrun_caught(self, tool):
        with pytest.raises(BaselineViolation):
            run_raw(parse_program(HEAP_OVERRUN, "t"), shadow=tool())

    def test_use_after_free_caught(self, tool):
        with pytest.raises(BaselineViolation):
            run_raw(parse_program(USE_AFTER_FREE, "t"), shadow=tool())

    def test_double_free_caught(self, tool):
        with pytest.raises(BaselineViolation):
            run_raw(parse_program(DOUBLE_FREE, "t"), shadow=tool())

    def test_stack_oob_missed(self, tool):
        # The paper: "these other tools do not catch out-of-bounds
        # array indexing on stack-allocated arrays".
        res = run_raw(parse_program(STACK_OOB, "t"), shadow=tool())
        assert res.status == 0  # ran to completion, no report

    def test_inter_object_arith_missed(self, tool):
        # Jones/Kelly-style inter-region arithmetic: both tools accept
        # an access landing in another live block.
        res = run_raw(parse_program(INTER_OBJECT, "t"), shadow=tool())
        assert res.status == 0

    def test_clean_program_unaffected(self, tool):
        res = run_raw(parse_program(CLEAN, "t"), shadow=tool())
        assert res.status == sum(range(64)) % 251


class TestCCuredCatchesWhatTheyMiss:
    def test_stack_oob(self):
        with pytest.raises(MemorySafetyError):
            run_cured(cure_src(STACK_OOB))

    def test_inter_object_arith(self):
        with pytest.raises(MemorySafetyError):
            run_cured(cure_src(INTER_OBJECT))


class TestOverheadShape:
    def test_ordering_raw_ccured_tools(self):
        """The paper's headline: CCured is far cheaper than Purify and
        Valgrind; all are slower than raw."""
        raw = run_raw(parse_program(CLEAN, "r"))
        cured = run_cured(cure_src(CLEAN))
        pur = run_raw(parse_program(CLEAN, "p"),
                      shadow=PurifyChecker())
        val = run_raw(parse_program(CLEAN, "v"),
                      shadow=ValgrindChecker())
        assert raw.cycles < cured.cycles
        assert cured.cycles * 3 < pur.cycles
        assert cured.cycles * 3 < val.cycles

    def test_ccured_overhead_moderate(self):
        raw = run_raw(parse_program(CLEAN, "r"))
        cured = run_cured(cure_src(CLEAN))
        ratio = cured.cycles / raw.cycles
        assert 1.0 < ratio < 3.5  # the paper's worst case is ~2.2x

    def test_tool_overheads_in_published_band(self):
        raw = run_raw(parse_program(CLEAN, "r"))
        pur = run_raw(parse_program(CLEAN, "p"),
                      shadow=PurifyChecker())
        val = run_raw(parse_program(CLEAN, "v"),
                      shadow=ValgrindChecker())
        assert 9 <= pur.cycles / raw.cycles <= 130
        assert 9 <= val.cycles / raw.cycles <= 130

    def test_deterministic_cycles(self):
        a = run_raw(parse_program(CLEAN, "a"), shadow=PurifyChecker())
        b = run_raw(parse_program(CLEAN, "b"), shadow=PurifyChecker())
        assert a.cycles == b.cycles


def _shadowed(prog, tool, engine, stdin="", args=None):
    """Everything a shadow-tool run shows: outcome (the violation
    raised, if any), output, steps, cycles, events, accesses seen."""
    sh = tool()
    ip = Interpreter(prog, shadow=sh, engine=engine, stdin=stdin)
    try:
        outcome = ("exit", ip.run(args).status)
    except BaselineViolation as exc:
        outcome = ("violation", exc.tool, str(exc))
    return (outcome, ip.stdout_text(), ip.steps, ip.cost.cycles,
            dict(ip.cost.events), sh.reads, sh.writes)


@pytest.mark.parametrize("tool", [PurifyChecker, ValgrindChecker])
class TestShadowEngineParity:
    """The shadow tools see the closures engine exactly as the tree
    walker: ``ValgrindChecker.on_instr`` charges cycles per instruction
    and both tools charge per access, so any missed, extra or reordered
    hook shows up here."""

    @pytest.mark.parametrize("src", [HEAP_OVERRUN, USE_AFTER_FREE,
                                     DOUBLE_FREE, STACK_OOB,
                                     INTER_OBJECT, CLEAN],
                             ids=["heap_overrun", "use_after_free",
                                  "double_free", "stack_oob",
                                  "inter_object", "clean"])
    def test_programs(self, tool, src):
        prog = parse_program(src, "t")
        assert _shadowed(prog, tool, "closures") == \
            _shadowed(prog, tool, "tree")

    @pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
    def test_workloads(self, tool, w):
        prog = pristine_parse(w, 1)
        args = list(w.args) or None
        assert _shadowed(prog, tool, "closures", w.stdin, args) == \
            _shadowed(prog, tool, "tree", w.stdin, args)
