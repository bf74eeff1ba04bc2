"""The step budget and the deadline stop both engines at the same point.

The generated functions of the closures engine keep steps, cycles,
instructions and memory accesses in Python locals and flush them only
at calls, hooks and exits; the step budget is checked against the local
count, once for steps taken with nothing run between them.
That design is exact only if a run cut short by ``max_steps`` reports
the very state the tree walker reports.  Each test sweeps ``max_steps``
over windows of consecutive values around call and loop boundaries of a
workload (found by instrumenting the tree walker), plus the run's last
step, and compares the two engines at every cut.
"""

import pytest

from repro.bench import pristine_cure, pristine_parse
from repro.interp import Interpreter
from repro.runtime.checks import InterpreterLimitError
from repro.workloads import get

#: consecutive max_steps values swept around each boundary
WINDOW = 64


class _Recorder(Interpreter):
    """The tree walker, noting the step count at every C call and loop
    entry."""

    def __init__(self, *a, **kw):
        super().__init__(*a, engine="tree", **kw)
        self.calls: list[int] = []
        self.loops: list[int] = []

    def _call_fundec(self, fd, args):
        self.calls.append(self.steps)
        return super()._call_fundec(fd, args)

    def _exec_loop(self, loop, frame):
        self.loops.append(self.steps)
        return super()._exec_loop(loop, frame)


def _program(name, cured):
    """(program, interpreter keywords, argv) of workload ``name``."""
    w = get(name)
    if cured:
        c = pristine_cure(w, scale=1)
        prog, kw = c.prog, {"cured": c}
    else:
        prog, kw = pristine_parse(w, 1), {}
    return prog, dict(kw, stdin=w.stdin), list(w.args) or None


def _state(prog, kw, args, engine, max_steps):
    ip = Interpreter(prog, engine=engine, max_steps=max_steps, **kw)
    try:
        res = ip.run(args)
        outcome = ("exit", res.status)
    except InterpreterLimitError as exc:
        outcome = ("limit", str(exc), exc.stdout)
    c = ip.cost
    return (outcome, ip.steps, c.cycles, c.instrs, c.mems,
            dict(c.events), ip.stdout_text())


def _spread(points, n):
    """Up to ``n`` boundaries spread over the run's first 1200 steps
    (later ones would make each cut run long)."""
    points = sorted({p for p in points if 50 < p < 1200})
    if len(points) <= n:
        return points
    return [points[i * (len(points) - 1) // (n - 1)] for i in range(n)]


@pytest.mark.parametrize("name,cured", [("spec_compress", False),
                                        ("spec_li", False),
                                        ("olden_em3d", True)],
                         ids=["loop-heavy", "call-heavy", "cured"])
def test_budget_cuts_match_the_tree(name, cured):
    prog, kw, args = _program(name, cured)
    rec = _Recorder(prog, **kw)
    total = rec.run(args).steps
    cuts = {total - 1, total}
    for b in _spread(rec.calls, 2) + _spread(rec.loops, 2):
        cuts.update(range(b - WINDOW // 2, b + WINDOW // 2))
    assert rec.calls and rec.loops
    for m in sorted(c for c in cuts if c > 0):
        tree = _state(prog, kw, args, "tree", m)
        clos = _state(prog, kw, args, "closures", m)
        assert clos == tree, f"max_steps={m}"
        assert tree[0][0] == ("exit" if m >= total else "limit")


@pytest.mark.parametrize("engine", ["tree", "closures"])
def test_tiny_deadline_stops_the_run(engine):
    w = get("spec_compress")
    ip = Interpreter(pristine_parse(w, 2), engine=engine,
                     stdin=w.stdin, deadline=1e-9)
    with pytest.raises(InterpreterLimitError, match="deadline"):
        ip.run(list(w.args) or None)
    # the clock is read every 65536 steps: the first checkpoint stops it
    assert ip.steps == 65537


SMALL = r"""
#include <stdio.h>
int g[8];
int twice(int x) { int y = x; y = y + x; return y; }
int main(void) {
  int i, j, s = 0, t = 1;
  int *p = g;
  for (i = 0; i < 6; i++) {
    { s = s + i; t = t * 3; }
    if (i % 2) { s = s - 1; continue; }
    for (j = 0; j < 3; j++) { p[j] = s + j; t = t ^ j; }
    s = s + twice(t & 15);
    printf("%d %d\n", s, t);
  }
  do { s = s - 7; } while (s > 0);
  return s & 3;
}
"""


@pytest.mark.parametrize("cured", [False, True], ids=["raw", "cured"])
def test_every_cut_of_a_small_program(cured):
    """Every ``max_steps`` from 1 to the end, on a program mixing
    register-only statements, nested blocks, continue, calls and
    output."""
    from helpers import cure_src
    from repro.frontend import parse_program
    if cured:
        c = cure_src(SMALL, "cuts")
        prog, kw = c.prog, {"cured": c}
    else:
        prog, kw = parse_program(SMALL, "cuts"), {}
    total = Interpreter(prog, **kw).run().steps
    for m in range(1, total + 1):
        tree = _state(prog, kw, None, "tree", m)
        assert _state(prog, kw, None, "closures", m) == tree, \
            f"max_steps={m}"


@pytest.mark.parametrize("cured", [False, True], ids=["raw", "cured"])
def test_cuts_at_call_boundaries(cured):
    """``max_steps`` at and next to every C call of a program that calls
    directly, through a wrapper and through function pointers: the
    closures engine enters an already-entered plain function without
    dispatch, and must stop exactly where the tree walker stops."""
    from helpers import CALLS, cure_src
    from repro.frontend import parse_program
    if cured:
        c = cure_src(CALLS, "callcuts")
        prog, kw = c.prog, {"cured": c}
    else:
        prog, kw = parse_program(CALLS, "callcuts"), {}
    rec = _Recorder(prog, **kw)
    rec.run()
    assert len(rec.calls) == 1 + 3 * 7  # main, 7 per loop iteration
    for m in sorted({b + d for b in rec.calls for d in (-1, 0, 1, 2)}):
        if m > 0:
            tree = _state(prog, kw, None, "tree", m)
            assert _state(prog, kw, None, "closures", m) == tree, \
                f"max_steps={m}"
