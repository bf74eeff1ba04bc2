"""Differential test: the closure-compiled engine must be
bit-identical to the tree-walking oracle.

Every workload in the suite runs under both engines, cured and raw,
and the observable machine state — exit status, stdout, deterministic
cycle count, step count — must match exactly.  This is what licenses
using the fast engine for the paper's measurements: any divergence in
charges, evaluation order or error behaviour shows up as a cycle or
output mismatch here.
"""

import pytest

from repro.bench import pristine_cure, pristine_parse
from repro.interp import Interpreter
from repro.workloads import all_workloads

#: small deterministic problem size: parity does not depend on scale,
#: and the whole suite × 2 modes × 2 engines must stay cheap.
SCALE = 2


def _signature(ip, args):
    res = ip.run(args)
    return (res.status, res.stdout, res.cost.cycles, res.steps)


@pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
def test_raw_parity(w):
    prog = pristine_parse(w, SCALE)
    args = list(w.args) or None
    tree = _signature(
        Interpreter(prog, stdin=w.stdin, engine="tree"), args)
    clos = _signature(
        Interpreter(prog, stdin=w.stdin, engine="closures"), args)
    assert tree == clos, (
        f"{w.name}: raw closures diverged from tree oracle\n"
        f"  tree:     status={tree[0]} cycles={tree[2]} "
        f"steps={tree[3]}\n"
        f"  closures: status={clos[0]} cycles={clos[2]} "
        f"steps={clos[3]}")


@pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
def test_cured_parity(w):
    cured = pristine_cure(w, scale=SCALE)
    args = list(w.args) or None
    tree = _signature(
        Interpreter(cured.prog, cured=cured, stdin=w.stdin,
                    engine="tree"), args)
    clos = _signature(
        Interpreter(cured.prog, cured=cured, stdin=w.stdin,
                    engine="closures"), args)
    assert tree == clos, (
        f"{w.name}: cured closures diverged from tree oracle\n"
        f"  tree:     status={tree[0]} cycles={tree[2]} "
        f"steps={tree[3]}\n"
        f"  closures: status={clos[0]} cycles={clos[2]} "
        f"steps={clos[3]}")


@pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
def test_temporal_reuse_parity(w):
    """Temporal checking + the recycling allocator: both engines stay
    bit-identical, and a *clean* workload is unaffected by address
    reuse — it frees nothing it later touches, so recycling must not
    change its status or output (only keys and lock-table traffic)."""
    from repro.core.options import CureOptions

    cured = pristine_cure(w, options=CureOptions(
        trust_bad_casts=w.trust_bad_casts, temporal=True),
        scale=SCALE)
    args = list(w.args) or None
    tree = _signature(
        Interpreter(cured.prog, cured=cured, stdin=w.stdin,
                    engine="tree", reuse_freed=True), args)
    clos = _signature(
        Interpreter(cured.prog, cured=cured, stdin=w.stdin,
                    engine="closures", reuse_freed=True), args)
    assert tree == clos, (
        f"{w.name}: temporal+reuse closures diverged from tree\n"
        f"  tree:     status={tree[0]} cycles={tree[2]} "
        f"steps={tree[3]}\n"
        f"  closures: status={clos[0]} cycles={clos[2]} "
        f"steps={clos[3]}")
    # the recycling allocator is invisible to a correct program:
    # status and stdout match the never-reuse temporal run
    plain = _signature(
        Interpreter(cured.prog, cured=cured, stdin=w.stdin,
                    engine="closures"), args)
    assert (tree[0], tree[1]) == (plain[0], plain[1]), (
        f"{w.name}: address reuse changed a clean program's "
        f"observable behaviour")


def _deep_source(loops: int, cases: int) -> str:
    """C with ``loops`` nested loops (continue, break and return from
    the innermost), a ``cases``-arm switch, a loop whose continue,
    break and return sit under ``cases // 2`` nested ifs, and
    expressions ``cases`` operators deep: beyond Python's static
    nesting limits (blocks, indentation, parentheses) when every C
    construct nests one Python block or parenthesis."""
    head = "".join(f"for (i{k} = 0; i{k} < 2; i{k}++) {{ s += {k};\n"
                   for k in range(loops))
    inner = ("if (s % 7 == 3) continue;\n"
             "if (s > 900000) return s & 127;\n"
             "if (s % 11 == 5) break;\n"
             "s = s * 3 + 1;\n")
    arms = "".join(f"case {c}: s += {c * 7 % 13}; break;\n"
                   for c in range(cases))
    decls = " ".join(f"int i{k};" for k in range(loops))
    return (f"int f(int n) {{ int s = n; {decls}\n{head}{inner}"
            + "}\n" * loops + "return s & 127; }\n"
            f"int g(int n) {{ int s = 0; int k;\n"
            f"for (k = 0; k < n; k++) {{ switch ((k * 37) % {cases + 3}) {{\n"
            f"{arms}default: s -= 1; }} }}\nreturn s & 127; }}\n"
            "int h(int n) { int s = 0; int j;\n"
            "for (j = 0; j < n; j++) { s += 1;\n"
            + "if (j >= 0) {\n" * (cases // 2)
            + "if (j % 3 == 0) continue;\n"
              "if (j == 37) break;\n"
              "if (s > 100000) return 1;\n"
              "s = s * 2 + j;\n"
            + "}\n" * (cases // 2)
            + "s += 3; }\nreturn s & 127; }\n"
            "int x(int n) { int s = " + "(int)(char)" * (cases // 2)
            + "n; if (" + "!" * cases + "n) s++; return s; }\n"
            "int main(void) {\n"
            "  return (f(1) + g(300) + h(40) + x(300)) & 127; }\n")


def _both(src, name, cured):
    """``make(engine)`` building an interpreter for ``src``."""
    from helpers import cure_src
    from repro.frontend import parse_program
    if cured:
        c = cure_src(src, name)
        return lambda e: Interpreter(c.prog, cured=c, engine=e)
    prog = parse_program(src, name)
    return lambda e: Interpreter(prog, engine=e)


@pytest.mark.parametrize("cured", [False, True], ids=["raw", "cured"])
def test_deep_nesting_parity(cured):
    """Functions past Python's nesting limits: the too-deep statements
    are hoisted into nested generated functions, still bit-identical."""
    mk = _both(_deep_source(24, 150), "deep", cured)
    assert _signature(mk("closures"), None) == _signature(mk("tree"), None)


@pytest.mark.parametrize("w", all_workloads()[::3], ids=lambda w: w.name)
def test_hoisted_parity(w, monkeypatch):
    """Every loop and every statement past the third nesting level
    hoisted into a nested generated function: the hoisting machinery
    (shared locals, break/continue/return codes) on real programs."""
    import copy
    from repro.interp import compile as gen
    monkeypatch.setattr(gen, "_MAX_INDENT", 4)
    monkeypatch.setattr(gen, "_MAX_BLOCKS", 1)
    cured = copy.deepcopy(pristine_cure(w, scale=SCALE))
    prog = copy.deepcopy(pristine_parse(w, SCALE))
    args = list(w.args) or None
    for kw in ({"prog": cured.prog, "cured": cured}, {"prog": prog}):
        tree = _signature(Interpreter(stdin=w.stdin, engine="tree",
                                      **kw), args)
        clos = _signature(Interpreter(stdin=w.stdin, engine="closures",
                                      **kw), args)
        assert tree == clos, f"{w.name}: hoisted closures diverged"


@pytest.mark.parametrize("cured", [False, True], ids=["raw", "cured"])
def test_call_kinds_parity(cured):
    """A call to a wrapped function goes to its wrapper, except from
    inside the wrapper, also once the callee has been entered before
    and through a function pointer; a pointer call reaches a plain
    function.  ``hits`` counts the wrapper's runs."""
    from helpers import CALLS
    make = _both(CALLS, "calls", cured)
    clos = _signature(make("closures"), None)
    assert clos[:2] == (0, "27 6\n")
    assert clos == _signature(make("tree"), None)


@pytest.mark.parametrize("via", ["direct", "pointer"])
@pytest.mark.parametrize("cured", [False, True], ids=["raw", "cured"])
def test_recursion_stops_at_max_call_depth(cured, via):
    """Unbounded recursion raises InterpreterLimitError when the
    MAX_CALL_DEPTH-th frame would be exceeded, on both engines at the
    same step and cycle; main is frame 1, so the deepest ``down`` to run
    is down(MAX_CALL_DEPTH - 2)."""
    from repro.runtime.checks import InterpreterLimitError
    call = "down(n + 1)" if via == "direct" else "fp(n + 1)"
    src = ("#include <stdio.h>\n"
           "int down(int n);\n"
           "int (*fp)(int) = down;\n"
           "int down(int n) { printf(\"%d\\n\", n); return "
           + call + " + 1; }\n"
           "int main(void) { return down(0); }\n")
    make = _both(src, "deep_" + via, cured)
    seen = []
    for engine in ("closures", "tree"):
        ip = make(engine)
        with pytest.raises(InterpreterLimitError,
                           match="call depth exceeded") as ei:
            ip.run()
        assert not ip._frames
        last = ei.value.stdout.splitlines()[-1]
        assert last == str(Interpreter.MAX_CALL_DEPTH - 2)
        seen.append((ei.value.stdout, ip.steps, ip.cost.cycles))
    assert seen[0] == seen[1]
