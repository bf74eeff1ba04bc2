"""Shared helper functions for the test suite."""

from repro.cil import types as T
from repro.core import CureOptions, cure
from repro.frontend import parse_program
from repro.interp import run_cured, run_raw


def cure_src(src: str, name: str = "t", **opts):
    """Cure a source snippet with options given as keywords."""
    return cure(src, options=CureOptions(**opts) if opts else None,
                name=name)


def kinds_of(cured, fn: str) -> dict[str, str]:
    """Map of variable name -> pointer kind for a function's formals
    and locals (pointers only)."""
    fd = cured.prog.function(fn)
    out = {}
    for v in fd.formals + fd.locals:
        u = T.unroll(v.type)
        if isinstance(u, T.TPtr) and u.node is not None:
            out[v.name] = u.node.kind.name
    return out


def run_both(src: str, name: str = "t", args=None, stdin=""):
    """Run a snippet cured and raw; assert matching observable
    behaviour; return (cured_result, raw_result)."""
    cured = cure_src(src, name)
    rc = run_cured(cured, args=args, stdin=stdin)
    rr = run_raw(parse_program(src, name + "_raw"), args=args,
                 stdin=stdin)
    assert rc.status == rr.status, (rc, rr)
    assert rc.stdout == rr.stdout
    return rc, rr


#: C calls of every kind: direct, redirected to a wrapper (and, inside
#: the wrapper, to the wrapped function), through function pointers to
#: a plain and to a wrapped function, and libc.  Prints "27 6".
CALLS = r"""
#include <stdio.h>
int hits;
int twice(int x) { return 2 * x; }
#pragma ccuredWrapperOf("twice_wrapper", "twice")
int twice_wrapper(int x) { hits = hits + 1; return twice(x) + 1; }
int triple(int x) { return 3 * x; }
int apply(int (*fp)(int), int x) { return fp(x); }
int main(void) {
  int s = 0, i;
  for (i = 0; i < 3; i++) {
    s = s + twice(i);
    s = s + apply(triple, i);
    s = s + apply(twice, i);
  }
  printf("%d %d\n", s, hits);
  return 0;
}
"""
