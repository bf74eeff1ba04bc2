"""Tests for the compatible (SPLIT) metadata representation
(paper Section 4.2): the C()/Meta() constructors of Figure 6, the
boundary representation of Figure 7, the SPLIT inference, and the
library-compatibility behaviour it enables.
"""

import pytest

from helpers import cure_src

from repro.cil import types as T
from repro.core import (CompatibilityError, CureOptions, PointerKind,
                        cure, meta_type, needs_metadata,
                        rep_split_boundary, rep_type)
from repro.core.qualifiers import Node
from repro.interp import run_cured
from repro.runtime import checks as rc


def seq_ptr(base):
    p = T.TPtr(base)
    n = Node(p, "test")
    n.arith = True
    n.kind = PointerKind.SEQ
    n.solved = True
    p.node = n
    return p


def safe_ptr(base):
    p = T.TPtr(base)
    n = Node(p, "test")
    n.kind = PointerKind.SAFE
    n.solved = True
    p.node = n
    return p


class TestMetaConstructors:
    def test_meta_of_int_is_void(self):
        assert meta_type(T.int_t()) is None

    def test_meta_of_safe_ptr_to_int_is_void(self):
        # SAFE pointer to metadata-free base: no metadata at all.
        assert meta_type(safe_ptr(T.int_t())) is None

    def test_meta_of_seq_ptr_has_b_e(self):
        mt = meta_type(seq_ptr(T.char_t()))
        assert mt is not None
        names = [f.name for f in T.unroll(mt).comp.fields]
        assert names == ["b", "e"]

    def test_meta_of_seq_ptr_to_seq_ptr_has_m(self):
        inner = seq_ptr(T.char_t())
        outer = seq_ptr(inner)
        mt = meta_type(outer)
        names = [f.name for f in T.unroll(mt).comp.fields]
        assert names == ["b", "e", "m"]

    def test_meta_of_safe_ptr_to_seq_base_has_only_m(self):
        inner = seq_ptr(T.char_t())
        outer = safe_ptr(inner)
        mt = meta_type(outer)
        names = [f.name for f in T.unroll(mt).comp.fields]
        assert names == ["m"]

    def test_hostent_shape(self):
        # struct hostent { char *h_name; char **h_aliases;
        #                  int h_addrtype; } with SEQ strings: the
        # metadata struct mirrors the pointer fields and drops the int
        # (Figures 4/5/6 of the paper).
        h_name = seq_ptr(T.char_t())
        h_aliases = seq_ptr(seq_ptr(T.char_t()))
        hostent = T.TComp(T.CompInfo(True, "hostent", [
            T.FieldInfo("h_name", h_name),
            T.FieldInfo("h_aliases", h_aliases),
            T.FieldInfo("h_addrtype", T.int_t()),
        ]))
        mt = meta_type(hostent)
        names = [f.name for f in T.unroll(mt).comp.fields]
        assert names == ["h_name", "h_aliases"]

    def test_struct_without_pointers_has_void_meta(self):
        s = T.TComp(T.CompInfo(True, "plain", [
            T.FieldInfo("a", T.int_t()),
            T.FieldInfo("b", T.double_t())]))
        assert meta_type(s) is None

    def test_needs_metadata(self):
        assert needs_metadata(seq_ptr(T.int_t()))
        assert not needs_metadata(safe_ptr(T.int_t()))
        assert needs_metadata(safe_ptr(seq_ptr(T.int_t())))

    def test_recursive_struct_meta_terminates(self):
        c = T.CompInfo(True, "list")
        tc = T.TComp(c)
        nxt = safe_ptr(tc)
        c.set_fields([T.FieldInfo("next", nxt),
                      T.FieldInfo("v", T.int_t())])
        # must not recurse forever
        needs_metadata(tc)
        meta_type(tc)

    def test_boundary_rep_fig7(self):
        # NOSPLIT SEQ pointer to a SPLIT type: {p, b, e, m}.
        inner = seq_ptr(T.char_t())
        hostent = T.TComp(T.CompInfo(True, "he2", [
            T.FieldInfo("h_name", inner)]))
        outer = seq_ptr(hostent)
        rep = rep_split_boundary(outer)
        names = [f.name for f in T.unroll(rep).comp.fields]
        assert names == ["p", "b", "e", "m"]

    def test_rep_type_fig1(self):
        # Rep(t * SEQ) = struct { p, b, e }
        rep = rep_type(seq_ptr(T.int_t()))
        names = [f.name for f in T.unroll(rep).comp.fields]
        assert names == ["p", "b", "e"]
        rep = rep_type(safe_ptr(T.int_t()))
        assert [f.name for f in T.unroll(rep).comp.fields] == ["p"]


GETHOST_SRC = """
#include <stdlib.h>
#include <string.h>
struct hostent { char *h_name; char **h_aliases; int h_addrtype; };
extern struct hostent *gethostbyname(const char *name);
int main(void) {
  struct hostent *he = gethostbyname("example.org");
  if (he == (struct hostent *)0) return 1;
  char *first = he->h_aliases[0];
  int n = (int)strlen(he->h_name);
  /* force SEQ on the strings via arithmetic */
  char *p = he->h_name;
  p = p + 1;
  return n + (int)strlen(first) + *p;
}
"""


class TestSplitInference:
    def test_all_split_marks_everything(self):
        c = cure_src("""
        int main(void) { int a[3]; int *p = a; return p[1]; }
        """, all_split=True)
        assert c.split_result.split_fraction == 1.0

    def test_default_no_split_without_interfaces(self):
        c = cure_src("""
        int main(void) { int a[3]; int *p = a; return p[1]; }
        """)
        assert c.split_result.split_nodes == 0

    def test_interface_pointer_becomes_split(self):
        c = cure(GETHOST_SRC, name="gethost")
        # he crosses the library boundary and its base type carries
        # metadata (SEQ strings), so the inference splits it.
        assert c.split_result.split_nodes > 0

    def test_split_stays_local_to_interface(self):
        # Splitting spreads only through data reachable from the
        # library interface; unrelated pointers stay NOSPLIT.  (That
        # locality is why the paper measures just 6% split pointers in
        # bind and <1% in OpenSSH.)
        src = GETHOST_SRC.replace(
            "int main(void) {",
            "int unrelated(void) { int x[2]; int *q = x; q[1] = 3;"
            " return q[1]; }\n"
            "int main(void) {")
        c = cure(src, name="gethost2")
        assert 0.0 < c.split_result.split_fraction < 1.0
        from repro.cil import types as T
        fd = c.prog.function("unrelated")
        q = next(v for v in fd.locals if v.name == "q")
        assert not T.unroll(q.type).node.split

    def test_pragma_split_root(self):
        src = """
        #pragma ccuredSplit("h1")
        struct wrap { int *inner; };
        int main(void) {
          int x = 2;
          struct wrap w;
          w.inner = &x;
          struct wrap *h1 = &w;
          return *h1->inner;
        }
        """
        c = cure(src, name="pragma_split")
        assert any(n.split for n in c.analysis.decl_nodes)
        # the pragma's root joins the cure's options, not the caller's
        opts = CureOptions()
        c = cure(src, options=opts, name="pragma_split")
        assert c.options.split_roots == {"h1"}
        assert opts.split_roots == set()


class TestLibraryCompatibility:
    def test_gethostbyname_runs_with_split(self):
        c = cure(GETHOST_SRC, name="gethost3")
        res = run_cured(c)
        assert res.status != 1  # resolved and read the strings

    def test_wild_pointer_to_library_rejected(self):
        src = """
        extern int sendmsg(int s, void *msg, int flags);
        struct msg { char *base; int len; };
        int main(void) {
          struct msg m;
          char payload[4];
          m.base = payload;
          char *evil = (char *)&m;   /* bad cast: m WILD */
          sendmsg(0, (void *)&m, 0);
          return evil != (char *)0;
        }
        """
        c = cure(src, name="wild_lib")
        with pytest.raises(rc.CompatibilityError):
            run_cured(c)

    def test_metadata_free_args_always_fine(self):
        src = """
        extern int recvmsg(int s, void *buf, int n);
        int main(void) {
          char buf[64];
          return recvmsg(0, (void *)buf, 32) > 0 ? 0 : 1;
        }
        """
        c = cure(src, name="recv")
        assert run_cured(c).status == 0


class TestSplitCosts:
    def test_all_split_costs_more(self):
        src = """
        struct cell { int *p; };
        int main(void) {
          int x = 1;
          struct cell c;
          c.p = &x;
          int i, s = 0;
          int arr[16];
          int *q = arr;
          for (i = 0; i < 16; i++) q[i] = i;
          for (i = 0; i < 16; i++) s += q[i] + *c.p;
          return s;
        }
        """
        plain = run_cured(cure_src(src, "plain"))
        split = run_cured(cure_src(src, "split", all_split=True))
        assert split.status == plain.status
        assert split.cycles >= plain.cycles
