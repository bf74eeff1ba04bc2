"""Constraint generation for pointer-kind inference.

This pass walks the whole program and records, on the qualifier nodes
created for every syntactic pointer occurrence:

* ``arith`` flags at each occurrence of pointer arithmetic,
* WILD seeds at each bad cast (unless trusted),
* RTTI seeds at each downcast and the backwards-propagation edges of
  Section 3.2,
* compatibility (``compat``) edges wherever pointer values flow
  (assignments, casts, argument/result passing) so the solver can
  spread WILD,
* representation-equality (``same``) edges between the pointer
  positions matched inside the physical common prefix of cast/assigned
  aggregate types,
* ``interface`` marks on pointers that cross into uninstrumented
  library functions,

and produces the program's cast census and RTTI hierarchy as
by-products.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.cil import expr as E
from repro.cil import stmt as S
from repro.cil import types as T
from repro.cil.program import GFun, GVar, Program
from repro.cil.visitor import each_pointer, type_occurrences
from repro.core.casts import CastCensus, CastClass, classify_cast
from repro.core.options import CureOptions
from repro.core.physical import matched_pointer_pairs, physical_equal
from repro.core.qualifiers import Node, ensure_node
from repro.core.rtti import RttiHierarchy


class Analysis:
    """The result of constraint generation over one program."""

    def __init__(self, prog: Program, options: CureOptions) -> None:
        # Node ids restart per analysis so ids — and anything keyed on
        # them, like blame-graph JSON — are deterministic across
        # same-process runs.
        Node.reset_ids()
        self.prog = prog
        self.options = options
        #: record blame provenance on every node state change
        self.record_provenance = options.provenance
        self.census = CastCensus()
        self.hierarchy = RttiHierarchy()
        #: all qualifier nodes, in creation order
        self.nodes: list[Node] = []
        #: nodes created for *declarations* (the denominators of the
        #: paper's "% of (static) pointer declarations" tables)
        self.decl_nodes: list[Node] = []
        #: SEQ cast obligations: (n_src, n_dst, src_base, dst_base)
        self.seq_obligations: list[
            tuple[Node, Node, T.CType, T.CType]] = []
        #: count of bad casts converted to trusted by options
        self.auto_trusted = 0

    # -- node management -------------------------------------------------

    def node(self, t: T.CType, where: str = "?") -> Optional[Node]:
        u = T.unroll(t)
        if not isinstance(u, T.TPtr):
            return None
        if u.node is None:
            n = Node(u, where)
            u.node = n
            self.nodes.append(n)
        return u.node  # type: ignore[return-value]


_DECL_PREFIXES = ("var ", "field ", "formal ", "local ", "fun ",
                  "typedef ")


def generate(prog: Program,
             options: Optional[CureOptions] = None) -> Analysis:
    """Run constraint generation; returns the :class:`Analysis`."""
    options = options if options is not None else CureOptions()
    an = Analysis(prog, options)
    _assign_declaration_nodes(an)
    _build_hierarchy(an)
    _mark_interfaces(an)
    _apply_pragmas(an)
    gen = _Generator(an)
    gen.run()
    return an


def _assign_declaration_nodes(an: Analysis) -> None:
    for t, where in type_occurrences(an.prog):
        is_decl = where.startswith(_DECL_PREFIXES)

        def visit(p: T.TPtr, where=where, is_decl=is_decl) -> None:
            created = p.node is None
            n = ensure_node(p, where)
            if created:
                an.nodes.append(n)
            if created and is_decl:
                an.decl_nodes.append(n)

        each_pointer(t, visit)


def _build_hierarchy(an: Analysis) -> None:
    """Register every pointed-to type so ``has_subtypes`` and run-time
    ``isSubtype`` queries see the whole program's types."""
    pointed: list[T.CType] = []
    for t, _ in type_occurrences(an.prog):
        def visit(p: T.TPtr) -> None:
            pointed.append(p.base)

        each_pointer(t, visit)
    for comp in an.prog.comps.values():
        if comp.defined:
            pointed.append(T.TComp(comp))
    an.hierarchy.build(pointed)


def _mark_interfaces(an: Analysis) -> None:
    """Pointers in the signatures of external (library) functions and
    external variables cross the instrumentation boundary."""
    for var in an.prog.externals.values():
        def visit(p: T.TPtr) -> None:
            n = ensure_node(p, f"extern {var.name}")
            n.interface = True

        each_pointer(var.type, visit)


def _apply_pragmas(an: Analysis) -> None:
    # the program's roots join a copy: the caller's options (a memo
    # key, perhaps shared by several cures) stay as they were given
    an.options = dataclasses.replace(
        an.options,
        split_roots=an.options.split_roots.union(
            *(g.args for g in an.prog.pragmas("ccuredSplit"))),
        wild_roots=an.options.wild_roots.union(
            *(g.args for g in an.prog.pragmas("ccuredWild"))))
    if an.options.wild_roots:
        targets = an.options.wild_roots
        for t, where in type_occurrences(an.prog):
            name = where.split(" ", 1)[-1] if " " in where else where
            short = name.split(":")[-1].split(".")[-1]
            if name in targets or short in targets:
                def visit(p: T.TPtr, where=where) -> None:
                    n = ensure_node(p, where)
                    n.wild = True
                    if an.record_provenance:
                        n.add_prov("WILD", "wild-pragma", where=where)

                each_pointer(t, visit)


def _is_alloc_result(e: E.Exp) -> bool:
    """Is this expression the temp holding a fresh allocator result?"""
    return (isinstance(e, E.LvalExp)
            and isinstance(e.lval.host, E.Var)
            and isinstance(e.lval.offset, E.NoOffset)
            and e.lval.host.var.is_temp
            and "__cil_alloc" in e.lval.host.var.name)


class _Generator:
    """Walks function bodies and global initializers emitting
    constraints."""

    def __init__(self, an: Analysis) -> None:
        self.an = an
        self.rec = an.record_provenance
        self.cur_fun: Optional[S.Fundec] = None

    def _loc(self) -> str:
        return self.cur_fun.name if self.cur_fun else "global"

    def run(self) -> None:
        prog = self.an.prog
        for g in prog.globals:
            if isinstance(g, GVar) and g.init is not None:
                self._init_flow(g.var.type, g.init,
                                f"init {g.var.name}")
            elif isinstance(g, GFun):
                self.cur_fun = g.fundec
                self._stmt(S.Block(g.fundec.body.stmts))
                self.cur_fun = None

    # -- flows -----------------------------------------------------------

    def node(self, t: T.CType, where: str) -> Optional[Node]:
        return self.an.node(t, where)

    def flow(self, src: T.CType, dst: T.CType, where: str) -> None:
        """Record that a value of type ``src`` flows into a location of
        type ``dst`` (assignment, argument or result passing)."""
        us, ud = T.unroll(src), T.unroll(dst)
        if not (isinstance(us, T.TPtr) and isinstance(ud, T.TPtr)):
            return
        ns = self.node(us, where)
        nd = self.node(ud, where)
        assert ns is not None and nd is not None
        ns.add_compat(nd)
        for p, q in matched_pointer_pairs(us.base, ud.base):
            np = ensure_node(p, where)
            nq = ensure_node(q, where)
            if np is not nq:
                np.add_same(nq)
        # RTTI propagates against the dataflow through physically equal
        # flows (Section 3.2, rule 2).
        if physical_equal(us.base, ud.base):
            nd.add_rtti_back(ns)
        # SEQ bounds must originate at the source of the flow.
        nd.add_seq_back(ns)

    def _init_flow(self, t: T.CType, init: S.Init, where: str) -> None:
        if isinstance(init, S.SingleInit):
            self._exp(init.exp)
            self.flow(init.exp.type(), t, where)
            return
        assert isinstance(init, S.CompoundInit)
        ut = T.unroll(t)
        for key, sub in init.entries:
            if isinstance(ut, T.TArray):
                self._init_flow(ut.base, sub, where)
            elif isinstance(ut, T.TComp):
                self._init_flow(ut.comp.field(str(key)).type, sub,
                                where)

    # -- statements --------------------------------------------------------

    def _stmt(self, s: S.Stmt) -> None:
        if isinstance(s, S.InstrStmt):
            for i in s.instrs:
                self._instr(i)
        elif isinstance(s, S.Return):
            if s.exp is not None:
                self._exp(s.exp)
                assert self.cur_fun is not None
                ft = T.unroll(self.cur_fun.svar.type)
                assert isinstance(ft, T.TFun)
                self.flow(s.exp.type(), ft.ret,
                          f"return in {self.cur_fun.name}")
        elif isinstance(s, S.Block):
            for sub in s.stmts:
                self._stmt(sub)
        elif isinstance(s, S.If):
            self._exp(s.cond)
            self._stmt(s.then)
            self._stmt(s.els)
        elif isinstance(s, S.Loop):
            self._stmt(s.body)

    def _instr(self, i: S.Instr) -> None:
        if isinstance(i, S.Set):
            self._lval(i.lval)
            self._exp(i.exp)
            self.flow(i.exp.type(), i.lval.type(), "assignment")
        elif isinstance(i, S.Call):
            self._call(i)
        elif isinstance(i, S.Check):
            for a in i.args:
                self._exp(a)

    def _call(self, i: S.Call) -> None:
        self._exp(i.fn)
        for a in i.args:
            self._exp(a)
        if i.ret is not None:
            self._lval(i.ret)
        ft = self._callee_type(i.fn)
        callee_name = self._callee_name(i.fn)
        external = (callee_name is not None
                    and callee_name in self.an.prog.externals)
        params = ft.params if ft is not None else None
        for idx, a in enumerate(i.args):
            at = a.type()
            if params is not None and idx < len(params):
                self.flow(at, params[idx][1],
                          f"arg {idx} of {callee_name or '?'}")
            if external:
                # Mark every cast layer: (void *)&x hides x's real
                # type, but the library sees the underlying data, so
                # the SPLIT inference must start from the inner
                # pointers too.
                layer: E.Exp = a
                while True:
                    self._mark_interface(layer.type(),
                                         callee_name or "?")
                    if isinstance(layer, E.CastE):
                        layer = layer.e
                    else:
                        break
        if i.ret is not None and ft is not None:
            self.flow(ft.ret, i.ret.type(),
                      f"result of {callee_name or '?'}")
            if external:
                self._mark_interface(i.ret.type(), callee_name or "?")

    def _mark_interface(self, t: T.CType, name: str) -> None:
        u = T.unroll(t)
        if isinstance(u, T.TPtr):
            n = self.node(u, f"call {name}")
            if n is not None:
                n.interface = True

    def _callee_type(self, fn: E.Exp) -> Optional[T.TFun]:
        t = T.unroll(fn.type())
        if isinstance(t, T.TFun):
            return t
        if isinstance(t, T.TPtr):
            bt = T.unroll(t.base)
            if isinstance(bt, T.TFun):
                # Calls through function pointers need a null check and,
                # when the pointer is WILD, a tag check; record that the
                # node exists.
                self.node(t, "funptr call")
                return bt
        return None

    def _callee_name(self, fn: E.Exp) -> Optional[str]:
        if isinstance(fn, E.AddrOf) and isinstance(fn.lval.host, E.Var):
            return fn.lval.host.var.name
        if isinstance(fn, E.LvalExp) and isinstance(fn.lval.host,
                                                    E.Var):
            return fn.lval.host.var.name
        return None

    # -- expressions --------------------------------------------------------

    def _exp(self, e: E.Exp) -> None:
        if isinstance(e, E.LvalExp):
            self._lval(e.lval)
        elif isinstance(e, (E.AddrOf, E.StartOf)):
            self._lval(e.lval)
            self.node(e.type(), "addrof")
        elif isinstance(e, E.UnOp):
            self._exp(e.e)
        elif isinstance(e, E.BinOp):
            self._exp(e.e1)
            self._exp(e.e2)
            if e.op in E.POINTER_ARITH:
                n = self.node(e.e1.type(), "pointer arithmetic")
                if n is not None:
                    n.arith = True
                    if self.rec:
                        n.add_prov(
                            "SEQ", "pointer-arith",
                            where=f"pointer arithmetic in {self._loc()}")
                    if e.op is E.BinopKind.MINUS_PI or (
                            isinstance(e.e2, E.Const)
                            and isinstance(e.e2.value, int)
                            and e.e2.value < 0):
                        n.neg_arith = True
            elif e.op is E.BinopKind.MINUS_PP:
                for sub in (e.e1, e.e2):
                    n = self.node(sub.type(), "pointer difference")
                    if n is not None:
                        n.arith = True
                        n.neg_arith = True
                        if self.rec:
                            n.add_prov(
                                "SEQ", "pointer-diff",
                                where=("pointer difference in "
                                       f"{self._loc()}"))
        elif isinstance(e, E.CastE):
            self._exp(e.e)
            self._cast(e)

    def _lval(self, lv: E.Lval) -> None:
        if isinstance(lv.host, E.Mem):
            self._exp(lv.host.exp)
        off = lv.offset
        while not isinstance(off, E.NoOffset):
            if isinstance(off, E.Index):
                self._exp(off.index)
            off = off.rest  # type: ignore[union-attr]

    # -- casts ---------------------------------------------------------------

    def _cast(self, cast: E.CastE) -> None:
        an = self.an
        rec = classify_cast(cast, self.cur_fun.name if self.cur_fun
                            else "global")
        # Ablations: without physical subtyping, upcasts are bad;
        # without RTTI, downcasts are bad (original CCured behaviour).
        cls = rec.cls
        if cls is CastClass.UPCAST and not an.options.use_physical:
            cls = CastClass.BAD
        if cls is CastClass.DOWNCAST and not an.options.use_rtti:
            cls = CastClass.BAD
        if cls is CastClass.BAD and (cast.trusted
                                     or an.options.trust_bad_casts):
            if not cast.trusted:
                an.auto_trusted += 1
                cast.trusted = True
            cls = CastClass.TRUSTED
        rec.cls = cls
        an.census.add(rec)
        if cast.trusted:
            # The escape hatch covers whatever the programmer wrote it
            # on — bad casts, but also downcasts through a custom
            # allocator: no constraints of any kind are generated.
            return

        us = T.unroll(cast.e.type())
        ud = T.unroll(cast.t)
        if not (isinstance(us, T.TPtr) and isinstance(ud, T.TPtr)):
            if cls is CastClass.INT_TO_PTR and isinstance(ud, T.TPtr):
                nd = self.node(ud, "int-to-ptr")
                if nd is not None:
                    # Figure 11: a non-zero integer can only disguise
                    # itself as a SEQ or WILD pointer (null base), so
                    # the result can never be SAFE — and the taint
                    # follows the value forward.
                    nd.from_int = True
                    nd.arith = True
                    if self.rec:
                        nd.add_prov(
                            "SEQ", "int-to-ptr",
                            where=(f"int-to-ptr cast in {self._loc()}:"
                                   f" -> {ud!r}"))
            return
        ns = self.node(us, "cast src")
        nd = self.node(ud, "cast dst")
        assert ns is not None and nd is not None
        if cls is CastClass.TRUSTED:
            return  # the escape hatch: no constraints at all
        ns.add_compat(nd)
        if cls is CastClass.BAD:
            ns.wild = True
            nd.wild = True
            if self.rec:
                where = (f"bad cast in {self._loc()}: "
                         f"{us!r} -> {ud!r}")
                ns.add_prov("WILD", "bad-cast", where=where)
                nd.add_prov("WILD", "wild-spread", via="cast",
                            src=ns.id, where=where)
            return
        # identical / upcast / downcast share the matched-prefix
        # representation-equality edges.
        if cls is CastClass.DOWNCAST:
            prefix_src: T.CType = ud.base
            prefix_dst: T.CType = us.base
        else:
            prefix_src, prefix_dst = us.base, ud.base
        for p, q in matched_pointer_pairs(prefix_src, prefix_dst):
            np = ensure_node(p, "matched prefix")
            nq = ensure_node(q, "matched prefix")
            if np is not nq:
                np.add_same(nq)
        nd.add_seq_back(ns)
        # Allocator results: a (T*)malloc(...) cast takes a fresh,
        # untyped allocation to its intended type.  CCured recognizes
        # allocation functions and exempts this from the downcast rule
        # (the allocation *becomes* a T); no RTTI is needed.
        if cls is CastClass.DOWNCAST and _is_alloc_result(cast.e):
            return
        if cls is CastClass.IDENTICAL:
            nd.add_rtti_back(ns)
            an.seq_obligations.append((ns, nd, us.base, ud.base))
        elif cls is CastClass.UPCAST:
            an.seq_obligations.append((ns, nd, us.base, ud.base))
            if an.options.use_rtti and an.hierarchy.has_subtypes(
                    us.base):
                nd.add_rtti_back(ns)
        elif cls is CastClass.DOWNCAST:
            ns.rtti_needed = True
            if self.rec:
                ns.add_prov("RTTI", "downcast",
                            where=(f"downcast in {self._loc()}: "
                                   f"{us!r} -> {ud!r}"))
