"""Whole-function code generation: the closures engine.

The tree-walking interpreter (:mod:`repro.interp.interp`) re-discovers
the shape of every statement, expression and type on every execution
step.  Since the interpreter is also the measurement instrument, that
overhead bounds how much experiment the suite can afford.

This module walks each :class:`~repro.cil.stmt.Fundec` **once** and
emits the source of **one Python function** for it:

* register variables (scalar, not address-taken formals and locals)
  are Python locals; formals arrive in the argument list;
* a C ``Loop`` is a ``while True`` with native ``break`` and
  ``continue`` (a ``continue`` first runs the statements the loop marks
  as ``continue_runs_trailing``, the for-post and do-while test), and
  ``return`` is a real ``return``;
* everything static is resolved once: lvalue shapes, constant field
  offsets, element sizes, wrap masks, pointer representation charges,
  check kinds;
* every expression carries a static value class (an exact ``int`` in a
  type's range, a float, a fat pointer, or unknown), so operand class
  tests and store coercions are emitted only where the class is not
  known.  Register locals are always stored coerced, so their class is
  their type's; formals hold the raw argument and stay unknown.

Steps, cycles, instructions and memory accesses accumulate in the
locals ``st``/``cy``/``ni``/``nm``.  They flush to ``ip``/``ip.cost``
in the function's ``finally``, and before anything outside the function
runs: a call (C function, libc, wrapper; see ``_call``) or a shadow-tool
hook (in the shadowed mode, which runs a hook per instruction and
access, charges go straight to ``ip.cost``).  The step budget compares
``st`` with a local copy of ``ip._limit_at``, once for steps taken with
nothing run between them (a block and its first statement); its slow
path (``_ovl``) replays them one by one, storing ``ip.steps`` before
``ip._over_limit`` reads it.  Within one statement the cost-model
charges are summed here and emitted just before the next operation that
can raise, so a run that traps or runs out of budget has charged
exactly what the tree walker had charged at that point.

Every expression string the generator returns is *pure*: it cannot
raise, charge, observe or change anything.  Whatever can (memory
access, the slow path of an operand shape the static classes do not
cover, helpers with effects) becomes a statement into a temporary, in
the tree walker's evaluation order.  Uncommon shapes call shared
helpers, most of them the tree walker's own methods (``_coerce_store``,
``_check_value``, ``_read_mem``, ...), so they are exact by
construction.  A statement that would pass Python's static nesting
limits is hoisted into a nested generated function that shares the
enclosing function's locals.

``tests/test_engine_parity.py`` asserts bit-identical ``(status,
stdout, cycles, steps)`` against the tree walker on every workload, and
``tests/test_budget_exactness.py`` the state at step-budget cuts, which
is what licenses using this engine for the paper's measurements.
Functions are generated per mode (cured, shadowed, counting site hits)
on their first call and cached weakly per ``Fundec``, so generated code
never outlives its tree.  Code objects are shared by source digest
through a small LRU; vids and site ids live in the function's globals,
not its source, so the unchanged functions of fault variants reuse
them.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from typing import Callable, Optional

from repro.cil import expr as E
from repro.cil import stmt as S
from repro.cil import types as T
from repro.core.qualifiers import PointerKind
from repro.runtime.checks import (LinkError, MemorySafetyError,
                                  NullDereferenceError, ProgramAbort)
from repro.runtime.cost import (CHECK_COSTS, COST_MEM_WORD,
                                COST_SPLIT_META, COST_WILD_TAG_UPDATE,
                                WIDE_EXTRA_WORDS, mem_words)
from repro.runtime.memory import PtrMeta
from repro.runtime.values import PtrVal
from repro.interp.interp import (REG_ADDR_MSG, _NO_ARG_CHECKS, Frame,
                                 Interpreter, _Break, _Continue, _CMP_OPS,
                                 _FLOAT_OPS, _INT_OPS, _is_register_type)

#: generated functions per Fundec, keyed by mode.  Weak keys: a
#: deep-copied tree generates afresh, a dropped tree frees its code.
_CACHE: "weakref.WeakKeyDictionary[S.Fundec, dict]" = \
    weakref.WeakKeyDictionary()

#: code objects by source digest, least recently used first; bounded, so
#: a code object outlives its last tree by at most this many functions
_CODE: "OrderedDict[bytes, object]" = OrderedDict()
_CODE_KEEP = 256

#: nesting at which a statement is hoisted into a nested function:
#: Python allows 100 indentation levels and 20 nested blocks (loops and
#: try); a check's try adds one block inside the innermost loop.  An
#: expression past _MAX_PARENS parentheses is bound to a temporary (the
#: parser allows 200).
_MAX_INDENT = 64
_MAX_BLOCKS = 16
_MAX_PARENS = 40


def compiled_function(fd: S.Fundec, mode: tuple[bool, bool, bool]
                      ) -> Callable:
    """The generated ``run(ip, fd, args) -> return value`` of ``fd`` for
    ``mode`` = ``(cured, shadowed, counting site hits)``: binds the
    frame, runs the body, pops the frame.  Generated on first use.
    ``fd`` comes in as an argument: the generated code must not hold
    its own weak key."""
    per_fd = _CACHE.get(fd)
    if per_fd is None:
        per_fd = _CACHE[fd] = {}
    fn = per_fd.get(mode)
    if fn is None:
        src, env = _Gen(fd, *mode).source()
        fn = per_fd[mode] = _load(src, env)
    return fn


def _load(src: str, env: dict) -> Callable:
    key = hashlib.blake2b(src.encode(), digest_size=16).digest()
    code = _CODE.pop(key, None)
    if code is None:
        code = compile(src, "<repro.interp.compiled>", "exec")
    _CODE[key] = code
    if len(_CODE) > _CODE_KEEP:
        _CODE.popitem(last=False)
    exec(code, env)
    return env["run"]


# ---------------------------------------------------------------------------
# Runtime helpers called by generated code (slow paths mirror the tree
# walker's Interpreter methods exactly)
# ---------------------------------------------------------------------------

_as_int = Interpreter._to_int
_as_float = Interpreter._to_float
_static_sizeof = Interpreter._sizeof


def _wrap(v: object, mask: int, top: int) -> int:
    """``Interpreter._wrap_to`` for an integer type's ``(mask, top)``."""
    if not isinstance(v, int):
        v = int(v)  # type: ignore[arg-type]
    v &= mask
    return v - 2 * top if top and v >= top else v


def _binop_slow(v1: object, v2: object, op: E.BinopKind, mask: int,
                top: int) -> int:
    if isinstance(v1, PtrVal):
        v1 = v1.addr
    if isinstance(v2, PtrVal):
        v2 = v2.addr
    x = _as_int(v1)
    y = _as_int(v2)
    try:
        out = _INT_OPS[op](x, y)
    except ZeroDivisionError:
        raise ProgramAbort("integer division by zero")
    except ValueError:
        raise ProgramAbort("invalid shift amount")
    return _wrap(out, mask, top)


def _float_slow(v1: object, v2: object, op: E.BinopKind) -> float:
    if isinstance(v1, PtrVal):
        v1 = v1.addr
    if isinstance(v2, PtrVal):
        v2 = v2.addr
    x = _as_float(v1)
    y = _as_float(v2)
    try:
        return _FLOAT_OPS[op](x, y)
    except ZeroDivisionError:
        raise ProgramAbort("floating division by zero")


def _unop_slow(v: object, neg: bool, mask: Optional[int],
               top: int) -> object:
    if isinstance(v, PtrVal):
        v = v.addr
    out = -v if neg else ~_as_int(v)  # type: ignore[operator]
    return out if mask is None else _wrap(out, mask, top)


def _cast_int_slow(v: object, mask: int, top: int) -> int:
    if isinstance(v, PtrVal):
        v = v.addr
    return _wrap(int(v) if isinstance(v, float) else _as_int(v),
                 mask, top)


def _pi_slow(v1: object, v2: object, mult: int) -> PtrVal:
    if isinstance(v1, PtrVal) and v2.__class__ is int:
        return PtrVal(v1.addr + v2 * mult, v1.b, v1.e, v1.rtti, v1.key)
    p = v1 if isinstance(v1, PtrVal) else PtrVal(_as_int(v1))
    return p.with_addr(p.addr + _as_int(v2) * mult)


def _pp_slow(v1: object, v2: object, esz: int) -> int:
    a1 = v1.addr if isinstance(v1, PtrVal) else _as_int(v1)
    a2 = v2.addr if isinstance(v2, PtrVal) else _as_int(v2)
    return (a1 - a2) // esz


def _index_slow(idx: object) -> int:
    if isinstance(idx, PtrVal):
        return idx.addr
    return int(idx)  # type: ignore[arg-type]


def _ovl(ip, st: int, n: int = 1) -> int:
    """Step-budget slow path of ``n`` steps taken at once (nothing runs
    between them): replay them one by one, letting ``_over_limit``
    raise or advance the clock checkpoint; return the new limit."""
    for s in range(st - n + 1, st + 1):
        if s > ip._limit_at:
            ip.steps = s
            ip._over_limit()
    ip.steps = st
    return ip._limit_at


def _call(ip, st: int, cy: int, ni: int, nm: int, name: Optional[str],
          fnval: Optional[PtrVal], args: list, instr: S.Call,
          caller: str) -> tuple:
    """A call from generated code: store the caller's counters, call,
    return ``(value, steps, step limit)``.  Should the call raise, the
    counters are taken back out: the caller still holds them and its
    ``finally`` stores them.  A call by name of a defined, unwrapped
    function whose entry point exists enters it directly; everything
    else (wrappers, libc, function pointers, a first call, the call
    depth limit) goes through ``_dispatch_call``."""
    ip.steps = st
    c = ip.cost
    c.cycles += cy
    c.instrs += ni
    c.mems += nm
    try:
        fd = ip._direct_calls.get(name)
        run = ip._call_plans.get(id(fd)) if fd is not None else None
        if run is not None and len(ip._frames) < ip.MAX_CALL_DEPTH:
            ret = run(ip, fd, args)
        else:
            ret = ip._dispatch_call(name, fnval, args, instr, caller)
    except BaseException:
        c.cycles -= cy
        c.instrs -= ni
        c.mems -= nm
        raise
    return ret, ip.steps, ip._limit_at


def _check(ip, c: S.Check, v: object, f) -> None:
    """A check whose inline pass test failed: the tree walker's
    ``_check_value``, the failure record attached."""
    try:
        ip._check_value(c, v, f)
    except MemorySafetyError as exc:
        ip._attach_check_failure(exc, c, f.fundec.name)
        raise


def _dead(ip, c: S.Check, v: PtrVal, f) -> None:
    """A passing check's pointer is not alive (or unmapped)."""
    try:
        ip._check_alive(v, f)
    except MemorySafetyError as exc:
        ip._attach_check_failure(exc, c, f.fundec.name)
        raise


def _split_meta(ip, value: int) -> Optional[PtrMeta]:
    """Section 4.2: SPLIT data written by a library has no shadow
    metadata yet; the allocator's ground truth provides sound bounds."""
    home = ip.mem.home_of(value)
    if home is None:
        return None
    ip.cost.charge(4, "split:manufacture")
    return PtrMeta(b=home.base, e=home.end)


def _fail(cls: type, *args: object) -> None:
    raise cls(*args)


#: module globals every generated function sees
_HELPERS = {
    "PtrVal": PtrVal, "PtrMeta": PtrMeta, "Frame": Frame,
    "MemorySafetyError": MemorySafetyError, "LinkError": LinkError,
    "NullDereferenceError": NullDereferenceError,
    "_Break": _Break, "_Continue": _Continue,
    "_as_int": _as_int, "_as_float": _as_float,
    "_binop_slow": _binop_slow, "_float_slow": _float_slow,
    "_unop_slow": _unop_slow,
    "_cast_int_slow": _cast_int_slow, "_pi_slow": _pi_slow,
    "_pp_slow": _pp_slow, "_index_slow": _index_slow, "_ovl": _ovl,
    "_split_meta": _split_meta, "_fail": _fail,
    "_check": _check, "_dead": _dead, "_call": _call,
}

#: prologue bindings, in emission order, for the names a body uses
_PROLOGUE = (
    ("mem", "mem = ip.mem"), ("rdi", "rdi = mem.read_int"),
    ("rdf", "rdf = mem.read_float"), ("rdp", "rdp = mem.read_ptr"),
    ("wri", "wri = mem.write_int"), ("wrf", "wrf = mem.write_float"),
    ("wrp", "wrp = mem.write_ptr"), ("hof", "hof = mem.home_of"),
    ("alloc", "alloc = mem.alloc"), ("lk", "lk = mem.locks"),
    ("hm", "hm = f.homes"), ("gh", "gh = ip._global_homes"),
    ("ev", "ev = c.events"), ("hits", "hits = ip.site_hits"),
    ("sh", "sh = ip.shadow"), ("zp", "zp = ip._zero_ptr"),
    ("rv", "rv = 0"),
)
_MEM_USERS = {"rdi", "rdf", "rdp", "wri", "wrf", "wrp", "hof", "alloc",
              "lk"}

#: value class of a 0/1 comparison result: fits every integer type
_B01 = (1, 0)


def _int_params(t: T.CType) -> tuple[int, int]:
    """``(mask, top)`` of integer wrapping at ``t`` (``top`` = 0 when
    unsigned), as ``Interpreter._wrap_to`` applies it."""
    u = T.unroll(t)
    if isinstance(u, T.TInt):
        bits, signed = 8 * u.size(), u.kind.is_signed
    else:
        bits, signed = 32, False
    return (1 << bits) - 1, (1 << (bits - 1)) if signed else 0


def _isint(vc: object) -> bool:
    return vc == "i" or isinstance(vc, tuple)


def _lit(v: int) -> str:
    return repr(v) if v >= 0 else f"({v})"


def _lit_value(code: str) -> Optional[int]:
    s = code[1:-1] if code.startswith("(-") else code
    return int(s) if s.lstrip("-").isdigit() else None


def _atom(code: str) -> bool:
    return code.isidentifier() or _lit_value(code) is not None


def _wrapped(code: str, p: tuple[int, int]) -> str:
    """``code``, an exact int, wrapped to an integer type's range."""
    mask, top = p
    value = _lit_value(code)
    if value is not None:
        value &= mask
        return _lit(value - 2 * top if top and value >= top else value)
    if not top:
        return f"(({code}) & {mask})"
    return f"((({code}) + {top} & {mask}) - {top})"


def _meet(a: dict, b: dict) -> dict:
    """The facts holding on both of two joining paths."""
    return {k: v for k, v in a.items() if b.get(k) == v}


def _escapes(s: S.Stmt, in_loop: bool = False) -> set:
    """How control can leave a hoisted statement: 1 break, 2 continue
    (out of an enclosing loop), 3 return."""
    cls = s.__class__
    if cls is S.Return:
        return {3}
    if cls is S.Break:
        return set() if in_loop else {1}
    if cls is S.Continue:
        return set() if in_loop else {2}
    out: set = set()
    if cls is S.If:
        for x in s.then.stmts + s.els.stmts:
            out |= _escapes(x, in_loop)
    elif cls is S.Block:
        for x in s.stmts:
            out |= _escapes(x, in_loop)
    elif cls is S.Loop:
        for x in s.body.stmts:
            out |= _escapes(x, True)
    return out


class _Gen:
    """Generates the source of one function for one mode."""

    def __init__(self, fd: S.Fundec, cured: bool, shadowed: bool,
                 counting: bool) -> None:
        self.fd = fd
        self.cured = cured
        self.shadowed = shadowed
        self.counting = counting
        self.env: dict = {"fname": fd.name}
        self._consts: dict[int, str] = {}
        self.lines: list[str] = []
        self.ind = 2
        self.ntmp = 0
        self.uses: set[str] = set()
        #: charges summed but not yet emitted: cycles, instrs, mems; and
        #: steps taken with nothing run between them
        self.pc = self.pi = self.pm = self.pst = 0
        #: what is known at this point of the generated code: register
        #: -> the temporary holding its value as a fat pointer, and
        #: "!" + name -> "" for a register or temporary known non-null
        self.facts: dict[str, str] = {}
        #: 0 in the function itself, n inside hoisted function ``_hn``
        self.scope = 0
        self.nscopes = 0
        self.blocks = 1  # the function's try/finally
        #: enclosing loops: (scope, trailing statements)
        self.loops: list[tuple[int, list]] = []
        self.hoisted: list[list[str]] = []
        #: vid -> (local name, value class) of register formals/locals
        self.regs: dict[int, tuple[str, object]] = {}
        #: vid -> local holding the base address of a frame home
        self.bases: dict[int, str] = {}
        #: vid -> local holding a global's home (``None`` if unlinked)
        self.globals: dict[int, str] = {}

    # -- emission ------------------------------------------------------

    def emit(self, line: str) -> None:
        if self.pst:
            self.flush_steps()
        self.lines.append(" " * self.ind + line)

    def flush_steps(self) -> None:
        """Emit the budget check of the pending steps."""
        n, self.pst = self.pst, 0
        pad = " " * self.ind
        if n == 1:
            self.lines.append(f"{pad}if (st := st + 1) > lim: "
                              f"lim = _ovl(ip, st)")
            return
        # check first: should _ovl raise, ``st`` must not count the
        # steps the raise cuts off (``finally`` keeps the larger of
        # ``st`` and ``ip.steps``)
        self.lines.append(f"{pad}if st + {n} > lim: "
                          f"lim = _ovl(ip, st + {n}, {n})")
        self.lines.append(f"{pad}st += {n}")

    def tmp(self) -> str:
        self.ntmp += 1
        return f"t{self.ntmp}"

    def k(self, value: object) -> str:
        """A global of the generated function holding ``value``."""
        name = self._consts.get(id(value))
        if name is None:
            name = self._consts[id(value)] = f"k{len(self._consts)}"
            self.env[name] = value
        return name

    def use(self, *names: str) -> None:
        self.uses.update(names)

    def name(self, code: str) -> str:
        """``code`` as an atom, binding it to a temporary if needed."""
        if _atom(code):
            return code
        t = self.tmp()
        self.emit(f"{t} = {code}")
        return t

    def impure(self, code: str) -> str:
        """Evaluate ``code``, which may raise or observe, now: settle
        the charges the tree walker has made by this point first."""
        self.settle()
        t = self.tmp()
        self.emit(f"{t} = {code}")
        return t

    # -- cost-model accounting -----------------------------------------

    def charge(self, cycles: int, instrs: int = 0, mems: int = 0) -> None:
        self.pc += cycles
        self.pi += instrs
        self.pm += mems

    def settle(self) -> None:
        """Emit the pending steps and summed charges before anything that
        can raise or observe them."""
        if self.pst:
            self.flush_steps()
        if self.shadowed:
            names = ("c.cycles", "c.instrs", "c.mems")
        else:
            names = ("cy", "ni", "nm")
        parts = [f"{n} += {v}" for n, v in zip(names,
                                               (self.pc, self.pi, self.pm))
                 if v]
        if parts:
            self.emit("; ".join(parts))
        self.pc = self.pi = self.pm = 0

    def sync(self) -> None:
        """Before a shadow-tool hook: the charges go straight to
        ``ip.cost`` in shadowed mode, the steps are stored here."""
        self.settle()
        self.emit("ip.steps = st")

    def step(self) -> None:
        if self.pc or self.pi or self.pm:
            self.settle()
        self.pst += 1

    # -- the function --------------------------------------------------

    def source(self) -> tuple[str, dict]:
        fd = self.fd
        bind: list[str] = ["n = len(args)"] if fd.formals else []
        zeros: dict[str, list[str]] = {}
        for i, v in enumerate(list(fd.formals) + list(fd.locals)):
            formal = i < len(fd.formals)
            value = f"args[{i}] if n > {i} else 0"
            if _is_register_type(v.type) and not v.address_taken:
                r = f"r{i}"
                self.regs[v.vid] = (r, None if formal
                                    else self._class_of(v.type))
                if formal:
                    bind.append(f"{r} = {value}")
                else:
                    zeros.setdefault(self._zero(v.type), []).append(r)
                continue
            h, b, kt = f"h{i}", f"b{i}", self.k(v.type)
            self.bases[v.vid] = b
            self.use("alloc", "hm", "lk")
            bind.append(f"{h} = alloc({_static_sizeof(v.type)}, 'stack', "
                        f"{self.k(f'{fd.name}:{v.name}')}); "
                        f"{h}.frame_id = fid; hm[{self.k(v.vid)}] = {h}; "
                        f"{b} = {h}.base")
            if formal:
                bind.append(f"ip._write_mem({b}, {kt}, "
                            f"ip._coerce_store({value}, {kt}))")
        bind += [" = ".join(rs) + f" = {z}" for z, rs in zeros.items()]
        self.regnames = {r for r, _ in self.regs.values()}
        self.block(fd.body.stmts)
        self.emit("return 0")
        body = self.lines

        head = ["def run(ip, fd, args):",
                " fr = ip._frames",
                " ip._frame_counter = fid = ip._frame_counter + 1",
                " f = Frame(fd, fid)",
                " fr.append(f)",
                " c = ip.cost",
                " st = ip.steps",
                " lim = ip._limit_at"]
        if not self.shadowed:
            head.append(" cy = ni = nm = 0")
        if self.uses & _MEM_USERS:
            self.uses.add("mem")
        head += [" " + line for key, line in _PROLOGUE
                 if key in self.uses]
        # vids and site ids stay out of the source text: a re-parsed or
        # re-cured variant of a function then shares its code object
        head += [f" {g} = gh.get({self.k(vid)})"
                 for vid, g in self.globals.items()]
        if self.hoisted:
            shared = ["st", "lim"] + ([] if self.shadowed
                                      else ["cy", "ni", "nm"])
            shared += [r for r, _ in self.regs.values()]
            if "rv" in self.uses:
                shared.append("rv")
            for i, lines in enumerate(self.hoisted, 1):
                head.append(f" def _h{i}():")
                head.append("  nonlocal " + ", ".join(shared))
                head += lines
        tail = [" finally:",
                "  if st > ip.steps: ip.steps = st"]
        if not self.shadowed:
            tail.append("  c.cycles += cy; c.instrs += ni; c.mems += nm")
        tail.append("  fr.pop()")
        if self.bases:
            tail.append("  for h in hm.values(): h.alive = False; "
                        "lk.release(h.lock_slot)")
        src = "\n".join(head + [" try:"] + ["  " + b for b in bind]
                        + body + tail) + "\n"
        return src, {**_HELPERS, **self.env}

    def _zero(self, t: T.CType) -> str:
        u = T.unroll(t)
        if isinstance(u, T.TFloat):
            return "0.0"
        if isinstance(u, T.TPtr):
            self.use("zp")
            return "zp"
        return "0"

    @staticmethod
    def _class_of(t: T.CType) -> object:
        """Value class of a coerced ``t``-typed value."""
        u = T.unroll(t)
        if isinstance(u, (T.TInt, T.TEnum)):
            return _int_params(u)
        if isinstance(u, T.TFloat):
            return "f"
        if isinstance(u, T.TPtr):
            return "p"
        return None

    # -- statements ----------------------------------------------------

    def block(self, stmts: list) -> None:
        n = len(self.lines)
        for s in stmts:
            self.stmt(s)
        self.settle()
        if len(self.lines) == n:
            self.emit("pass")

    def stmt(self, s: S.Stmt) -> None:
        cls = s.__class__
        if cls in (S.If, S.Loop, S.Block) and (
                self.ind >= _MAX_INDENT
                or (cls is S.Loop and self.blocks >= _MAX_BLOCKS)):
            self.hoist(s)
            return
        self.step()
        if cls is S.InstrStmt:
            for i in s.instrs:
                self.instr(i)
        elif cls is S.If:
            self.charge(1, instrs=1)
            cond = self.truth(s.cond)
            self.settle()
            if s.then.stmts:
                self.emit(f"if {cond}:")
                facts = self.nested(s.then.stmts)
                if s.els.stmts:
                    self.emit("else:")
                    facts = _meet(facts, self.nested(s.els.stmts))
                else:
                    facts = _meet(facts, self.facts)
            else:
                self.emit(f"if not {cond}:")
                facts = _meet(self.nested(s.els.stmts), self.facts)
            self.facts = facts
        elif cls is S.Loop:
            self.settle()
            stmts = s.body.stmts
            trailing = getattr(s, "continue_runs_trailing", 0)
            self.loops.append((self.scope, stmts[len(stmts) - trailing:]
                               if trailing else []))
            self.emit("while True:")
            self.blocks += 1
            self.facts = {}  # the back edge joins here
            self.nested(stmts)
            self.facts = {}
            self.blocks -= 1
            self.loops.pop()
        elif cls is S.Return:
            code = self.exp(s.exp)[0] if s.exp is not None else "0"
            self.settle()
            self.leave(3, code)
        elif cls is S.Block:
            for x in s.stmts:
                self.stmt(x)
        elif cls is S.Break:
            self.settle()
            self.leave(1)
        elif cls is S.Continue:
            self.settle()
            self.leave(2)

    def nested(self, stmts: list) -> dict:
        """Generate a branch or loop body one level in; returns the facts
        at its end, leaving the entry facts current."""
        entry = dict(self.facts)
        self.ind += 1
        self.block(stmts)
        self.ind -= 1
        facts, self.facts = self.facts, entry
        return facts

    def leave(self, how: int, value: str = "0") -> None:
        """Leave by break (1), continue (2) or return (3): natively when
        the target is in this function, else by the hoisted function's
        return code."""
        if how == 3:
            if self.scope == 0:
                self.emit(f"return {value}")
            else:
                self.use("rv")
                self.emit(f"rv = {value}")
                self.emit("return 3")
            return
        if not self.loops:
            self.emit("raise _Break()" if how == 1 else "raise _Continue()")
        elif self.loops[-1][0] != self.scope:
            self.emit(f"return {how}")
        elif how == 1:
            self.emit("break")
        else:
            for x in self.loops[-1][1]:
                self.stmt(x)
            self.settle()
            self.emit("continue")

    def hoist(self, s: S.Stmt) -> None:
        """Generate ``s`` as nested function ``_hn`` (too deep to nest
        here) and call it, propagating break/continue/return."""
        self.settle()
        self.nscopes += 1
        name = f"_h{self.nscopes}"
        saved = (self.lines, self.ind, self.scope, self.blocks)
        self.lines, self.ind, self.scope, self.blocks = \
            [], 2, self.nscopes, 0
        self.facts = {}
        self.hoisted.append(self.lines)
        self.stmt(s)
        self.settle()
        self.lines, self.ind, self.scope, self.blocks = saved
        self.facts = {}
        codes = _escapes(s)
        if not codes:
            self.emit(f"{name}()")
            return
        ret = self.tmp()
        self.emit(f"{ret} = {name}()")
        if 3 in codes:
            self.use("rv")
            self.emit(f"if {ret} == 3: "
                      + ("return rv" if self.scope == 0 else "return 3"))
        for how in (1, 2):
            if how in codes:
                self.emit(f"if {ret} == {how}:")
                self.ind += 1
                self.leave(how)
                self.ind -= 1

    # -- instructions --------------------------------------------------

    def instr(self, i: S.Instr) -> None:
        self.charge(1, instrs=1)
        if self.shadowed:
            self.use("sh")
            self.sync()
            self.emit("sh.on_instr()")
        cls = i.__class__
        if cls is S.Set:
            v, vc = self.exp(i.exp)
            v, vc = self.coerce(v, vc, i.lval.type())
            self.store(i.lval, v, vc)
        elif cls is S.Call:
            self.call(i)
        elif cls is S.Check and self.cured:
            self.check(i)

    def call(self, i: S.Call) -> None:
        args = ", ".join(self.exp(a)[0] for a in i.args)
        fn = i.fn
        if (isinstance(fn, (E.AddrOf, E.LvalExp))
                and isinstance(fn.lval.host, E.Var)
                and isinstance(fn.lval.offset, E.NoOffset)
                and T.is_function(fn.lval.host.var.type)):
            target = f"{self.k(fn.lval.host.var.name)}, None"
        else:
            v, vc = self.exp(fn)
            if vc != "p":
                v = self.name(v)
                v = self.impure(f"{v} if {v}.__class__ is PtrVal "
                                f"else PtrVal(int({v}))")
            target = f"None, {v}"
        self.settle()
        ret = self.tmp()
        counters, reset = ("0, 0, 0", "") if self.shadowed else \
            ("cy, ni, nm", "; cy = ni = nm = 0")
        self.emit(f"{ret}, st, lim = _call(ip, st, {counters}, {target}, "
                  f"[{args}], {self.k(i)}, fname){reset}")
        if i.ret is not None:
            v, vc = self.coerce(ret, None, i.ret.type())
            self.store(i.ret, v, vc)

    def check(self, c: S.Check) -> None:
        """A cured check: the pass test inline, anything else through
        the tree walker's ``_check_value``; a failure, in evaluating the
        argument too, gets the check's record attached, as the tree
        walker's ``_exec_check`` does."""
        K = S.CheckKind
        kind = c.kind
        self.charge(CHECK_COSTS.get(kind, 1))
        self.use("ev")
        self.emit(f"ev[{('check:' + kind.value)!r}] += 1")
        if self.counting:
            site = self.k(c.site)
            self.use("hits")
            self.emit(f"hits[{site}] = hits.get({site}, 0) + 1")
        if kind in _NO_ARG_CHECKS:
            return
        ck = self.k(c)
        self.settle()
        n = len(self.lines)
        v, vc = self.exp(c.args[0])
        v = self.name(v)
        if len(self.lines) > n:
            pad = " " * self.ind
            self.lines[n:] = [pad + "try:"] + [" " + line for line
                                               in self.lines[n:]]
            self.emit(f"except MemorySafetyError as e: "
                      f"ip._attach_check_failure(e, {ck}, fname); raise")
        size = c.size or 1
        slow = f"_check(ip, {ck}, {v}, f)"
        if kind is K.NULL or kind is K.WILD_BOUNDS or kind is K.FUNPTR:
            fast = f"{v}.addr" if kind is K.NULL else ""
            nonnull = True
        elif kind in (K.SEQ_BOUNDS, K.SEQ_TO_SAFE):
            # a true base is >= 1, so it also rules out a null address
            fast = (f"{v}.b and {v}.e is not None and "
                    f"{v}.b <= {v}.addr <= {v}.e - {size}")
            nonnull = kind is K.SEQ_BOUNDS
        elif kind is K.FSEQ_BOUNDS:
            fast = (f"{v}.addr and {v}.e is not None and "
                    f"{v}.addr <= {v}.e - {size} and "
                    f"({v}.b is None or {v}.b <= {v}.addr)")
            nonnull = True
        elif kind is K.INDEX:
            fast = f"0 <= {v} < {c.size or 0}"
            if not _isint(vc):
                fast = f"{v}.__class__ is int and {fast}"
            nonnull = False
        else:
            fast, nonnull = "", False
        self.settle()
        if not fast:
            self.emit(slow)
        elif kind is K.INDEX:
            self.emit(f"if not ({fast}): {slow}")
        else:
            if vc != "p":
                fast = f"{v}.__class__ is PtrVal and {fast}"
            h = self.tmp()
            self.use("hof")
            self.emit(f"if {fast}:")
            self.emit(f" {h} = hof({v}.addr)")
            self.emit(f" if {h} is None or not {h}.alive and "
                      f"{h}.region == 'stack': _dead(ip, {ck}, {v}, f)")
            self.emit(f"else: {slow}")
        if nonnull and vc == "p" and v in self.regnames:
            self.facts["!" + v] = ""

    # -- coercion and stores -------------------------------------------

    def coerce(self, v: str, vc: object, t: T.CType) -> tuple[str, object]:
        """``Interpreter._coerce_store`` of ``v`` to ``t``."""
        u = T.unroll(t)
        kt = self.k(t)
        if isinstance(u, (T.TInt, T.TEnum)):
            p = _int_params(u)
            if vc == p or vc == _B01:
                return v, p
            if _isint(vc):
                return _wrapped(v, p), p
            if vc == "p":
                return _wrapped(f"{v}.addr", p), p
            v = self.name(v)
            return self.impure(f"{_wrapped(v, p)} if {v}.__class__ is int "
                               f"else ip._coerce_store({v}, {kt})"), p
        if isinstance(u, T.TFloat):
            if vc == "f":
                return v, vc
            if _isint(vc):
                return f"float({v})", "f"
            return self.impure(f"ip._coerce_store({v}, {kt})"), "f"
        if isinstance(u, T.TPtr):
            if vc == "p":
                return v, vc
            if _isint(vc):
                return f"PtrVal({v})", "p"
            v = self.name(v)
            return self.impure(f"{v} if {v}.__class__ is PtrVal "
                               f"else ip._coerce_store({v}, {kt})"), "p"
        return v, vc

    def store(self, lv: E.Lval, v: str, vc: object) -> None:
        """``Interpreter._write_lval`` of the coerced value ``v``."""
        reg = self.reg(lv)
        if reg is not None:
            self.facts.pop(reg, None)
            self.facts.pop("!" + reg, None)
            last = self.lines[-1] if self.lines and not self.pst else ""
            bind = " " * self.ind + v + " = "
            if v.startswith("t") and last.startswith(bind):
                # the value's temporary was bound just now: bind the
                # register instead
                self.lines[-1] = bind.replace(v, reg) + last[len(bind):]
            else:
                self.emit(f"{reg} = {v}")
            return
        addr, t = self.addr(lv)
        addr = self.name(addr)
        if self.cured and vc not in ("f", "i") and not _isint(vc):
            v = self.name(v)
            guard = f"{v}.addr" if vc == "p" else \
                f"{v}.__class__ is PtrVal and {v}.addr"
            self.settle()
            self.emit(f"if {guard}: ip._stack_escape_check({addr}, {v}, f)")
        self.write(addr, t, v, vc)

    def reg(self, lv: E.Lval) -> Optional[str]:
        if lv.host.__class__ is E.Var:
            r = self.regs.get(lv.host.var.vid)
            if r is not None:
                return r[0]
        return None

    # -- lvalues -------------------------------------------------------

    def addr(self, lv: E.Lval) -> tuple[str, T.CType]:
        """``Interpreter._lval_location`` of a memory lvalue: the address
        expression and the addressed type."""
        code, t, _ = self.location(lv)
        return code, t

    def location(self, lv: E.Lval) -> tuple[str, T.CType, Optional[tuple]]:
        """Address, addressed type and the bounds of ``&lv``: the
        innermost fixed-length indexed array as ``(start, extent)``."""
        host = lv.host
        if host.__class__ is E.Var:
            t: T.CType = host.var.type
            base = self.var_base(host.var)
        else:
            pt = T.unroll(host.exp.type())
            t = pt.base if isinstance(pt, T.TPtr) else T.int_t()
            p, vc = self.exp(host.exp)
            p = self.name(p)
            if vc != "p":
                # a register's conversion is reused until it is stored
                conv = self.facts.get(p)
                if conv is None:
                    conv = self.impure(f"{p} if {p}.__class__ is PtrVal "
                                       f"else PtrVal(int({p}))")
                    if p in self.regnames:
                        self.facts[p] = conv
                p = conv
            if self.cured and "!" + p not in self.facts:
                # defense in depth: the Check in front should have fired
                self.settle()
                self.emit(f"if {p}.addr == 0: _fail(NullDereferenceError, "
                          f"'null dereference', fname)")
                self.facts["!" + p] = ""
            base = f"{p}.addr"
        const = 0
        parts: list[str] = []
        best: Optional[tuple] = None
        off = lv.offset
        while not isinstance(off, E.NoOffset):
            if isinstance(off, E.Field):
                const += T.field_offset(off.field)
                t = off.field.type
            else:
                at = T.unroll(t)
                assert isinstance(at, T.TArray)
                esz = _static_sizeof(at.base)
                if at.length is not None:
                    best = (self._sum(base, const, parts),
                            at.length * esz)
                idx = off.index
                if idx.__class__ is E.Const and \
                        idx.value.__class__ is int:
                    const += idx.value * esz
                else:
                    i, vc = self.exp(idx)
                    if not _isint(vc):
                        i = self.name(i)
                        i = self.impure(f"{i} if {i}.__class__ is int "
                                        f"else _index_slow({i})")
                    parts.append(i if esz == 1 else f"{i} * {esz}")
                t = at.base
            off = off.rest
        return self._sum(base, const, parts), t, best

    @staticmethod
    def _sum(base: str, const: int, parts: list) -> str:
        terms = [base] + ([str(const)] if const else []) + parts
        return terms[0] if len(terms) == 1 else f"({' + '.join(terms)})"

    def var_base(self, var: E.Varinfo) -> str:
        b = self.bases.get(var.vid)
        if b is not None:
            return b
        if var.is_global:
            self.use("gh")
            g = self.globals.setdefault(var.vid, f"g{len(self.globals)}")
            if "!" + g not in self.facts:
                self.settle()
                self.emit(f"if {g} is None: _fail(LinkError, "
                          f"{self.k(f'undefined external {var.name}')})")
                self.facts["!" + g] = ""
            return f"{g}.base"
        self.settle()
        self.emit(f"_fail(LinkError, "
                  f"{self.k(f'variable {var.name} has no storage')})")
        return "0"

    def read(self, lv: E.Lval) -> tuple[str, object]:
        """``Interpreter._read_lval``."""
        if lv.host.__class__ is E.Var:
            r = self.regs.get(lv.host.var.vid)
            if r is not None:
                return r
        addr, t = self.addr(lv)
        return self.load(addr, t)

    def _slot(self, u: T.TPtr, store: bool) -> int:
        """``Interpreter._charge_ptr_slot``: emits the wide/split/tag
        counters, returns the cycles to charge."""
        node = u.node
        if node is None or not self.cured:
            return 0
        kind = node.kind
        cycles = 0
        if node.split:
            ops = {PointerKind.SEQ: 2, PointerKind.FSEQ: 1,
                   PointerKind.RTTI: 1}.get(kind, 0) + int(node.has_meta)
            if ops:
                cycles = COST_SPLIT_META * ops
                self.emit(f"c.splits += {ops}")
        else:
            extra = WIDE_EXTRA_WORDS.get(kind.name, 0)
            if extra:
                cycles = extra * COST_MEM_WORD
                self.emit("c.wides += 1")
        if store and kind is PointerKind.WILD:
            cycles += COST_WILD_TAG_UPDATE
            self.use("ev")
            self.emit("ev['wild-tag'] += 1")
        return cycles

    def _access(self, addr: str, size: int, hook: str) -> str:
        """Charge one scalar access of ``size`` bytes and run the shadow
        hook; returns ``addr`` as an atom."""
        self.charge(mem_words(size) * COST_MEM_WORD, mems=1)
        addr = self.name(addr)
        if self.shadowed:
            self.use("sh")
            self.sync()
            self.emit(f"sh.{hook}({addr}, {size})")
        return addr

    def load(self, addr: str, t: T.CType) -> tuple[str, object]:
        """``Interpreter._read_mem`` specialized on the static type."""
        u = T.unroll(t)
        size = _static_sizeof(u)
        if isinstance(u, (T.TInt, T.TEnum)):
            addr = self._access(addr, size, "on_read")
            signed = u.kind.is_signed if isinstance(u, T.TInt) else True
            self.use("rdi")
            bits = 8 * size
            return (self.impure(f"rdi({addr}, {size}, {signed})"),
                    ((1 << bits) - 1, (1 << (bits - 1)) if signed else 0))
        if isinstance(u, T.TFloat):
            addr = self._access(addr, size, "on_read")
            self.use("rdf")
            return self.impure(f"rdf({addr}, {size})"), "f"
        if isinstance(u, T.TPtr):
            addr = self._access(addr, size, "on_read")
            self.charge(self._slot(u, False))
            self.settle()
            self.use("rdp")
            v, m = self.tmp(), self.tmp()
            self.emit(f"{v}, {m} = rdp({addr})")
            if self.cured and u.node is not None and u.node.split:
                self.emit(f"if {m} is None and {v} != 0: "
                          f"{m} = _split_meta(ip, {v})")
            return (f"(PtrVal({v}) if {m} is None else PtrVal({v}, {m}.b, "
                    f"{m}.e, {m}.rtti, {m}.key))"), "p"
        if self.shadowed:
            self.sync()
        return self.impure(f"ip._read_mem({addr}, {self.k(t)})"), None

    def write(self, addr: str, t: T.CType, v: str, vc: object) -> None:
        """``Interpreter._write_mem`` specialized on the static type."""
        u = T.unroll(t)
        size = _static_sizeof(u)
        if isinstance(u, (T.TInt, T.TEnum)):
            addr = self._access(addr, size, "on_write")
            if not _isint(vc):
                v = self.impure(f"_as_int({v})")
            self.settle()
            self.use("wri")
            self.emit(f"wri({addr}, {v}, {size})")
        elif isinstance(u, T.TFloat):
            addr = self._access(addr, size, "on_write")
            if vc != "f":
                v = self.impure(f"_as_float({v})")
            self.settle()
            self.use("wrf")
            self.emit(f"wrf({addr}, {v}, {size})")
        elif isinstance(u, T.TPtr):
            addr = self._access(addr, size, "on_write")
            self.charge(self._slot(u, True))
            if vc != "p":
                v = self.name(v)
                v = self.impure(f"{v} if {v}.__class__ is PtrVal "
                                f"else PtrVal(_as_int({v}))")
            v = self.name(v)
            # Figure 10/11: cured, every pointer store sets the word's tag
            meta = f"{v}.meta() or PtrMeta()" if self.cured \
                else f"{v}.meta()"
            self.settle()
            self.use("wrp")
            self.emit(f"wrp({addr}, {v}.addr, {meta})")
        else:
            if self.shadowed:
                self.sync()
            self.settle()
            self.emit(f"ip._write_mem({addr}, {self.k(t)}, {v})")

    # -- expressions ---------------------------------------------------

    def exp(self, e: E.Exp) -> tuple[str, object]:
        """A pure expression computing ``e`` (impure parts emitted as
        statements first) and its static value class."""
        code, vc = self._exp(e)
        return self.shallow(code), vc

    def shallow(self, code: str) -> str:
        """``code``, bound to a temporary past ``_MAX_PARENS``."""
        return self.name(code) if code.count("(") > _MAX_PARENS else code

    def _exp(self, e: E.Exp) -> tuple[str, object]:
        cls = e.__class__
        if cls is E.Const:
            v = e.value
            if v.__class__ is int:
                return _lit(v), "i"
            return self.k(v), "f" if v.__class__ is float else None
        if cls is E.LvalExp:
            return self.read(e.lval)
        if cls is E.BinOp:
            return self.binop(e)
        if cls is E.CastE:
            return self.cast(e)
        if cls is E.UnOp:
            return self.unop(e)
        if cls is E.StrConst:
            return self.impure(f"ip._ev_str({self.k(e)}, f)"), "p"
        if cls is E.SizeOfT:
            return str(_static_sizeof(e.t)), "i"
        if cls is E.AddrOf:
            return self.addrof(e.lval)
        if cls is E.StartOf:
            return self.startof(e.lval)
        self.settle()
        self.emit(f"_fail(MemorySafetyError, "
                  f"{self.k(f'cannot evaluate {e!r}')})")
        return "None", None

    def truth(self, e: E.Exp) -> str:
        """A pure condition testing ``e`` as the tree walker's
        ``_truthy``."""
        if e.__class__ is E.BinOp and e.op in E.COMPARISONS:
            return self.shallow(self.binop(e, truth=True)[0])
        if e.__class__ is E.UnOp and e.op is E.UnopKind.LNOT:
            return self.shallow(self.unop(e, truth=True)[0])
        return self._truthy(*self.exp(e))

    def _truthy(self, v: str, vc: object) -> str:
        if vc == "p":
            return f"{v}.addr"
        if vc == "f" or _isint(vc):
            return v
        v = self.name(v)
        return f"({v}.addr if {v}.__class__ is PtrVal else {v})"

    @staticmethod
    def _int_form(v: str, vc: object) -> Optional[str]:
        """``v`` as a known exact int, if its class allows."""
        if vc == "p":
            value = _lit_value(v[7:-1]) if v.startswith("PtrVal(") else None
            return f"{v}.addr" if value is None else _lit(value & 0xFFFFFFFF)
        return v if _isint(vc) else None

    def _tests(self, *ops: tuple[str, object]) -> str:
        return " and ".join(f"{v}.__class__ is int" for v, vc in ops
                            if vc is None)

    def binop(self, e: E.BinOp, truth: bool = False) -> tuple[str, object]:
        """``Interpreter._eval_binop``."""
        B = E.BinopKind
        op = e.op
        self.charge(1)
        a, va = self.exp(e.e1)
        b, vb = self.exp(e.e2)
        if op is B.PLUS_PI or op is B.MINUS_PI or op is B.MINUS_PP:
            bt = T.unroll(e.e1.type())
            esz = _static_sizeof(bt.base) if isinstance(bt, T.TPtr) else 1
            a, b = self.name(a), self.name(b)
            if op is B.MINUS_PP:
                if va == "p" and vb == "p":
                    return f"(({a}.addr - {b}.addr) // {esz})", "i"
                return self.impure(f"_pp_slow({a}, {b}, {esz})"), "i"
            mult = esz if op is B.PLUS_PI else -esz
            if va == "p" and _isint(vb):
                return (f"PtrVal({a}.addr + {b} * {mult}, {a}.b, {a}.e, "
                        f"{a}.rtti, {a}.key)"), "p"
            return self.impure(f"_pi_slow({a}, {b}, {mult})"), "p"
        x, y = _lit_value(a), _lit_value(b)
        if x is not None and y is not None and (
                op in E.COMPARISONS or op in _INT_OPS and not (
                    y == 0 and op in (B.DIV, B.MOD))
                and not isinstance(T.unroll(e.type()), T.TFloat)):
            if op in E.COMPARISONS:
                return _lit(int(_CMP_OPS[op](x, y))), _B01
            p = _int_params(e.type())
            return _lit(_wrap(_INT_OPS[op](x, y), *p)), p
        kop = self.k(op)
        if op in E.COMPARISONS:
            a, b = self.name(a), self.name(b)
            fa, fb = self._int_form(a, va), self._int_form(b, vb)
            if fa is not None and fb is not None or va == vb == "f":
                cond = f"({fa or a} {op.value} {fb or b})"
                return (cond, _B01) if truth else \
                    (f"(1 if {cond} else 0)", _B01)
            slow = f"ip._compare({kop}, {a}, {b})"
            test = self._tests((a, va), (b, vb))
            if "f" in (va, vb) or "p" in (va, vb) or not test:
                return self.impure(slow), _B01
            return self.impure(f"(1 if {fa or a} {op.value} {fb or b} "
                               f"else 0) if {test} else {slow}"), _B01
        if isinstance(T.unroll(e.type()), T.TFloat):
            slow = f"_float_slow({a}, {b}, {kop})"
            if va == vb == "f" and op in (B.ADD, B.SUB, B.MUL):
                return f"({a} {op.value} {b})", "f"
            if va == vb == "f" and op is B.DIV:
                a, b = self.name(a), self.name(b)
                return self.impure(f"{a} / {b} if {b} else "
                                   f"_float_slow({a}, {b}, {kop})"), "f"
            return self.impure(slow), "f"
        p = _int_params(e.type())
        a, b = self.name(a), self.name(b)
        slow = f"_binop_slow({a}, {b}, {kop}, {p[0]}, {p[1]})"
        fa, fb = self._int_form(a, va), self._int_form(b, vb)
        if op not in _INT_OPS or "f" in (va, vb):
            return self.impure(slow), p
        test = self._tests((a, va), (b, vb))
        fa, fb = fa or a, fb or b
        if op is B.DIV:
            expr = f"int({fa} / {fb})"
        elif op is B.MOD:
            expr = f"{fa} - int({fa} / {fb}) * {fb}"
        elif op is B.SHL or op is B.SHR:
            expr = f"{fa} {op.value} ({fb} & 63)"
        else:
            expr = f"{fa} {op.value} {fb}"
        fast = _wrapped(expr, p)
        if op is B.DIV or op is B.MOD:
            if not _lit_value(fb):
                test = f"{test} and {fb}" if test else fb
        if not test:
            return fast, p
        return self.impure(f"{fast} if {test} else {slow}"), p

    def unop(self, e: E.UnOp, truth: bool = False) -> tuple[str, object]:
        """``Interpreter._eval_unop``."""
        self.charge(1)
        if e.op is E.UnopKind.LNOT:
            t = self.truth(e.e)
            return (f"(not {t})", _B01) if truth else \
                (f"(0 if {t} else 1)", _B01)
        v, vc = self.exp(e.e)
        neg = e.op is E.UnopKind.NEG
        if isinstance(T.unroll(e.type()), T.TFloat):
            if neg and vc == "f":
                return f"(-{v})", "f"
            return self.impure(f"_unop_slow({v}, {neg}, None, 0)"), None
        p = _int_params(e.type())
        iv = self._int_form(v, vc)
        if iv is not None:
            return _wrapped(f"-{iv}" if neg else f"~{iv}", p), p
        v = self.name(v)
        return self.impure(
            f"{_wrapped(f'-{v}' if neg else f'~{v}', p)} if "
            f"{v}.__class__ is int else "
            f"_unop_slow({v}, {neg}, {p[0]}, {p[1]})"), p

    def cast(self, e: E.CastE) -> tuple[str, object]:
        """``Interpreter._eval_cast``."""
        self.charge(1)
        v, vc = self.exp(e.e)
        target = T.unroll(e.t)
        if isinstance(target, (T.TInt, T.TEnum)):
            p = _int_params(target)
            if vc == p or vc == _B01:
                return v, p
            iv = self._int_form(v, vc)
            if iv is not None:
                return _wrapped(iv, p), p
            v = self.name(v)
            return self.impure(f"{_wrapped(v, p)} if {v}.__class__ is int "
                               f"else _cast_int_slow({v}, {p[0]}, {p[1]})"
                               ), p
        if isinstance(target, T.TFloat):
            if vc == "f":
                return v, vc
            iv = self._int_form(v, vc)
            if iv is not None:
                return f"float({iv})", "f"
            v = self.name(v)
            return self.impure(f"_as_float({v}.addr if {v}.__class__ is "
                               f"PtrVal else {v})"), "f"
        if not isinstance(target, T.TPtr):
            return v, vc
        if _isint(vc):
            return f"PtrVal({v})", "p"
        v = self.name(v)
        kind = target.kind if self.cured else None
        if kind is PointerKind.RTTI:
            cast = f"ip._cured_ptr_cast({v}, {self.k(e)}, {self.k(target)})"
        elif kind in (PointerKind.SEQ, PointerKind.FSEQ):
            cast = (f"({v} if {v}.b is not None or {v}.addr == 0 else "
                    f"PtrVal({v}.addr, {v}.addr, {v}.addr + "
                    f"{_static_sizeof(target.base)}, {v}.rtti, {v}.key))")
        else:
            cast = v
        if vc == "p":
            return (self.impure(cast) if kind is PointerKind.RTTI
                    else cast), "p"
        return self.impure(f"{cast} if {v}.__class__ is PtrVal "
                           f"else PtrVal(int({v}))"), "p"

    def addrof(self, lv: E.Lval) -> tuple[str, object]:
        """``Interpreter._eval_addrof``: a location walk, then a bounds
        walk that evaluates the offset chain's indices twice more."""
        if lv.host.__class__ is E.Var:
            var = lv.host.var
            if T.is_function(var.type):
                return self.impure(f"ip._func_addr({self.k(var.name)})"), "p"
            if var.vid in self.regs:
                self.settle()
                self.emit(f"_fail(MemorySafetyError, {self.k(REG_ADDR_MSG)})")
                return "None", None
        addr, t, best = self.location(lv)
        for _ in range(2):
            off = lv.offset
            while not isinstance(off, E.NoOffset):
                if isinstance(off, E.Index):
                    self.exp(off.index)
                off = off.rest
        a = self.name(addr)
        if best is None:
            return f"PtrVal({a}, {a}, {a} + {_static_sizeof(t)})", "p"
        start = self.name(best[0])
        return f"PtrVal({a}, {start}, {start} + {best[1]})", "p"

    def startof(self, lv: E.Lval) -> tuple[str, object]:
        """``Interpreter._eval_startof``: array-to-pointer decay."""
        at = None
        if self.reg(lv) is None:
            addr, t = self.addr(lv)
            at = T.unroll(t)
        if not isinstance(at, T.TArray):
            self.settle()
            self.emit("_fail(AssertionError)")
            return "None", None
        a = self.name(addr)
        if at.length is not None:
            return (f"PtrVal({a}, {a}, "
                    f"{a} + {at.length * _static_sizeof(at.base)})"), "p"
        h = self.tmp()
        self.use("hof")
        self.emit(f"{h} = hof({a})")
        return f"PtrVal({a}, {a}, {h}.end if {h} else {a})", "p"
