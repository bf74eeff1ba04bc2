"""A small C preprocessor.

pycparser consumes *preprocessed* C, so we ship a self-contained
preprocessor sufficient for the workloads in this repository and for
realistic user programs in the supported C99 subset:

* line splicing (``\\`` + newline) and comment removal,
* ``#include`` with quoted and angle-bracket forms, resolved against a
  search path that always ends with the package's bundled libc headers,
* object-like and function-like ``#define`` (with ``#undef``), including
  nested expansion with self-reference protection,
* conditionals: ``#if``/``#ifdef``/``#ifndef``/``#elif``/``#else``/
  ``#endif`` with a constant-expression evaluator (``defined`` supported),
* ``#pragma`` lines are passed through unchanged (CCured's wrapper and
  annotation pragmas must reach the frontend),
* ``#error`` raises :class:`PreprocessError`.

It is deliberately not a full C preprocessor — no ``#`` / ``##``
operators, no predefined macro battery — but it covers what CCured's
paper workloads need and fails loudly otherwise.
"""

from __future__ import annotations

import os
import re
from typing import Mapping, Optional, Sequence

from repro.runtime.checks import MemorySafetyError

_PKG_INCLUDE = os.path.join(os.path.dirname(__file__), "include")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(
    r"""[A-Za-z_][A-Za-z0-9_]*      # identifier
      | 0[xX][0-9a-fA-F]+[uUlL]*    # hex
      | \d+\.\d*([eE][-+]?\d+)?[fF]?  # float
      | \.\d+([eE][-+]?\d+)?[fF]?
      | \d+[uUlL]*                  # int
      | "(\\.|[^"\\])*"             # string
      | '(\\.|[^'\\])*'             # char
      | <<=|>>=|\.\.\.|<<|>>|<=|>=|==|!=|&&|\|\||->|\+\+|--|[-+*/%&|^~!<>=?:;,.(){}\[\]\#]
      | \s+
    """, re.VERBOSE)


class PreprocessError(Exception):
    """A preprocessing failure (bad directive, missing include, #error)."""

    def __init__(self, message: str, filename: str = "<input>",
                 line: int = 0) -> None:
        super().__init__(f"{filename}:{line}: {message}")
        self.filename = filename
        self.line = line


class Macro:
    """A macro definition."""

    def __init__(self, name: str, body: str,
                 params: Optional[Sequence[str]] = None,
                 variadic: bool = False) -> None:
        self.name = name
        self.body = body
        self.params = list(params) if params is not None else None
        self.variadic = variadic

    @property
    def is_function(self) -> bool:
        return self.params is not None


def tokenize(text: str) -> list[str]:
    """Split a line into preprocessor tokens (whitespace tokens kept)."""
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            out.append(text[i])
            i += 1
        else:
            out.append(m.group(0))
            i = m.end()
    return out


#: the magic comment that silences ``repro lint`` diagnostics on its
#: own line and the line directly below it.
LINT_IGNORE = "repro-lint: ignore"


def strip_comments(text: str,
                   suppressions: Optional[set] = None) -> str:
    """Remove // and /* */ comments, preserving newlines and strings.

    When ``suppressions`` is given, the 1-based line number of every
    comment containing :data:`LINT_IGNORE` is added to it (this is the
    only chance to see the comment — it is gone after this pass).
    """
    out: list[str] = []
    i, n = 0, len(text)
    line = 1

    def note_comment(body: str, at_line: int) -> None:
        if suppressions is not None and LINT_IGNORE in body:
            suppressions.add(at_line)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            out.append(c)
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                j += 1
            out.append(text[i:j])
            line += text.count("\n", i, j)
            i = j
        elif text.startswith("//", i):
            start = i
            while i < n and text[i] != "\n":
                i += 1
            note_comment(text[start:i], line)
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise PreprocessError("unterminated comment")
            note_comment(text[i:end], line)
            newlines = text.count("\n", i, end + 2)
            out.append("\n" * newlines)
            line += newlines
            i = end + 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def splice_lines(text: str) -> str:
    """Join lines ending with a backslash."""
    return text.replace("\\\r\n", "").replace("\\\n", "")


class _CondState:
    """State of one #if nesting level."""

    def __init__(self, taking: bool, parent_active: bool) -> None:
        self.ever_taken = taking
        self.taking = taking
        self.parent_active = parent_active
        self.in_else = False


class Preprocessor:
    """Drives preprocessing of a top-level file and its includes."""

    MAX_EXPANSION_DEPTH = 64
    MAX_INCLUDE_DEPTH = 32

    def __init__(self, include_dirs: Optional[Sequence[str]] = None,
                 defines: Optional[Mapping[str, str]] = None) -> None:
        self.include_dirs = list(include_dirs or [])
        self.macros: dict[str, Macro] = {
            "__CCURED__": Macro("__CCURED__", "1"),
        }
        for name, body in (defines or {}).items():
            self.macros[name] = Macro(name, body)
        self._include_depth = 0
        #: ``(filename, line)`` pairs carrying a ``repro-lint: ignore``
        #: comment, across the top-level file and all includes.
        self.lint_suppressions: set[tuple[str, int]] = set()

    # -- include resolution ---------------------------------------------

    def resolve_include(self, name: str, quoted: bool,
                        current_dir: Optional[str],
                        filename: str, lineno: int) -> str:
        dirs: list[str] = []
        if quoted and current_dir:
            dirs.append(current_dir)
        dirs.extend(self.include_dirs)
        dirs.append(_PKG_INCLUDE)
        for d in dirs:
            path = os.path.join(d, name)
            if os.path.isfile(path):
                return path
        raise PreprocessError(f"include not found: {name}", filename,
                              lineno)

    # -- macro expansion ---------------------------------------------------

    def expand(self, line: str, hide: frozenset[str] = frozenset(),
               depth: int = 0) -> str:
        if depth > self.MAX_EXPANSION_DEPTH:
            raise PreprocessError("macro expansion too deep")
        toks = tokenize(line)
        out: list[str] = []
        i = 0
        while i < len(toks):
            tok = toks[i]
            macro = self.macros.get(tok)
            if macro is None or tok in hide or not _IDENT.fullmatch(tok):
                out.append(tok)
                i += 1
                continue
            if not macro.is_function:
                out.append(self.expand(macro.body, hide | {tok},
                                       depth + 1))
                i += 1
                continue
            # function-like: require "(" (possibly after whitespace)
            j = i + 1
            while j < len(toks) and toks[j].isspace():
                j += 1
            if j >= len(toks) or toks[j] != "(":
                out.append(tok)
                i += 1
                continue
            args, end = self._collect_args(toks, j)
            expanded_args = [self.expand(a, hide, depth + 1)
                             for a in args]
            body = self._substitute(macro, expanded_args)
            out.append(self.expand(body, hide | {tok}, depth + 1))
            i = end
        return "".join(out)

    def _collect_args(self, toks: list[str],
                      open_paren: int) -> tuple[list[str], int]:
        """Collect macro-call arguments; returns (args, index-after-``)``)."""
        depth = 0
        args: list[str] = []
        cur: list[str] = []
        i = open_paren
        while i < len(toks):
            t = toks[i]
            if t == "(":
                depth += 1
                if depth > 1:
                    cur.append(t)
            elif t == ")":
                depth -= 1
                if depth == 0:
                    args.append("".join(cur).strip())
                    return args, i + 1
                cur.append(t)
            elif t == "," and depth == 1:
                args.append("".join(cur).strip())
                cur = []
            else:
                cur.append(t)
            i += 1
        raise PreprocessError("unterminated macro invocation")

    def _substitute(self, macro: Macro, args: list[str]) -> str:
        params = macro.params or []
        if args == [""] and not params:
            args = []
        if macro.variadic:
            if len(args) < len(params):
                raise PreprocessError(
                    f"macro {macro.name} expects at least "
                    f"{len(params)} args, got {len(args)}")
            fixed = args[:len(params)]
            va = ", ".join(args[len(params):])
            mapping = dict(zip(params, fixed))
            mapping["__VA_ARGS__"] = va
        else:
            if len(args) != len(params):
                raise PreprocessError(
                    f"macro {macro.name} expects {len(params)} args, "
                    f"got {len(args)}")
            mapping = dict(zip(params, args))
        out = []
        for tok in tokenize(macro.body):
            out.append(mapping.get(tok, tok))
        return "".join(out)

    # -- conditional expressions ------------------------------------------

    def eval_condition(self, text: str) -> bool:
        text = self._replace_defined(text)
        text = self.expand(text)
        # Any remaining identifier evaluates to 0, per C semantics.
        toks = [t for t in tokenize(text) if not t.isspace()]
        toks = ["0" if _IDENT.fullmatch(t) else t for t in toks]
        return _CondEval(toks).parse() != 0

    def _replace_defined(self, text: str) -> str:
        def repl(m: re.Match) -> str:
            name = m.group(1) or m.group(2)
            return "1" if name in self.macros else "0"
        return re.sub(
            r"defined\s*(?:\(\s*([A-Za-z_]\w*)\s*\)|([A-Za-z_]\w*))",
            repl, text)

    # -- the driver --------------------------------------------------------

    def preprocess(self, source: str,
                   filename: str = "<input>") -> str:
        current_dir = (os.path.dirname(os.path.abspath(filename))
                       if filename != "<input>" else None)
        ignore_lines: set = set()
        text = strip_comments(splice_lines(source), ignore_lines)
        self.lint_suppressions.update(
            (filename, ln) for ln in ignore_lines)
        out: list[str] = []
        conds: list[_CondState] = []

        def active() -> bool:
            return all(c.taking for c in conds)

        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line.startswith("#"):
                if active():
                    out.append(self.expand(raw))
                else:
                    out.append("")
                continue
            directive = line[1:].strip()
            m = _IDENT.match(directive)
            name = m.group(0) if m else ""
            rest = directive[m.end():].strip() if m else ""
            try:
                emitted = self._directive(
                    name, rest, conds, active, current_dir, filename,
                    lineno)
            except (PreprocessError, KeyboardInterrupt):
                raise
            except MemorySafetyError:
                # Safety verdicts are never preprocessing failures:
                # rewrapping one would hide a check result from the
                # campaign/bench machinery above us.
                raise
            except Exception as exc:  # pragma: no cover - defensive
                raise PreprocessError(str(exc), filename, lineno) from exc
            out.append(emitted if emitted is not None else "")
        if conds:
            raise PreprocessError("unterminated #if", filename)
        return "\n".join(out) + "\n"

    def _directive(self, name: str, rest: str, conds: list[_CondState],
                   active, current_dir: Optional[str], filename: str,
                   lineno: int) -> Optional[str]:
        if name == "if":
            conds.append(_CondState(
                active() and self.eval_condition(rest), active()))
        elif name == "ifdef":
            conds.append(_CondState(
                active() and rest.split()[0] in self.macros, active()))
        elif name == "ifndef":
            conds.append(_CondState(
                active() and rest.split()[0] not in self.macros,
                active()))
        elif name == "elif":
            if not conds:
                raise PreprocessError("#elif without #if", filename,
                                      lineno)
            c = conds[-1]
            c.taking = (c.parent_active and not c.ever_taken
                        and self.eval_condition(rest))
            c.ever_taken = c.ever_taken or c.taking
        elif name == "else":
            if not conds or conds[-1].in_else:
                raise PreprocessError("mismatched #else", filename,
                                      lineno)
            c = conds[-1]
            c.in_else = True
            c.taking = c.parent_active and not c.ever_taken
            c.ever_taken = True
        elif name == "endif":
            if not conds:
                raise PreprocessError("#endif without #if", filename,
                                      lineno)
            conds.pop()
        elif not active():
            return None
        elif name == "define":
            self._define(rest, filename, lineno)
        elif name == "undef":
            self.macros.pop(rest.split()[0], None)
        elif name == "include":
            return self._include(rest, current_dir, filename, lineno)
        elif name == "pragma":
            return "#pragma " + rest
        elif name == "error":
            raise PreprocessError(f"#error {rest}", filename, lineno)
        elif name == "warning":
            return None
        elif name == "line" or name == "":
            return None
        else:
            raise PreprocessError(f"unknown directive #{name}",
                                  filename, lineno)
        return None

    def _define(self, rest: str, filename: str, lineno: int) -> None:
        m = _IDENT.match(rest)
        if not m:
            raise PreprocessError("bad #define", filename, lineno)
        name = m.group(0)
        after = rest[m.end():]
        if after.startswith("("):
            close = after.index(")")
            raw_params = [p.strip() for p in after[1:close].split(",")
                          if p.strip()]
            variadic = bool(raw_params) and raw_params[-1] == "..."
            if variadic:
                raw_params = raw_params[:-1]
            body = after[close + 1:].strip()
            self.macros[name] = Macro(name, body, raw_params, variadic)
        else:
            self.macros[name] = Macro(name, after.strip())

    def _include(self, rest: str, current_dir: Optional[str],
                 filename: str, lineno: int) -> str:
        rest = self.expand(rest).strip()
        if rest.startswith('"'):
            incname, quoted = rest[1:rest.index('"', 1)], True
        elif rest.startswith("<"):
            incname, quoted = rest[1:rest.index(">")], False
        else:
            raise PreprocessError(f"bad #include {rest!r}", filename,
                                  lineno)
        if self._include_depth >= self.MAX_INCLUDE_DEPTH:
            raise PreprocessError("includes nested too deeply", filename,
                                  lineno)
        path = self.resolve_include(incname, quoted, current_dir,
                                    filename, lineno)
        with open(path, "r", encoding="utf-8") as f:
            body = f.read()
        self._include_depth += 1
        try:
            expanded = self.preprocess(body, path).rstrip("\n")
        finally:
            self._include_depth -= 1
        # Bracket the inlined file with pycparser-style line markers so
        # source coordinates (and hence lint diagnostics) survive
        # inclusion: the body reports positions in the included file,
        # and the marker after it resumes the including file at the
        # line following the ``#include``.
        return (f'# 1 "{path}"\n{expanded}\n'
                f'# {lineno + 1} "{filename}"')


class _CondEval:
    """Recursive-descent evaluator for #if constant expressions."""

    def __init__(self, toks: list[str]) -> None:
        self.toks = toks
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> Optional[str]:
        t = self.peek()
        self.pos += 1
        return t

    def parse(self) -> int:
        v = self.ternary()
        if self.peek() is not None:
            raise PreprocessError(f"trailing tokens in #if: {self.peek()}")
        return v

    def ternary(self) -> int:
        cond = self.lor()
        if self.peek() == "?":
            self.next()
            a = self.ternary()
            if self.next() != ":":
                raise PreprocessError("expected ':' in #if")
            b = self.ternary()
            return a if cond else b
        return cond

    def lor(self) -> int:
        v = self.land()
        while self.peek() == "||":
            self.next()
            rhs = self.land()
            v = 1 if (v or rhs) else 0
        return v

    def land(self) -> int:
        v = self.equality()
        while self.peek() == "&&":
            self.next()
            rhs = self.equality()
            v = 1 if (v and rhs) else 0
        return v

    def equality(self) -> int:
        v = self.relational()
        while self.peek() in ("==", "!="):
            op = self.next()
            rhs = self.relational()
            v = int((v == rhs) if op == "==" else (v != rhs))
        return v

    def relational(self) -> int:
        v = self.additive()
        while self.peek() in ("<", ">", "<=", ">="):
            op = self.next()
            rhs = self.additive()
            v = int({"<": v < rhs, ">": v > rhs,
                     "<=": v <= rhs, ">=": v >= rhs}[op])
        return v

    def additive(self) -> int:
        v = self.multiplicative()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.multiplicative()
            v = v + rhs if op == "+" else v - rhs
        return v

    def multiplicative(self) -> int:
        v = self.unary()
        while self.peek() in ("*", "/", "%"):
            op = self.next()
            rhs = self.unary()
            if op == "*":
                v = v * rhs
            elif rhs == 0:
                raise PreprocessError("division by zero in #if")
            elif op == "/":
                v = int(v / rhs)
            else:
                v = v % rhs
        return v

    def unary(self) -> int:
        t = self.peek()
        if t == "!":
            self.next()
            return int(not self.unary())
        if t == "-":
            self.next()
            return -self.unary()
        if t == "+":
            self.next()
            return self.unary()
        if t == "~":
            self.next()
            return ~self.unary()
        return self.primary()

    def primary(self) -> int:
        t = self.next()
        if t is None:
            raise PreprocessError("unexpected end of #if expression")
        if t == "(":
            v = self.ternary()
            if self.next() != ")":
                raise PreprocessError("expected ')' in #if")
            return v
        if t.startswith(("0x", "0X")):
            return int(t.rstrip("uUlL"), 16)
        if t[0].isdigit():
            return int(t.rstrip("uUlL"), 8 if t.startswith("0")
                       and len(t.rstrip("uUlL")) > 1 else 10)
        if t.startswith("'"):
            body = t[1:-1]
            if body.startswith("\\"):
                return ord(body[1:].encode().decode("unicode_escape"))
            return ord(body)
        raise PreprocessError(f"bad token in #if: {t!r}")


def preprocess(source: str, filename: str = "<input>",
               include_dirs: Optional[Sequence[str]] = None,
               defines: Optional[Mapping[str, str]] = None) -> str:
    """Preprocess C source text, resolving includes against
    ``include_dirs`` and the bundled libc headers."""
    return Preprocessor(include_dirs, defines).preprocess(source, filename)
