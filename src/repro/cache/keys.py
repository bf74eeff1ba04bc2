"""Content-addressed identities for cure-cache entries.

A cache entry's key is a SHA-256 over every input that can change the
cured tree:

* the **preprocessed** source text — so edits to the program, to any
  ``#include``'d header, or to the effective ``-D`` defines (e.g. a
  workload's ``SCALE``) each produce a new key;
* the lint-suppression set the preprocessor collected — suppression
  comments are stripped before preprocessing, so they must be hashed
  separately or a comment-only edit would silently reuse a stale
  lint-relevant tree;
* the canonicalized :class:`~repro.core.options.CureOptions` (for cure
  entries) — equivalent spellings (``optimize_checks=False`` vs
  ``optimize="none"``) share an entry.  The bench harness keys its
  in-process tree memo and its measurements on the same identities,
  so memory and disk never disagree about which trees are equal;
* the :data:`CACHE_SCHEMA` version plus a fingerprint of the
  reproduction's own source code — any edit to the pipeline
  invalidates every entry, so a cached tree can never disagree with
  the code that would have produced it.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import fields as _dc_fields
from typing import Iterable, Optional

from repro.core.options import CureOptions

#: bump when the on-disk payload layout changes incompatibly.
CACHE_SCHEMA = "repro.cache/1"


def canonical_options(options: Optional[CureOptions], *,
                      trust_bad_casts: bool = False) -> tuple:
    """The hashable identity of the *effective* options (sets become
    sorted tuples).  ``None`` is resolved to the defaults a workload
    cure would actually use, and the ``optimize``/``optimize_checks``
    pair is folded into one level entry, so equivalent spellings share
    one identity while different levels never do."""
    if options is None:
        options = CureOptions(trust_bad_casts=trust_bad_casts)
    parts = []
    for fld in _dc_fields(options):
        if fld.name in ("optimize", "optimize_checks"):
            continue
        v = getattr(options, fld.name)
        if isinstance(v, (set, frozenset)):
            v = tuple(sorted(v))
        parts.append((fld.name, v))
    parts.append(("optimize", options.optimize_level))
    return tuple(parts)


_CODE_FP: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the reproduction's own ``*.py`` sources (sorted
    relative paths + contents), computed once per process.  Folding it
    into every key makes the cache self-invalidating across pipeline
    changes — no schema bump to forget."""
    global _CODE_FP
    if _CODE_FP is None:
        import repro
        root = os.path.dirname(os.path.abspath(repro.__file__))
        h = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames
                           if d != "__pycache__"]
            for fn in sorted(filenames):
                if not fn.endswith(".py"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, fn), root)
                h.update(rel.encode("utf-8"))
                h.update(b"\0")
                with open(os.path.join(dirpath, fn), "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
        _CODE_FP = h.hexdigest()
    return _CODE_FP


def _digest(parts: Iterable[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()


def _base_parts(pp_text: str, suppressions: Iterable[tuple],
                name: str, schema: Optional[str]) -> list[bytes]:
    sup = ";".join(f"{f}:{ln}" for f, ln in sorted(suppressions))
    return [
        (schema if schema is not None else CACHE_SCHEMA).encode(),
        code_fingerprint().encode(),
        name.encode("utf-8"),
        pp_text.encode("utf-8"),
        sup.encode("utf-8"),
    ]


def parse_key(pp_text: str, suppressions: Iterable[tuple],
              name: str, *, schema: Optional[str] = None) -> str:
    """The content address of a pristine parse."""
    return _digest([b"parse"] + _base_parts(pp_text, suppressions,
                                            name, schema))


def cure_key(pp_text: str, suppressions: Iterable[tuple],
             name: str, options: tuple, *,
             schema: Optional[str] = None) -> str:
    """The content address of a cured program: the parse identity
    plus the canonicalized options tuple."""
    return _digest([b"cure", repr(options).encode("utf-8")]
                   + _base_parts(pp_text, suppressions, name, schema))
