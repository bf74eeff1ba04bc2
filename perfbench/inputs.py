"""Seeded inputs of every workload.

One ``--seed`` chooses everything a run feeds the program: the
``compile-cold`` draw (which workloads, at which ``SCALE``, and the
``ijpeg_gen`` hierarchy sizes), the ``exec-long`` scales and the fault
campaign seed and order.  The program under test only ever receives
the generated C text, its ``-D`` defines and its stdin/argv.

Draws are stratified so that two seeds load the program with the same
mix: every file-backed workload appears the same number of times in a
compile draw and every ijpeg hierarchy size class the same number of
times, so a seed changes the inputs without changing how much work a
run holds.  The draw spaces are finite and small, which is what lets
``oracle.json`` hold an expectation for every input a seed can pick.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import asdict, dataclass, field

from repro.workloads import PROGRAM_DIR, all_workloads, get, ijpeg_gen

#: SCALE values a compile draw picks from, and how many distinct ones
#: each file-backed workload gets per draw
COMPILE_SCALES = tuple(range(1, 9))
SCALES_PER_WORKLOAD = 4
#: ijpeg hierarchy size classes (types) and the (objects, rounds)
#: shapes each class draws from, ``IJPEG_PER_CLASS`` shapes per draw
IJPEG_TYPES = (6, 9, 12, 15)
IJPEG_SHAPES = tuple((o, r) for o in (16, 24, 32) for r in (4, 6, 8))
IJPEG_PER_CLASS = 4

#: the programs with the most exec time in a metrics sweep
EXEC_PROGRAMS = ("spec_compress", "ptrdist_ks", "apache_gzip",
                 "olden_em3d", "spec_go", "sbull")
#: an exec-long scale is ``2 * default + k`` for a seeded ``k``
EXEC_SCALE_STEPS = (0, 1)

#: the fault campaign's preset whose workloads every run covers
CAMPAIGN = "smoke"

_SCALE_RE = re.compile(r"^\s*#\s*define\s+SCALE\s+(\d+)", re.M)
_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


@dataclass(frozen=True)
class Program:
    """One program as the benchmark hands it to the pipeline."""

    id: str                  # oracle key, e.g. "spec_go@3"
    name: str                # program name (cache key, spans)
    source: str              # C text
    defines: dict = field(default_factory=dict)
    stdin: str = ""
    args: tuple = ()
    trust_bad_casts: bool = False


def _rng(seed: int, what: str) -> random.Random:
    # string seeds hash through SHA-512: stable across processes
    return random.Random(f"perfbench:{what}:{seed}")


def default_scale(source: str) -> int:
    """The ``#define SCALE`` default of a program, looking into the
    local headers it includes."""
    m = _SCALE_RE.search(source)
    if m:
        return int(m.group(1))
    for header in _INCLUDE_RE.findall(source):
        with open(os.path.join(PROGRAM_DIR, header),
                  encoding="utf-8") as f:
            m = _SCALE_RE.search(f.read())
        if m:
            return int(m.group(1))
    raise ValueError("program has no SCALE default")


def file_program(name: str, scale: int) -> Program:
    w = get(name)
    return Program(f"{name}@{scale}", name, w.source(),
                   {"SCALE": str(scale)}, w.stdin, tuple(w.args),
                   w.trust_bad_casts)


def ijpeg_program(n_types: int, n_objects: int,
                  n_rounds: int) -> Program:
    return Program(f"ijpeg:{n_types}x{n_objects}x{n_rounds}",
                   "spec_ijpeg",
                   ijpeg_gen.generate(n_types, n_objects, n_rounds))


def file_workloads() -> list[str]:
    return [w.name for w in all_workloads() if w.filename is not None]


def compile_space() -> list[tuple]:
    """Every input a compile draw can pick, as constructor args."""
    return ([("file", n, s) for n in file_workloads()
             for s in COMPILE_SCALES]
            + [("ijpeg", t, o, r) for t in IJPEG_TYPES
               for o, r in IJPEG_SHAPES])


def compile_draw_keys(seed: int) -> list[tuple]:
    rng = _rng(seed, "compile-cold")
    keys: list[tuple] = []
    for name in file_workloads():
        for s in sorted(rng.sample(COMPILE_SCALES,
                                   SCALES_PER_WORKLOAD)):
            keys.append(("file", name, s))
    for t in IJPEG_TYPES:
        for o, r in sorted(rng.sample(IJPEG_SHAPES, IJPEG_PER_CLASS)):
            keys.append(("ijpeg", t, o, r))
    rng.shuffle(keys)
    return keys


def make_program(key: tuple) -> Program:
    if key[0] == "file":
        return file_program(key[1], key[2])
    return ijpeg_program(*key[1:])


def compile_draw(seed: int) -> list[Program]:
    """The ``compile-cold`` programs of ``seed``, in compile order."""
    return [make_program(k) for k in compile_draw_keys(seed)]


def exec_space() -> list[Program]:
    return [file_program(n, 2 * default_scale(get(n).source()) + k)
            for n in EXEC_PROGRAMS for k in EXEC_SCALE_STEPS]


def exec_draw(seed: int) -> list[Program]:
    """The ``exec-long`` programs of ``seed``: every exec program once,
    at a seeded scale above its default."""
    rng = _rng(seed, "exec-long")
    out = []
    for n in EXEC_PROGRAMS:
        d = default_scale(get(n).source())
        out.append(file_program(n, 2 * d + rng.choice(EXEC_SCALE_STEPS)))
    return out


def campaign_plan(seed: int) -> tuple[int, list[tuple[str, str]]]:
    """The campaign seed and the seeded order of (workload, class)
    variants of the ``faults`` workload."""
    from repro.faults.campaign import CAMPAIGNS
    from repro.faults.mutators import MUTATORS
    rng = _rng(seed, "faults")
    campaign_seed = rng.randrange(1, 1 << 30)
    pairs = [(w, m) for w in CAMPAIGNS[CAMPAIGN] for m in MUTATORS]
    rng.shuffle(pairs)
    return campaign_seed, pairs


def inputs_digest(seed: int) -> str:
    """SHA-256 over every input ``seed`` produces, for the
    determinism test."""
    doc = {"compile": [asdict(p) for p in compile_draw(seed)],
           "exec": [asdict(p) for p in exec_draw(seed)],
           "faults": campaign_plan(seed)}
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
