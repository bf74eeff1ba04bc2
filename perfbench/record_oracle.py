"""Record ``oracle.json``: the expected outputs of every input a seed
can pick.

Run from the repository root: ``python3 perfbench/record_oracle.py``.
Execution expectations (status, stdout digest, steps, cycles, checks
executed, heap) come from the tree-walking engine, the independent
interpreter; the benchmark measures the closure engine against them.
Compile expectations are the emitted checks by kind and the checks
the flow optimizer removed.  Rerun only when a change is meant to
alter these outputs, and say so.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402


def record() -> dict:
    from repro.core import CureOptions, cure
    from repro.frontend import parse_program
    from repro.interp import run_cured, run_raw
    from repro.obs.metrics import collect_metrics
    from repro.workloads import PROGRAM_DIR, all_workloads

    def parse(p, name):
        return parse_program(p.source, name, include_dirs=[PROGRAM_DIR],
                             defines=p.defines or None)

    def cured_of(p, name):
        return cure(parse(p, name), options=CureOptions(
            trust_bad_casts=p.trust_bad_casts), name=name)

    compile_ = {}
    for key in inputs.compile_space():
        p = inputs.make_program(key)
        c = cured_of(p, p.id)
        compile_[p.id] = {
            "checks": {k.value: v for k, v in
                       sorted(c.check_counts.items(),
                              key=lambda kv: kv[0].value)},
            "removed": c.checks_removed}
    exec_ = {}
    for p in inputs.exec_space():
        args = list(p.args) or None
        for mode in ("raw", "cured"):
            if mode == "raw":
                res = run_raw(parse(p, p.name), args=args,
                              stdin=p.stdin, engine="tree")
            else:
                res = run_cured(cured_of(p, p.name), args=args,
                                stdin=p.stdin, engine="tree")
            exec_[f"{p.id}:{mode}"] = {
                "status": res.status,
                "stdout_sha256": hashlib.sha256(
                    res.stdout.encode("utf-8")).hexdigest(),
                "steps": res.steps, "cycles": res.cycles,
                "checks_executed": res.checks_executed,
                "peak_heap": res.peak_heap}
    sweep = {}
    for wm in collect_metrics(all_workloads(), engine="tree").workloads:
        sweep[wm.name] = {"raw_steps": wm.raw_steps,
                          "cured_steps": wm.cured_steps,
                          "raw_cycles": wm.raw_cycles,
                          "cured_cycles": wm.cured_cycles,
                          "checks_executed": wm.checks_executed}
    return {"compile": compile_, "exec": exec_, "sweep": sweep}


if __name__ == "__main__":
    # fresh cures only: a cached tree would not be an independent
    # expectation
    os.environ["REPRO_CACHE"] = "off"
    path = os.path.join(HERE, "oracle.json")
    doc = record()
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}: " + ", ".join(
        f"{len(v)} {k}" for k, v in doc.items()))
