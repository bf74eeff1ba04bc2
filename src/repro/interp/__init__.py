"""The CIL interpreter: cured and raw execution modes.

Two engines share the abstract machine: one generated Python function
per C function (:mod:`repro.interp.compile`, the default, named
"closures" after its predecessor) and the tree walker (the
differential-testing oracle).  Select with ``engine="closures"|"tree"``.
"""

from repro.interp.interp import (ENGINES, ExecResult, Frame, Interpreter,
                                 run_cured, run_raw)

__all__ = ["ENGINES", "ExecResult", "Frame", "Interpreter", "run_cured",
           "run_raw"]
