"""C frontend: preprocess, parse (pycparser), lower to CIL.

The whole-program entry points here produce a single
:class:`repro.cil.Program` from one or more C source texts or files,
which is the unit CCured's whole-program inference operates on.
"""

from typing import Mapping, Optional, Sequence

from pycparser import c_parser

from repro.cil.program import Program
from repro.cpp import Preprocessor
from repro.frontend.lower import Lowerer, UnsupportedCError, fresh_type

__all__ = ["parse_program", "parse_files", "Lowerer",
           "UnsupportedCError", "fresh_type"]


def parse_program(source: str, name: str = "program",
                  include_dirs: Optional[Sequence[str]] = None,
                  defines: Optional[Mapping[str, str]] = None) -> Program:
    """Parse one C source text into a lowered whole program.  ``name``
    names the program; diagnostics name the file ``name``, with ``.c``
    appended when it lacks it."""
    filename = name if name.endswith(".c") else name + ".c"
    return parse_files([(filename, source)], name=name,
                       include_dirs=include_dirs, defines=defines)


def parse_files(sources: Sequence[tuple[str, str]], name: str = "program",
                include_dirs: Optional[Sequence[str]] = None,
                defines: Optional[Mapping[str, str]] = None) -> Program:
    """Parse and link several ``(filename, source)`` translation units
    into one whole program, as CCured's whole-program analysis requires."""
    from repro.obs.tracer import TRACER
    with TRACER.span("parse", name=name, files=len(sources)):
        lowerer = Lowerer(name=name)
        parser = c_parser.CParser()
        for filename, source in sources:
            with TRACER.span("preprocess", file=filename):
                pp = Preprocessor(include_dirs, defines)
                text = pp.preprocess(source, filename=filename)
            lowerer.prog.lint_suppressions |= pp.lint_suppressions
            # pycparser chokes on #pragma lines at certain positions
            # only if malformed; ours are kept verbatim and parsed as
            # Pragma nodes.
            ast = parser.parse(text, filename=filename)
            lowerer.lower_file(ast)
        return lowerer.prog
