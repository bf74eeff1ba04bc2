"""C frontend: preprocess, parse (pycparser), lower to CIL.

The whole-program entry points here produce a single
:class:`repro.cil.Program` from one or more C source texts or files,
which is the unit CCured's whole-program inference operates on.
"""

from typing import Iterable, Mapping, Optional, Sequence

from pycparser import c_parser

from repro.cil.program import Program
from repro.cpp import Preprocessor
from repro.frontend.lower import Lowerer, UnsupportedCError, fresh_type
from repro.obs.tracer import TRACER

__all__ = ["parse_program", "parse_files", "parse_preprocessed",
           "preprocess_unit", "Lowerer", "UnsupportedCError", "fresh_type"]


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
    return parse_preprocessed(
        ((filename,
          *preprocess_unit(source, filename, include_dirs, defines))
         for filename, source in sources), name, files=len(sources))


def preprocess_unit(source: str, filename: str,
                    include_dirs: Optional[Sequence[str]] = None,
                    defines: Optional[Mapping[str, str]] = None):
    """Preprocess one translation unit (a ``preprocess`` span) into
    its text and its lint suppressions."""
    with TRACER.span("preprocess", file=filename):
        pp = Preprocessor(include_dirs, defines)
        return pp.preprocess(source, filename=filename), \
            pp.lint_suppressions


def parse_preprocessed(units: Iterable[tuple[str, str, Iterable]],
                       name: str = "program", files: int = 1) -> Program:
    """Parse and lower ``(filename, text, lint suppressions)`` units
    into one whole program under one ``parse`` span; ``units`` is
    consumed lazily, so :func:`parse_files` preprocesses inside it."""
    with TRACER.span("parse", name=name, files=files):
        lowerer = Lowerer(name=name)
        parser = c_parser.CParser()
        for filename, text, suppressions in units:
            lowerer.prog.lint_suppressions.update(suppressions)
            # pycparser chokes on #pragma lines at certain positions
            # only if malformed; ours are kept verbatim and parsed as
            # Pragma nodes.
            lowerer.lower_file(parser.parse(text, filename=filename))
        return lowerer.prog
