"""Unit tests for the mini C preprocessor."""

import pytest

from repro.cpp import (Macro, PreprocessError, Preprocessor, preprocess,
                       splice_lines, strip_comments, tokenize)


class TestComments:
    def test_line_comment(self):
        assert strip_comments("int x; // hi\nint y;") == \
            "int x; \nint y;"

    def test_block_comment(self):
        assert strip_comments("int /* no */ x;") == "int  x;"

    def test_block_comment_preserves_newlines(self):
        out = strip_comments("a /* x\ny\nz */ b")
        assert out.count("\n") == 2

    def test_comment_in_string_untouched(self):
        assert strip_comments('char *s = "a // b";') == \
            'char *s = "a // b";'

    def test_block_marker_in_string(self):
        assert strip_comments('char *s = "/*";') == 'char *s = "/*";'

    def test_unterminated_block_comment(self):
        with pytest.raises(PreprocessError):
            strip_comments("int x; /* oops")

    def test_escaped_quote_in_string(self):
        src = r'char *s = "a \" // b";'
        assert strip_comments(src) == src


class TestSplice:
    def test_backslash_newline(self):
        assert splice_lines("a\\\nb") == "ab"

    def test_crlf(self):
        assert splice_lines("a\\\r\nb") == "ab"


class TestTokenize:
    def test_identifiers_and_ints(self):
        toks = [t for t in tokenize("foo bar42 7 0x1F") if
                not t.isspace()]
        assert toks == ["foo", "bar42", "7", "0x1F"]

    def test_strings_stay_single_tokens(self):
        toks = tokenize('f("a,b", x)')
        assert '"a,b"' in toks

    def test_operators(self):
        toks = [t for t in tokenize("a<<=b&&c...") if not t.isspace()]
        assert toks == ["a", "<<=", "b", "&&", "c", "..."]


class TestMacros:
    def test_object_macro(self):
        out = preprocess("#define N 10\nint a[N];\n")
        assert "int a[10];" in out

    def test_function_macro(self):
        out = preprocess("#define SQ(x) ((x)*(x))\nint y = SQ(3+1);\n")
        assert "((3+1)*(3+1))" in out

    def test_nested_macro(self):
        out = preprocess(
            "#define A 1\n#define B (A+1)\nint x = B;\n")
        assert "(1+1)" in out

    def test_self_reference_no_loop(self):
        out = preprocess("#define X X\nint X;\n")
        assert "int X;" in out

    def test_undef(self):
        out = preprocess("#define N 1\n#undef N\nint x = N;\n")
        assert "int x = N;" in out

    def test_function_macro_without_parens_not_expanded(self):
        out = preprocess("#define F(x) x\nint F;\n")
        assert "int F;" in out

    def test_two_args(self):
        out = preprocess("#define MAX(a,b) ((a)>(b)?(a):(b))\n"
                         "int m = MAX(1, 2);\n")
        assert "((1)>(2)?(1):(2))" in out

    def test_arg_with_nested_parens(self):
        out = preprocess("#define ID(x) x\nint y = ID(f(1,2));\n")
        assert "f(1,2)" in out

    def test_wrong_arity_is_error(self):
        with pytest.raises(PreprocessError):
            preprocess("#define F(a,b) a\nint x = F(1);\n")

    def test_variadic_macro(self):
        out = preprocess(
            "#define LOG(fmt, ...) printf(fmt, __VA_ARGS__)\n"
            'LOG("%d %d", 1, 2);\n')
        assert 'printf("%d %d", 1, 2);' in out

    def test_ccured_predefined(self):
        out = preprocess("#ifdef __CCURED__\nint cured;\n#endif\n")
        assert "int cured;" in out

    def test_external_defines(self):
        out = preprocess("int x = FOO;\n", defines={"FOO": "42"})
        assert "int x = 42;" in out


class TestConditionals:
    def test_ifdef_taken(self):
        out = preprocess("#define A\n#ifdef A\nint x;\n#endif\n")
        assert "int x;" in out

    def test_ifdef_not_taken(self):
        out = preprocess("#ifdef A\nint x;\n#endif\n")
        assert "int x;" not in out

    def test_ifndef(self):
        out = preprocess("#ifndef A\nint x;\n#endif\n")
        assert "int x;" in out

    def test_else(self):
        out = preprocess("#ifdef A\nint x;\n#else\nint y;\n#endif\n")
        assert "int y;" in out and "int x;" not in out

    def test_elif_chain(self):
        src = ("#define V 2\n#if V == 1\nint a;\n#elif V == 2\n"
               "int b;\n#else\nint c;\n#endif\n")
        out = preprocess(src)
        assert "int b;" in out
        assert "int a;" not in out and "int c;" not in out

    def test_nested_conditionals(self):
        src = ("#define A\n#ifdef A\n#ifdef B\nint x;\n#else\n"
               "int y;\n#endif\n#endif\n")
        out = preprocess(src)
        assert "int y;" in out and "int x;" not in out

    def test_if_arithmetic(self):
        out = preprocess("#if 2*3 > 5\nint x;\n#endif\n")
        assert "int x;" in out

    def test_if_defined_operator(self):
        out = preprocess(
            "#define A\n#if defined(A) && !defined(B)\nint x;\n"
            "#endif\n")
        assert "int x;" in out

    def test_if_ternary(self):
        out = preprocess("#if 1 ? 0 : 1\nint x;\n#endif\n")
        assert "int x;" not in out

    def test_unterminated_if_is_error(self):
        with pytest.raises(PreprocessError):
            preprocess("#if 1\nint x;\n")

    def test_dangling_endif_is_error(self):
        with pytest.raises(PreprocessError):
            preprocess("#endif\n")

    def test_unknown_identifier_is_zero(self):
        out = preprocess("#if UNDEFINED_THING\nint x;\n#endif\n")
        assert "int x;" not in out

    def test_macros_not_defined_in_untaken_branch(self):
        src = ("#ifdef NOPE\n#define X 1\n#endif\n"
               "#ifdef X\nint x;\n#endif\n")
        assert "int x;" not in preprocess(src)


class TestIncludesAndPragmas:
    def test_include_bundled_header(self):
        out = preprocess("#include <stddef.h>\nsize_t n;\n")
        assert "typedef unsigned int size_t;" in out

    def test_include_guard_idempotent(self):
        out = preprocess("#include <stddef.h>\n#include <stddef.h>\n")
        assert out.count("typedef unsigned int size_t;") == 1

    def test_missing_include_is_error(self):
        with pytest.raises(PreprocessError):
            preprocess('#include "no_such_file.h"\n')

    def test_missing_include_names_the_including_line(self, tmp_path):
        # the error points at the #include, in the including file
        inner = tmp_path / "inner.h"
        inner.write_text('int a;\n#include "nope.h"\n')
        with pytest.raises(PreprocessError) as err:
            preprocess('int x;\n\n#include "inner.h"\n',
                       filename="main.c", include_dirs=[str(tmp_path)])
        assert str(err.value) == \
            f"{inner}:2: include not found: nope.h"
        assert (err.value.filename, err.value.line) == (str(inner), 2)
        with pytest.raises(PreprocessError,
                           match=r"^main\.c:2: include not found: x\.h$"):
            preprocess('int x;\n#include <x.h>\n', filename="main.c")

    def test_include_dirs(self, tmp_path):
        (tmp_path / "mine.h").write_text("int mine;\n")
        out = preprocess('#include "mine.h"\n',
                         include_dirs=[str(tmp_path)])
        assert "int mine;" in out

    def test_pragma_passthrough(self):
        out = preprocess(
            '#pragma ccuredWrapperOf("w", "strchr")\n')
        assert '#pragma ccuredWrapperOf("w", "strchr")' in out

    def test_error_directive(self):
        with pytest.raises(PreprocessError, match="boom"):
            preprocess("#error boom\n")

    def test_error_in_untaken_branch_ignored(self):
        out = preprocess("#if 0\n#error nope\n#endif\nint x;\n")
        assert "int x;" in out

    def test_unknown_directive_is_error(self):
        with pytest.raises(PreprocessError):
            preprocess("#frobnicate\n")


class TestMacroObjects:
    def test_macro_repr_roundtrip(self):
        m = Macro("F", "x+1", ["x"])
        assert m.is_function
        assert Macro("N", "3").is_function is False

    def test_preprocessor_instance_reuse(self):
        pp = Preprocessor(defines={"A": "1"})
        out1 = pp.preprocess("#define B 2\nint x = A + B;\n")
        assert "1 + 2" in out1.replace("  ", " ")
