"""Tests for the command-line driver."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import FRONTEND_EXIT, LIMIT_EXIT, SAFETY_EXIT, main

HELLO = r'''
#include <stdio.h>
#include <string.h>
int main(int argc, char **argv) {
  char buf[8];
  if (argc > 1) strcpy(buf, argv[1]);
  else strcpy(buf, "hi");
  printf("%s\n", buf);
  return 0;
}
'''


LATE_OVERFLOW = r'''
#include <stdio.h>
int main(void) {
  int a[2];
  int i;
  for (i = 0; i < 2; i++)
    printf("before %d\n", i);
  a[2] = i;
  printf("after\n");
  return a[0];
}
'''


@pytest.fixture
def hello_c(tmp_path):
    path = tmp_path / "hello.c"
    path.write_text(HELLO)
    return str(path)


class TestCure:
    def test_report(self, hello_c, capsys):
        assert main(["cure", hello_c, "--report"]) == 0
        out = capsys.readouterr().out
        assert "CCured report" in out
        assert "kinds:" in out

    def test_instrumented_output(self, hello_c, capsys):
        assert main(["cure", hello_c]) == 0
        out = capsys.readouterr().out
        assert "__SEQ" in out or "__SAFE" in out

    def test_plain_output(self, hello_c, capsys):
        assert main(["cure", hello_c, "--plain"]) == 0
        out = capsys.readouterr().out
        assert "__SAFE" not in out

    def test_ablation_flags(self, hello_c, capsys):
        assert main(["cure", hello_c, "--report", "--no-rtti",
                     "--no-physical", "--no-optimize"]) == 0

    def test_optimize_level_flag(self, hello_c, capsys):
        for level in ("none", "local", "flow"):
            assert main(["cure", hello_c, "--report",
                         "--optimize", level]) == 0
            capsys.readouterr()

    def test_bad_optimize_level_rejected(self, hello_c):
        with pytest.raises(SystemExit):
            main(["cure", hello_c, "--optimize", "super"])


class TestRun:
    def test_run_ok(self, hello_c, capsys):
        assert main(["run", hello_c, "world"]) == 0
        assert capsys.readouterr().out == "world\n"

    def test_run_overflow_exits_99(self, hello_c, capsys):
        status = main(["run", hello_c, "A" * 20])
        assert status == SAFETY_EXIT
        assert "BoundsError" in capsys.readouterr().err

    def test_run_raw(self, hello_c, capsys):
        assert main(["run", "--raw", hello_c, "ok"]) == 0
        assert capsys.readouterr().out == "ok\n"

    @pytest.mark.parametrize("engine", ["closures", "tree"])
    def test_output_before_a_trap_is_kept(self, tmp_path, capsys,
                                          engine):
        p = tmp_path / "late.c"
        p.write_text(LATE_OVERFLOW)
        status = main(["run", str(p), "--engine", engine])
        out, err = capsys.readouterr()
        assert status == SAFETY_EXIT
        assert out == "before 0\nbefore 1\n"
        assert "[BoundsError]" in err and "before" not in err

    def test_output_before_a_step_limit_is_kept(self, tmp_path, capsys,
                                                monkeypatch):
        import repro.cli as cli
        p = tmp_path / "spin.c"
        p.write_text('#include <stdio.h>\n'
                     'int main(void) { printf("start\\n");'
                     ' for (;;) { } return 0; }\n')
        run_cured = cli.run_cured
        monkeypatch.setattr(cli, "run_cured", lambda *a, **kw: run_cured(
            *a, max_steps=1000, **kw))
        status = main(["run", str(p)])
        out, err = capsys.readouterr()
        assert status == LIMIT_EXIT
        assert out == "start\n"
        assert "[InterpreterLimitError] step budget exceeded" in err

    def test_diagnostic_names_the_file_once(self, tmp_path, capsys):
        p = tmp_path / "late.c"
        p.write_text(LATE_OVERFLOW)
        assert main(["lint", str(p), "--format", "json"]) == 1
        report = capsys.readouterr().out
        assert '"file": "' + str(p) + '"' in report
        assert ".c.c" not in report

    def test_run_stats(self, hello_c, capsys):
        assert main(["run", hello_c, "x", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "cycles" in err

    def test_exit_status_propagates(self, tmp_path, capsys):
        p = tmp_path / "seven.c"
        p.write_text("int main(void) { return 7; }")
        assert main(["run", str(p)]) == 7

    @pytest.mark.parametrize("source,where,message", [
        ("int main(void) {\n  int x = 0;\n again:\n  x++;\n"
         "  if (x < 3) goto again;\n  return x;\n}\n",
         ":3:2", "goto/labels"),
        ("int main(void) {\n  int x = 1\n  return x;\n}\n",
         ":3:3", "before: return"),
        ('#include <stdio.h>\n#include "nope.h"\n'
         "int main(void) { return 0; }\n",
         ":2", "include not found: nope.h"),
    ], ids=["goto", "syntax", "missing-include"])
    def test_front_end_failure_is_one_located_line(
            self, tmp_path, source, where, message):
        p = tmp_path / "bad.c"
        p.write_text(source)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", str(p)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == FRONTEND_EXIT == 97
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"{p}{where}: error: {message}\n"
        assert proc.stdout == ""


class TestAnalyze:
    def test_analyze_file_table(self, hello_c, capsys):
        assert main(["analyze", hello_c]) == 0
        out = capsys.readouterr().out
        assert "elided_flow" in out and "TOTAL" in out

    def test_analyze_workload_json(self, tmp_path, capsys):
        import json
        path = tmp_path / "stats.json"
        assert main(["analyze", "--workload", "olden_power",
                     "--scale", "2", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["program"] == "olden_power"
        totals = data["totals"]
        assert totals["checks"] >= totals["elided_flow"] \
            >= totals["elided_local"] >= 0
        assert totals["blocks"] > 0 and totals["edges"] > 0

    def test_analyze_unknown_workload(self, capsys):
        assert main(["analyze", "--workload", "nope"]) == 2

    def test_analyze_without_target(self, capsys):
        assert main(["analyze"]) == 2


class TestBenchAndWorkloads:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "ftpd" in out and "Fig. 9" in out

    def test_bench_single(self, capsys):
        assert main(["bench", "olden_bisort",
                     "--tools", "ccured"]) == 0
        out = capsys.readouterr().out
        assert "ccured" in out and "1.00x" in out

    def test_bench_unknown(self, capsys):
        assert main(["bench", "nope"]) == 2
