import gc
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from exactframes import cli
from exactframes.cli import (
    EXIT_EXHAUSTION,
    EXIT_INVARIANT,
    EXIT_PARSE,
    EXIT_RESOLVE,
    SpecParseError,
    build_registry,
    load_document,
    run_task,
)
from exactframes.realcore import pow2, parse_rational

F = Fraction

DEMO = """\
# demo document
version 1
space H infinite
vector f H 0:3/5 1:4/5
vector e0 H 0:1
vector e1 H 1:1
sumspace SS H
sumvec X SS 0@f 2@e1
gframe P H parseval
gframe W H diagonal 0:2
gframe R H atoms 1 2 -1 | 0:1 | 0:1
gframe B2 H block 2
gallery UT upper-toeplitz H enum 1,3 gate 17/256
gallery CL column-lower H enum 1 gate 1/16
task norm f precision 20
task inner f e0 precision 20
task sum-inner X X precision 20
task apply UT e1 precision 25
task gated-apply UT e0 precision 30
task frame-op CL e0 precision 25
task reconstruct P e0 precision 25
task reconstruct R f precision 25
task reconstruct B2 f precision 25
"""


def invoke(argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    return err.value.code


def run_eval(tmp_path, text, extra=()):
    path = tmp_path / "doc.spec"
    path.write_text(text)
    return invoke(["eval", str(path), *extra])


class TestDocumentParsing:
    def test_demo_parses(self):
        doc = load_document(DEMO)
        assert doc.version == "1"
        assert len(doc.tasks) == 9
        build_registry(doc)

    def test_version_required_first(self):
        with pytest.raises(SpecParseError):
            load_document("space H infinite\n")

    def test_floats_rejected(self):
        doc = load_document("version 1\nspace H infinite\nvector v H 0:0.5\n")
        with pytest.raises(SpecParseError):
            build_registry(doc)

    def test_precision_cap(self):
        text = "version 1\nspace H infinite\nvector v H 0:1\n" \
               "task norm v precision 65\n"
        with pytest.raises(SpecParseError):
            load_document(text)
        load_document(text, max_precision=70)

    def test_rational_grammar(self):
        assert parse_rational("-7/2") == F(-7, 2)
        for bad in ("1.0", "1/0", "--1"):
            with pytest.raises(ValueError):
                parse_rational(bad)


class TestRunTask:
    def test_norm_task(self):
        doc = load_document(DEMO)
        report = run_task(doc, 0)
        lines = report.splitlines()
        assert lines[0] == "task 0 norm f"
        value = parse_rational(lines[1].split(" = ")[1])
        assert abs(value - 1) <= pow2(-20)
        assert lines[2] == "error <= 2^-20"

    def test_reconstruct_task_close_to_input(self):
        doc = load_document(DEMO)
        report = run_task(doc, 6)
        line = [l for l in report.splitlines() if l.startswith("value")][0]
        assert line.split(" = ")[1].startswith("0:")

    def test_every_value_carries_a_guarantee(self):
        doc = load_document(DEMO)
        reg = build_registry(doc)
        for i in range(len(doc.tasks)):
            report = run_task(doc, i, registry=reg)
            assert "error <= 2^-" in report.splitlines()[-1]

    def test_precision_override(self):
        doc = load_document(DEMO)
        report = run_task(doc, 0, precision_override=30)
        assert report.splitlines()[-1] == "error <= 2^-30"


class TestExitCodes:
    def test_ok(self, tmp_path, capsys):
        assert run_eval(tmp_path, DEMO) == 0
        out = capsys.readouterr().out
        assert "task 0 norm f" in out

    def test_parse_error(self, tmp_path):
        text = "version 1\nspace H infinite\nvector v H 0:1.5\n"
        assert run_eval(tmp_path, text) == EXIT_PARSE

    @pytest.mark.parametrize("body", [
        "space H infinite\ngframe W H diagonal 0:0\n",
        "space H infinite\ngframe W H block 0\n",
        "space K 3\ngframe W K block 2\n",
        "space K 3\nvector e0 K 0:1\n"
        "gallery UT upper-toeplitz K enum 1,3 gate 1/4\n"
        "task apply UT e0 precision 10\n",
        "space K 3\nvector e0 K 0:1\ngframe W K diagonal 5:2\n"
        "task frame-op W e0 precision 10\n",
        "space K 3\ngframe W K diagonal 0:2 0:3\n",
        "space K 3\nvector a K 0:1\nvector b K 0:2\nsumspace S K\n"
        "sumvec X S 0@a 0@b\ntask sum-inner X X precision 10\n",
        "space H infinite\nspace H infinite\nvector f H 0:1\n"
        "vector g H 0:1\ntask inner f g precision 10\n",
        "space H infinite\nvector f H 0:1\nvector f H 0:2\n"
        "task norm f precision 10\n",
        "space H infinite\nvector e0 H 0:1\ngframe N H diagonal 0:2\n"
        "gallery N column-lower H enum 1 gate 1/16\n"
        "task frame-op N e0 precision 10\n",
    ], ids=["zero-weight", "zero-width", "finite-block", "finite-gallery",
            "weight-out-of-range", "duplicate-weight", "repeated-sumvec-slot",
            "redeclared-space", "redeclared-vector", "gframe-and-gallery"])
    def test_bad_declaration_is_a_parse_error(self, tmp_path, capsys, body):
        assert run_eval(tmp_path, "version 1\n" + body) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: ")
        assert "Traceback" not in err

    def test_kinds_have_separate_names(self, tmp_path, capsys):
        text = ("version 1\nspace H infinite\nvector H H 0:3/5 1:4/5\n"
                "sumspace H H\nsumvec H H 0@H\ntask norm H precision 10\n"
                "task sum-inner H H precision 10\n")
        assert run_eval(tmp_path, text) == 0
        assert capsys.readouterr().out.count("value = 1\n") == 2

    def test_document_file_is_closed(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert run_eval(tmp_path, DEMO, ["--task", "0"]) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_negative_precision_override_is_a_parse_error(self, tmp_path):
        assert run_eval(tmp_path, DEMO, extra=["--precision", "-3"]) == EXIT_PARSE

    def test_resolve_error(self, tmp_path):
        text = "version 1\nspace H infinite\ntask norm ghost precision 5\n"
        assert run_eval(tmp_path, text) == EXIT_RESOLVE

    def test_exhaustion_error(self, tmp_path):
        text = ("version 1\nspace H infinite\nvector e0 H 0:1\n"
                "gallery UT upper-toeplitz H enum 1,3 gate 1/256\n"
                "task gated-apply UT e0 precision 30\n")
        assert run_eval(tmp_path, text) == EXIT_EXHAUSTION

    def test_invariant_error(self, tmp_path):
        text = ("version 1\nspace H infinite\nspace K infinite\n"
                "vector a H 0:1\nvector b K 0:1\n"
                "task inner a b precision 10\n")
        assert run_eval(tmp_path, text) == EXIT_INVARIANT

    def test_gate_missing_is_a_resolution_error(self, tmp_path):
        text = ("version 1\nspace H infinite\nvector e0 H 0:1\n"
                "gallery UT upper-toeplitz H enum 1,3\n"
                "task gated-apply UT e0 precision 20\n")
        assert run_eval(tmp_path, text) == EXIT_RESOLVE

    def test_understated_sum_mass(self, tmp_path):
        text = ("version 1\nspace H infinite\nvector e0 H 0:1\n"
                "sumspace SS H\nsumvec X SS normsq 1/4 0@e0\n"
                "task sum-inner X X precision 20\n")
        assert run_eval(tmp_path, text) == EXIT_EXHAUSTION


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        run_eval(tmp_path, DEMO)
        first = capsys.readouterr().out
        run_eval(tmp_path, DEMO)
        second = capsys.readouterr().out
        assert first == second

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        run_eval(tmp_path, DEMO)
        serial = capsys.readouterr().out
        run_eval(tmp_path, DEMO, extra=["--threads", "4"])
        threaded = capsys.readouterr().out
        assert serial == threaded

    def test_single_task_selection(self, tmp_path, capsys):
        run_eval(tmp_path, DEMO, extra=["--task", "1"])
        out = capsys.readouterr().out
        assert out.startswith("task 1 inner f e0")
        assert "task 0" not in out

    def test_threaded_failures_resolve_by_task_order(self, tmp_path):
        # task 1 exhausts (code 4), task 2 violates an invariant (code 5):
        # the lowest failing index must decide the exit, whatever the
        # completion order
        text = ("version 1\nspace H infinite\nspace K infinite\n"
                "vector e0 H 0:1\nvector k0 K 0:1\n"
                "gallery UT upper-toeplitz H enum 1,3 gate 0\n"
                "task norm e0 precision 10\n"
                "task gated-apply UT e0 precision 25\n"
                "task inner e0 k0 precision 10\n")
        for _ in range(3):
            assert run_eval(tmp_path, text,
                            extra=["--threads", "3"]) == EXIT_EXHAUSTION


class TestSubprocessEntry:
    def test_console_entry_runs(self, tmp_path):
        path = tmp_path / "doc.spec"
        path.write_text(DEMO)
        proc = subprocess.run(
            [sys.executable, "-m", "exactframes", "eval", str(path),
             "--task", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "task 0 norm f"

    def test_exhaustion_exit_code_through_process(self, tmp_path):
        path = tmp_path / "doc.spec"
        path.write_text(
            "version 1\nspace H infinite\nvector e0 H 0:1\n"
            "gallery CL column-lower H enum 1,3 gate 0\n"
            "task gated-apply CL e0 precision 25\n")
        proc = subprocess.run(
            [sys.executable, "-m", "exactframes", "eval", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_EXHAUSTION
        assert "precision exhaustion" in proc.stderr


class TestReadme:
    def test_example_document_runs(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("## Command line"):]
        example = section.split("```text\n", 1)[1].split("```", 1)[0]
        assert run_eval(tmp_path, example) == 0
        precisions = [line.split()[-1] for line in example.splitlines()
                      if line.startswith("task ")]
        out = capsys.readouterr().out
        assert precisions
        assert re.findall(r"^error <= 2\^-(\d+)$", out, re.M) == precisions


class TestSuiteCommand:
    def test_roundtrips_suite_passes(self, capsys):
        assert invoke(["suite", "roundtrips"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "\t" in l]
        assert lines and all("\tPASS\t" in l for l in lines)
        assert "suite roundtrips:" in out

    def test_unknown_suite_rejected(self, capsys):
        assert invoke(["suite", "nonsense"]) == 2
