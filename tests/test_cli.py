import gc
import re
import subprocess
import sys
import time
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
        "space H infinite\nvector v H 0:1\ntask norm v precision \u00b2\n",
        "space H infinite\nvector v H \u0663:1\n",
        "space H infinite\ngframe R H atoms 1 2 1_0 | 0:1\n",
    ], ids=["zero-weight", "zero-width", "finite-block", "finite-gallery",
            "weight-out-of-range", "duplicate-weight", "repeated-sumvec-slot",
            "redeclared-space", "redeclared-vector", "gframe-and-gallery",
            "superscript-precision", "arabic-indic-index",
            "underscore-tail-offset"])
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

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_parse_error(self, tmp_path, capsys, threads):
        assert run_eval(tmp_path, DEMO, ["--threads", threads]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: ")
        assert "Traceback" not in err

    def test_negative_precision_override_is_a_parse_error(self, tmp_path):
        assert run_eval(tmp_path, DEMO, extra=["--precision", "-3"]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "option", ["--task", "--precision", "--max-precision", "--threads"])
    def test_option_values_are_ascii_digits(self, tmp_path, capsys, option):
        # other scripts' digits, superscripts and underscores are refused
        # by argparse before anything runs
        for value in ["\u0663", "\u0660", "\u00b3", "1_0", "-\u0663"]:
            assert run_eval(tmp_path, DEMO, [option, value]) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert (f"argument {option}: expected ASCII decimal digits"
                    in captured.err)
            assert "Traceback" not in captured.err

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


_H = "version 1\nspace H infinite\n"
_F = _H + "vector f H 0:1\n"


class TestValidationMessages:
    """Each validation failure of the command line, with its exit code
    and its stderr line byte for byte.  None for the text is a document
    that cannot be read."""

    CASES = {
        "space-needs": ("version 1\nspace H\n", (), EXIT_PARSE,
                        "parse error: space needs: <name> infinite|<dim>"),
        "vector-needs": (_H + "vector v\n", (), EXIT_PARSE,
                         "parse error: vector needs: <name> <space> "
                         "[idx:rat ...]"),
        "sumspace-needs": (_H + "sumspace S\n", (), EXIT_PARSE,
                           "parse error: sumspace needs: <name> <space>"),
        "sumvec-needs": (_H + "sumvec X\n", (), EXIT_PARSE,
                         "parse error: sumvec needs: <name> <sumspace> "
                         "[normsq <rat>] [idx@vector ...]"),
        "normsq-needs": (_H + "sumspace S H\nsumvec X S normsq\n", (),
                         EXIT_PARSE,
                         "parse error: normsq needs a rational value"),
        "idx-at-vector": (_F + "sumspace S H\nsumvec X S 0:f\n", (),
                          EXIT_PARSE,
                          "parse error: expected idx@vector, got '0:f'"),
        "gframe-needs": (_H + "gframe W H\n", (), EXIT_PARSE,
                         "parse error: gframe needs: <name> <space> <kind> ..."),
        "block-needs": (_H + "gframe W H block\n", (), EXIT_PARSE,
                        "parse error: block needs: <width>"),
        "atoms-needs": (_H + "gframe R H atoms 1 2\n", (), EXIT_PARSE,
                        "parse error: atoms needs: <A> <B> <tail-offset> | ..."),
        "unknown-gframe-kind": (_H + "gframe W H frobnicate\n", (),
                                EXIT_PARSE,
                                "parse error: unknown gframe kind 'frobnicate'"),
        "gallery-needs": (_H + "gallery UT upper-toeplitz H 1,3\n", (),
                          EXIT_PARSE,
                          "parse error: gallery needs: <name> <kind> <space> "
                          "enum <list>|empty [gate <rat>]"),
        "unknown-gallery-kind": (_H + "gallery UT sideways H enum 1\n", (),
                                 EXIT_PARSE,
                                 "parse error: unknown gallery kind 'sideways'"),
        "enum-needs": (_H + "gallery UT upper-toeplitz H enum\n", (),
                       EXIT_PARSE,
                       "parse error: enum needs a value list or 'empty'"),
        "trailing-gallery-arguments": (
            _H + "gallery UT upper-toeplitz H enum empty gates 0\n", (),
            EXIT_PARSE,
            "parse error: trailing gallery arguments must be 'gate <rat>'"),
        "unknown-directive": (_H + "frame W H\n", (), EXIT_PARSE,
                              "parse error: line 3: unknown directive 'frame'"),
        "empty-document": ("# nothing but a comment\n\n", (), EXIT_PARSE,
                           "parse error: empty document"),
        "task-needs": (_F + "task norm f\n", (), EXIT_PARSE,
                       "parse error: line 4: task needs '... precision <n>'"),
        "argument-count": (_F + "task norm f f precision 10\n", (),
                           EXIT_RESOLVE,
                           "resolve error: operation 'norm' takes 1 "
                           "argument(s), got 2"),
        "unknown-operation": (_F + "task frobnicate f precision 10\n", (),
                              EXIT_RESOLVE,
                              "resolve error: unknown operation 'frobnicate'"),
        "task-index": (_F + "task norm f precision 10\n", ("--task", "3"),
                       EXIT_RESOLVE,
                       "resolve error: task index 3 out of range "
                       "(document has 1)"),
        "precision-override": (_F + "task norm f precision 10\n",
                               ("--precision", "40", "--max-precision", "32"),
                               EXIT_PARSE,
                               "parse error: precision 40 exceeds the "
                               "configured maximum 32"),
        "unreadable-document": (None, (), EXIT_PARSE,
                                "error: [Errno 2] No such file or directory: "
                                "'{path}'"),
        "parseval-takes-no-arguments": (
            _H + "gframe P H parseval 0:2 junk\n", (), EXIT_PARSE,
            "parse error: parseval takes no arguments"),
        # refused at its declaration, also when no task reads term 1
        "repeated-enumerator-value": (
            _F + "gallery UT upper-toeplitz H enum 1,1 gate 1/8\n"
            "task apply UT f precision 10\n", (), EXIT_PARSE,
            "parse error: gallery 'UT': enumerator repeats value 1 at "
            "indices 0 and 1"),
        # resolution order: with both names unknown, the construction is
        # named
        **{f"{op}-names-its-{first}-first": (
            _H + f"task {op} NOPE nosuch precision 10\n", (), EXIT_RESOLVE,
            f"resolve error: unknown {what}")
           for op, first, what in [
               ("apply", "construction", "gallery construction 'NOPE'"),
               ("gated-apply", "construction", "gallery construction 'NOPE'"),
               ("dual-apply", "construction", "gallery construction 'NOPE'"),
               ("frame-op", "construction",
                "g-frame or gallery construction 'NOPE'"),
               ("reconstruct", "construction", "g-frame 'NOPE'")]},
        # a gallery operation resolves its vector before the kind check
        # and the gate
        "vector-before-kind-check": (
            _H + "gallery LT lower-toeplitz H enum 1 gate 1/16\n"
            "task dual-apply LT nosuch precision 10\n", (), EXIT_RESOLVE,
            "resolve error: unknown vector 'nosuch'"),
        "vector-before-gate": (
            _H + "gallery NU upper-toeplitz H enum 1\n"
            "task gated-apply NU nosuch precision 10\n", (), EXIT_RESOLVE,
            "resolve error: unknown vector 'nosuch'"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_code_and_message(self, tmp_path, capsys, case):
        text, extra, code, line = self.CASES[case]
        path = tmp_path / "doc.spec"
        if text is not None:
            path.write_text(text)
        assert invoke(["eval", str(path), *extra]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", line.format(path=path) + "\n")

    def test_empty_enumeration_gives_the_identity(self, tmp_path, capsys):
        # no terms: every face of every kind is the identity
        text = (_H + "vector f H 0:1 1:-1/2\n"
                "gallery UT upper-toeplitz H enum empty gate 0\n"
                "gallery CL column-lower H enum empty gate 0\n"
                "task apply UT f precision 10\n"
                "task gated-apply UT f precision 10\n"
                "task dual-apply UT f precision 10\n"
                "task gated-apply CL f precision 10\n"
                "task frame-op CL f precision 10\n")
        assert run_eval(tmp_path, text) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        reports = captured.out.strip().split("\n\n")
        assert len(reports) == 5
        assert all(r.splitlines()[1] == "value = 0:1 1:-1/2" for r in reports)


class TestGrammarTables:
    """The grammar in the cli docstring names exactly the kinds and the
    operations that the front end's tables hold."""

    DOC = cli.__doc__

    def test_gframe_kinds(self):
        kinds = re.findall(r"^ +gframe <name> <space> (\S+)", self.DOC, re.M)
        assert sorted(kinds) == sorted(cli._GFRAME_KINDS)

    def test_gallery_kinds(self):
        listed = re.search(r"<kind> one of\s+([^.]+)\.", self.DOC).group(1)
        kinds = [k.strip() for k in listed.split(",")]
        assert sorted(kinds) == sorted(cli._GALLERY_FACES)

    def test_task_operations(self):
        block = self.DOC.split("Task operations:\n\n", 1)[1].split("\n\n", 1)[0]
        ops = [tok for tok in block.split() if not tok.startswith("<")]
        assert sorted(ops) == sorted(cli._OPERATIONS)

    def test_every_gallery_kind_has_both_faces(self):
        # apply and gated-apply carry no refusal of their own
        for faces in cli._GALLERY_FACES.values():
            assert {"apply", "gated-apply"} <= set(faces)
            assert set(faces) <= {"apply", "gated-apply", "dual-apply",
                                  "frame-op"}


class TestGFrameKinds:
    """frame-op and reconstruct on every g-frame kind, in process.  Each
    frame operator is a finite matrix M on the first coordinates plus
    the identity on the rest, S = M (+) I, checked in Fractions."""

    F_TERMS = {0: F(3, 5), 1: F(-4, 5), 3: F(1, 7)}
    # kind -> (declaration arguments, M)
    KINDS = {
        "parseval": ("parseval", [[F(1)]]),
        "diagonal": ("diagonal 0:2 1:1/2", [[F(4), F(0)], [F(0), F(1, 4)]]),
        "block": ("block 2", [[F(1), F(0)], [F(0), F(1)]]),
        # atoms e0, e0, e1, e2, ...: S = diag(2, 1, 1, ...)
        "atoms": ("atoms 1 2 -1 | 0:1 | 0:1", [[F(2)]]),
    }

    def _reports(self, kind, op):
        decl, _ = self.KINDS[kind]
        doc = load_document(
            _H + "vector f H 0:3/5 1:-4/5 3:1/7\n"
            f"gframe G H {decl}\n"
            f"task {op} G f precision 32\ntask {op} G f precision 64\n")
        reg = build_registry(doc)
        return [(n, TestDualTailTask._value(run_task(doc, i, registry=reg)))
                for i, n in enumerate((32, 64))]

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_frame_operator_is_the_exact_product(self, kind):
        M = self.KINDS[kind][1]
        f = self.F_TERMS
        want = {k: q for k, q in f.items() if k >= len(M)}
        for k, row in enumerate(M):
            want[k] = sum((m * f.get(j, 0) for j, m in enumerate(row)), F(0))
        for n, got in self._reports(kind, "frame-op"):
            assert TestDualTailTask._dist_sq(got, want) <= pow2(-2 * n)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_reconstruct_returns_the_input(self, kind):
        for n, got in self._reports(kind, "reconstruct"):
            assert TestDualTailTask._dist_sq(got, self.F_TERMS) <= pow2(-2 * n)


class TestDualTailTask:
    """The slowest eval task of the benchmark's direct workload: the dual
    of the upper-Toeplitz g-frame on terms 1/16, 1/4, 1/8 at precision
    64, checked against a long Fraction truncation of the reciprocal
    convolution."""

    HEAD = ("version 1\nspace H infinite\nvector f H 0:-13/7 2:9/16 5:1/3\n"
            "gallery UT upper-toeplitz H enum 3,1,2 gate {gate}\n")
    F_TERMS = {0: F(-13, 7), 2: F(9, 16), 5: F(1, 3)}

    @staticmethod
    def _reference(size):
        # b_0 = 1, b_m = -(a_1 b_(m-1) + a_2 b_(m-2) + a_3 b_(m-3)); the
        # terms sum to 7/16 with lag at most 3, so |b_m| <= (7/16)^(m/3)
        # (16/9) and the neglected tail past size = 600 is below 2^-230
        a = {1: F(1, 16), 2: F(1, 4), 3: F(1, 8)}
        bs = [F(1)]
        for m in range(1, size):
            bs.append(-sum(q * bs[m - l] for l, q in a.items() if l <= m))
        out = {}
        for j, q in TestDualTailTask.F_TERMS.items():
            for m, b in enumerate(bs):
                out[j + m] = out.get(j + m, F(0)) + b * q
        return out

    @staticmethod
    def _value(report):
        text = report.splitlines()[1].split(" = ")[1]
        return {int(k): parse_rational(q)
                for k, q in (tok.split(":") for tok in text.split())}

    @staticmethod
    def _dist_sq(u, v):
        return sum(((u.get(k, 0) - v.get(k, 0)) ** 2 for k in set(u) | set(v)),
                   F(0))

    def test_answers_within_the_bound_at_both_precisions(self, tmp_path, capsys):
        text = (self.HEAD.format(gate="21/256")
                + "task dual-apply UT f precision 64\n"
                + "task dual-apply UT f precision 32\n")
        assert run_eval(tmp_path, text) == 0
        reports = capsys.readouterr().out.strip().split("\n\n")
        at64, at32 = (self._value(r) for r in reports)
        want = self._reference(600)
        assert self._dist_sq(at64, want) <= pow2(-128)
        gap = pow2(-32) + pow2(-64)
        assert self._dist_sq(at32, at64) <= gap * gap

    def test_understated_gate_exits_4(self, tmp_path):
        text = (self.HEAD.format(gate="21/512")
                + "task dual-apply UT f precision 64\n")
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
    def test_eval_loads_no_dataclasses(self):
        # the eval path's records are NamedTuples and plain classes, so a
        # fresh process does not pay for importing dataclasses
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, exactframes.cli; "
             "sys.exit('dataclasses' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

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

    def test_closed_output_pipe_is_quiet(self, tmp_path):
        # the reader is gone before the process writes, as in `| head -1`:
        # no traceback, and the exit code of the run
        path = tmp_path / "doc.spec"
        path.write_text(_F + "task norm f precision 10\n" * 6)
        proc = subprocess.Popen(
            [sys.executable, "-m", "exactframes", "eval", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err == b""

    def test_overstated_gate_exhausts_in_bounded_time(self, tmp_path):
        # the gate claims 1 where the terms' square sum is 17/256: the
        # cut walks to its limit of 2^80 counts, past the prefix at no cost
        path = tmp_path / "doc.spec"
        path.write_text(_F + "gallery T upper-toeplitz H enum 1,3 gate 1\n"
                        "task gated-apply T f precision 64\n")
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "exactframes", "eval", str(path)],
            capture_output=True, text=True, timeout=60)
        assert time.monotonic() - start < 5
        assert proc.returncode == EXIT_EXHAUSTION
        assert proc.stderr.startswith(
            "precision exhaustion: norm gate: not certified within ")


class TestGalleryFaces:
    """Every gallery kind under every gallery operation, one task per
    process, with its exit code and its report byte for byte.  The two
    Toeplitz kinds share their faces, so their apply and gated-apply
    reports agree; each kind check and each missing gate exits 3."""

    GALLERIES = (
        "gallery UT upper-toeplitz H enum 1,3 gate 17/256\n"
        "gallery LT lower-toeplitz H enum 1,3 gate 17/256\n"
        "gallery CL column-lower H enum 1,3 gate 17/256\n"
        "gallery NU upper-toeplitz H enum 1,3\n"
        "gallery NC column-lower H enum 1,3\n")
    OPS = ("apply", "gated-apply", "dual-apply", "frame-op")
    UPPER = "0:7/8 1:-29/64 2:3/16 3:3/4"
    LOWER = "0:1 1:-1/4 2:-1/16 3:23/32 4:3/16 5:3/64"
    DUAL = ("0:1 1:-3/4 2:1/8 3:49/64 4:-51/256 5:1/512 6:49/4096 "
            "7:-51/16384 8:1/32768 9:49/262144 10:-51/1048576 "
            "11:1/2097152 12:49/16777216 13:-51/67108864 14:1/67108864 "
            "15:3/67108864 16:-1/67108864")
    NOT_DUAL = "resolve error: dual-apply needs an upper-toeplitz construction"
    NOT_FRAME = ("resolve error: frame-op on a gallery object needs a "
                 "column-lower construction")

    NO_GATE = ("resolve error: gated operation on a {} construction "
               "declared without a gate")

    # (gallery, op) -> (exit code, value line or stderr line)
    EXPECTED = {
        ("UT", "apply"): (0, UPPER),
        ("UT", "gated-apply"): (0, LOWER),
        ("UT", "dual-apply"): (0, DUAL),
        ("UT", "frame-op"): (3, NOT_FRAME),
        ("LT", "apply"): (0, UPPER),
        ("LT", "gated-apply"): (0, LOWER),
        ("LT", "dual-apply"): (3, NOT_DUAL),
        ("LT", "frame-op"): (3, NOT_FRAME),
        ("CL", "apply"): (0, "0:7/8 1:-1/2 3:3/4"),
        ("CL", "gated-apply"): (0, "0:1 1:-1/4 2:1/16 3:3/4"),
        ("CL", "dual-apply"): (3, NOT_DUAL),
        ("CL", "frame-op"): (0, "0:305/256 1:-3/4 2:-1/16 3:3/4"),
        ("NU", "apply"): (0, UPPER),
        ("NU", "gated-apply"): (3, NO_GATE.format("upper-toeplitz")),
        ("NU", "dual-apply"): (3, NO_GATE.format("upper-toeplitz")),
        ("NU", "frame-op"): (3, NOT_FRAME),
        ("NC", "apply"): (0, "0:7/8 1:-1/2 3:3/4"),
        ("NC", "gated-apply"): (3, NO_GATE.format("column-lower")),
        ("NC", "dual-apply"): (3, NOT_DUAL),
        ("NC", "frame-op"): (3, NO_GATE.format("column-lower")),
    }

    @pytest.mark.parametrize("index, pair", list(enumerate(EXPECTED)),
                             ids=[f"{g}-{op}" for g, op in EXPECTED])
    def test_exit_code_and_report(self, tmp_path, index, pair):
        tasks = "".join(f"task {op} {g} f precision 20\n"
                        for g, op in self.EXPECTED)
        path = tmp_path / "doc.spec"
        path.write_text("version 1\nspace H infinite\n"
                        "vector f H 0:1 1:-1/2 3:3/4\n"
                        + self.GALLERIES + tasks)
        proc = subprocess.run(
            [sys.executable, "-m", "exactframes", "eval", str(path),
             "--task", str(index)],
            capture_output=True, text=True, timeout=60)
        code, text = self.EXPECTED[pair]
        assert proc.returncode == code
        if code == 0:
            gallery, op = pair
            assert proc.stdout == (f"task {index} {op} {gallery} f\n"
                                   f"value = {text}\nerror <= 2^-20\n")
            assert proc.stderr == ""
        else:
            assert (proc.stdout, proc.stderr) == ("", text + "\n")


class TestFalseWindows:
    """The frame atoms e0, e0, e1, e2, ... has the spectral window [1, 2].
    A claimed window that does not hold exits 5 within seconds: the
    inversion runs conjugate gradients here, and within two steps their
    Lanczos matrix has a Ritz value (1 or 2) outside the claim.  Before
    any window check the claims 5/4 2, 3/2 2, 1 5/4 and 7/4 2 exited 4
    on the dual's mass cut or returned a wrong value, and 2 2 and 1 3/2
    ran for minutes."""

    SECONDS = 30

    def _run(self, tmp_path, window):
        path = tmp_path / "doc.spec"
        path.write_text(
            "version 1\nspace H infinite\nvector f H 0:1 1:1 2:1/3\n"
            f"gframe G H atoms {window} -1 | 0:1 | 0:1\n"
            "task reconstruct G f precision 16\n"
            "task reconstruct G f precision 32\n")
        return subprocess.run(
            [sys.executable, "-m", "exactframes", "eval", str(path)],
            capture_output=True, text=True, timeout=self.SECONDS)

    @pytest.mark.parametrize("window", ["5/4 2", "3/2 2", "1 5/4", "7/4 2",
                                        "2 2", "1 3/2"])
    def test_false_window_is_an_invariant_violation(self, tmp_path, window):
        proc = self._run(tmp_path, window)
        assert proc.returncode == EXIT_INVARIANT
        assert "spectral window does not hold" in proc.stderr

    def test_true_window_reconstructs(self, tmp_path):
        proc = self._run(tmp_path, "1 2")
        assert proc.returncode == 0, proc.stderr
        want = {0: F(1), 1: F(1), 2: F(1, 3)}
        for report, n in zip(proc.stdout.split("\n\n"), (16, 32)):
            got = {int(k): parse_rational(q) for k, q in
                   (item.split(":") for item in
                    report.splitlines()[1].split()[2:])}
            assert sum((got.get(k, 0) - want.get(k, 0)) ** 2
                       for k in set(got) | set(want)) <= pow2(-2 * n)


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
