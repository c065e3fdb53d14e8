"""How the cost of `frame-op` and `reconstruct` grows, checked by counts.

Wall time cannot resolve a change below about 20% on a shared machine,
so each guard counts the function calls (cProfile's total_calls) of one
in-process execute_task on a fresh registry, which is deterministic for
one input, and bounds the ratio of two sizes (the doubling method of S.
Goldsmith, A. Aiken and D. Wilkerson, "Measuring empirical
computational complexity", ESEC/FSE 2007).  The input is
f = e0 + 3/5 e_k on each g-frame kind of the command line:

- precision n = 32 -> 64 costs at most 2.2x (linear in n);
- index k = 100 -> 400 costs at most 4.5x (at most linear in k).

The ungated face (`apply`) of each gallery kind reads a declared prefix
once, whatever the index, so k = 100 -> 400 costs it at most 1.1x
(measured: 1.0x; 3.1x while it walked every index below k).

A subprocess with a time limit runs both operations, and every gallery
face, on an input with an index of 10^9.
"""

import cProfile
import pstats
import subprocess
import sys

import pytest

from exactframes.cli import build_registry, execute_task, load_document

KINDS = {
    "parseval": "gframe G H parseval",
    "diagonal": "gframe G H diagonal 0:2 1:1/2",
    "block": "gframe G H block 2",
    "atoms": "gframe G H atoms 1 2 -1 | 0:1 | 0:1",
}
OPS = ("frame-op", "reconstruct")
GALLERY = "enum 3,1,2 gate 21/256"
GALLERY_KINDS = {kind: f"gallery G {kind} H {GALLERY}"
                 for kind in ("upper-toeplitz", "column-lower",
                              "lower-toeplitz")}
# (kind, operation) -> the most that k = 100 -> 400 may multiply its cost by
INDEX_GROWTH = {**{(kind, op): 4.5 for kind in KINDS for op in OPS},
                **{(kind, "apply"): 1.1 for kind in GALLERY_KINDS}}


def _calls(kind, op, k, n):
    decl = {**KINDS, **GALLERY_KINDS}[kind]
    doc = load_document(
        "version 1\nspace H infinite\n"
        f"vector f H 0:1 {k}:3/5\n{decl}\n"
        f"task {op} G f precision {n}\n")
    reg = build_registry(doc)
    prof = cProfile.Profile()
    prof.runcall(execute_task, reg, doc.tasks[0], n)
    return pstats.Stats(prof).total_calls


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("kind", list(KINDS))
def test_precision_is_linear(kind, op):
    low, high = (_calls(kind, op, 100, n) for n in (32, 64))
    assert high <= 2.2 * low, (low, high)


@pytest.mark.parametrize("kind,op", list(INDEX_GROWTH))
def test_index_is_at_most_linear(kind, op):
    low, high = (_calls(kind, op, k, 32) for k in (100, 400))
    assert high <= INDEX_GROWTH[kind, op] * low, (low, high)


# every face of the command line's gallery kinds
GALLERY_TASKS = [("apply", "UT"), ("gated-apply", "UT"), ("dual-apply", "UT"),
                 ("apply", "CL"), ("gated-apply", "CL"), ("frame-op", "CL"),
                 ("apply", "LT"), ("gated-apply", "LT")]


def test_index_of_a_billion_finishes(tmp_path):
    path = tmp_path / "doc.spec"
    path.write_text(
        "version 1\nspace H infinite\nvector g H 0:1 1000000000:1\n"
        "gframe P H parseval\ngframe D H diagonal 0:2 1:1/2\n"
        f"gallery UT upper-toeplitz H {GALLERY}\n"
        f"gallery CL column-lower H {GALLERY}\n"
        f"gallery LT lower-toeplitz H {GALLERY}\n"
        "task frame-op P g precision 8\ntask reconstruct D g precision 8\n"
        + "".join(f"task {op} {name} g precision 8\n"
                  for op, name in GALLERY_TASKS))
    proc = subprocess.run(
        [sys.executable, "-m", "exactframes", "eval", str(path)],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\nvalue = ") == 2 + len(GALLERY_TASKS)
