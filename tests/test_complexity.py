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

A subprocess with a time limit runs both operations on an input with an
index of 10^9.
"""

import cProfile
import pstats
import subprocess
import sys

import pytest

from exactframes.cli import build_registry, execute_task, load_document

KINDS = {
    "parseval": "parseval",
    "diagonal": "diagonal 0:2 1:1/2",
    "block": "block 2",
    "atoms": "atoms 1 2 -1 | 0:1 | 0:1",
}
OPS = ("frame-op", "reconstruct")


def _calls(decl, op, k, n):
    doc = load_document(
        "version 1\nspace H infinite\n"
        f"vector f H 0:1 {k}:3/5\ngframe G H {decl}\n"
        f"task {op} G f precision {n}\n")
    reg = build_registry(doc)
    prof = cProfile.Profile()
    prof.runcall(execute_task, reg, doc.tasks[0], n)
    return pstats.Stats(prof).total_calls


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("kind", list(KINDS))
def test_precision_is_linear(kind, op):
    low, high = (_calls(KINDS[kind], op, 100, n) for n in (32, 64))
    assert high <= 2.2 * low, (low, high)


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("kind", list(KINDS))
def test_index_is_at_most_linear(kind, op):
    low, high = (_calls(KINDS[kind], op, k, 32) for k in (100, 400))
    assert high <= 4.5 * low, (low, high)


def test_index_of_a_billion_finishes(tmp_path):
    path = tmp_path / "doc.spec"
    path.write_text(
        "version 1\nspace H infinite\nvector g H 0:1 1000000000:1\n"
        "gframe P H parseval\ngframe D H diagonal 0:2 1:1/2\n"
        "task frame-op P g precision 8\ntask reconstruct D g precision 8\n")
    proc = subprocess.run(
        [sys.executable, "-m", "exactframes", "eval", str(path)],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\nvalue = ") == 2
