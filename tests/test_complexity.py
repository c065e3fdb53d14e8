"""How the cost of each operation grows, checked by counts.

Wall time cannot resolve a change below about 20% on a shared machine,
so each guard counts the function calls (cProfile's total_calls) of one
in-process execute_task on a fresh registry, which is deterministic for
one input, and bounds the ratio of two sizes (the doubling method of S.
Goldsmith, A. Aiken and D. Wilkerson, "Measuring empirical
computational complexity", ESEC/FSE 2007).  The input is
f = e0 + 3/5 e_k (and g = -2 e1 + 1/3 e_k for `inner`):

- on each g-frame kind of the command line, `frame-op` and
  `reconstruct` cost at most 2.2x from precision n = 32 -> 64 (linear
  in n) and at most 4.5x from index k = 100 -> 400 (at most linear in
  k);
- `dual-apply` expands the inverse Toeplitz symbol to a depth linear in
  n, so n = 32 -> 64 costs it at most 2.2x (measured: 1.4x);
- `norm`, `inner` and the gated faces (`gated-apply` on each gallery
  kind, `frame-op` on a column-lower one) work on exact data whose cuts
  close at their first count, so n = 32 -> 64 costs them at most 1.1x
  (measured: 0.97x to 1.0x);
- the ungated face (`apply`) of each gallery kind reads a declared
  prefix once, whatever the index, so k = 100 -> 400 costs it at most
  1.1x (measured: 1.0x; 3.1x while it walked every index below k), and
  so it costs every other operation here but the g-frames' (measured:
  0.97x to 1.0x).

A subprocess with a time limit runs both g-frame operations, and every
gallery face, on an input with an index of 10^9.
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
# the declaration of each kind; "vectors" declares no construction
DECLS = {**KINDS, **GALLERY_KINDS, "vectors": ""}
# operation -> its task arguments, where they are not "G f"
ARGS = {"norm": "f", "inner": "f g"}
# the gated and vector operations of exact data, each with its kind
EXACT = [("vectors", "norm"), ("vectors", "inner"),
         *((kind, "gated-apply") for kind in GALLERY_KINDS),
         ("column-lower", "frame-op")]
# (kind, operation) -> the most that n = 32 -> 64 may multiply its cost by
PRECISION_GROWTH = {**{(kind, op): 2.2 for kind in KINDS for op in OPS},
                    ("upper-toeplitz", "dual-apply"): 2.2,
                    **{case: 1.1 for case in EXACT}}
# (kind, operation) -> the most that k = 100 -> 400 may multiply its cost by
INDEX_GROWTH = {**{(kind, op): 4.5 for kind in KINDS for op in OPS},
                **{(kind, "apply"): 1.1 for kind in GALLERY_KINDS},
                ("upper-toeplitz", "dual-apply"): 1.1,
                **{case: 1.1 for case in EXACT}}


def _calls(kind, op, k, n):
    doc = load_document(
        "version 1\nspace H infinite\n"
        f"vector f H 0:1 {k}:3/5\nvector g H 1:-2 {k}:1/3\n{DECLS[kind]}\n"
        f"task {op} {ARGS.get(op, 'G f')} precision {n}\n")
    reg = build_registry(doc)
    prof = cProfile.Profile()
    prof.runcall(execute_task, reg, doc.tasks[0], n)
    return pstats.Stats(prof).total_calls


@pytest.mark.parametrize("kind,op", list(PRECISION_GROWTH))
def test_precision_is_linear(kind, op):
    low, high = (_calls(kind, op, 100, n) for n in (32, 64))
    assert high <= PRECISION_GROWTH[kind, op] * low, (low, high)


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
