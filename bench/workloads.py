"""Seeded task documents for the eval workloads, with the exact answers
every output is checked against.

Nothing here imports exactframes.  References are plain Fraction
arithmetic on explicit finite truncations, so they are independent of the
oracle machinery under test.  A generator receives the seed and the
measurement length; the library only ever sees the generated document
text.

The document layout (declarations, task kinds, supports, task order) is a
function of the measurement length alone; the seed draws every
coefficient and every Specker prefix.  Cost depends strongly on which
basis indices a vector touches, so fixing the layout keeps the work of
one run comparable across seeds while the data changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

PRECISIONS = (32, 64)

Vec = dict[int, Fraction]


@dataclass(frozen=True)
class Expected:
    """What a task must answer.

    kind is "vector" (ref is the exact vector), "scalar" (ref is the exact
    value) or "norm" (ref is the exact squared norm).  slack bounds the
    truncation error of the reference itself.  may_exhaust marks a task
    whose datum understates the truth: PrecisionExhaustionError is then a
    correct answer, and so is a value that matches the reference (the
    datum may never be consulted).
    """
    kind: str
    ref: object
    slack: Fraction = Fraction(0)
    may_exhaust: bool = False


@dataclass
class Document:
    text: str
    expected: list[Expected]      # one entry per task, in document order
    precisions: list[int]         # of each task
    pairs: list[tuple[int, int]]  # (precision 32, precision 64) tasks of one query
    passes: int                   # fresh-registry passes over the document


def rat(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def vec_text(v: Vec) -> str:
    return " ".join(f"{k}:{rat(q)}" for k, q in sorted(v.items()))


class _Builder:
    def __init__(self):
        self.decls = ["version 1", "space H infinite"]
        self.tasks: list[str] = []
        self.expected: list[Expected] = []
        self.precisions: list[int] = []
        self.pairs: list[tuple[int, int]] = []

    def declare(self, line: str) -> None:
        self.decls.append(line)

    def task(self, op: str, args: tuple[str, ...], expected: Expected,
             precisions: tuple[int, ...] = PRECISIONS) -> None:
        """The query at each precision, adjacent; a query asked at both
        precisions is also checked for Cauchy consistency."""
        first = len(self.tasks)
        for n in precisions:
            self.tasks.append(f"task {op} {' '.join(args)} precision {n}")
            self.expected.append(expected)
            self.precisions.append(n)
        if len(precisions) == 2:
            self.pairs.append((first, first + 1))

    def build(self, passes: int) -> Document:
        text = "\n".join(self.decls + self.tasks) + "\n"
        return Document(text, self.expected, self.precisions, self.pairs, passes)


# ---------------------------------------------------------------------------
# exact references


def _clean(v: Vec) -> Vec:
    return {k: q for k, q in v.items() if q}


def inner(u: Vec, v: Vec) -> Fraction:
    return sum((q * v.get(k, 0) for k, q in u.items()), Fraction(0))


def matrix_apply(rows: list[list[Fraction]], f: Vec) -> Vec:
    """Product of an explicit square truncation with a vector supported
    inside it."""
    size = len(rows)
    if any(k >= size for k in f):
        raise ValueError("vector support exceeds the truncation")
    return _clean({i: sum((rows[i][j] * q for j, q in f.items()), Fraction(0))
                   for i in range(size)})


def specker_terms(values: list[int]) -> list[Fraction]:
    """a_1, a_2, ... for an enumerator prefix: a_k = 2^-(e_(k-1) + 1)."""
    return [Fraction(1, 1 << (e + 1)) for e in values]


def _term(terms: list[Fraction], k: int) -> Fraction:
    return terms[k - 1] if 1 <= k <= len(terms) else Fraction(0)


def upper_toeplitz_matrix(terms: list[Fraction], size: int) -> list[list[Fraction]]:
    """Row i is (0...0, 1, a_1, a_2, ...) starting at column i."""
    return [[Fraction(1) if i == j else (_term(terms, j - i) if j > i else Fraction(0))
             for j in range(size)] for i in range(size)]


def transpose(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    return [list(col) for col in zip(*rows)]


def loaded_column_matrix(terms: list[Fraction], size: int) -> list[list[Fraction]]:
    """Identity plus column 0 loaded with (1, a_1, a_2, ...)."""
    return [[Fraction(1) if i == j else (_term(terms, i) if j == 0 else Fraction(0))
             for j in range(size)] for i in range(size)]


def remark_matrix(terms: list[Fraction], size: int) -> list[list[Fraction]]:
    """Frame operator of e_0, (-a_1, 1, 0, ...), (-a_2, 0, 1, ...), ..."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    rows[0][0] = 1 + sum((a * a for a in terms), Fraction(0))
    for k in range(1, size):
        rows[0][k] = rows[k][0] = -_term(terms, k)
        rows[k][k] = Fraction(1)
    return rows


def lower_toeplitz_solve(terms: list[Fraction], f: Vec, size: int) -> Vec:
    """Forward substitution on the unit lower-triangular Toeplitz
    truncation L x = f, L[i][i-k] = a_k.  The truncation of the inverse of
    a lower-triangular matrix is the inverse of its truncation, so the
    result is exact on indices below size."""
    x: list[Fraction] = []
    for i in range(size):
        acc = f.get(i, Fraction(0))
        for k, a in enumerate(terms, start=1):
            if k > i:
                break
            acc -= a * x[i - k]
        x.append(acc)
    return _clean(dict(enumerate(x)))


def lower_toeplitz_tail(terms: list[Fraction], f: Vec, size: int) -> Fraction:
    """Upper bound on the norm of L^-1 f beyond index size.

    With sigma = sum of the terms (below 1/2 for enumerator values >= 1)
    and w terms, 1/(1 + A(z)) = sum_j (-A(z))^j where A^j has nonnegative
    coefficients summing to sigma^j on degrees j..jw, so
    |b_m| <= sigma^ceil(m/w) / (1 - sigma).  Summing squares by blocks of
    w, the part of b beyond T has norm at most
    sqrt(w) sigma^ceil(T/w) / ((1 - sigma) sqrt(1 - sigma^2)); the bound
    below replaces sqrt(w) by w and 1/sqrt(1 - sigma^2) by 2, and adds
    the shifted copies of b over the input coordinates.
    """
    sigma = sum(terms, Fraction(0))
    width = len(terms)
    total = Fraction(0)
    for j, q in f.items():
        blocks = -(-(size - j) // width)
        total += abs(q) * width * 2 * sigma ** blocks / (1 - sigma)
    return total


# ---------------------------------------------------------------------------
# eval-inversion


# supports of the vectors on the tight, redundant and [1,4] frames
_SUPPORTS = ((0, 2), (1, 3), (0, 3), (1, 2))
# supports of the [1/4,4] vectors: index 0 would double a task's cost,
# which would spread the latency of the cluster the medians fall in
_WIDE_SUPPORTS = ((1, 2), (1, 3), (2, 3))

# g-frames: name -> (declaration, frame operator on exact vectors)
_FRAMES: dict[str, tuple[str, Callable[[Vec], Vec]]] = {
    "P": ("parseval", lambda f: dict(f)),
    "B": ("block 2", lambda f: dict(f)),
    # atoms e0, e0, e1, e2, ...: frame operator diag(2, 1, 1, ...)
    "R": ("atoms 1 2 -1 | 0:1 | 0:1",
          lambda f: _clean({k: (2 * q if k == 0 else q) for k, q in f.items()})),
    "W": ("diagonal 0:2",
          lambda f: {k: (4 * q if k == 0 else q) for k, q in f.items()}),
    "Q": ("diagonal 0:2 1:1/2",
          lambda f: {k: q * {0: 4, 1: Fraction(1, 4)}.get(k, 1) for k, q in f.items()}),
}

# nominal seconds per [1/4,4] vector (both precisions) on a 2-core Xeon,
# CPython 3.11, averaged over a document (later tasks get slower as the
# memos of the shared frame grow), and the time the other tasks take
WIDE_VECTOR_S = 4.4
OTHER_S = 4.0


def _inversion_coefficient(rng: random.Random) -> Fraction:
    den = rng.choice((3, 5, 7, 9))
    return Fraction(rng.randint(1, den // 2), den) * rng.choice((1, -1))


def eval_inversion(seed: int, seconds: float, wide: bool = True) -> Document:
    """Reconstruction on the stock g-frames: one vector on each of the
    windows [1,1] (parseval, block 2), [1,2] (redundant atoms) and [1,4]
    (weighted diagonal), alternately at precision 32 and 64; the frame
    operator of the [1/4,4] frame; then [1/4,4] reconstructions at both
    precisions until the measurement time is filled.

    The [1/4,4] reconstructions are about two thirds of the tasks, so both
    medians and the tail fall inside their cluster, not on the gap below
    it, where they would jump from seed to seed.
    """
    rng = random.Random(seed)
    b = _Builder()
    for name in _FRAMES:
        b.declare(f"gframe {name} H {_FRAMES[name][0]}")
    wide_count = max(1, round((seconds - OTHER_S) / WIDE_VECTOR_S)) if wide else 0
    plan = [(name, _SUPPORTS[j]) for j, name in enumerate("PBRW")]
    plan += [("Q", _WIDE_SUPPORTS[j % len(_WIDE_SUPPORTS)]) for j in range(wide_count)]
    for j, (name, support) in enumerate(plan):
        v = {k: _inversion_coefficient(rng) for k in support}
        vname = f"v{j}"
        b.declare(f"vector {vname} H {vec_text(v)}")
        if name != "Q":
            b.task("reconstruct", (name, vname), Expected("vector", v),
                   (PRECISIONS[j % 2],))
            continue
        if j == 4:
            b.task("frame-op", (name, vname), Expected("vector", _FRAMES[name][1](v)))
        b.task("reconstruct", (name, vname), Expected("vector", v))
    return b.build(1)


# ---------------------------------------------------------------------------
# eval-direct


# eval-direct groups per document: about 5000 tasks; a pass takes about
# DIRECT_PASS_S on a 2-core Xeon with CPython 3.11, and a run makes as
# many passes as fill the measurement time, at least three
DIRECT_GROUPS = 100
DIRECT_PASS_S = 1.5


def _direct_vector(rng: random.Random) -> Vec:
    v: Vec = {}
    for k in rng.sample(range(8), rng.randint(1, 4)):
        v[k] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 16), rng.randint(1, 16))
    return v


def _tau_reference(terms: list[Fraction], f: Vec, n: int) -> Expected:
    """Truncated inverse of the lower-Toeplitz action, long enough that
    the neglected tail is far below 2^-n."""
    size = max(f) + 1 + 2 * len(terms)
    target = Fraction(1, 1 << (n + 20))
    while lower_toeplitz_tail(terms, f, size) > target:
        size *= 2
    return Expected("vector", lower_toeplitz_solve(terms, f, size),
                    slack=lower_toeplitz_tail(terms, f, size))


def eval_direct(seed: int, seconds: float, groups: int = DIRECT_GROUPS) -> Document:
    """Norms and inner products of vectors and sum vectors, and the
    gallery faces on seeded Specker prefixes.  Gates are exact except in
    a fixed share of tasks, which understate the term mass by half."""
    rng = random.Random(seed)
    b = _Builder()
    b.declare("sumspace S H")
    for g in range(groups):
        u = [_direct_vector(rng) for _ in range(6)]
        names = [f"u{g}_{j}" for j in range(6)]
        for name, v in zip(names, u):
            b.declare(f"vector {name} H {vec_text(v)}")

        # sum vectors: components at seeded slots, one with a stated normsq
        slots = rng.sample(range(5), 4)
        fa = {slots[0]: u[0], slots[1]: u[1]}
        fb = {slots[2]: u[2], slots[1]: u[3]}
        fa_sq = sum((inner(c, c) for c in fa.values()), Fraction(0))
        b.declare(f"sumvec F{g}a S normsq {rat(fa_sq)} "
                  f"{slots[0]}@{names[0]} {slots[1]}@{names[1]}")
        b.declare(f"sumvec F{g}b S {slots[2]}@{names[2]} {slots[1]}@{names[3]}")

        # the largest term sets how far the inverse Toeplitz expansion of
        # dual-apply reaches, and so the latency tail: its exponent cycles
        # with the group, the other exponents are drawn above it
        low = 1 + g % 4
        values = [low] + rng.sample(range(low + 1, 9), rng.randint(1, 2))
        rng.shuffle(values)
        terms = specker_terms(values)
        gate = sum((a * a for a in terms), Fraction(0))
        enum = ",".join(str(e) for e in values)
        for kind, tag in (("upper-toeplitz", "UT"), ("column-lower", "CL"),
                          ("lower-toeplitz", "LT")):
            b.declare(f"gallery {tag}{g} {kind} H enum {enum} gate {rat(gate)}")
            b.declare(f"gallery {tag}x{g} {kind} H enum {enum} gate {rat(gate / 2)}")

        for j in range(6):
            b.task("norm", (names[j],), Expected("norm", inner(u[j], u[j])))
        for j in range(5):
            b.task("inner", (names[j], names[j + 1]),
                   Expected("scalar", inner(u[j], u[j + 1])))
        cross = sum((inner(fa[i], fb[i]) for i in fa if i in fb), Fraction(0))
        b.task("sum-inner", (f"F{g}a", f"F{g}b"), Expected("scalar", cross))
        b.task("sum-inner", (f"F{g}a", f"F{g}a"), Expected("scalar", fa_sq))

        def size_for(f: Vec) -> int:
            return max(f) + len(terms) + 2

        def ref(rows_of: Callable[[list[Fraction], int], list[list[Fraction]]],
                f: Vec, may_exhaust: bool = False) -> Expected:
            rows = rows_of(terms, size_for(f))
            return Expected("vector", matrix_apply(rows, f), may_exhaust=may_exhaust)

        def lower(t: list[Fraction], size: int) -> list[list[Fraction]]:
            return transpose(upper_toeplitz_matrix(t, size))

        def column_adjoint(t: list[Fraction], size: int) -> list[list[Fraction]]:
            return transpose(loaded_column_matrix(t, size))

        # ungated faces
        b.task("apply", (f"UT{g}", names[0]), ref(upper_toeplitz_matrix, u[0]))
        b.task("apply", (f"CL{g}", names[1]), ref(column_adjoint, u[1]))
        b.task("apply", (f"LT{g}", names[2]), ref(upper_toeplitz_matrix, u[2]))
        # gated faces with exact gates
        b.task("gated-apply", (f"UT{g}", names[3]), ref(lower, u[3]))
        b.task("gated-apply", (f"CL{g}", names[4]), ref(loaded_column_matrix, u[4]))
        b.task("gated-apply", (f"LT{g}", names[5]), ref(lower, u[5]))
        b.task("frame-op", (f"CL{g}", names[2]), ref(remark_matrix, u[2]))
        tau = _tau_reference(terms, u[0], max(PRECISIONS))
        b.task("dual-apply", (f"UT{g}", names[0]), tau)
        # understated gates
        b.task("gated-apply", (f"LTx{g}", names[1]), ref(lower, u[1], True))
        b.task("gated-apply", (f"CLx{g}", names[0]),
               ref(loaded_column_matrix, u[0], True))
        b.task("frame-op", (f"CLx{g}", names[4]), ref(remark_matrix, u[4], True))
        tau = _tau_reference(terms, u[3], max(PRECISIONS))
        b.task("dual-apply", (f"UTx{g}", names[3]),
               Expected("vector", tau.ref, tau.slack, may_exhaust=True))
    return b.build(max(3, round(seconds / DIRECT_PASS_S)))


GENERATORS: dict[str, Callable[[int, float], Document]] = {
    "eval-inversion": eval_inversion,
    "eval-direct": eval_direct,
}
