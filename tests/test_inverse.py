"""An independent inverse for the g-frames of the command line.

Each frame operator that `exactframes eval` can declare is a finite
matrix M on the first coordinates plus the identity on the rest,
S = M (+) I, so S^-1 = M^-1 (+) I is exact in Fractions.  The library's
certified inverse, the mass <S^-1 f, f> of the canonical dual and the
first components of the pseudo-inverse are checked against it within
2^-n, on an exact input and on a lazy input that spends its whole error
budget.  sympy's Matrix.inv is a second oracle for M^-1 itself.
"""

from fractions import Fraction

import pytest

from exactframes import FiniteCombo, VectorName
from exactframes.cli import build_registry, load_document
from exactframes.gframes import (canonical_dual_pair, frame_operator,
                                 invert_frame_operator, pseudo_inverse)
from exactframes.realcore import pow2

from conftest import off_by_one_unit

F = Fraction


def _scalar(atom):
    """The operator f -> <f, atom(i)> at index 0 of the scalar space."""
    def op(i, g):
        return {0: sum((q * g.get(k, 0) for k, q in atom(i).items()), F(0))}
    return op


def _block(i, g):
    return {j: g.get(2 * i + j, F(0)) for j in range(2)}


# kind -> (declaration arguments, M, operator i applied to a dict)
FRAMES = {
    "parseval": ("parseval", [[F(1)]], _scalar(lambda i: {i: F(1)})),
    "diagonal": ("diagonal 0:2 1:1/2", [[F(4), F(0)], [F(0), F(1, 4)]],
                 _scalar(lambda i: {i: {0: F(2), 1: F(1, 2)}.get(i, F(1))})),
    "block": ("block 2", [[F(1), F(0)], [F(0), F(1)]], _block),
    # atoms e0, e0, e1, e2, ...: S = diag(2, 1, 1, ...)
    "atoms": ("atoms 1 2 -1 | 0:1 | 0:1", [[F(2)]],
              _scalar(lambda i: {max(i - 1, 0): F(1)})),
    # atoms e0 + e1, e1, e2, ...: M has the eigenvalues (3 +- sqrt 5)/2,
    # so its inverse is not diagonal
    "atoms-coupled": ("atoms 1/4 3 0 | 0:1 1:1 | 1:1",
                      [[F(1), F(1)], [F(1), F(2)]],
                      _scalar(lambda i: {0: F(1), 1: F(1)} if i == 0
                              else {i: F(1)})),
}

F_TERMS = {0: F(3, 5), 1: F(-4, 5), 3: F(1, 7)}
COMPONENTS = 4


def _inverse(M):
    """M^-1 by Gauss-Jordan elimination in Fractions."""
    m = len(M)
    rows = [list(row) + [F(int(i == j)) for j in range(m)]
            for i, row in enumerate(M)]
    for c in range(m):
        p = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [q / rows[c][c] for q in rows[c]]
        for r in range(m):
            if r != c and rows[r][c] != 0:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return [row[m:] for row in rows]


def _solve(M, f):
    """S^-1 f for S = M (+) I."""
    inv = _inverse(M)
    out = {k: q for k, q in f.items() if k >= len(M)}
    for k, row in enumerate(inv):
        out[k] = sum((q * f.get(j, 0) for j, q in enumerate(row)), F(0))
    return out


def _dist_sq(u, v):
    return sum(((u.get(k, 0) - v.get(k, 0)) ** 2 for k in set(u) | set(v)),
               F(0))


def _frame(decl):
    doc = load_document(f"version 1\nspace H infinite\ngframe G H {decl}\n")
    return build_registry(doc).gframes["G"]


def _inputs(space):
    exact = FiniteCombo(space, F_TERMS)
    return {"exact": VectorName.from_combo(exact),
            "lazy": off_by_one_unit(exact, 1)}


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("source", ["exact", "lazy"])
@pytest.mark.parametrize("kind", list(FRAMES))
class TestAgainstTheExactInverse:
    def test_inverse_frame_operator(self, kind, source, n):
        decl, M, _ = FRAMES[kind]
        G, norms, ao = _frame(decl)
        s_inv = invert_frame_operator(frame_operator(G, norms, ao),
                                      G.lower, G.upper)
        got = s_inv.apply(_inputs(G.dom)[source]).approx(n)
        assert _dist_sq(dict(got.terms), _solve(M, F_TERMS)) <= pow2(-2 * n)

    def test_canonical_dual_mass(self, kind, source, n):
        decl, M, _ = FRAMES[kind]
        G, norms, ao = _frame(decl)
        _, ao_dual = canonical_dual_pair(G, norms, ao)
        got = ao_dual(_inputs(G.dom)[source]).approx(n)
        x = _solve(M, F_TERMS)
        want = sum((q * F_TERMS.get(k, 0) for k, q in x.items()), F(0))
        assert abs(got - want) <= pow2(-n)

    def test_pseudo_inverse_components(self, kind, source, n):
        decl, M, op = FRAMES[kind]
        G, norms, ao = _frame(decl)
        image = pseudo_inverse(G, norms, ao).apply(_inputs(G.dom)[source])
        x = _solve(M, F_TERMS)
        for i in range(COMPONENTS):
            got = image.component(i).approx(n)
            assert _dist_sq(dict(got.terms), op(i, x)) <= pow2(-2 * n), i


@pytest.mark.parametrize("kind", list(FRAMES))
def test_sympy_agrees_on_the_matrix_inverse(kind):
    sympy = pytest.importorskip("sympy")
    M = FRAMES[kind][1]
    want = sympy.Matrix([[sympy.Rational(q.numerator, q.denominator)
                          for q in row] for row in M]).inv()
    got = _inverse(M)
    assert [[F(int(q.p), int(q.q)) for q in want.row(i)]
            for i in range(len(M))] == got

