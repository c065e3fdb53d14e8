"""Computable Hilbert spaces with declared orthonormal bases.

A space is a descriptor (identity tag and dimension); a point is a
VectorName: an oracle producing, for each precision n, a finite rational
combination of basis vectors within 2**-n of the point in norm.
Finite combinations are the exact layer: inner products and squared
norms of combinations are plain rationals, which is what makes every
certificate in this library decidable.  A FiniteCombo holds integer
numerators over one common denominator, so its sums, scalings, inner
products and roundings are integer arithmetic with one gcd per result;
Fractions are built only where a coefficient or a result is handed out.

Bounded functionals carry their operator norm as explicit extra data.
That datum is genuinely extra: the representer assembly below has no way
to recover it from evaluations, and fails with PrecisionExhaustionError
when the claimed norm understates the coefficients it meets.

The scalar field is rational/real throughout.
"""

from __future__ import annotations

import itertools
import math
import threading
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import SpaceMismatchError
from .realcore import (
    CReal,
    CRealSeq,
    PrefixSums,
    _Memo,
    _exact_prefix_count,
    _format_ratio,
    _round_half_even,
    _term_limit,
    bits_for,
    ceil_int,
    certified_tail_cut,
    creal_from_rational,
    creal_mul,
    creal_sqrt,
    dyadic_round,
    pow2,
)

_space_counter = itertools.count(1)
_space_lock = threading.Lock()


def _next_space_id() -> int:
    with _space_lock:
        return next(_space_counter)


class SpaceDescriptor:
    """A separable Hilbert space with a declared orthonormal basis.

    dimension is a natural number or None for countably infinite.  Two
    descriptors denote the same space exactly when they carry the same
    id tag; everything else is metadata.
    """

    __slots__ = ("ident", "dimension")

    def __init__(self, dimension: Optional[int] = None,
                 ident: Optional[int] = None):
        if dimension is not None and dimension <= 0:
            raise ValueError("dimension must be positive or None")
        self.ident = _next_space_id() if ident is None else ident
        self.dimension = dimension

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SpaceDescriptor) and other.ident == self.ident

    def __hash__(self) -> int:
        return hash(self.ident)

    def check_index(self, k: int) -> None:
        if k < 0:
            raise IndexError("basis index must be a natural number")
        if self.dimension is not None and k >= self.dimension:
            raise IndexError(
                f"basis index {k} out of range for {self.dimension}-dimensional space")

    def __repr__(self) -> str:
        dim = "inf" if self.dimension is None else str(self.dimension)
        return f"SpaceDescriptor(id={self.ident}, dim={dim})"


def same_space(a: SpaceDescriptor, b: SpaceDescriptor) -> bool:
    return a.ident == b.ident


def _require_same_space(a: SpaceDescriptor, b: SpaceDescriptor) -> None:
    if not same_space(a, b):
        raise SpaceMismatchError(f"space mismatch: {a!r} vs {b!r}")


class FiniteCombo:
    """A finite rational combination of basis vectors, held as integers
    over one common denominator: _items holds the (index, numerator)
    pairs sorted by index, zero numerators dropped, over the positive
    _den, and no factor is common to _den and every numerator.  Equal
    combinations therefore have equal fields.

    The constructor takes (index, rational) data; .terms builds the
    (index, Fraction) pairs only when read.  Sums, scaling, inner
    products, squared norms and rounding run on the integers and reduce
    once per result, so a term costs no gcd of its own."""

    __slots__ = ("space", "_items", "_den")

    def __init__(self, space: SpaceDescriptor,
                 terms: Union[Mapping[int, Fraction], Iterable[tuple[int, Fraction]]]):
        # the cheap tests (plain dict, int index in range, Fraction value)
        # decide almost every call; anything else takes the general checks
        if type(terms) is dict or isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        dim = space.dimension
        cleaned: dict[int, tuple[int, int]] = {}
        for k, q in items:
            if not (type(k) is int and 0 <= k and (dim is None or k < dim)):
                space.check_index(k)
            if type(q) is not Fraction:
                q = Fraction(q)
            if q:
                if k in cleaned:
                    raise ValueError(f"duplicate basis index {k}")
                cleaned[k] = q.as_integer_ratio()
        # over the lcm of reduced denominators, the numerators share no
        # factor with it: a prime's highest power divides one term's own
        den = math.lcm(*(d for _, d in cleaned.values()))
        self.space = space
        self._items = tuple((k, a * (den // d))
                            for k, (a, d) in sorted(cleaned.items()))
        self._den = den

    @classmethod
    def _from_ints(cls, space: SpaceDescriptor,
                   items: Iterable[tuple[int, int]], den: int) -> "FiniteCombo":
        """The combination with the given (index, numerator) pairs, sorted
        by index and in range, over den > 0, reduced by one gcd."""
        items = [(k, a) for k, a in items if a]
        g = math.gcd(den, *(a for _, a in items))
        if g > 1:
            items = [(k, a // g) for k, a in items]
            den //= g
        self = cls.__new__(cls)
        self.space = space
        self._items = tuple(items)
        self._den = den
        return self

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """The (index, coefficient) pairs, sorted by index."""
        den = self._den
        return tuple((k, Fraction(a, den)) for k, a in self._items)

    def coeff(self, k: int) -> Fraction:
        for i, a in self._items:
            if i == k:
                return Fraction(a, self._den)
        return Fraction(0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self._items)

    def is_zero(self) -> bool:
        return not self._items

    def add(self, other: "FiniteCombo") -> "FiniteCombo":
        """self + other, added by the one accumulator (_combo_sum)."""
        return _combo_sum(self.space, ((1, self), (1, other)))

    def sub(self, other: "FiniteCombo") -> "FiniteCombo":
        return _combo_sum(self.space, ((1, self), (-1, other)))

    def scale(self, q: Fraction) -> "FiniteCombo":
        if type(q) is not Fraction:
            q = Fraction(q)
        qn, qd = q.as_integer_ratio()
        return FiniteCombo._from_ints(
            self.space, [(k, a * qn) for k, a in self._items], self._den * qd)

    def inner(self, other: "FiniteCombo") -> Fraction:
        """Exact inner product against the declared orthonormal basis."""
        _require_same_space(self.space, other.space)
        mine, theirs = self._items, other._items
        if len(mine) > len(theirs):
            mine, theirs = theirs, mine
        table = dict(theirs)
        total = 0
        for k, a in mine:
            b = table.get(k)
            if b is not None:
                total += a * b
        return Fraction(total, self._den * other._den)

    def _square_sum(self) -> int:
        """The squared norm times _den**2."""
        return sum(a * a for _, a in self._items)

    def norm_squared(self) -> Fraction:
        return Fraction(self._square_sum(), self._den * self._den)

    def norm_upper(self) -> int:
        """An integer upper bound on the norm."""
        den = self._den
        return math.isqrt(-(-self._square_sum() // (den * den))) + 1

    def rounded(self, n: int) -> "FiniteCombo":
        """Coefficients snapped to the 2**-n grid (ties to even, as
        dyadic_round); norm error is at most sqrt(len) * 2**-(n+1)."""
        if n < 0:
            raise ValueError("grid exponent must be nonnegative")
        den = self._den
        return FiniteCombo._from_ints(
            self.space, [(k, _round_half_even(a << n, den))
                         for k, a in self._items], 1 << n)

    def to_text(self) -> str:
        if not self._items:
            return "0"
        den = self._den
        parts = []
        for k, a in self._items:
            g = math.gcd(a, den)
            parts.append(f"{k}:{_format_ratio(a // g, den // g)}")
        return " ".join(parts)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FiniteCombo)
                and same_space(self.space, other.space)
                and self._den == other._den
                and self._items == other._items)

    def __hash__(self) -> int:
        return hash((self.space.ident, self.terms))

    def __repr__(self) -> str:
        return f"FiniteCombo({self.to_text()})"


class VectorName:
    """A point of a space as a Cauchy name.

    approx(n) is a finite combination within 2**-n of the point in norm.
    Approximations are memoised per precision asked, in a _Memo as for
    CReal, the first one stored winning; instances are immutable and
    safe to share across threads.  An exact instance answers every query
    with its combination and holds no memo.
    """

    __slots__ = ("space", "_fn", "_exact", "_memo", "__weakref__")

    def __init__(self, space: SpaceDescriptor,
                 fn: Optional[Callable[[int], FiniteCombo]] = None,
                 exact: Optional[FiniteCombo] = None):
        if (fn is None) == (exact is None):
            raise ValueError("exactly one of fn/exact must be given")
        self.space = space
        self._fn = fn
        self._exact = exact
        self._memo = None if exact is not None else _Memo()

    @classmethod
    def from_combo(cls, c: FiniteCombo) -> "VectorName":
        return cls(c.space, exact=c)

    @classmethod
    def zero(cls, space: SpaceDescriptor) -> "VectorName":
        return cls.from_combo(FiniteCombo(space, {}))

    def approx(self, n: int) -> FiniteCombo:
        if n < 0:
            raise ValueError("precision must be a natural number")
        if self._exact is not None:
            return self._exact
        memo = self._memo          # get and store, as in CReal.approx
        got = memo.get(n)
        if got is None:
            fresh = self._fn(n)
            _require_same_space(fresh.space, self.space)
            got = memo.store(n, fresh)
        return got

    @property
    def exact_combo(self) -> Optional[FiniteCombo]:
        return self._exact

    def __repr__(self) -> str:
        return f"VectorName(space={self.space.ident})"


def basis_vector(space: SpaceDescriptor, k: int) -> VectorName:
    space.check_index(k)
    return VectorName.from_combo(FiniteCombo(space, {k: Fraction(1)}))


def _combo_sum(space: SpaceDescriptor,
               pairs: Iterable[tuple[Fraction, FiniteCombo]]) -> FiniteCombo:
    """The sum of c * combo over the pairs, added into one table: every
    sum of combinations in this library is this one.  Each combination
    must lie in space; exact sums are order-free, so the result has the
    rationals of chained scale and add.  The numerators are added over
    the lcm of the scaled denominators and reduced once."""
    scaled = []                 # (numerator of c, denominator, items)
    for c, combo in pairs:
        _require_same_space(combo.space, space)
        if c and combo._items:
            cn, cd = c.as_integer_ratio()
            scaled.append((cn, cd * combo._den, combo._items))
    if not scaled:
        return FiniteCombo(space, {})
    den = math.lcm(*(d for _, d, _ in scaled))
    acc: dict[int, int] = {}
    for cn, d, items in scaled:
        f = cn * (den // d)
        if not acc:
            acc = {k: a * f for k, a in items}
            continue
        for k, a in items:
            acc[k] = acc.get(k, 0) + a * f
    out = acc.items() if len(scaled) == 1 else sorted(acc.items())
    return FiniteCombo._from_ints(space, out, den)


Coefficient = Union[Fraction, CReal]


def linear_combination(space: SpaceDescriptor,
                       pairs: Sequence[tuple[Coefficient, VectorName]]) -> VectorName:
    """Sum of coefficient * vector over the pairs: the one sum of scaled
    vector names.  Coefficients may be exact rationals or CReals.  When
    every vector is exact and every coefficient is a rational or an
    exact CReal, the sum is an exact name.  Otherwise the error budget
    is split evenly: precision n reads each of the L terms within
    2**-(n + 1 + L.bit_length()), so two unit terms are read at n + 3."""
    pairs = list(pairs)
    for _, v in pairs:
        _require_same_space(v.space, space)
    L = len(pairs)
    if L == 0:
        return VectorName.zero(space)
    exact = [(c.exact_value if isinstance(c, CReal) else c, v.exact_combo)
             for c, v in pairs]
    if all(c is not None and v is not None for c, v in exact):
        return VectorName.from_combo(
            _combo_sum(space, [(Fraction(c), v) for c, v in exact]))
    shift = L.bit_length()

    def fn(n: int) -> FiniteCombo:
        t = n + 1 + shift          # per-term budget 2^-t, L terms <= 2^-(n+1)
        scaled = []
        for c, v in pairs:
            if isinstance(c, CReal):
                bc = ceil_int(abs(c.approx(0))) + 2      # >= |c| + 1
                bv = v.approx(0).norm_upper() + 2        # >= ||v|| + 1
                pv = t + 1 + bits_for(Fraction(bc))
                pc = t + 1 + bits_for(Fraction(bv))
                combo = v.approx(pv)
                scaled.append((c.approx(pc), combo))
            else:
                c = Fraction(c)
                if c:
                    scaled.append((c, v.approx(t + bits_for(abs(c)))))
        return _combo_sum(space, scaled)

    return VectorName(space, fn)


def inner_product(x: VectorName, y: VectorName) -> CReal:
    """Certified inner product; the query precision is scheduled from
    coarse norm bounds of both operands."""
    _require_same_space(x.space, y.space)
    if x.exact_combo is not None and y.exact_combo is not None:
        return creal_from_rational(x.exact_combo.inner(y.exact_combo))

    def fn(n: int) -> Fraction:
        bx = x.approx(0).norm_upper() + 1
        by = y.approx(0).norm_upper() + 1
        m = n + 1 + (bx + by + 1).bit_length()
        # |<x,y> - <x~,y~>| <= (||x~|| + ||y||) 2^-m <= (bx+by+1) 2^-m
        return dyadic_round(x.approx(m).inner(y.approx(m)), n + 1)

    return CReal(fn)


def vec_norm(x: VectorName) -> CReal:
    return creal_sqrt(inner_product(x, x))


def vec_distance(x: VectorName, y: VectorName) -> CReal:
    return vec_norm(linear_combination(x.space, [(1, x), (-1, y)]))


class FunctionalName:
    """A bounded functional as (evaluation program, certified norm).

    The opnorm field is caller-certified and load-bearing: the
    representer below trusts it for tail certificates and detects only
    understatement, not overstatement.
    """

    __slots__ = ("space", "_eval", "opnorm")

    def __init__(self, space: SpaceDescriptor,
                 eval_fn: Callable[[VectorName], CReal], opnorm: CReal):
        self.space = space
        self._eval = eval_fn
        self.opnorm = opnorm

    def eval(self, f: VectorName) -> CReal:
        _require_same_space(f.space, self.space)
        return self._eval(f)


def riesz_functional(y: VectorName, ynorm: CReal) -> FunctionalName:
    """The functional f -> <f, y>, with ynorm = ||y|| caller-certified."""
    return FunctionalName(y.space, lambda f: inner_product(f, y), ynorm)


def _bessel_sum(space: SpaceDescriptor, term: Callable[[int], VectorName],
                total: CReal, partial_at: Callable[[int], CReal],
                upper: Fraction, what: str) -> VectorName:
    """The sum of term(i) over every i, given that the squared norm of
    the tail past N is at most upper * (total - partial_at(N)) (after
    W. Sun: a Bessel sequence with bound upper and claimed coefficient
    square sum total).  term(i) is asked for again at each precision.

    Exact terms below an _exact_prefix_count give their exact sum.
    Otherwise precision n cuts at theta = 2**-(2n+4) / (2 b), b = upper
    if it is a rational square, else sqrt_upper(upper, 4)**2, and adds
    the terms at precision n + 2 + count.bit_length(); an understated
    total raises PrecisionExhaustionError naming what.
    """
    count = _exact_prefix_count(total, partial_at)
    if count is not None:
        prefix = []
        for i in range(count):
            c = term(i).exact_combo
            if c is None:
                break
            prefix.append((1, c))
        else:
            return VectorName.from_combo(_combo_sum(space, prefix))
    b_up = (upper if _rational_sqrt(upper) is not None
            else sqrt_upper(upper, bits=4) ** 2)

    def fn(n: int) -> FiniteCombo:
        theta = pow2(-(2 * n + 4)) / (2 * b_up)
        count = certified_tail_cut(total, partial_at, lambda _: theta,
                                   _term_limit(n), what=what)
        pad = count.bit_length() + 1
        return _combo_sum(space, ((1, term(i).approx(n + 1 + pad))
                                  for i in range(count)))

    return VectorName(space, fn)


def _coordinate(space: SpaceDescriptor, k: int, c: CReal) -> VectorName:
    """The vector c e_k, its coefficient snapped to the dyadic grid at
    each precision; exact when c is."""
    if c.exact_value is not None:
        return VectorName.from_combo(FiniteCombo(space, {k: c.exact_value}))

    def fn(n: int) -> FiniteCombo:
        # approximation 2^-(n+1) plus snap 2^-(n+2) stays within 2^-n
        return FiniteCombo(space, {k: dyadic_round(c.approx(n + 1), n + 1)})

    return VectorName(space, fn)


def _bessel_expansion(space: SpaceDescriptor, coeff: Callable[[int], CReal],
                      atom: Optional[Callable[[int], VectorName]],
                      count: Optional[int], total: Callable[[], CReal],
                      upper: Fraction, what: str) -> VectorName:
    """The sum of coeff(k) * atom(k) over k < count, or over every k
    when count is None, for atoms forming a Bessel sequence with bound
    upper; atom None stands for the basis of space itself.

    An infinite sum is the _bessel_sum of the products, cut against
    total(), the claimed square sum of the coefficients.  Over the basis
    each product is the coefficient placed at index k (_coordinate).  A
    finite sum is a linear_combination and never asks for the total."""
    if count is not None:
        atoms = atom or (lambda k: basis_vector(space, k))
        return linear_combination(
            space, [(coeff(k), atoms(k)) for k in range(count)])
    coeffs = CRealSeq(coeff)
    squares = PrefixSums()

    def product(k: int) -> VectorName:
        if atom is None:
            return _coordinate(space, k, coeffs.at(k))
        return linear_combination(space, [(coeffs.at(k), atom(k))])

    def square(k: int) -> CReal:
        c = coeffs.at(k)
        return creal_mul(c, c)

    return _bessel_sum(space, product, total(),
                       lambda count: squares.upto(count, square), upper, what)


def vector_from_coefficients(space: SpaceDescriptor,
                             coeff: Callable[[int], CReal],
                             total_sq: CReal) -> VectorName:
    """Assemble the vector with basis coordinates coeff(k), certifying
    truncation against total_sq, the claimed sum of squared coordinates.

    This is the _bessel_expansion over the basis (Bessel bound 1).  On a
    finite space total_sq is never read and exact coordinates give an
    exact name.  On an infinite space a claim that understates the
    coordinates raises PrecisionExhaustionError, as does passing the
    fixed limit of 2**(n + 16) terms (an overstated claim never closes).
    """
    return _bessel_expansion(space, coeff, None, space.dimension,
                             lambda: total_sq, Fraction(1),
                             "coordinate square sum")


def riesz_representer(F: FunctionalName) -> VectorName:
    """The vector y with F = <., y>, assembled coordinatewise.

    Requires F.opnorm to be the actual functional norm; the tail
    certificate total - partial is meaningless otherwise and the
    assembly will fail loudly on understatement.
    """
    total_sq = creal_mul(F.opnorm, F.opnorm)
    return vector_from_coefficients(
        F.space, lambda k: F.eval(basis_vector(F.space, k)), total_sq)


def sqrt_upper(q: Fraction, bits: int = 8) -> Fraction:
    """A rational upper bound on sqrt(q) within 2**-bits, q >= 0."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative input")
    root = math.isqrt(q.numerator * q.denominator << (2 * bits))
    return Fraction(root + 1, q.denominator << bits)


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """sqrt(q) when it is rational, else None; q >= 0."""
    q = Fraction(q)
    root = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    return root if root * root == q else None


def ceil_sqrt_int(q: Fraction) -> int:
    """ceil(sqrt(ceil(q))), an integer upper bound on sqrt(q)."""
    c = ceil_int(Fraction(q))
    if c <= 0:
        return 0
    return math.isqrt(c - 1) + 1
