"""Exact rational scalars and reals queried at certified precision.

The central type is CReal: a real number represented by an oracle that,
asked for a precision n, returns a rational within 2**-n of the value.
Every operation schedules enough operand precision to honor the bound it
advertises; nothing rounds without accounting for it.  Equality of reals
is undecidable, so the only comparison offered is the soft three-way
creal_compare.

Rationals are plain fractions.Fraction values (always normalised, with a
positive denominator) and serialise as "num/den" decimal strings.
Precision parameters are decimal naturals n meaning an error bound of
2**-n.
"""

from __future__ import annotations

import math
import re
import threading
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import (
    InvariantViolationError,
    NegativeInputError,
    PrecisionExhaustionError,
)

_RATIONAL_PATTERN = re.compile(r"^-?[0-9]+(?:/[1-9][0-9]*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the "num" or "num/den" wire format.

    Anything else, including decimal floats, is rejected: a float that
    slipped in here would silently break every certification downstream.
    """
    if not _RATIONAL_PATTERN.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def pow2(n: int) -> Fraction:
    """2**n as an exact rational, n of either sign."""
    if n >= 0:
        return Fraction(1 << n)
    return Fraction(1, 1 << (-n))


def dyadic_round(q: Fraction, n: int) -> Fraction:
    """Nearest multiple of 2**-n (ties to even); error at most 2**-(n+1).

    Used to keep denominators dyadic and bounded inside iterated
    constructions, always paid for in the caller's error budget.
    """
    if n < 0:
        raise ValueError("grid exponent must be nonnegative")
    return Fraction(round(q * (1 << n)), 1 << n)


def ceil_int(q: Fraction) -> int:
    q = Fraction(q)
    return -((-q.numerator) // q.denominator)


def bits_for(q: Fraction) -> int:
    """Smallest s >= 0 with 2**s >= q."""
    q = Fraction(q)
    if q <= 1:
        return 0
    return (ceil_int(q) - 1).bit_length()


def prec_for(threshold: Fraction) -> int:
    """Smallest p >= 0 with 2**-p <= threshold (threshold > 0)."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return bits_for(1 / Fraction(threshold))


def quantize_precision(n: int) -> int:
    """Round a precision request up to a multiple of 8.

    A 2**-q approximation with q >= n is also a 2**-n approximation, so
    evaluating on a coarse grid of precisions is sound; it collapses the
    many nearby precisions produced by scheduling pads into shared
    memoised computations.
    """
    return ((n + 7) >> 3) << 3


class CReal:
    """A real number as a precision-query oracle.

    approx(n) returns a rational within 2**-n of the represented value.
    Queries are rounded up to a coarse precision grid and memoised per
    grid point; the memo is the only mutable state and is lock-guarded,
    so instances are immutable values safe to share and evaluate from
    several threads.  Memoisation is observationally pure: a given n
    always yields the same rational.  An exact instance answers every
    query with its rational and holds no memo and no lock.
    """

    __slots__ = ("_fn", "_exact", "_cache", "_lock")

    def __init__(self, fn: Optional[Callable[[int], Fraction]] = None,
                 exact: Optional[Fraction] = None):
        if (fn is None) == (exact is None):
            raise ValueError("exactly one of fn/exact must be given")
        self._fn = fn
        if exact is not None:
            self._exact = exact if type(exact) is Fraction else Fraction(exact)
            self._cache = self._lock = None
        else:
            self._exact = None
            self._cache: dict[int, Fraction] = {}
            self._lock = threading.RLock()

    def approx(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("precision must be a natural number")
        if self._exact is not None:
            return self._exact
        q = quantize_precision(n)
        with self._lock:
            got = self._cache.get(q)
            if got is None:
                got = Fraction(self._fn(q))
                self._cache[q] = got
            return got

    @property
    def exact_value(self) -> Optional[Fraction]:
        return self._exact

    def __add__(self, other: "CReal") -> "CReal":
        return creal_add(self, other)

    def __sub__(self, other: "CReal") -> "CReal":
        return creal_sub(self, other)

    def __mul__(self, other: "CReal") -> "CReal":
        return creal_mul(self, other)

    def __neg__(self) -> "CReal":
        return creal_neg(self)

    def __abs__(self) -> "CReal":
        return creal_abs(self)

    def __repr__(self) -> str:
        # never force an evaluation from repr: show only what is cached
        if self._exact is not None:
            return f"CReal({format_rational(self._exact)})"
        with self._lock:
            if self._cache:
                n = max(self._cache)
                return f"CReal(~{format_rational(self._cache[n])} @{n})"
        return "CReal(<unevaluated>)"


def creal_from_rational(q: Fraction) -> CReal:
    return CReal(exact=q)


ZERO = creal_from_rational(0)
ONE = creal_from_rational(1)


def creal_add(x: CReal, y: CReal) -> CReal:
    if x.exact_value is not None and y.exact_value is not None:
        return creal_from_rational(x.exact_value + y.exact_value)

    def fn(n: int) -> Fraction:
        # 2 * 2^-(n+2) operand error + 2^-(n+3) rounding <= 2^-n
        return dyadic_round(x.approx(n + 2) + y.approx(n + 2), n + 2)

    return CReal(fn)


def creal_neg(x: CReal) -> CReal:
    if x.exact_value is not None:
        return creal_from_rational(-x.exact_value)
    return CReal(lambda n: -x.approx(n))


def creal_sub(x: CReal, y: CReal) -> CReal:
    return creal_add(x, creal_neg(y))


def creal_abs(x: CReal) -> CReal:
    if x.exact_value is not None:
        return creal_from_rational(abs(x.exact_value))
    return CReal(lambda n: abs(x.approx(n)))


def creal_scale(q: Fraction, x: CReal) -> CReal:
    q = Fraction(q)
    if q == 0:
        return ZERO
    if x.exact_value is not None:
        return creal_from_rational(q * x.exact_value)
    s = bits_for(abs(q))

    def fn(n: int) -> Fraction:
        # |q| * 2^-(n+2+s) <= 2^-(n+2), plus 2^-(n+3) rounding
        return dyadic_round(q * x.approx(n + 2 + s), n + 2)

    return CReal(fn)


def creal_mul(x: CReal, y: CReal) -> CReal:
    if x.exact_value is not None:
        return creal_scale(x.exact_value, y)
    if y.exact_value is not None:
        return creal_scale(y.exact_value, x)

    def fn(n: int) -> Fraction:
        # magnitude bounds from the coarsest approximations: |x| <= |x_0| + 1
        m = ceil_int(abs(x.approx(0))) + ceil_int(abs(y.approx(0))) + 3
        s = n + 2 + m.bit_length()
        # |xy - x~y~| <= (|x~| + |y|) 2^-s <= m 2^-s <= 2^-(n+2)
        return dyadic_round(x.approx(s) * y.approx(s), n + 2)

    return CReal(fn)


def rational_sqrt_floor(q: Fraction, n: int) -> Fraction:
    """Lower endpoint of a certified 2**-n enclosure of sqrt(q), q >= 0.

    sqrt(p/r) = sqrt(p*r)/r, so the integer square root of p*r*4**n
    brackets the value on the grid with denominator r*2**n.
    """
    if q < 0:
        raise ValueError("negative input")
    root = math.isqrt(q.numerator * q.denominator << (2 * n))
    return Fraction(root, q.denominator << n)


def creal_sqrt(x: CReal) -> CReal:
    def fn(n: int) -> Fraction:
        m = 2 * n + 4
        q = x.approx(m)
        if q < -pow2(-m):
            raise NegativeInputError(
                f"square root of a provably negative value (approx(2n+4) = {q})")
        if q < 0:
            q = Fraction(0)
        # |sqrt(q)-sqrt(x)| <= sqrt(|q-x|) <= 2^-(n+2); enclosure adds 2^-(n+2)
        lo = rational_sqrt_floor(q, n + 2)
        return dyadic_round(lo, n + 2)

    return CReal(fn)


class _Memo:
    """A table of values built once per key; the first value stored wins.

    lookup(key, build, *args) returns the value stored under key, or
    stores and returns build(*args).  A hit takes no lock.  A missing
    value is built with no lock held, so a builder may read other
    entries of its own table; it is then stored with setdefault under
    the memo's lock, so when two threads race, the first stored value
    wins and every caller returns that one object.  The build function
    is passed on every call rather than stored, so an owner can pass its
    own bound method without making a reference cycle.
    """

    __slots__ = ("_table", "_lock")

    def __init__(self):
        self._table: dict = {}
        self._lock = threading.Lock()

    def lookup(self, key, build: Callable, *args):
        got = self._table.get(key)
        if got is None:
            fresh = build(*args)
            with self._lock:
                got = self._table.setdefault(key, fresh)
        return got


class CRealSeq:
    """A sequence of CReals with per-index memoisation; a term may read
    earlier terms of its own sequence."""

    __slots__ = ("_fn", "_terms")

    def __init__(self, fn: Callable[[int], CReal]):
        self._fn = fn
        self._terms = _Memo()

    def at(self, i: int) -> CReal:
        if i < 0:
            raise ValueError("index must be a natural number")
        return self._terms.lookup(i, self._fn, i)

    @classmethod
    def from_values(cls, values: Sequence[Fraction]) -> "CRealSeq":
        """The given rationals, then zeros."""
        consts = [creal_from_rational(v) for v in values]
        rest = creal_from_rational(0)
        return cls(lambda i: consts[i] if i < len(consts) else rest)


class PrefixSums:
    """Memoised partial sums of one sequence of CReals.

    upto(count, term) is creal_sum of term(0), ..., term(count - 1), one
    shared name per count.  Each term is computed once and kept, so a
    longer sum reuses the terms of a shorter one.  While every term so
    far is exact the sum is an exact rational, as creal_sum makes it.

    The term function is passed on every call rather than stored, so an
    owner can pass its own bound method without making a reference
    cycle; every call must pass the same sequence.  Terms are computed
    with no lock held, so a term may read earlier partial sums of the
    same sequence; when two threads race, the first stored value wins.
    """

    __slots__ = ("_terms", "_sums", "_lock")

    def __init__(self):
        self._terms: list[CReal] = []
        self._sums: dict[int, CReal] = {}
        self._lock = threading.Lock()

    def upto(self, count: int, term: Callable[[int], CReal]) -> CReal:
        terms = self._terms
        while len(terms) < count:
            i = len(terms)
            fresh = term(i)
            with self._lock:
                if len(terms) == i:
                    terms.append(fresh)
        got = self._sums.get(count)
        if got is None:
            fresh_sum = creal_sum(terms[:count])
            with self._lock:
                got = self._sums.setdefault(count, fresh_sum)
        return got


def creal_limit(xs: CRealSeq, modulus: Callable[[int], int]) -> CReal:
    """Effective limit of a sequence with an explicit convergence modulus.

    Caller's contract: |xs.at(k) - lim| <= 2**-(n+1) for all k >=
    modulus(n).  Then approx(n) = xs.at(modulus(n+1)).approx(n+1) is
    within 2**-(n+2) + 2**-(n+1) <= 2**-n of the limit.
    """
    return CReal(lambda n: xs.at(modulus(n + 1)).approx(n + 1))


def creal_sum(terms: Sequence[CReal]) -> CReal:
    """Flat sum with the budget split evenly over the terms."""
    terms = [t for t in terms]
    if not terms:
        return ZERO
    if all(t.exact_value is not None for t in terms):
        return creal_from_rational(sum(t.exact_value for t in terms))
    s = len(terms).bit_length()

    def fn(n: int) -> Fraction:
        total = Fraction(0)
        for t in terms:
            total += t.approx(n + 1 + s)
        return dyadic_round(total, n + 2)

    return CReal(fn)


class Comparison(Enum):
    LESS_CERTAIN = "less"
    GREATER_CERTAIN = "greater"
    WITHIN = "within"


def creal_compare(x: CReal, y: CReal, n: int) -> Comparison:
    """Soft three-way comparison at tolerance 2**-n.

    LESS_CERTAIN and GREATER_CERTAIN are sound strict verdicts; WITHIN
    certifies |x - y| <= 2**-n.  Exact equality is undecidable, so a
    WITHIN verdict is the strongest statement available for ties.
    """
    margin = pow2(-(n + 1))
    d = x.approx(n + 2) - y.approx(n + 2)
    if d < -margin:
        return Comparison.LESS_CERTAIN
    if d > margin:
        return Comparison.GREATER_CERTAIN
    return Comparison.WITHIN


def _term_limit(n: int) -> int:
    """The term count past which every certified cut for precision n
    gives up: 2**(n + 16)."""
    return 1 << (n + 16)


def certified_tail_cut(total: CReal, partial_at: Callable[[int], CReal],
                       theta: Fraction, p: int, limit: int,
                       what: str = "tail certificate") -> int:
    """Smallest doubling count at which total minus the partial is
    certified <= 2*theta (comparison at precision p; a tie verdict
    counts, its slack being at most 2**-p <= theta by the caller's
    choice of p).

    The certificate is two-sided: a difference that is provably below
    -theta means the claimed total understates the data, and the search
    raises PrecisionExhaustionError instead of ever returning a cut that
    would silence real mass.  A count past `limit` is never tried: the
    search raises instead.
    """
    pos = creal_from_rational(theta)
    neg = creal_from_rational(-theta)
    count = 4
    while True:
        if count > limit:
            raise PrecisionExhaustionError(
                f"{what}: not certified within {limit} terms")
        t = creal_sub(total, partial_at(count))
        if creal_compare(t, pos, p) is not Comparison.GREATER_CERTAIN:
            if creal_compare(t, neg, p) is Comparison.LESS_CERTAIN:
                raise PrecisionExhaustionError(
                    f"{what}: claimed total understates the data "
                    f"(certificate provably negative by index {count})")
            return count
        count *= 2


def _exact_prefix_count(total: CReal,
                        partial_at: Callable[[int], CReal]) -> Optional[int]:
    """The first doubling count of certified_tail_cut (4, 8, ..., 64)
    at which the partial sum is exact and equal to the exact claimed
    total, or None.

    Read against a true claim, equality means every later term is zero:
    the series is exactly its prefix.  certified_tail_cut would stop at
    that count or before it at every precision, since its residual there
    is zero.  The walk reads only exact values and never calls approx,
    so it gives up (None) at the first inexact partial, at a
    partial above the total, and past 64 terms; the caller then takes
    the certified path, which reports a false claim as it always has.
    """
    t = total.exact_value
    if t is None:
        return None
    count = 4
    while count <= 64:
        s = partial_at(count).exact_value
        if s is None or s > t:
            return None
        if s == t:
            return count
        count *= 2
    return None


class ComplexCReal:
    """A complex scalar with certified real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: CReal, im: CReal):
        self.re = re
        self.im = im

    @classmethod
    def from_rationals(cls, a: Fraction, b: Fraction = Fraction(0)) -> "ComplexCReal":
        return cls(creal_from_rational(a), creal_from_rational(b))

    def add(self, other: "ComplexCReal") -> "ComplexCReal":
        return ComplexCReal(creal_add(self.re, other.re), creal_add(self.im, other.im))

    def sub(self, other: "ComplexCReal") -> "ComplexCReal":
        return ComplexCReal(creal_sub(self.re, other.re), creal_sub(self.im, other.im))

    def mul(self, other: "ComplexCReal") -> "ComplexCReal":
        re = creal_sub(creal_mul(self.re, other.re), creal_mul(self.im, other.im))
        im = creal_add(creal_mul(self.re, other.im), creal_mul(self.im, other.re))
        return ComplexCReal(re, im)

    def conjugate(self) -> "ComplexCReal":
        return ComplexCReal(self.re, creal_neg(self.im))

    def modulus_squared(self) -> CReal:
        return creal_add(creal_mul(self.re, self.re), creal_mul(self.im, self.im))

    def modulus(self) -> CReal:
        return creal_sqrt(self.modulus_squared())


class SpeckerData:
    """An injective enumeration e with derived terms a_i = 2**-(e(i)+1).

    The squares a_i**2 = 4**-(e(i)+1) are distinct negative powers of
    four, so every partial sum of squares stays below 1/3 and the term
    sequence has l2 norm below 2; the limit of the partial sums carries
    no computable modulus in general, which is exactly why downstream
    constructions ask for it as an explicit oracle.

    A finite prefix models truncated data: term(i) = 0 past the prefix.
    Injectivity is enforced lazily on whatever prefix gets queried.
    """

    def __init__(self, enumerator: Callable[[int], Optional[int]],
                 length: Optional[int] = None):
        self._enumerator = enumerator
        self.length = length
        self._seen: dict[int, int] = {}
        self._values: list[Optional[int]] = []
        self._sq_prefix: list[Fraction] = [Fraction(0)]
        self._l1_prefix: list[Fraction] = [Fraction(0)]
        self._lock = threading.Lock()

    @classmethod
    def from_prefix(cls, values: Sequence[int]) -> "SpeckerData":
        vals = list(values)

        def enum(i: int) -> Optional[int]:
            return vals[i] if i < len(vals) else None

        return cls(enum, length=len(vals))

    def exponent(self, i: int) -> Optional[int]:
        with self._lock:
            while len(self._values) <= i:
                k = len(self._values)
                if self.length is not None and k >= self.length:
                    v = None
                else:
                    v = self._enumerator(k)
                if v is not None:
                    if v < 0:
                        raise InvariantViolationError("enumerator values must be naturals")
                    if v in self._seen:
                        raise InvariantViolationError(
                            f"enumerator repeats value {v} at indices {self._seen[v]} and {k}")
                    self._seen[v] = k
                self._values.append(v)
                t = self.term_from_exponent(v)
                self._sq_prefix.append(self._sq_prefix[-1] + t * t)
                self._l1_prefix.append(self._l1_prefix[-1] + t)
            return self._values[i]

    @staticmethod
    def term_from_exponent(e: Optional[int]) -> Fraction:
        if e is None:
            return Fraction(0)
        return Fraction(1, 1 << (e + 1))

    def term(self, i: int) -> Fraction:
        return self.term_from_exponent(self.exponent(i))

    def sum_of_squares(self, count: int) -> Fraction:
        """Exact partial sum of a_i**2 over i < count."""
        if count > 0:
            self.exponent(count - 1)
        return self._sq_prefix[count]

    def sum_of_terms(self, count: int) -> Fraction:
        if count > 0:
            self.exponent(count - 1)
        return self._l1_prefix[count]


def specker_partial_sums(s: SpeckerData) -> CRealSeq:
    """The monotone sequence N -> sum of a_i**2 over i < N, exactly.

    Deliberately a sequence of rationals, not a single CReal: the limit
    has no modulus here and is never fabricated.
    """
    return CRealSeq(lambda n: creal_from_rational(s.sum_of_squares(n)))


def pairing(i: int, j: int) -> int:
    """The classic diagonal bijection N x N -> N."""
    if i < 0 or j < 0:
        raise ValueError("pairing is defined on naturals")
    return j + (i + j) * (i + j + 1) // 2


def unpairing(k: int) -> tuple[int, int]:
    if k < 0:
        raise ValueError("unpairing is defined on naturals")
    t = (math.isqrt(8 * k + 1) - 1) // 2
    j = k - t * (t + 1) // 2
    return t - j, j
