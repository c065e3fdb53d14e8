import math
import random
from fractions import Fraction
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from exactframes import (
    CReal,
    FiniteCombo,
    FunctionalName,
    PrecisionExhaustionError,
    SpaceMismatchError,
    SpaceDescriptor,
    VectorName,
    basis_vector,
    creal_from_rational,
    creal_mul,
    creal_sqrt,
    inner_product,
    linear_combination,
    riesz_functional,
    riesz_representer,
    vec_distance,
    vec_norm,
    vector_from_coefficients,
)
from exactframes import realcore
from exactframes.errors import NegativeInputError
from exactframes.hilbert import _combo_sum, _coordinate
from exactframes.realcore import (Comparison, bits_for, ceil_int,
                                  certified_tail_cut, creal_compare, creal_sub,
                                  dyadic_round, pow2, prec_for)

from conftest import (adversarial_leaves, assert_same_outcomes, claimed_total,
                      claims, combo, exact_prefixes, off_by_one_unit,
                      off_by_one_unit_real, random_combo, vec)

F = Fraction


class TestSpaces:
    def test_identity_is_the_id_tag(self):
        a = SpaceDescriptor(ident=77)
        b = SpaceDescriptor(dimension=5, ident=77)
        c = SpaceDescriptor()
        assert a == b
        assert a != c

    def test_fresh_ids_are_distinct(self):
        assert SpaceDescriptor().ident != SpaceDescriptor().ident


class TestCombos:
    def test_canonical_form(self, H):
        c = FiniteCombo(H, [(3, F(1, 2)), (1, F(0)), (0, F(2))])
        assert c.terms == ((0, F(2)), (3, F(1, 2)))

    def test_duplicate_index_rejected(self, H):
        with pytest.raises(ValueError):
            FiniteCombo(H, [(1, F(1)), (1, F(2))])

    def test_index_bound_enforced(self):
        K = SpaceDescriptor(dimension=2)
        with pytest.raises(IndexError):
            FiniteCombo(K, {5: F(1)})

    @pytest.mark.parametrize("make", [
        dict,
        MappingProxyType,
        lambda d: list(d.items()),
        lambda d: iter(d.items()),
    ], ids=["dict", "mapping", "pairs", "iterator"])
    def test_accepted_containers(self, H, make):
        c = FiniteCombo(H, make({4: F(1, 2), 0: 3, 2: "-5/6", 7: 0}))
        assert c.terms == ((0, F(3)), (2, F(-5, 6)), (4, F(1, 2)))
        assert all(type(q) is Fraction for _, q in c.terms)

    @pytest.mark.parametrize("dimension,index", [(None, -1), (3, 3), (3, -2)])
    def test_index_out_of_range(self, dimension, index):
        K = SpaceDescriptor(dimension=dimension)
        for terms in ({index: F(1)}, MappingProxyType({index: F(1)}),
                      [(index, F(1))]):
            with pytest.raises(IndexError):
                FiniteCombo(K, terms)

    def test_zero_coefficient_still_index_checked(self):
        with pytest.raises(IndexError):
            FiniteCombo(SpaceDescriptor(dimension=2), {2: 0})

    def test_duplicate_index_after_zero_is_kept_once(self, H):
        c = FiniteCombo(H, [(1, 0), (1, F(2))])
        assert c.terms == ((1, F(2)),)
        with pytest.raises(ValueError):
            FiniteCombo(H, [(1, F(2)), (1, "2/3")])

    def test_bad_coefficient_rejected(self, H):
        with pytest.raises(ValueError):
            FiniteCombo(H, {0: "1.5.2"})

    def test_exact_inner_and_norm(self, H):
        a = combo(H, {0: F(3, 5), 2: F(4, 5)})
        b = combo(H, {0: F(4, 5), 2: F(-3, 5)})
        assert a.inner(b) == 0
        assert a.norm_squared() == 1

    @settings(max_examples=200, deadline=None)
    @given(terms=st.dictionaries(
        st.integers(0, 40),
        st.one_of(st.fractions(max_denominator=1 << 20),
                  st.builds(lambda k, e: F(k, 1 << e),
                            st.integers(-(1 << 70), 1 << 70),
                            st.integers(0, 90))),
        max_size=10))
    def test_norm_squared_equals_the_fraction_sum(self, terms):
        c = FiniteCombo(SpaceDescriptor(), terms)
        want = sum((q * q for _, q in c.terms), Fraction(0))
        got = c.norm_squared()
        assert type(got) is Fraction and got == want


class TestBasisVectors:
    def test_infinite_space(self, H):
        e0 = basis_vector(H, 0)
        for n in (0, 10, 30):
            assert e0.approx(n).terms == ((0, F(1)),)

    def test_finite_space(self):
        K = SpaceDescriptor(dimension=3)
        assert basis_vector(K, 2).approx(5).terms == ((2, F(1)),)

    def test_out_of_range(self):
        K = SpaceDescriptor(dimension=2)
        with pytest.raises(IndexError):
            basis_vector(K, 5)


class TestLincomb:
    def test_basis_sum(self, H):
        v = linear_combination(
            H, [(F(1), basis_vector(H, 0)), (F(1), basis_vector(H, 1))])
        assert v.approx(10).terms == ((0, F(1)), (1, F(1)))

    def test_zero_coefficients(self, H):
        v = linear_combination(H, [(F(0), vec(H, {0: 1})),
                                   (F(0), vec(H, {1: 1}))])
        assert v.approx(20).is_zero()

    def test_cancellation(self, H):
        e0 = basis_vector(H, 0)
        v = linear_combination(H, [(F(1, 2), e0), (F(-1, 2), e0)])
        assert v.approx(40).norm_squared() <= pow2(-80)

    def test_space_mismatch(self, H):
        other = SpaceDescriptor()
        with pytest.raises(SpaceMismatchError):
            linear_combination(H, [(F(1), basis_vector(H, 0)),
                                   (F(1), basis_vector(other, 0))])

    def test_name_consistency(self, H):
        rng = random.Random(3)
        for _ in range(10):
            x = VectorName.from_combo(random_combo(rng, H))
            y = VectorName.from_combo(random_combo(rng, H))
            v = linear_combination(
                H, [(F(rng.randint(-9, 9), rng.randint(1, 9)), x),
                    (F(rng.randint(-9, 9), rng.randint(1, 9)), y)])
            grid = [0, 7, 16, 35]
            at = {n: v.approx(n) for n in grid}
            for n in grid:
                for m in grid:
                    bound = pow2(-n) + pow2(-m)
                    assert at[n].sub(at[m]).norm_squared() <= bound * bound


def _chained_add(a, b):
    # the former FiniteCombo.add: copy one table, add the other into it
    acc = dict(a.terms)
    for k, q in b.terms:
        acc[k] = acc.get(k, F(0)) + q
    return FiniteCombo(a.space, acc)


def _chained_exact(space, pairs):
    # the former exact branch of linear_combination: acc.add(v.scale(c))
    acc = FiniteCombo(space, {})
    for c, v in pairs:
        c = c.exact_value if isinstance(c, CReal) else c
        acc = _chained_add(acc, v.exact_combo.scale(F(c)))
    return acc


def _chained_lazy(space, pairs, n):
    # the former lazy branch of linear_combination at precision n
    t = n + 1 + len(pairs).bit_length()
    acc = FiniteCombo(space, {})
    for c, v in pairs:
        if isinstance(c, CReal):
            bc = ceil_int(abs(c.approx(0))) + 2
            bv = v.approx(0).norm_upper() + 2
            pv = t + 1 + bits_for(F(bc))
            pc = t + 1 + bits_for(F(bv))
            acc = _chained_add(acc, v.approx(pv).scale(c.approx(pc)))
        elif c:
            acc = _chained_add(acc, v.approx(t + bits_for(abs(c))).scale(c))
    return acc


_small_rationals = st.fractions(-3, 3, max_denominator=8)
# a coefficient as (kind, value): zero, a rational, or a CReal that is
# exact or exactly 2^-m off at every precision m
_coefficients = st.tuples(
    st.sampled_from(["rational", "exact creal", "lazy creal"]),
    st.one_of(st.just(F(0)), _small_rationals))
# overlapping supports on six indices; a vector may be exactly 2^-m off
# at one index (lazy), or exact (None)
_terms = st.dictionaries(st.integers(0, 5), _small_rationals, max_size=4)
_pairs = st.lists(
    st.tuples(_coefficients, _terms, st.one_of(st.none(), st.integers(0, 5))),
    min_size=1, max_size=5)


def _coefficient(kind, q):
    if kind == "rational":
        return q
    if kind == "exact creal":
        return creal_from_rational(q)
    return CReal(lambda m: q + pow2(-m))


def _named_pairs(H, drawn, cancel, lazy):
    """(coefficient, vector) pairs and the exact pairs they name; with
    cancel the first pair is repeated with its coefficient negated."""
    if cancel:
        (kind, q), terms, off = drawn[0]
        drawn = drawn + [((kind, -q), terms, off)]
    named, exact = [], []
    for (kind, q), terms, off in drawn:
        c = combo(H, terms)
        if not lazy:
            kind, off = ("rational" if kind == "lazy creal" else kind), None
        v = (VectorName.from_combo(c) if off is None
             else off_by_one_unit(c, off))
        named.append((_coefficient(kind, q), v))
        exact.append((q, VectorName.from_combo(c)))
    return named, exact


class TestAccumulator:
    """linear_combination adds every pair into one table; the result is
    the one the former chained scale-and-add gave, term for term."""

    @settings(max_examples=60, deadline=None)
    @given(drawn=_pairs, cancel=st.booleans())
    def test_exact_pairs_give_the_chained_sum(self, drawn, cancel):
        H = SpaceDescriptor()
        named, _ = _named_pairs(H, drawn, cancel, lazy=False)
        got = linear_combination(H, named).exact_combo
        assert got is not None
        assert got.terms == _chained_exact(H, named).terms

    @settings(max_examples=40, deadline=None)
    @given(drawn=_pairs, cancel=st.booleans())
    def test_lazy_pairs_keep_the_chained_schedule(self, drawn, cancel):
        H = SpaceDescriptor()
        named, exact = _named_pairs(H, drawn, cancel, lazy=True)
        want = _chained_exact(H, exact)
        name = linear_combination(H, named)
        for n in (0, 8, 32):
            got = name.approx(n)
            assert got.terms == _chained_lazy(H, named, n).terms
            assert got.sub(want).norm_squared() <= pow2(-2 * n)

    def test_every_space_is_checked(self, H):
        other = SpaceDescriptor()
        a, b = combo(H, {0: 1}), combo(other, {0: 1})
        for bad in (lambda: a.add(b), lambda: a.sub(b),
                    lambda: linear_combination(
                        H, [(F(0), VectorName.from_combo(b))])):
            with pytest.raises(SpaceMismatchError):
                bad()


_small_combos = st.dictionaries(st.integers(0, 5), _small_rationals,
                                min_size=1, max_size=4)
_off_units = st.tuples(_small_combos, st.integers(0, 5),
                       st.sampled_from([-1, 1]))


class TestAdversarialLeaves:
    """Leaves whose answers are off by their whole 2^-m budget, on a drawn
    side: a coordinate or an inner product that reads them with too
    little margin shows it."""

    @settings(max_examples=200, deadline=None)
    @given(leaf=adversarial_leaves, k=st.integers(0, 5), n=st.integers(0, 40))
    def test_coordinate_stays_within_the_bound(self, leaf, k, n):
        H = SpaceDescriptor()
        v, side = leaf
        got = _coordinate(H, k, off_by_one_unit_real(v, side)).approx(n)
        assert got.support in ((), (k,))
        assert abs(got.coeff(k) - v) <= pow2(-n)

    @settings(max_examples=200, deadline=None)
    @given(x=_off_units, y=_off_units, n=st.integers(0, 40))
    def test_inner_product_stays_within_the_bound(self, x, y, n):
        H = SpaceDescriptor()
        (cx, kx, sx), (cy, ky, sy) = x, y
        cx, cy = combo(H, cx), combo(H, cy)
        got = inner_product(off_by_one_unit(cx, kx, sx),
                            off_by_one_unit(cy, ky, sy)).approx(n)
        assert abs(got - cx.inner(cy)) <= pow2(-n)

    @settings(max_examples=200, deadline=None)
    @given(vx=st.fractions(-40, 40, max_denominator=8),
           vy=st.fractions(-40, 40, max_denominator=8),
           side=st.sampled_from([-1, 1]), n=st.integers(0, 5))
    @example(vx=F(7, 4), vy=F(103, 4), side=-1, n=0)
    def test_inner_product_of_large_leaves_off_on_one_side(self, vx, vy,
                                                           side, n):
        # inner_product reads at m = n + 1 + bits(bx + by + 1); leaves up
        # to 40 that both err on one side spend nearly all of it, so one
        # bit less errs past 2^-n (by 1.0625 at the example)
        H = SpaceDescriptor()
        x = off_by_one_unit(combo(H, {0: vx}), 0, side)
        y = off_by_one_unit(combo(H, {0: vy}), 0, side)
        assert abs(inner_product(x, y).approx(n) - vx * vy) <= pow2(-n)


class TestInnerProduct:
    def test_basis_pairing(self, H):
        v = vec(H, {0: 1, 1: 1})
        assert abs(inner_product(v, basis_vector(H, 1)).approx(20) - 1) <= pow2(-20)

    def test_scaled_basis(self, H):
        x = vec(H, {0: F(1, 2)})
        y = vec(H, {0: F(1, 3)})
        assert abs(inner_product(x, y).approx(20) - F(1, 6)) <= pow2(-20)

    def test_orthogonal_rotation(self, H):
        x = vec(H, {0: F(3, 5), 2: F(4, 5)})
        y = vec(H, {0: F(4, 5), 2: F(-3, 5)})
        assert abs(inner_product(x, y).approx(30)) <= pow2(-30)

    def test_cauchy_schwarz(self, H):
        rng = random.Random(5)
        for _ in range(10):
            x = VectorName.from_combo(random_combo(rng, H))
            y = VectorName.from_combo(random_combo(rng, H))
            lhs = abs(inner_product(x, y).approx(30))
            rhs = creal_mul(vec_norm(x), vec_norm(y)).approx(30)
            assert lhs <= rhs + pow2(-28)

    def test_parallelogram_law(self, H):
        rng = random.Random(6)
        for _ in range(10):
            a = random_combo(rng, H)
            b = random_combo(rng, H)
            lhs = a.add(b).norm_squared() + a.sub(b).norm_squared()
            rhs = 2 * a.norm_squared() + 2 * b.norm_squared()
            assert abs(lhs - rhs) <= pow2(-28)


class TestNorm:
    def test_basis(self, H):
        assert abs(vec_norm(basis_vector(H, 3)).approx(20) - 1) <= pow2(-20)

    def test_pythagorean(self, H):
        v = vec(H, {0: F(3, 5), 1: F(4, 5)})
        assert abs(vec_norm(v).approx(25) - 1) <= pow2(-25)

    def test_zero(self, H):
        assert vec_norm(VectorName.zero(H)).approx(30) <= pow2(-30)


class TestRieszFunctional:
    def test_basis_functional(self, H):
        f = riesz_functional(basis_vector(H, 0), creal_from_rational(1))
        assert abs(f.eval(basis_vector(H, 0)).approx(20) - 1) <= pow2(-20)
        assert abs(f.eval(basis_vector(H, 1)).approx(20)) <= pow2(-20)
        assert f.opnorm.approx(20) == 1

    def test_weighted_functional(self, H):
        y = vec(H, {0: 1, 1: 2})
        f = riesz_functional(y, vec_norm(y))
        assert abs(f.eval(basis_vector(H, 1)).approx(20) - 2) <= pow2(-20)
        target = creal_sqrt(creal_from_rational(5)).approx(20)
        assert abs(f.opnorm.approx(20) - target) <= 2 * pow2(-20)

    def test_zero_functional(self, H):
        f = riesz_functional(VectorName.zero(H), creal_from_rational(0))
        assert abs(f.eval(vec(H, {4: 7})).approx(25)) <= pow2(-25)


class TestRieszRepresenter:
    def test_roundtrip(self, H):
        y = vec(H, {0: 1, 1: 2})
        rep = riesz_representer(riesz_functional(y, vec_norm(y)))
        assert vec_distance(rep, y).approx(30) <= pow2(-30)

    def test_zero(self, H):
        rep = riesz_representer(
            riesz_functional(VectorName.zero(H), creal_from_rational(0)))
        assert rep.approx(30).norm_squared() <= pow2(-58)

    def test_basis_case(self, H):
        e5 = basis_vector(H, 5)
        func = FunctionalName(H, lambda f: inner_product(f, e5),
                              creal_from_rational(1))
        rep = riesz_representer(func)
        assert vec_distance(rep, e5).approx(25) <= pow2(-25)

    def test_random_roundtrips(self, H):
        rng = random.Random(9)
        for _ in range(10):
            y = VectorName.from_combo(random_combo(rng, H))
            rep = riesz_representer(riesz_functional(y, vec_norm(y)))
            assert vec_distance(rep, y).approx(35) <= pow2(-30)

    def test_understated_norm_fails_loudly(self, H):
        y = vec(H, {0: 1, 1: 1})
        func = FunctionalName(H, lambda f: inner_product(f, y),
                              creal_from_rational(1))   # true norm sqrt(2)
        with pytest.raises(PrecisionExhaustionError):
            riesz_representer(func).approx(20)

    def test_overstated_total_hits_budget(self, H):
        func = FunctionalName(H, lambda f: inner_product(f, basis_vector(H, 0)),
                              creal_from_rational(2))   # true norm 1
        with pytest.raises(PrecisionExhaustionError,
                           match="not certified within 65536 terms"):
            riesz_representer(func).approx(0)


class TestVectorFromCoefficients:
    def test_finite_dimension_needs_no_certificate(self):
        K = SpaceDescriptor(dimension=3)
        v = vector_from_coefficients(
            K, lambda k: creal_from_rational(F(k + 1, 3)),
            creal_from_rational(0))   # total ignored for finite spaces
        got = v.approx(20)
        for k in range(3):
            assert abs(got.coeff(k) - F(k + 1, 3)) <= pow2(-18)

    def test_lazy_coordinates_are_snapped_to_a_dyadic_grid(self, H):
        # raw-rational coordinates (63/64)^k: kept whole, their
        # denominators grow to 6k bits and the vector at n = 32 to about
        # 25 million bits; snapped, it stays near 10^5 bits
        q = F(63, 64)
        v = vector_from_coefficients(
            H, lambda k: CReal(lambda n, k=k: q ** k),
            creal_from_rational(1 / (1 - q * q)))
        got = v.approx(32)
        bits = sum(c.numerator.bit_length() + c.denominator.bit_length()
                   for _, c in got.terms)
        assert bits <= 200_000
        assert all(c.denominator.bit_count() == 1 for _, c in got.terms)
        for k in (0, 100, 1000):
            assert abs(got.coeff(k) - q ** k) <= pow2(-32)


class TestExactClosure:
    @settings(max_examples=60, deadline=None)
    @given(values=exact_prefixes, claim=claims)
    def test_exact_claim_agrees_with_the_certified_path(self, values, claim):
        H = SpaceDescriptor()
        t = claimed_total(values, claim)
        coeff = lambda k: creal_from_rational(values.get(k, F(0)))
        exact_path = vector_from_coefficients(H, coeff, creal_from_rational(t))
        certified_path = vector_from_coefficients(H, coeff, CReal(lambda n: t))
        assert certified_path.exact_combo is None
        if claim[0] == "exact":
            assert exact_path.exact_combo == combo(H, values)
        assert_same_outcomes(exact_path, certified_path)

    def test_exact_coordinates_on_a_finite_space_give_an_exact_name(self):
        K = SpaceDescriptor(dimension=3)
        v = vector_from_coefficients(
            K, lambda k: creal_from_rational(F(k + 1, 3)), creal_from_rational(0))
        assert v.exact_combo == combo(K, {0: F(1, 3), 1: F(2, 3), 2: 1})

    def test_mass_past_a_met_claim_is_dropped_on_both_paths(self, H):
        values = {0: F(1), 5: F(1)}
        coeff = lambda k: creal_from_rational(values.get(k, F(0)))
        exact_path = vector_from_coefficients(H, coeff, creal_from_rational(1))
        certified_path = vector_from_coefficients(H, coeff, CReal(lambda n: F(1)))
        assert exact_path.exact_combo.to_text() == "0:1"
        for n in (0, 8, 32):
            assert certified_path.approx(n).to_text() == "0:1"

    def test_exact_norm_gives_an_exact_representer(self, H):
        y = vec(H, {1: 3, 6: -4})
        rep = riesz_representer(riesz_functional(y, creal_from_rational(5)))
        assert rep.exact_combo == y.exact_combo
        lazy = riesz_representer(riesz_functional(y, vec_norm(y)))
        assert lazy.exact_combo is None
        assert vec_distance(lazy, y).approx(30) <= pow2(-30)

    def test_exact_creal_coefficients_give_an_exact_combination(self, H):
        v = linear_combination(H, [(creal_from_rational(F(1, 3)), vec(H, {0: 3})),
                                   (F(2), vec(H, {0: 1, 4: F(1, 2)}))])
        assert v.exact_combo == combo(H, {0: 3, 4: 1})
        lazy = linear_combination(H, [(creal_sqrt(creal_from_rational(4)),
                                       vec(H, {0: 1}))])
        assert lazy.exact_combo is None
        assert abs(lazy.approx(20).coeff(0) - 2) <= pow2(-20)

    def test_exact_names_hold_no_memo(self, H):
        v = vec(H, {2: 5})
        assert v._memo is None
        assert v.approx(30) is v.exact_combo


# ---------------------------------------------------------------------------
# the integer form against plain Fractions: a combination is held as
# integer numerators over one common denominator, and every operation
# below must give, term for term, what Fraction arithmetic gives

_fractions = st.fractions(-20, 20, max_denominator=48)
_fraction_terms = st.dictionaries(st.integers(0, 7), _fractions, max_size=6)


def _ref(terms):
    """The canonical (index, Fraction) pairs of a dict of rationals."""
    return tuple(sorted((k, F(q)) for k, q in terms.items() if q))


def _ref_sum(pairs):
    acc = {}
    for c, terms in pairs:
        for k, q in terms.items():
            acc[k] = acc.get(k, F(0)) + c * q
    return _ref(acc)


def _ref_text(ref):
    return " ".join(f"{k}:{q.numerator}" if q.denominator == 1
                    else f"{k}:{q.numerator}/{q.denominator}" for k, q in ref)


def _assert_canonical(c):
    nums = [a for _, a in c._items]
    assert c._den > 0 and all(nums)
    assert [k for k, _ in c._items] == sorted({k for k, _ in c._items})
    assert math.gcd(c._den, *nums) == 1


class TestIntegerForm:
    @settings(max_examples=120, deadline=None)
    @given(x=_fraction_terms, y=_fraction_terms, q=_fractions,
           n=st.integers(0, 12))
    @example(x={0: F(1, 2), 3: F(3, 2), 5: F(-5, 8)}, y={}, q=F(0), n=0)
    def test_every_operation_matches_fractions(self, x, y, q, n):
        H = SpaceDescriptor()
        a, b = FiniteCombo(H, x), FiniteCombo(H, y)
        rx, ry = _ref(x), _ref(y)
        assert a.terms == rx and all(type(v) is F for _, v in a.terms)
        results = [a.add(b), a.sub(b), a.scale(q), a.rounded(n)]
        wants = [_ref_sum([(1, x), (1, y)]), _ref_sum([(1, x), (-1, y)]),
                 _ref_sum([(q, x)]),
                 _ref({k: F(round(v * 2 ** n), 2 ** n) for k, v in rx})]
        for got, want in zip(results, wants):
            _assert_canonical(got)
            assert got.terms == want
        dx, dy = dict(rx), dict(ry)
        assert a.inner(b) == sum((v * dy[k] for k, v in rx if k in dy), F(0))
        square = sum((v * v for _, v in rx), F(0))
        assert a.norm_squared() == square
        assert a.norm_upper() == math.isqrt(math.ceil(square)) + 1
        assert [a.coeff(k) for k in range(9)] == [dx.get(k, F(0))
                                                  for k in range(9)]
        assert a.to_text() == (_ref_text(rx) or "0")
        assert (a == b) == (rx == ry)
        assert a == FiniteCombo(H, dict(rx))
        assert hash(a) == hash((H.ident, rx))

    @settings(max_examples=80, deadline=None)
    @given(drawn=st.lists(st.tuples(_fractions, _fraction_terms),
                          min_size=1, max_size=5))
    def test_combo_sum_with_cancellation_matches_fractions(self, drawn):
        H = SpaceDescriptor()
        # the first pair again with its coefficient negated cancels it
        drawn = drawn + [(-drawn[0][0], drawn[0][1])]
        got = _combo_sum(H, [(c, FiniteCombo(H, t)) for c, t in drawn])
        _assert_canonical(got)
        assert got.terms == _ref_sum(drawn)
        assert got == _combo_sum(H, [(c, FiniteCombo(H, t))
                                     for c, t in drawn[1:-1]])

    @settings(max_examples=200, deadline=None)
    @given(q=st.fractions(-64, 64, max_denominator=1 << 20),
           n=st.integers(0, 40))
    @example(q=F(1, 2), n=0)       # ties go to the even neighbour
    @example(q=F(3, 2), n=0)
    @example(q=F(-5, 8), n=2)
    def test_dyadic_round_matches_fraction_round(self, q, n):
        assert dyadic_round(q, n) == F(round(q * 2 ** n), 2 ** n)

    @settings(max_examples=200, deadline=None)
    @given(q=st.fractions(0, 64, max_denominator=1 << 20),
           n=st.integers(0, 40))
    @example(q=F(1, 2), n=0)       # root 5 over 2: a tie
    def test_creal_sqrt_matches_root_then_round(self, q, n):
        # the former composition: the integer root as the lower end of a
        # 2^-(n+2) enclosure, then dyadic_round to the same grid
        root = math.isqrt(q.numerator * q.denominator << (2 * (n + 2)))
        lo = F(root, q.denominator << (n + 2))
        want = F(round(lo * 2 ** (n + 2)), 2 ** (n + 2))
        assert creal_sqrt(creal_from_rational(q)).approx(n) == want
        # a value read within 2^-(2n+4) below zero is the root of zero
        near = CReal(lambda m: -q * pow2(-m) / 65)
        assert creal_sqrt(near).approx(n) == 0

    @settings(max_examples=200, deadline=None)
    @given(t=st.fractions(0, 64, max_denominator=1 << 40).filter(bool))
    @example(t=F(1, 4))
    @example(t=F(1))
    @example(t=F(5, 16))
    def test_prec_for_is_the_smallest_precision_within(self, t):
        p = prec_for(t)
        assert pow2(-p) <= t and (p == 0 or pow2(-(p - 1)) > t)

    def test_creal_sqrt_refuses_a_provably_negative_value(self):
        with pytest.raises(NegativeInputError):
            creal_sqrt(CReal(lambda m: -pow2(-m) - pow2(-2 * m))).approx(3)
        assert creal_sqrt(CReal(lambda m: -pow2(-m))).approx(3) == 0


# residuals for the tail cut at allowance A and precision p: exactly on
# either edge of creal_compare's margin 2^-(p+1), just past it, or anywhere
_residual_kinds = st.sampled_from(["upper edge", "past upper", "lower edge",
                                   "past lower", "inside", "free"])


def _residual(kind, allowance, free):
    m = pow2(-(prec_for(allowance) + 1))
    return {"upper edge": allowance + m,
            "past upper": allowance + m + m / 7,
            "lower edge": -allowance - m,
            "past lower": -allowance - m - m / 7,
            "inside": allowance * free / 20,
            "free": free}[kind]


def _refuse(*args):
    raise AssertionError("an exact cut called creal_compare")


def _cut_outcome(total, partial_at, theta, limit):
    try:
        return certified_tail_cut(total, partial_at, theta, limit, what="w")
    except PrecisionExhaustionError as exc:
        return str(exc)


def _compare_walk(total, partial_at, theta, limit):
    """The former certified_tail_cut: both verdicts from creal_compare."""
    count = 4
    while count <= limit:
        allowance = theta(count)
        p = prec_for(allowance)
        t = creal_sub(total, partial_at(count))
        if creal_compare(t, creal_from_rational(allowance),
                         p) is not Comparison.GREATER_CERTAIN:
            if creal_compare(t, creal_from_rational(-allowance),
                             p) is Comparison.LESS_CERTAIN:
                return (f"w: claimed total understates the data "
                        f"(certificate provably negative by index {count})")
            return count
        count *= 2
    return f"w: not certified within {limit} terms"


class TestExactTailCut:
    """certified_tail_cut decides exact operands by integer
    cross-multiplication; its verdicts are creal_compare's."""

    @settings(max_examples=200, deadline=None)
    @given(total=st.fractions(-4, 4, max_denominator=1 << 12),
           steps=st.lists(st.tuples(st.integers(0, 40), st.booleans(),
                                    _residual_kinds,
                                    st.fractions(-20, 20, max_denominator=9)),
                          min_size=1, max_size=5))
    def test_exact_verdicts_are_creal_compares(self, total, steps):
        # per doubling count: an allowance 2^-a or 3/5 2^-a, and the
        # partial sum that leaves the drawn residual
        counts = [4 << i for i in range(len(steps))]
        allowance, partial = {}, {}
        for count, (a, dyadic, kind, free) in zip(counts, steps):
            allowance[count] = pow2(-a) * (1 if dyadic else F(3, 5))
            partial[count] = total - _residual(kind, allowance[count], free)
        args = (creal_from_rational(total),
                lambda count: creal_from_rational(partial[count]),
                allowance.__getitem__, counts[-1])
        want = _compare_walk(*args)
        # the exact operands never reach creal_compare
        with mock.patch.object(realcore, "creal_compare", _refuse):
            assert _cut_outcome(*args) == want

    def test_edges_decide_as_creal_compare_does(self):
        # residual - allowance exactly 2^-(p+1) is within: the cut stops;
        # residual + allowance exactly -2^-(p+1) is within: it stops too
        A = pow2(-10)
        one = creal_from_rational(1)
        for residual, want in ((A + pow2(-11), 4), (-A - pow2(-11), 4),
                               (-A - pow2(-11) - pow2(-40), None)):
            got = _cut_outcome(one, lambda count: creal_from_rational(
                1 - residual), lambda _: A, 4)
            if want is None:
                assert "claimed total understates the data" in got
            else:
                assert got == want
        past = _cut_outcome(one, lambda count: creal_from_rational(
            1 - (A + pow2(-11) + pow2(-40))), lambda _: A, 4)
        assert past == "w: not certified within 4 terms"

