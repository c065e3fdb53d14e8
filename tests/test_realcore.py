import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactframes import (
    Comparison,
    CRealSeq,
    InvariantViolationError,
    NegativeInputError,
    PrecisionExhaustionError,
    SpeckerData,
    creal_abs,
    creal_add,
    creal_compare,
    creal_from_rational,
    creal_limit,
    creal_mul,
    creal_scale,
    creal_sqrt,
    creal_sub,
    creal_sum,
    format_rational,
    pairing,
    parse_rational,
    unpairing,
)
from exactframes.realcore import (
    ONE,
    CReal,
    PrefixSums,
    _exact_prefix_count,
    bits_for,
    ceil_int,
    certified_tail_cut,
    dyadic_round,
    pow2,
    prec_for,
)

from conftest import adversarial_leaves, finishes, off_by_one_unit_real

F = Fraction


def within(value, target, n):
    return abs(value - F(target)) <= pow2(-n)


class TestRationalWire:
    def test_parse_plain_and_fraction(self):
        assert parse_rational("7/2") == F(7, 2)
        assert parse_rational("-3") == F(-3)
        assert parse_rational("0") == 0

    @pytest.mark.parametrize("bad", ["0.5", "1/0", "1/-2", "+3", "3 / 2", "1e3"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @settings(max_examples=200, deadline=None)
    @given(text=st.from_regex(r"-?[0-9]+(/[1-9][0-9]*)?", fullmatch=True))
    def test_equals_fraction_on_the_grammar(self, text):
        got = parse_rational(text)
        assert type(got) is Fraction and got == Fraction(text)

    @pytest.mark.parametrize("bad", ["1.5", "+1", "1/0", "\u0663", "1_0",
                                     " 1", "3\n"])
    def test_rejects_what_fraction_would_take(self, bad):
        with pytest.raises(ValueError, match="^not a rational literal"):
            parse_rational(bad)

    def test_format_roundtrip(self):
        for q in (F(7, 2), F(-3), F(0), F(-11, 13)):
            assert parse_rational(format_rational(q)) == q


class TestHelpers:
    def test_dyadic_round_error(self):
        q = F(1, 3)
        for n in (0, 5, 17):
            assert abs(dyadic_round(q, n) - q) <= pow2(-(n + 1))

    def test_bits_for(self):
        assert bits_for(F(0)) == 0
        assert bits_for(F(1)) == 0
        assert bits_for(F(4)) == 2
        assert bits_for(F(5)) == 3

    def test_ceil_and_prec(self):
        assert ceil_int(F(7, 2)) == 4
        assert ceil_int(F(-7, 2)) == -3
        assert pow2(-prec_for(F(1, 1000))) <= F(1, 1000)


class TestConstants:
    def test_constant_oracle_third(self):
        assert creal_from_rational(F(1, 3)).approx(10) == F(1, 3)

    def test_constant_zero(self):
        assert creal_from_rational(0).approx(50) == 0

    def test_constant_negative(self):
        assert creal_from_rational(F(-7, 2)).approx(0) == F(-7, 2)

    def test_exact_constant_holds_no_memo(self):
        q = F(1, 3)
        x = creal_from_rational(q)
        assert x.exact_value is q
        assert x._memo is None
        assert x.approx(40) is q
        assert repr(x) == "CReal(1/3)"
        assert creal_from_rational(2).exact_value == 2


class TestArithmetic:
    def test_add_thirds(self):
        s = creal_add(creal_from_rational(F(1, 3)), creal_from_rational(F(1, 6)))
        assert within(s.approx(20), F(1, 2), 20)

    def test_mul_integers(self):
        p = creal_mul(creal_from_rational(2), creal_from_rational(3))
        assert within(p.approx(10), 6, 10)

    def test_mul_sqrt2_squared(self):
        r = creal_sqrt(creal_from_rational(2))
        assert within(creal_mul(r, r).approx(30), 2, 30)

    def test_sub_scale_abs(self):
        x = creal_from_rational(F(5, 7))
        y = creal_from_rational(F(9, 7))
        assert within(creal_sub(x, y).approx(25), F(-4, 7), 25)
        assert within(creal_scale(F(-3, 2), x).approx(25), F(-15, 14), 25)
        assert within(creal_abs(creal_sub(x, y)).approx(25), F(4, 7), 25)

    def test_soundness_on_random_rationals(self):
        rng = random.Random(7)
        for _ in range(50):
            p = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            q = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            cp, cq = creal_from_rational(p), creal_from_rational(q)
            assert within(creal_add(cp, cq).approx(40), p + q, 40)
            assert within(creal_sub(cp, cq).approx(40), p - q, 40)
            assert within(creal_mul(cp, cq).approx(40), p * q, 40)

    def test_sum_flat(self):
        parts = [creal_from_rational(F(1, k)) for k in range(1, 9)]
        assert within(creal_sum(parts).approx(30), sum(F(1, k) for k in range(1, 9)), 30)


class TestSqrt:
    def test_four(self):
        assert within(creal_sqrt(creal_from_rational(4)).approx(20), 2, 20)

    def test_zero(self):
        assert within(creal_sqrt(creal_from_rational(0)).approx(40), 0, 40)

    def test_two_encloses(self):
        r = creal_sqrt(creal_from_rational(2)).approx(10)
        # |r - sqrt(2)| <= 2^-10, checked exactly by squaring
        assert (r + pow2(-10)) ** 2 >= 2
        assert (r - pow2(-10)) ** 2 <= 2

    def test_negative_input_reported(self):
        with pytest.raises(NegativeInputError):
            creal_sqrt(creal_from_rational(-1)).approx(5)


class TestLimit:
    def test_dyadic_tail(self):
        xs = CRealSeq(lambda k: creal_from_rational(1 - pow2(-k)))
        lim = creal_limit(xs, lambda n: n + 1)
        assert within(lim.approx(10), 1, 10)

    def test_constant_sequence(self):
        xs = CRealSeq(lambda k: creal_from_rational(5))
        assert within(creal_limit(xs, lambda n: 0).approx(20), 5, 20)

    def test_geometric_partial_sums(self):
        xs = CRealSeq(lambda k: creal_from_rational(
            sum(F(1, 4 ** i) for i in range(k))))
        lim = creal_limit(xs, lambda n: n + 2)
        assert within(lim.approx(20), F(4, 3), 20)


class TestLimitContractViolation:
    def test_bad_modulus_yields_inconsistent_name(self):
        # a modulus that lies about convergence is not detected at call
        # time; the damage surfaces in the pairwise consistency check
        xs = CRealSeq(lambda k: creal_from_rational(F(k)))   # divergent
        lim = creal_limit(xs, lambda n: n)
        a, b = lim.approx(1), lim.approx(20)
        assert abs(a - b) > pow2(-1) + pow2(-20)


# each operation over the leaves xs and a rational q, and its exact value
# over the leaves' values vs
_OVER_LEAVES = {
    "creal_add": (lambda xs, q: creal_add(xs[0], xs[1]),
                  lambda vs, q: vs[0] + vs[1]),
    "creal_scale": (lambda xs, q: creal_scale(q, xs[0]),
                    lambda vs, q: q * vs[0]),
    "creal_mul": (lambda xs, q: creal_mul(xs[0], xs[1]),
                  lambda vs, q: vs[0] * vs[1]),
    "creal_sum": (lambda xs, q: creal_sum(xs), lambda vs, q: sum(vs)),
}


class TestAdversarialLeaves:
    """Leaves whose answers are off by their whole 2^-m budget, on a drawn
    side: an operation that reads them with too little margin shows it."""

    @pytest.mark.parametrize("op", list(_OVER_LEAVES))
    @settings(max_examples=200, deadline=None)
    @given(leaves=st.lists(adversarial_leaves, min_size=2, max_size=5),
           q=st.fractions(-9, 9, max_denominator=7), n=st.integers(0, 40))
    def test_stays_within_the_bound(self, op, leaves, q, n):
        build, value = _OVER_LEAVES[op]
        xs = [off_by_one_unit_real(v, side) for v, side in leaves]
        want = value([v for v, _ in leaves], q)
        assert within(build(xs, q).approx(n), want, n)

    def test_creal_mul_near_its_magnitude_bound(self):
        # creal_mul bounds |x~| + |y| by m = ceil|x_0| + ceil|y_0| + 3 and
        # reads at n + 2 + bits(m).  Operands of 20 to 64 that sum to just
        # under 61 or 62 put that sum close to 2^bits(m), so reading two
        # bits short spends the whole budget before the final rounding.
        for d in (3, 5, 7):
            for a in range(20 * d, 64 * d + 1):
                x = F(a, d)
                for y in (F(61 * d - a, d), F(62 * d - a - 1, d)):
                    if not 20 <= y <= 64:
                        continue
                    for side in (-1, 1):
                        xs = off_by_one_unit_real(x, side)
                        ys = off_by_one_unit_real(y, side)
                        for n in range(4):
                            assert within(creal_mul(xs, ys).approx(n), x * y, n)

    def test_creal_sum_of_15_leaves_off_on_one_side(self):
        # 15 leaves read at n + s, s = bits(15) = 4, would err by
        # (15/16) 2^-n together, and rounding to 2^-(n+2) adds up to
        # 2^-(n+3) more on the same side
        for d in (3, 7):
            for j in range(-14, 15):
                for side in (-1, 1):
                    xs = [off_by_one_unit_real(F(j, d), side) for _ in range(15)]
                    for n in range(8):
                        assert within(creal_sum(xs).approx(n), 15 * F(j, d), n)


class TestDeepChains:
    def test_a_chain_of_300_lazy_sums_evaluates(self):
        # each level keeps approx and its oracle on the stack; reading the
        # memo through _Memo.lookup would add two frames per level and pass
        # the default recursion limit here
        leaf = CReal(lambda n: F(1, 3))
        x = leaf
        for _ in range(300):
            x = creal_add(x, leaf)
        assert within(x.approx(8), F(301, 3), 8)


class TestRepr:
    def test_repr_never_forces_evaluation(self):
        calls = []

        def fn(n):
            calls.append(n)
            return F(0)

        from exactframes import CReal
        x = CReal(fn)
        repr(x)
        assert calls == []
        x.approx(3)
        assert "@" in repr(x)


class TestCompare:
    def test_strict_less(self):
        r = creal_compare(creal_from_rational(0), creal_from_rational(1), 5)
        assert r is Comparison.LESS_CERTAIN

    def test_tie_is_within(self):
        x = creal_from_rational(F(1, 3))
        assert creal_compare(x, x, 20) is Comparison.WITHIN

    def test_sqrt2_below_three_halves(self):
        r = creal_compare(creal_sqrt(creal_from_rational(2)),
                          creal_from_rational(F(3, 2)), 10)
        assert r is Comparison.LESS_CERTAIN

    def test_within_is_sound(self):
        x = creal_from_rational(0)
        y = creal_from_rational(pow2(-30))
        verdict = creal_compare(x, y, 10)
        assert verdict is Comparison.WITHIN


class TestConsistency:
    def test_pairwise_consistency_across_operations(self):
        rng = random.Random(11)
        values = []
        for _ in range(25):
            a = creal_from_rational(F(rng.randint(-99, 99), rng.randint(1, 99)))
            b = creal_from_rational(F(rng.randint(-99, 99), rng.randint(1, 99)))
            values.extend([
                creal_add(a, b), creal_mul(a, b),
                creal_sqrt(creal_mul(a, a)), creal_abs(creal_sub(a, b)),
            ])
        grid = [0, 3, 9, 17, 27, 40]
        for x in values:
            approx = {n: x.approx(n) for n in grid}
            for n in grid:
                for m in grid:
                    assert abs(approx[n] - approx[m]) <= pow2(-n) + pow2(-m)


class TestSpecker:
    def test_partial_sums_examples(self):
        s = SpeckerData.from_prefix([1, 3])
        assert s.sum_of_squares(0) == 0
        assert s.sum_of_squares(1) == F(1, 16)
        assert s.sum_of_squares(2) == F(17, 256)

    def test_monotone_and_bounded(self):
        s = SpeckerData(lambda i: 2 * i)
        prev = F(-1)
        for n in range(12):
            cur = s.sum_of_squares(n)
            assert prev < cur or (n == 0 and cur == 0)
            assert cur < F(1, 3)
            prev = cur

    def test_injectivity_enforced(self):
        s = SpeckerData(lambda i: 5)
        s.exponent(0)
        with pytest.raises(InvariantViolationError):
            s.exponent(1)

    def test_truncated_terms_vanish(self):
        s = SpeckerData.from_prefix([0])
        assert s.term(0) == F(1, 2)
        assert s.term(1) == 0
        assert s.term(100) == 0

    def test_enumerator_may_read_earlier_values(self):
        s = SpeckerData(lambda k: 1 if k == 0 else s.exponent(k - 1) + 2)
        assert finishes(lambda: s.exponent(3))
        assert [s.exponent(k) for k in range(4)] == [1, 3, 5, 7]
        assert s.sum_of_squares(2) == F(17, 256)

    def test_negative_index_raises(self):
        s = SpeckerData.from_prefix([1, 3, 2])
        s.exponent(2)
        with pytest.raises(ValueError):
            s.exponent(-1)
        with pytest.raises(ValueError):
            s.term(-1)
        with pytest.raises(ValueError):
            s.sum_of_squares(-1)
        with pytest.raises(ValueError):
            s.sum_of_terms(-1)

    def test_nothing_is_stored_past_the_prefix(self):
        # a gate that overstates the mass walks its cut out to 2^(n+16)
        # terms; past the prefix each count must cost no memory
        s = SpeckerData.from_prefix([1, 3])
        assert s.sum_of_squares(1 << 40) == F(17, 256)
        assert s.sum_of_terms(1 << 40) == F(5, 16)
        assert s.exponent(1 << 40) is None and s.term(1 << 40) == 0
        assert len(s._values) == 2
        assert len(s._sq_prefix) == len(s._l1_prefix) == 3

    def test_a_prefix_is_checked_whole(self):
        # from_prefix at once; a lazy enumerator by a read past its length
        with pytest.raises(InvariantViolationError,
                           match="repeats value 1 at indices 0 and 2"):
            SpeckerData.from_prefix([1, 2, 1])
        s = SpeckerData([1, 2, 1].__getitem__, length=3)
        with pytest.raises(InvariantViolationError,
                           match="repeats value 1 at indices 0 and 2"):
            s.term(7)


class TestPairing:
    def test_examples(self):
        assert pairing(0, 0) == 0
        assert pairing(1, 0) == 1
        assert pairing(0, 1) == 2

    def test_roundtrip_byte_square(self):
        for i in range(256):
            for j in range(256):
                assert unpairing(pairing(i, j)) == (i, j)

    def test_surjective_prefix(self):
        seen = {unpairing(k) for k in range(210)}
        assert len(seen) == 210


class TestCertifiedTailCut:
    def test_understated_total_detected(self):
        total = creal_from_rational(F(1, 2))
        partial = lambda count: creal_from_rational(F(1))
        with pytest.raises(PrecisionExhaustionError):
            certified_tail_cut(total, partial, lambda _: pow2(-20), 1 << 10)

    def test_budget_overrun_detected(self):
        total = creal_from_rational(F(2))
        partial = lambda count: creal_from_rational(F(1))
        with pytest.raises(PrecisionExhaustionError):
            certified_tail_cut(total, partial, lambda _: pow2(-20), 16)

    def test_converging_partials_accepted(self):
        total = creal_from_rational(F(1))
        partial = lambda count: creal_from_rational(1 - pow2(-count))
        cut = certified_tail_cut(total, partial, lambda _: pow2(-10), 1 << 20)
        assert pow2(-cut) <= 2 * pow2(-10)

    def test_no_partial_past_the_limit(self):
        asked = []

        def partial(count):
            asked.append(count)
            return creal_from_rational(F(1))

        with pytest.raises(PrecisionExhaustionError,
                           match="^tail certificate: not certified within 64 terms$"):
            certified_tail_cut(creal_from_rational(F(2)), partial,
                               lambda _: pow2(-20), 64)
        assert asked == [4, 8, 16, 32, 64]

    def test_allowance_read_per_count(self):
        # a tail of 2^-count against the shrinking allowance
        # 2^-(count/2 + 5): held at its value for count 4 the walk would
        # stop at 8, read per count it goes on to 16
        total = creal_from_rational(F(1))
        partial = lambda count: creal_from_rational(1 - pow2(-count))
        read = []

        def theta(count):
            read.append(count)
            return pow2(-(count // 2 + 5))

        assert certified_tail_cut(total, partial, theta, 1 << 20) == 16
        assert read == [4, 8, 16]
        assert certified_tail_cut(total, partial, lambda _: pow2(-7),
                                  1 << 20) == 8


def _never_evaluated(n):
    raise AssertionError("the exact walk evaluated a name")


class TestExactPrefixCount:
    @staticmethod
    def _partials(values):
        """count -> exact sum of values[:count], recording the counts asked."""
        asked = []

        def partial(count):
            asked.append(count)
            return creal_from_rational(sum(values[:count], F(0)))

        return partial, asked

    def test_first_doubling_count_that_meets_the_total(self):
        partial, asked = self._partials([F(1)] * 6)
        assert _exact_prefix_count(creal_from_rational(F(6)), partial) == 8
        assert asked == [4, 8]

    def test_mass_past_the_count_is_not_seen(self):
        # a false claim met early: the certified cut stops at 4 as well
        values = [F(1)] + [F(0)] * 4 + [F(1)]
        partial, _ = self._partials(values)
        assert _exact_prefix_count(creal_from_rational(F(1)), partial) == 4

    def test_lazy_total_is_left_alone(self):
        partial, asked = self._partials([F(1)])
        assert _exact_prefix_count(CReal(_never_evaluated), partial) is None
        assert asked == []

    def test_lazy_partial_gives_up(self):
        assert _exact_prefix_count(creal_from_rational(F(1)),
                                   lambda count: CReal(_never_evaluated)) is None

    def test_partial_above_the_total_gives_up(self):
        partial, asked = self._partials([F(1)] * 6)
        assert _exact_prefix_count(creal_from_rational(F(5)), partial) is None
        assert asked == [4, 8]

    def test_overstated_total_stops_at_the_cap(self):
        partial, asked = self._partials([F(1)])
        assert _exact_prefix_count(creal_from_rational(F(2)), partial) is None
        assert asked == [4, 8, 16, 32, 64]


class TestCRealSeq:
    def test_term_may_read_earlier_terms(self):
        s = CRealSeq(lambda i: ONE if i == 0 else creal_add(s.at(i - 1), ONE))
        assert finishes(lambda: s.at(1))
        assert s.at(3).approx(10) == 4


_term_specs = st.lists(st.tuples(st.fractions(0, 8, max_denominator=32),
                                 st.booleans()), min_size=1, max_size=12)


class TestPrefixSums:
    @staticmethod
    def _terms(specs):
        """Exact terms q, or lazy terms sqrt(q) where the flag is set."""
        return [creal_sqrt(creal_from_rational(q)) if lazy
                else creal_from_rational(q) for q, lazy in specs]

    @settings(max_examples=50, deadline=None)
    @given(specs=_term_specs)
    def test_equals_creal_sum_and_computes_each_term_once(self, specs):
        terms = self._terms(specs)
        calls = [0] * len(terms)

        def term(i):
            calls[i] += 1
            return terms[i]

        sums = PrefixSums()
        for p in (0, 9, 40, 3, 70):
            for count in range(len(terms) + 1):
                got = sums.upto(count, term)
                assert got.approx(p) == creal_sum(terms[:count]).approx(p)
        assert calls == [1] * len(terms)

    @pytest.mark.parametrize("lazy", [False, True], ids=["exact", "lazy"])
    def test_exact_prefix_stays_exact(self, lazy):
        specs = [(F(1, 3), False), (F(2), lazy), (F(1, 4), False)]
        sums = PrefixSums()
        term = lambda i: self._terms(specs)[i]
        assert sums.upto(1, term).exact_value == F(1, 3)
        assert (sums.upto(3, term).exact_value is None) == lazy

    def test_term_may_read_earlier_partial_sums(self):
        sums = PrefixSums()

        def term(i):
            return ONE if i == 0 else sums.upto(i, term)

        assert finishes(lambda: sums.upto(4, term))
        assert sums.upto(4, term).exact_value == 8
