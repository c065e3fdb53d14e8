import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactframes import (
    FiniteCombo,
    PrecisionExhaustionError,
    SpaceDescriptor,
    SpeckerData,
    VectorName,
    analysis,
    basis_vector,
    column_lower_adjoint,
    column_lower_operator,
    gated_adjoint,
    gated_dual_tau,
    inner_product,
    remark_frame_operator,
    synthesis,
    toeplitz_upper_gframe,
    upper_u_operator,
    linear_combination,
    vec_distance,
    vec_norm,
)
from exactframes.gallery import _effective_prefix
from exactframes.suites import _forward_substitution_inverse
from exactframes.realcore import (
    Comparison,
    _term_limit,
    bits_for,
    creal_compare,
    creal_from_rational,
    creal_sub,
    pow2,
    prec_for,
)

from conftest import combo, vec

F = Fraction


@pytest.fixture
def truncated():
    # terms a_1 = 1/4, a_2 = 1/16; squared mass 17/256
    s = SpeckerData.from_prefix([1, 3])
    return s, creal_from_rational(F(17, 256))


@pytest.fixture
def single():
    s = SpeckerData.from_prefix([1])
    return s, creal_from_rational(F(1, 16))


@pytest.fixture
def empty():
    return SpeckerData.from_prefix([]), creal_from_rational(F(0))


def inverse_column(terms, depth):
    """Independent oracle: forward substitution against the unit
    lower-triangular band matrix, i.e. the reciprocal convolution."""
    def a(k):
        return terms[k - 1] if 1 <= k <= len(terms) else F(0)

    bs = [F(1)]
    for m in range(1, depth):
        bs.append(-sum(a(l) * bs[m - l] for l in range(1, m + 1)))
    return bs


class TestUpperOperator:
    def test_shifts_mass_up(self, H, truncated):
        s, _ = truncated
        U = upper_u_operator(H, s)
        out = U.apply(basis_vector(H, 1)).approx(25)
        assert out == combo(H, {0: F(1, 4), 1: 1})

    def test_zero(self, H, truncated):
        s, _ = truncated
        U = upper_u_operator(H, s)
        assert U.apply(VectorName.zero(H)).approx(25).is_zero()

    def test_empty_terms_identity(self, H, empty):
        s, _ = empty
        U = upper_u_operator(H, s)
        e5 = basis_vector(H, 5)
        assert U.apply(e5).approx(25) == combo(H, {5: 1})

    def test_operator_invariants_without_gate(self, H, truncated):
        s, _ = truncated
        U = upper_u_operator(H, s)
        f = vec(H, {0: F(1, 3), 2: F(-2), 7: F(5, 8)})
        out = U.apply(f)
        grid = [0, 8, 20, 33]
        at = {n: out.approx(n) for n in grid}
        for n in grid:
            for m in grid:
                bound = pow2(-n) + pow2(-m)
                assert at[n].sub(at[m]).norm_squared() <= bound * bound
        lhs = U.apply(linear_combination(
            H, [(F(2), f), (F(1, 2), basis_vector(H, 1))]))
        rhs = linear_combination(
            H, [(F(2), U.apply(f)), (F(1, 2), U.apply(basis_vector(H, 1)))])
        assert vec_distance(lhs, rhs).approx(25) <= pow2(-25)
        norm_out = vec_norm(out).approx(20)
        norm_in = vec_norm(f).approx(20)
        assert norm_out <= 3 * norm_in + pow2(-18)

    def test_lower_toeplitz_synthesis_matches(self, H, truncated):
        s, _ = truncated
        T = upper_u_operator(H, s)
        out = T.apply(basis_vector(H, 1)).approx(25)
        assert out == combo(H, {0: F(1, 4), 1: 1})


class TestColumnLowerAdjoint:
    def test_gathers_terms_into_row_zero(self, H, truncated):
        s, _ = truncated
        A = column_lower_adjoint(H, s)
        out = A.apply(vec(H, {1: 1, 2: 1})).approx(25)
        assert out == combo(H, {0: F(1, 4) + F(1, 16), 1: 1, 2: 1})

    def test_identity_off_column(self, H, truncated):
        s, _ = truncated
        A = column_lower_adjoint(H, s)
        out = A.apply(basis_vector(H, 0)).approx(25)
        assert out == combo(H, {0: 1})


class TestGatedAdjoint:
    def test_first_column_exact(self, H, truncated):
        s, gate = truncated
        A = gated_adjoint(H, s, gate)
        out = A.apply(basis_vector(H, 0)).approx(30)
        want = combo(H, {0: 1, 1: F(1, 4), 2: F(1, 16)})
        assert out.sub(want).norm_squared() <= pow2(-60)

    def test_shifted_column(self, H, truncated):
        s, gate = truncated
        A = gated_adjoint(H, s, gate)
        out = A.apply(basis_vector(H, 2)).approx(30)
        want = combo(H, {2: 1, 3: F(1, 4), 4: F(1, 16)})
        assert out.sub(want).norm_squared() <= pow2(-60)

    def test_loaded_column_direction(self, H, truncated):
        s, gate = truncated
        A = column_lower_operator(H, s, gate)
        out = A.apply(basis_vector(H, 0)).approx(30)
        want = combo(H, {0: 1, 1: F(1, 4), 2: F(1, 16)})
        assert out.sub(want).norm_squared() <= pow2(-60)

    def test_empty_terms_identity_with_zero_gate(self, H, empty):
        s, gate = empty
        A = gated_adjoint(H, s, gate)
        assert A.apply(basis_vector(H, 3)).approx(30) == combo(H, {3: 1})

    def test_understated_gate_fails_loudly(self, H, truncated):
        s, _ = truncated
        A = gated_adjoint(H, s, creal_from_rational(F(0)))
        with pytest.raises(PrecisionExhaustionError):
            A.apply(basis_vector(H, 0)).approx(25)


class TestGatedDualTau:
    def test_empty_terms_identity(self, H, empty):
        s, gate = empty
        tau = gated_dual_tau(H, s, gate)
        e0 = basis_vector(H, 0)
        assert vec_distance(tau.op(0).apply(e0), e0).approx(30) <= pow2(-30)

    def test_single_term_matches_inverse_oracle(self, H, single):
        # the genuine dual column carries second-order terms:
        # (1, -1/4, 1/16, -1/64, ...), not just (1, -1/4)
        s, gate = single
        tau = gated_dual_tau(H, s, gate)
        got = tau.op(0).apply(basis_vector(H, 0)).approx(30)
        bs = inverse_column([F(1, 4)], 80)
        want = combo(H, {m: b for m, b in enumerate(bs)})
        assert got.sub(want).norm_squared() <= pow2(-56)
        assert abs(got.coeff(1) + F(1, 4)) <= pow2(-28)
        assert abs(got.coeff(2) - F(1, 16)) <= pow2(-28)

    def test_two_terms_match_inverse_oracle(self, H, truncated):
        s, gate = truncated
        tau = gated_dual_tau(H, s, gate)
        bs = inverse_column([F(1, 4), F(1, 16)], 100)
        for j in (0, 1):
            got = tau.op(0).apply(basis_vector(H, j)).approx(30)
            want = combo(H, {m + j: b for m, b in enumerate(bs)})
            assert got.sub(want).norm_squared() <= pow2(-56)

    def test_reconstruction(self, H, single):
        s, gate = single
        tau = gated_dual_tau(H, s, gate)
        G, norms = toeplitz_upper_gframe(H, s, gate, F(1, 4), F(4))

        def ao_tau(f):
            out = tau.op(0).apply(f)
            return inner_product(out, out)

        syn = synthesis(G, norms)
        ana = analysis(tau, ao_tau)
        for terms in ({1: 1}, {0: F(1, 2), 3: F(-1, 3)}):
            f = vec(H, terms)
            u = syn.apply(ana.apply(f).in_space(G.sum_space()))
            assert vec_distance(u, f).approx(25) <= pow2(-25)

    def test_understated_gate_rejected_at_construction(self, H, truncated):
        s, _ = truncated
        with pytest.raises(PrecisionExhaustionError):
            gated_dual_tau(H, s, creal_from_rational(F(1, 256)))


def _fraction_reciprocal(s, cut, upto):
    """The reciprocal convolution coefficients as a plain Fraction
    recurrence: b_0 = 1, b_m = - sum over l <= cut of a_l b_(m-l)."""
    nonzero = [(l, s.term(l - 1)) for l in range(1, cut + 1) if s.term(l - 1)]
    bs = [F(1)]
    for m in range(1, upto + 1):
        acc = F(0)
        for l, a in nonzero:
            if l > m:
                break
            acc += a * bs[m - l]
        bs.append(-acc)
    return bs


def test_effective_prefix_reads_no_term_past_the_limit():
    asked = []

    def enum(k):
        asked.append(k)
        return None

    overstated = creal_from_rational(F(1))      # every term is zero
    with pytest.raises(PrecisionExhaustionError,
                       match="^norm gate: not certified within 64 terms$"):
        _effective_prefix(SpeckerData(enum), overstated, F(1, 16), 64)
    assert max(asked) == 63


def _allowance(s, budget, count):
    margin = 1 - s.sum_of_terms(count)
    target_l1 = min(margin / 2, budget * margin * margin / 2)
    return (target_l1 / 3) ** 2


def _walked_prefix(s, gate, budget, limit):
    """The gated dual's cut as a doubling walk of its own, as it stood
    before it became a certified_tail_cut: the reference that
    _effective_prefix must match count for count."""
    count = 4
    while True:
        if count > limit:
            raise PrecisionExhaustionError("past the limit")
        sigma = s.sum_of_terms(count)
        eps = _allowance(s, budget, count)
        p = prec_for(eps)
        residual = creal_sub(gate,
                             creal_from_rational(s.sum_of_squares(count)))
        verdict = creal_compare(residual, creal_from_rational(eps), p)
        if verdict is not Comparison.GREATER_CERTAIN:
            if creal_compare(residual, creal_from_rational(-eps),
                             p) is Comparison.LESS_CERTAIN:
                raise PrecisionExhaustionError("understated")
            return count, sigma
        count *= 2


def _cut_or_exhausted(prefix, *args):
    try:
        return prefix(*args)
    except PrecisionExhaustionError:
        return PrecisionExhaustionError


# a gap of 2^-k, or a multiple of the allowance once every term is kept,
# where the verdicts turn
_gaps = st.one_of(st.integers(1, 200).map(lambda k: ("power", k)),
                  st.fractions(F(1, 4), 4, max_denominator=8).map(
                      lambda r: ("allowance", r)))


@settings(max_examples=300, deadline=None)
@given(exponents=st.lists(st.integers(0, 12), min_size=1, max_size=6,
                          unique=True),
       claim=st.sampled_from([0, -1, 1]), gap=_gaps, b=st.integers(4, 40),
       limit=st.sampled_from([64, _term_limit(8)]))
def test_effective_prefix_matches_the_walk_it_replaced(exponents, claim, gap,
                                                        b, limit):
    s = SpeckerData.from_prefix(exponents)
    budget = pow2(-b)
    kind, x = gap
    size = pow2(-x) if kind == "power" else x * _allowance(s, budget, 8)
    if claim > 0 and limit > 64:
        # an overstatement that never closes walks to the limit, too far
        # for a test past 64 terms; every budget closes one of 2^-111,
        # since margin >= 1/64 makes eps >= (2^-53 / 3)^2 > 2^-110
        size = min(size, pow2(-111))
    gate = creal_from_rational(s.sum_of_squares(len(exponents)) + claim * size)
    args = (s, gate, budget, limit)
    assert (_cut_or_exhausted(_effective_prefix, *args)
            == _cut_or_exhausted(_walked_prefix, *args))


def _fraction_forward_substitution(rows):
    """The Fraction form of criterion 7's reference inverse."""
    size = len(rows)
    inv = [[F(0)] * size for _ in range(size)]
    for j in range(size):
        inv[j][j] = F(1)
        for i in range(j + 1, size):
            acc = F(0)
            for k in range(j, i):
                acc += rows[i][k] * inv[k][j]
            inv[i][j] = -acc
    return inv


@settings(max_examples=100, deadline=None)
@given(size=st.integers(0, 9), data=st.data())
def test_forward_substitution_reference_matches_fraction_form(size, data):
    entries = st.one_of(st.just(F(0)), st.fractions(-4, 4, max_denominator=20),
                        st.sampled_from([F(1, 4), F(1, 16), F(-1, 1 << 30)]))
    # entries above the diagonal are drawn too: both forms ignore them
    rows = [[F(1) if i == j else data.draw(entries) for j in range(size)]
            for i in range(size)]
    got = _forward_substitution_inverse(rows)
    assert got == _fraction_forward_substitution(rows)
    assert all(type(q) is Fraction for row in got for q in row)


def _fraction_dual(space, s, gate, c, n):
    """The dual's program on an exact combination with the expansion in
    Fraction arithmetic throughout: the same cut and depth, with no
    fixed point and no output grid.  Returns the combination and the
    depth of the expansion."""
    if not c.terms:
        return FiniteCombo(space, {}), 0
    l1 = sum(abs(q) for _, q in c.terms)
    l2_up = F(c.norm_upper())
    budget = pow2(-(n + 4)) / max(F(1), l2_up)
    cut, sigma = _effective_prefix(s, gate, budget, _term_limit(n))
    if sigma == 0:
        return c, 0
    h0 = max(abs(b) for b in _fraction_reciprocal(s, cut, cut))
    tail_target = pow2(-(n + 4)) / l1
    blocks = 1
    mass = cut * h0 * h0 * sigma * sigma / (1 - sigma * sigma)
    while mass > tail_target * tail_target:
        mass *= sigma * sigma
        blocks += 1
    bs = _fraction_reciprocal(s, cut, blocks * cut)
    out = {}
    for j, q in c.terms:
        for m, b in enumerate(bs):
            if b:
                out[j + m] = out.get(j + m, F(0)) + b * q
    return FiniteCombo(space, out), blocks * cut


_rationals = st.builds(F, st.integers(-64, 64), st.integers(1, 48))


class TestDualExpansionExact:
    """The fixed-point expansion and its output grid together spend at
    most 2^-(n+3) of the budget, measured against the exact expansion."""

    @settings(max_examples=60, deadline=None)
    @given(exponents=st.lists(st.integers(1, 12), min_size=1, max_size=4,
                              unique=True),
           terms=st.dictionaries(st.integers(0, 12), _rationals, min_size=1,
                                 max_size=4),
           n=st.integers(8, 96))
    def test_matches_fraction_recurrence(self, exponents, terms, n):
        H = SpaceDescriptor()
        s = SpeckerData.from_prefix(exponents)
        gate = creal_from_rational(s.sum_of_squares(len(exponents)))
        v = vec(H, terms)
        got = gated_dual_tau(H, s, gate).op(0).apply(v).approx(n)
        want, depth = _fraction_dual(H, s, gate, v.exact_combo, n)
        assert got.sub(want).norm_squared() <= pow2(-2 * (n + 3))
        # the output grid is 2^-g, g = n + 3 + bits(isqrt(K') + 1), over
        # K' coefficients of the convolution, all between the least input
        # index and the greatest plus depth
        span = max(terms) - min(terms) + depth + 1
        g = n + 3 + bits_for(math.isqrt(span) + 1)
        for _, q in got.terms:
            den = q.denominator
            assert den & (den - 1) == 0 and den <= 1 << g


class TestRemarkFrameOperator:
    def test_empty_terms_identity(self, H, empty):
        s, gate = empty
        S = remark_frame_operator(H, s, gate)
        e0 = basis_vector(H, 0)
        assert vec_distance(S.apply(e0), e0).approx(25) <= pow2(-25)

    def test_single_term_exact_value(self, H, single):
        s, gate = single
        S = remark_frame_operator(H, s, gate)
        got = S.apply(basis_vector(H, 0)).approx(30)
        want = combo(H, {0: F(17, 16), 1: F(-1, 4)})
        assert got.sub(want).norm_squared() <= pow2(-56)

    def test_quadratic_form_shows_gate(self, H, truncated):
        s, gate = truncated
        S = remark_frame_operator(H, s, gate)
        e0 = basis_vector(H, 0)
        got = inner_product(S.apply(e0), e0).approx(25)
        assert abs(got - (1 + F(17, 256))) <= pow2(-25)

    def test_general_vector(self, H, truncated):
        s, gate = truncated
        S = remark_frame_operator(H, s, gate)
        f = vec(H, {0: F(1, 2), 1: F(-1), 5: F(3)})
        # direct expansion: (1+g) f0 - sum a_k f_k on slot 0, f_i - a_i f0 after
        g = F(17, 256)
        want = combo(H, {0: (1 + g) * F(1, 2) - (F(1, 4) * F(-1)),
                         1: F(-1) - F(1, 4) * F(1, 2),
                         2: -F(1, 16) * F(1, 2),
                         5: F(3)})
        got = S.apply(f).approx(30)
        assert got.sub(want).norm_squared() <= pow2(-56)

    def test_understated_gate_fails_loudly(self, H, truncated):
        s, _ = truncated
        S = remark_frame_operator(H, s,
                                  creal_from_rational(F(1, 1024)))
        with pytest.raises(PrecisionExhaustionError):
            S.apply(basis_vector(H, 0)).approx(25)


class TestGateMonotonicity:
    def test_longer_prefix_with_exact_gate_still_certifies(self, H):
        for prefix in ([1], [1, 3], [1, 3, 6], [1, 3, 6, 9]):
            s = SpeckerData.from_prefix(prefix)
            gate = creal_from_rational(s.sum_of_squares(len(prefix)))
            A = gated_adjoint(H, s, gate)
            out = A.apply(basis_vector(H, 0)).approx(30)
            assert abs(out.coeff(0) - 1) <= pow2(-29)

    def test_stale_gate_fails_after_growth(self, H):
        s = SpeckerData.from_prefix([1, 3, 6])
        stale = creal_from_rational(SpeckerData.from_prefix([1]).sum_of_squares(1))
        A = gated_adjoint(H, s, stale)
        with pytest.raises(PrecisionExhaustionError):
            A.apply(basis_vector(H, 0)).approx(25)

    def test_gate_dominates_partial_sums(self, truncated):
        s, gate = truncated
        for count in range(5):
            assert gate.approx(30) >= s.sum_of_squares(count) - pow2(-25)
