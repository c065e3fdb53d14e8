import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exactframes import (
    CReal,
    CRealSeq,
    FiniteCombo,
    FrameRows,
    GFrameName,
    InvariantViolationError,
    OperatorName,
    OrthonormalRows,
    PrecisionExhaustionError,
    RowFrame,
    SpaceDescriptor,
    SpectralHypothesisError,
    SumName,
    VectorName,
    analysis,
    atoms_gframe,
    basis_vector,
    block_gframe,
    canonical_dual_pair,
    corresponding_frame,
    creal_from_rational,
    creal_sqrt,
    diagonal_gframe,
    diagonal_operator,
    dual_from_left_inverse,
    frame_operator,
    gframe_from_corresponding,
    gframe_to_frame,
    identity_operator,
    inner_product,
    invert_frame_operator,
    kernel_dual_pair,
    kernel_from_dual,
    linear_combination,
    operator_compose,
    operator_from_columns,
    pseudo_inverse,
    reconstruct,
    richardson_iterate,
    riesz_correspondence,
    scalar_codomain,
    sum_inner_product,
    sum_norm,
    synthesis,
    vec_distance,
    vec_lincomb,
    vec_norm,
    vector_from_coefficients,
    zero_operator,
)
from exactframes import directsum, gallery, gframes, hilbert, realcore
from exactframes.realcore import creal_mul, creal_scale, pow2

from conftest import (assert_same_outcomes, claimed_total, claims, combo,
                      exact_prefixes, finishes, random_combo, vec)

F = Fraction


@pytest.fixture
def parseval(H):
    return diagonal_gframe(H)


@pytest.fixture
def weighted(H):
    return diagonal_gframe(H, {0: F(2)})


@pytest.fixture
def redundant(H):
    e0 = combo(H, {0: 1})
    G, norms, ao, _ = atoms_gframe(H, [e0, e0], -1, F(1), F(2))
    return G, norms, ao


def scalar_value(v, n=25):
    return v.approx(n).coeff(0)


class TestOperatorNames:
    def test_bound_respected_on_samples(self, H):
        op = diagonal_operator(H, lambda k: F(2) if k == 0 else F(1), F(2))
        rng = random.Random(2)
        for _ in range(5):
            f = VectorName.from_combo(random_combo(rng, H))
            out_sq = inner_product(op.apply(f), op.apply(f)).approx(25)
            in_sq = inner_product(f, f).approx(25)
            assert out_sq <= 4 * in_sq + pow2(-20)

    def test_linearity(self, H):
        op = diagonal_operator(H, lambda k: F(3, 2), F(2))
        rng = random.Random(4)
        x = VectorName.from_combo(random_combo(rng, H))
        y = VectorName.from_combo(random_combo(rng, H))
        lhs = op.apply(vec_lincomb(F(2), x, F(-1, 3), y))
        rhs = vec_lincomb(F(2), op.apply(x), F(-1, 3), op.apply(y))
        assert vec_distance(lhs, rhs).approx(25) <= pow2(-25)

    def test_apply_is_memoised(self, H, weighted):
        G, norms, ao = weighted
        inv = invert_frame_operator(frame_operator(G, norms, ao), G.lower, G.upper)
        f = vec(H, {0: 1, 1: F(1, 2)})
        assert inv.apply(f).approx(20) is inv.apply(f).approx(20)

    def test_two_compositions_share_one_inversion(self, H):
        S = diagonal_operator(
            H, lambda k: {0: F(4), 1: F(1, 4)}.get(k, F(1)), F(4))
        calls = [0]

        def counted(g):
            calls[0] += 1
            return S.apply(g)

        inv = invert_frame_operator(OperatorName(H, H, S.bound, counted),
                                    F(1, 4), F(4))
        f = vec(H, {0: 1, 1: F(1, 2), 2: F(-1, 3)})
        # equal bounds, so both query the inverse at one precision
        first = operator_compose(diagonal_operator(H, lambda k: F(1), F(2)), inv)
        second = operator_compose(diagonal_operator(H, lambda k: F(2), F(2)), inv)
        first.apply(f).approx(20)
        once = calls[0]
        second.apply(f).approx(20)
        assert once > 0 and calls[0] == once

    def test_column_may_apply_its_own_operator(self, H):
        # column k is half the image of e_(k-1), so column k = 2^-k e_0
        def column(k):
            if k == 0:
                return FiniteCombo(H, {0: F(1)})
            return T.apply(basis_vector(H, k - 1)).exact_combo.scale(F(1, 2))

        T = operator_from_columns(H, H, column, F(2))
        assert finishes(lambda: T.apply(basis_vector(H, 1)))
        assert T.apply(basis_vector(H, 3)).exact_combo == combo(H, {0: F(1, 8)})

    @pytest.mark.parametrize("inverted", [False, True],
                             ids=["frame-operator", "inverse"])
    def test_keeps_no_reference_to_its_input(self, H, weighted, inverted):
        G, norms, ao = weighted
        op = frame_operator(G, norms, ao)
        if inverted:
            op = invert_frame_operator(op, G.lower, G.upper)
        f = vec(H, {0: 1, 3: F(1, 2)})
        op.apply(f).approx(20)
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None


class TestRieszCorrespondence:
    def test_basis_frame_evaluations(self, H):
        G = riesz_correspondence(
            lambda i: (basis_vector(H, i), creal_from_rational(1)),
            F(1), F(1))
        out = G.op(0).apply(basis_vector(H, 0))
        assert abs(scalar_value(out) - 1) <= pow2(-25)
        assert abs(scalar_value(G.op(1).apply(basis_vector(H, 0)))) <= pow2(-25)

    def test_roundtrip_on_redundant_atoms(self, H, redundant):
        G, norms, ao = redundant
        opnorms = CRealSeq(lambda i: norms(i, 0))
        frame = gframe_to_frame(G, opnorms)
        targets = [combo(H, {0: 1}), combo(H, {0: 1}), combo(H, {1: 1}),
                   combo(H, {2: 1})]
        for i, t in enumerate(targets):
            d = vec_distance(frame(i), VectorName.from_combo(t)).approx(30)
            assert d <= pow2(-30)

    def test_zero_atoms_allowed(self, H):
        def atoms(i):
            if i == 1:
                return VectorName.zero(H), creal_from_rational(0)
            k = i if i == 0 else i - 1
            return basis_vector(H, k), creal_from_rational(1)

        G = riesz_correspondence(atoms, F(1), F(1))
        assert G.op(1).bound == 0
        assert abs(scalar_value(G.op(1).apply(vec(H, {0: 5})))) <= pow2(-25)


class TestCorrespondingFrame:
    def test_parseval_vectors(self, H, parseval):
        G, norms, ao = parseval
        corr = corresponding_frame(G, OrthonormalRows(lambda i: G.op(i).cod),
                                   norms)
        for i in (0, 1, 3):
            d = vec_distance(corr.vec(i, 0), basis_vector(H, i)).approx(30)
            assert d <= pow2(-30)
        assert corr.vec(0, 5).approx(20).is_zero()    # beyond the row

    def test_weighted_vector(self, H, weighted):
        G, norms, ao = weighted
        corr = corresponding_frame(G, OrthonormalRows(lambda i: G.op(i).cod),
                                   norms)
        d = vec_distance(corr.vec(0, 0), vec(H, {0: 2})).approx(28)
        assert d <= pow2(-28)

    def test_two_dimensional_block(self, H):
        K2 = SpaceDescriptor(dimension=2)
        scal = scalar_codomain()

        def ops(i):
            if i == 0:
                return operator_from_columns(
                    H, K2, lambda k: FiniteCombo(
                        K2, {k: F(1)} if k < 2 else {}), F(1))
            return operator_from_columns(
                H, scal, lambda k, i=i: FiniteCombo(
                    scal, {0: F(1)} if k == i + 1 else {}), F(1))

        G = GFrameName(H, ops, F(1), F(1))
        norms = lambda i, j: creal_from_rational(1)
        corr = corresponding_frame(G, OrthonormalRows(lambda i: G.op(i).cod),
                                   norms)
        d = vec_distance(corr.vec(0, 0), basis_vector(H, 0)).approx(28)
        assert d <= pow2(-28)
        d = vec_distance(corr.vec(0, 1), basis_vector(H, 1)).approx(28)
        assert d <= pow2(-28)

    def test_wrong_norm_fails_loudly(self, H, weighted):
        G, norms, ao = weighted
        bad = lambda i, j: creal_from_rational(1)     # column 0 has norm 2
        corr = corresponding_frame(G, OrthonormalRows(lambda i: G.op(i).cod),
                                   bad)
        with pytest.raises(PrecisionExhaustionError):
            corr.vec(0, 0).approx(20)


class TestGFrameFromCorresponding:
    def _corr(self, G, norms):
        return corresponding_frame(G, OrthonormalRows(lambda i: G.op(i).cod),
                                   norms)

    def test_row_may_read_earlier_rows(self, H):
        row0 = RowFrame(lambda j: basis_vector(H, j), None, F(1), F(1),
                        identity_operator(H))
        sys = FrameRows(lambda i: row0 if i == 0 else sys.rows(i - 1),
                        F(1), F(1))
        assert finishes(lambda: sys.rows(1))
        assert sys.rows(3) is row0

    def test_parseval_rebuild(self, H, parseval):
        G, norms, ao = parseval
        corr = self._corr(G, norms)
        sys = OrthonormalRows(lambda i: G.op(i).cod)
        co = lambda f, i: creal_mul(
            inner_product(f, basis_vector(H, i)),
            inner_product(f, basis_vector(H, i)))
        G2 = gframe_from_corresponding(corr, sys, co)
        out = G2.op(0).apply(vec(H, {0: 1, 1: 1}))
        assert abs(scalar_value(out) - 1) <= pow2(-24)

    def test_weighted_rebuild(self, H, weighted):
        G, norms, ao = weighted
        corr = self._corr(G, norms)
        sys = OrthonormalRows(lambda i: G.op(i).cod)
        weight = lambda i: 2 if i == 0 else 1

        def co(f, i):
            ip = inner_product(f, basis_vector(H, i))
            return creal_scale(F(weight(i)) ** 2, creal_mul(ip, ip))

        G2 = gframe_from_corresponding(corr, sys, co)
        assert abs(scalar_value(G2.op(0).apply(vec(H, {0: 1}))) - 2) <= pow2(-24)

    def test_frame_rows_block(self, H):
        K2 = SpaceDescriptor(dimension=2)
        scal = scalar_codomain()

        def ops(i):
            if i == 0:
                return operator_from_columns(
                    H, K2, lambda k: FiniteCombo(
                        K2, {k: F(1)} if k < 2 else {}), F(1))
            return operator_from_columns(
                H, scal, lambda k, i=i: FiniteCombo(
                    scal, {0: F(1)} if k == i + 1 else {}), F(1))

        G = GFrameName(H, ops, F(1), F(1))

        row0_atoms = [FiniteCombo(K2, {0: F(1)}), FiniteCombo(K2, {1: F(1)}),
                      FiniteCombo(K2, {0: F(1), 1: F(1)})]
        row0_op = operator_from_columns(
            K2, K2, lambda k: FiniteCombo(K2, {0: F(2), 1: F(1)} if k == 0
                                          else {0: F(1), 1: F(2)}), F(3))

        def rows(i):
            if i == 0:
                return RowFrame(lambda j: VectorName.from_combo(row0_atoms[j]),
                                3, F(1), F(3), row0_op)
            return RowFrame(lambda j: basis_vector(scal, 0), 1, F(1), F(1),
                            identity_operator(scal))

        sys = FrameRows(rows, F(1), F(3))
        exact_cols = {(0, 0): combo(H, {0: 1}), (0, 1): combo(H, {1: 1}),
                      (0, 2): combo(H, {0: 1, 1: 1})}

        def norms(i, j):
            if i == 0:
                return creal_sqrt(creal_from_rational(
                    exact_cols[(0, j)].norm_squared()))
            return creal_from_rational(1)

        corr = corresponding_frame(G, sys, norms)
        d = vec_distance(corr.vec(0, 2), vec(H, {0: 1, 1: 1})).approx(27)
        assert d <= pow2(-27)

        co = lambda f, i: creal_from_rational(0)      # finite rows ignore it
        G2 = gframe_from_corresponding(corr, sys, co)
        out = G2.op(0).apply(basis_vector(H, 0))
        got = out.approx(25)
        assert abs(got.coeff(0) - 1) <= pow2(-24)
        assert abs(got.coeff(1)) <= pow2(-24)

    def test_infinite_row_with_coefficient_oracle(self, H, parseval):
        # identity viewed as a one-row g-frame into the same space
        def ops(i):
            return identity_operator(H) if i == 0 else zero_operator(H, H)

        G = GFrameName(H, ops, F(1), F(1))
        norms = lambda i, j: creal_from_rational(1 if i == 0 else 0)
        corr = corresponding_frame(G, OrthonormalRows(lambda i: H), norms)
        co = lambda f, i: inner_product(f, f)
        G2 = gframe_from_corresponding(corr, OrthonormalRows(lambda i: H), co)
        f = vec(H, {0: F(2, 3), 4: F(1, 5)})
        assert vec_distance(G2.op(0).apply(f), f).approx(24) <= pow2(-24)

    def test_understated_coefficient_oracle(self, H):
        def ops(i):
            return identity_operator(H) if i == 0 else zero_operator(H, H)

        G = GFrameName(H, ops, F(1), F(1))
        norms = lambda i, j: creal_from_rational(1 if i == 0 else 0)
        corr = corresponding_frame(G, OrthonormalRows(lambda i: H), norms)
        bad_co = lambda f, i: creal_from_rational(0)
        G2 = gframe_from_corresponding(corr, OrthonormalRows(lambda i: H),
                                       bad_co)
        with pytest.raises(PrecisionExhaustionError):
            G2.op(0).apply(vec(H, {0: 1})).approx(20)


class TestSynthesisAnalysis:
    def test_parseval_synthesis_on_basis(self, H, parseval):
        G, norms, ao = parseval
        syn = synthesis(G, norms)
        ss = G.sum_space()
        for i in (0, 2):
            out = syn.apply(ss.basis(i, 0))
            assert vec_distance(out, basis_vector(H, i)).approx(25) <= pow2(-25)

    def test_synthesis_linearity(self, H, parseval):
        G, norms, ao = parseval
        syn = synthesis(G, norms)
        ss = G.sum_space()
        scal = ss.component(0)
        X = SumName.finite(ss, {0: FiniteCombo(scal, {0: F(1)}),
                                1: FiniteCombo(scal, {0: F(1)})})
        out = syn.apply(X)
        assert vec_distance(out, vec(H, {0: 1, 1: 1})).approx(25) <= pow2(-25)

    def test_weighted_synthesis_scales(self, H, weighted):
        G, norms, ao = weighted
        syn = synthesis(G, norms)
        out = syn.apply(G.sum_space().basis(0, 0))
        assert vec_distance(out, vec(H, {0: 2})).approx(25) <= pow2(-25)

    def test_parseval_analysis(self, H, parseval):
        G, norms, ao = parseval
        ana = analysis(G, ao)
        out = ana.apply(basis_vector(H, 0))
        assert abs(scalar_value(out.component(0)) - 1) <= pow2(-25)
        assert abs(out.normsq.approx(25) - 1) <= pow2(-25)

    def test_weighted_analysis(self, H, weighted):
        G, norms, ao = weighted
        out = analysis(G, ao).apply(basis_vector(H, 0))
        assert abs(scalar_value(out.component(0)) - 2) <= pow2(-25)
        assert abs(out.normsq.approx(25) - 4) <= pow2(-25)

    def test_analysis_of_zero(self, H, parseval):
        G, norms, ao = parseval
        out = analysis(G, ao).apply(VectorName.zero(H))
        assert out.normsq.approx(25) <= pow2(-25)
        assert sum_norm(out).approx(20) <= pow2(-19)

    def test_adjoint_identity(self, H, parseval):
        G, norms, ao = parseval
        syn = synthesis(G, norms)
        ana = analysis(G, ao)
        ss = G.sum_space()
        scal = ss.component(0)
        rng = random.Random(21)
        for _ in range(3):
            X = SumName.finite(ss, {
                i: FiniteCombo(scal, {0: F(rng.randint(-8, 8), 1 + rng.randrange(8))})
                for i in rng.sample(range(6), 3)})
            g = VectorName.from_combo(random_combo(rng, H, indices=8))
            lhs = inner_product(syn.apply(X), g).approx(25)
            rhs = sum_inner_product(X, ana.apply(g)).approx(25)
            assert abs(lhs - rhs) <= pow2(-22)


class TestFrameOperator:
    def test_parseval_identity(self, H, parseval):
        G, norms, ao = parseval
        S = frame_operator(G, norms, ao)
        e0 = basis_vector(H, 0)
        assert vec_distance(S.apply(e0), e0).approx(25) <= pow2(-25)

    def test_weighted_diagonal(self, H, weighted):
        G, norms, ao = weighted
        S = frame_operator(G, norms, ao)
        assert vec_distance(S.apply(basis_vector(H, 0)),
                            vec(H, {0: 4})).approx(25) <= pow2(-25)

    def test_redundant_doubles_first_atom(self, H, redundant):
        G, norms, ao = redundant
        S = frame_operator(G, norms, ao)
        assert vec_distance(S.apply(basis_vector(H, 0)),
                            vec(H, {0: 2})).approx(25) <= pow2(-25)

    def test_self_adjoint_and_coercive(self, H, weighted):
        G, norms, ao = weighted
        S = frame_operator(G, norms, ao)
        rng = random.Random(23)
        for _ in range(3):
            f = VectorName.from_combo(random_combo(rng, H, indices=6))
            g = VectorName.from_combo(random_combo(rng, H, indices=6))
            lhs = inner_product(S.apply(f), g).approx(24)
            rhs = inner_product(f, S.apply(g)).approx(24)
            assert abs(lhs - rhs) <= pow2(-21)
            quad = inner_product(S.apply(f), f).approx(24)
            mass = inner_product(f, f).approx(24)
            assert quad >= G.lower * mass - pow2(-20)


class TestInversion:
    def test_identity_window(self, H):
        S = identity_operator(H)
        inv = invert_frame_operator(S, F(1), F(1))
        e0 = basis_vector(H, 0)
        assert vec_distance(inv.apply(e0), e0).approx(25) <= pow2(-25)

    def test_diagonal_window(self, H, weighted):
        G, norms, ao = weighted
        S = frame_operator(G, norms, ao)
        inv = invert_frame_operator(S, F(1), F(4))
        out = inv.apply(basis_vector(H, 0))
        assert vec_distance(out, vec(H, {0: F(1, 4)})).approx(30) <= pow2(-30)

    def test_zero_input(self, H):
        inv = invert_frame_operator(identity_operator(H), F(1), F(1))
        assert inv.apply(VectorName.zero(H)).approx(25).norm_squared() <= pow2(-48)

    def test_certificate_decay(self, H, weighted):
        G, norms, ao = weighted
        S = frame_operator(G, norms, ao)
        g = combo(H, {0: 1})
        exact = combo(H, {0: F(1, 4)})
        rho = F(3, 5)
        for k in (0, 2, 5, 8):
            u = richardson_iterate(S, F(1), F(4), VectorName.from_combo(g),
                                   k, 35)
            err_sq = u.sub(exact).norm_squared()
            assert err_sq <= rho ** (2 * k) * g.norm_squared() + pow2(-60)

    def test_spectral_violation_detected(self, H, weighted):
        G, norms, ao = weighted
        S = frame_operator(G, norms, ao)      # spectrum reaches 4
        inv = invert_frame_operator(S, F(1), F(1))
        with pytest.raises(SpectralHypothesisError):
            inv.apply(basis_vector(H, 0)).approx(25)


class TestBlockGFrame:
    def test_block_components(self, H):
        G, norms, ao = block_gframe(H, 2)
        f = vec(H, {0: F(1, 3), 3: F(-2)})
        out0 = G.op(0).apply(f).approx(25)
        assert abs(out0.coeff(0) - F(1, 3)) <= pow2(-24)
        out1 = G.op(1).apply(f).approx(25)
        assert abs(out1.coeff(1) + 2) <= pow2(-24)

    def test_block_is_tight(self, H):
        G, norms, ao = block_gframe(H, 3)
        dual, ao_d = canonical_dual_pair(G, norms, ao)
        f = vec(H, {0: F(1, 3), 4: F(5, 8), 7: F(-1)})
        u = reconstruct(G, dual, norms, f, ao_d)
        assert vec_distance(u, f).approx(25) <= pow2(-25)
        S = frame_operator(G, norms, ao)
        assert vec_distance(S.apply(f), f).approx(25) <= pow2(-25)

    @settings(max_examples=20, deadline=None)
    @given(width=st.integers(1, 3),
           coeffs=st.dictionaries(st.integers(0, 7),
                                  st.fractions(-3, 3, max_denominator=9)))
    def test_block_against_exact_values(self, width, coeffs):
        # a tight frame with bounds 1: the frame operator is the identity,
        # the canonical dual is the frame itself and the pseudo-inverse
        # keeps the mass
        n = 16
        H = SpaceDescriptor()
        G, norms, ao = block_gframe(H, width)
        f = vec(H, coeffs)
        assert frame_operator(G, norms, ao).apply(f).exact_combo == f.exact_combo
        dual, ao_d = canonical_dual_pair(G, norms, ao)
        out = pseudo_inverse(G, norms, ao).apply(f)
        for i in range(8 // width + 1):
            want = combo(G.op(i).cod, {j: coeffs.get(i * width + j, 0)
                                       for j in range(width)})
            assert G.op(i).apply(f).exact_combo == want
            for got in (dual.op(i).apply(f), out.component(i)):
                assert got.approx(n).sub(want).norm_squared() <= pow2(-2 * n)
        mass = sum((q * q for q in coeffs.values()), F(0))
        assert abs(out.normsq.approx(n) - mass) <= pow2(-n)
        for n in (16, 32):
            got = reconstruct(G, dual, norms, f, ao_d).approx(n)
            assert got.sub(f.exact_combo).norm_squared() <= pow2(-2 * n)


def _understated_coordinates(H):
    # coordinate 0 is 1, its claimed square sum 1/2
    return vector_from_coefficients(
        H, lambda k: creal_from_rational(1 if k == 0 else 0),
        creal_from_rational(F(1, 2)))


def _understated_row_coefficients(H):
    # one infinite row, the basis of H, with a claimed coefficient mass 0
    G = GFrameName(H, lambda i: identity_operator(H) if i == 0
                   else zero_operator(H, H), F(1), F(1))
    row = RowFrame(lambda j: basis_vector(H, j), None, F(1), F(1),
                   identity_operator(H))
    sys = FrameRows(lambda i: row, F(1), F(1))
    corr = corresponding_frame(
        G, sys, lambda i, j: creal_from_rational(1 if i == 0 else 0))
    G2 = gframe_from_corresponding(corr, sys,
                                   lambda f, i: creal_from_rational(0))
    return G2.op(0).apply(basis_vector(H, 0))


def _understated_input_norm(H):
    # component 0 has squared norm 1, the claimed normsq is 1/2
    G, norms, _ = diagonal_gframe(H)
    ss = G.sum_space()
    F0 = SumName(ss, lambda i: VectorName.from_combo(
        combo(ss.component(i), {0: 1} if i == 0 else {})),
        creal_from_rational(F(1, 2)))
    return synthesis(G, norms).apply(F0)


@pytest.mark.parametrize("what, build", [
    ("coordinate square sum", _understated_coordinates),
    ("row coefficient oracle", _understated_row_coefficients),
    ("input norm datum", _understated_input_norm),
], ids=["coordinate-square-sum", "row-coefficient-oracle", "input-norm-datum"])
def test_understated_claim_names_its_datum(H, what, build):
    with pytest.raises(PrecisionExhaustionError,
                       match=f"^{what}: claimed total understates the data"):
        build(H).approx(20)


class TestValidation:
    def test_inversion_window_must_be_ordered(self, H):
        with pytest.raises(ValueError):
            invert_frame_operator(identity_operator(H), F(4), F(1))
        with pytest.raises(ValueError):
            invert_frame_operator(identity_operator(H), F(0), F(1))

    def test_frame_bounds_must_be_positive_and_ordered(self, H):
        ops = lambda i: identity_operator(H)
        with pytest.raises(ValueError):
            GFrameName(H, ops, F(0), F(1))
        with pytest.raises(ValueError):
            GFrameName(H, ops, F(2), F(1))

    def test_operator_domain_checked(self, H):
        other = SpaceDescriptor()
        op = identity_operator(H)
        with pytest.raises(Exception):
            op.apply(basis_vector(other, 0))


class TestCanonicalDual:
    def test_parseval_self_dual(self, H, parseval):
        G, norms, ao = parseval
        dual, ao_d = canonical_dual_pair(G, norms, ao)
        assert abs(scalar_value(dual.op(0).apply(basis_vector(H, 0))) - 1) \
            <= pow2(-24)

    def test_weighted_dual_scales_down(self, H, weighted):
        G, norms, ao = weighted
        dual, _ = canonical_dual_pair(G, norms, ao)
        got = scalar_value(dual.op(0).apply(basis_vector(H, 0)))
        assert abs(got - F(1, 2)) <= pow2(-24)

    def test_redundant_dual_halves_shared_atom(self, H, redundant):
        G, norms, ao = redundant
        dual, _ = canonical_dual_pair(G, norms, ao)
        e0 = basis_vector(H, 0)
        for i in (0, 1):
            assert abs(scalar_value(dual.op(i).apply(e0)) - F(1, 2)) <= pow2(-24)
        assert abs(scalar_value(dual.op(2).apply(e0))) <= pow2(-24)

    def test_dual_bounds(self, H, weighted):
        G, norms, ao = weighted
        dual, _ = canonical_dual_pair(G, norms, ao)
        assert dual.lower == F(1, 4)
        assert dual.upper == F(1)


class TestPseudoInverse:
    def test_parseval_mass(self, H, parseval):
        G, norms, ao = parseval
        out = pseudo_inverse(G, norms, ao).apply(basis_vector(H, 0))
        assert abs(out.normsq.approx(25) - 1) <= pow2(-24)

    def test_weighted_component(self, H, weighted):
        G, norms, ao = weighted
        out = pseudo_inverse(G, norms, ao).apply(basis_vector(H, 0))
        assert abs(scalar_value(out.component(0)) - F(1, 2)) <= pow2(-24)
        assert abs(out.normsq.approx(25) - F(1, 4)) <= pow2(-24)

    def test_right_inverse(self, H, weighted):
        G, norms, ao = weighted
        tp = pseudo_inverse(G, norms, ao)
        syn = synthesis(G, norms)
        for terms in ({0: 1}, {1: 1}, {0: 1, 1: 1}):
            f = vec(H, terms)
            u = syn.apply(tp.apply(f).in_space(G.sum_space()))
            assert vec_distance(u, f).approx(25) <= pow2(-25)


class TestReconstruct:
    def test_parseval(self, H, parseval):
        G, norms, ao = parseval
        dual, ao_d = canonical_dual_pair(G, norms, ao)
        f = basis_vector(H, 0)
        assert vec_distance(reconstruct(G, dual, norms, f, ao_d),
                            f).approx(30) <= pow2(-30)

    def test_weighted(self, H, weighted):
        G, norms, ao = weighted
        dual, ao_d = canonical_dual_pair(G, norms, ao)
        f = vec(H, {0: 1, 1: 1})
        assert vec_distance(reconstruct(G, dual, norms, f, ao_d),
                            f).approx(25) <= pow2(-25)

    def test_redundant(self, H, redundant):
        G, norms, ao = redundant
        dual, ao_d = canonical_dual_pair(G, norms, ao)
        f = vec(H, {0: F(1, 3), 2: F(-1)})
        assert vec_distance(reconstruct(G, dual, norms, f, ao_d),
                            f).approx(25) <= pow2(-25)


class TestLeftInverseDual:
    def test_parseval_recovers_itself(self, H, parseval):
        G, norms, ao = parseval
        phi = synthesis(G, norms)
        phi_star = analysis(G, ao)
        dual = dual_from_left_inverse(G, phi, phi_star)
        assert abs(scalar_value(dual.op(0).apply(basis_vector(H, 0))) - 1) \
            <= pow2(-24)

    def test_weighted_recovers_canonical(self, H, weighted):
        G, norms, ao = weighted
        can, ao_c = canonical_dual_pair(G, norms, ao)

        def dual_norms(i, j):
            if j != 0:
                return creal_from_rational(0)
            return creal_from_rational(F(1, 2) if i == 0 else 1)

        phi = synthesis(can, dual_norms)
        phi_star = analysis(can, ao_c)
        dual = dual_from_left_inverse(G, phi, phi_star)
        got = scalar_value(dual.op(0).apply(basis_vector(H, 0)))
        assert abs(got - F(1, 2)) <= pow2(-24)

        syn = synthesis(G, norms)
        ana = analysis(dual, ao_c)
        for terms in ({0: 1}, {0: 1, 1: 1}):
            f = vec(H, terms)
            u = syn.apply(ana.apply(f).in_space(G.sum_space()))
            assert vec_distance(u, f).approx(25) <= pow2(-25)


class TestKernelDuals:
    def _psi(self, G, H):
        ss = G.sum_space()

        def program(f):
            c = inner_product(f, basis_vector(H, 0))

            def comp(i):
                cod = ss.component(i)
                if i == 0:
                    return linear_combination(
                        cod, [(creal_scale(F(1, 2), c), basis_vector(cod, 0))])
                if i == 1:
                    return linear_combination(
                        cod, [(creal_scale(F(-1, 2), c), basis_vector(cod, 0))])
                return VectorName.zero(cod)

            return SumName(ss, comp, creal_scale(F(1, 2), creal_mul(c, c)))

        return OperatorName(H, ss.descriptor, F(1), program)

    def test_zero_kernel_gives_canonical(self, H, weighted):
        G, norms, ao = weighted
        ss = G.sum_space()
        psi0 = OperatorName(H, ss.descriptor, F(0),
                            lambda f: SumName.zero(ss))
        dual = kernel_dual_pair(G, norms, ao, psi0)[0]
        got = scalar_value(dual.op(0).apply(basis_vector(H, 0)))
        assert abs(got - F(1, 2)) <= pow2(-24)

    def test_nonzero_kernel_dual(self, H, redundant):
        G, norms, ao = redundant
        psi = self._psi(G, H)
        dual, ao_d = kernel_dual_pair(G, norms, ao, psi)
        e0 = basis_vector(H, 0)
        # canonical 1/2 +- 1/2: atoms redistribute to (1, 0, ...)
        assert abs(scalar_value(dual.op(0).apply(e0)) - 1) <= pow2(-24)
        assert abs(scalar_value(dual.op(1).apply(e0))) <= pow2(-24)
        syn = synthesis(G, norms)
        ana = analysis(dual, ao_d)
        u = syn.apply(ana.apply(e0).in_space(G.sum_space()))
        assert vec_distance(u, e0).approx(25) <= pow2(-25)

    def test_kernel_of_canonical_dual_vanishes(self, H, redundant):
        G, norms, ao = redundant
        can, ao_c = canonical_dual_pair(G, norms, ao)
        psi = kernel_from_dual(G, can, norms, ao, ao_c)
        out = psi.apply(vec(H, {0: 1, 1: F(1, 2)}))
        for i in range(5):
            assert vec_norm(out.component(i)).approx(25) <= pow2(-25)
        assert abs(out.normsq.approx(20)) <= pow2(-18)

    def test_kernel_round_trip(self, H, redundant):
        G, norms, ao = redundant
        psi = self._psi(G, H)
        dual, ao_d = kernel_dual_pair(G, norms, ao, psi)
        recovered = kernel_from_dual(G, dual, norms, ao, ao_d)
        for terms in ({0: 1}, {0: F(-2, 3), 1: F(1, 2)}, {1: 1, 3: F(1, 5)}):
            f = vec(H, terms)
            got, want = recovered.apply(f), psi.apply(f)
            for i in range(5):
                gap = vec_distance(got.component(i), want.component(i))
                assert gap.approx(25) <= pow2(-25)
            assert abs(got.normsq.approx(25) - want.normsq.approx(25)) \
                <= pow2(-24)

    def test_violating_kernel_rejected(self, H, weighted):
        G, norms, ao = weighted
        ss = G.sum_space()

        def program(f):
            c = inner_product(f, basis_vector(H, 0))

            def comp(i):
                cod = ss.component(i)
                if i == 0:
                    return linear_combination(cod, [(c, basis_vector(cod, 0))])
                return VectorName.zero(cod)

            return SumName(ss, comp, creal_mul(c, c))

        bad = OperatorName(H, ss.descriptor, F(1), program)
        with pytest.raises(InvariantViolationError):
            kernel_dual_pair(G, norms, ao, bad)[0]


_weights = st.dictionaries(st.integers(0, 5),
                           st.sampled_from([F(1, 2), F(1), F(2), F(3)]))
_vectors = st.dictionaries(st.integers(0, 5),
                           st.fractions(-3, 3, max_denominator=9))


class TestExactClosure:
    @settings(max_examples=40, deadline=None)
    @given(values=exact_prefixes, claim=claims)
    @example(values={0: F(1), 5: F(1)}, claim=("met early", 1))
    def test_synthesis_agrees_with_the_certified_path(self, values, claim):
        H = SpaceDescriptor()
        G, norms, _ = diagonal_gframe(H, {0: F(2), 1: F(1, 2)})
        ss = G.sum_space()
        t = claimed_total(values, claim)

        def component(i):
            return VectorName.from_combo(
                combo(ss.component(i), {0: values[i]} if i in values else {}))

        syn = synthesis(G, norms)
        exact_path = syn.apply(SumName(ss, component, creal_from_rational(t)))
        certified_path = syn.apply(SumName(ss, component, CReal(lambda n: t)))
        assert certified_path.exact_combo is None
        if claim[0] == "exact":
            weight = {0: 2, 1: F(1, 2)}
            assert exact_path.exact_combo == combo(
                H, {i: weight.get(i, 1) * q for i, q in values.items()})
        assert_same_outcomes(exact_path, certified_path)

    @settings(max_examples=40, deadline=None)
    @given(weights=_weights, coeffs=_vectors)
    def test_diagonal_frame_operator_is_exact(self, weights, coeffs):
        H = SpaceDescriptor()
        G, norms, ao = diagonal_gframe(H, weights)
        out = frame_operator(G, norms, ao).apply(vec(H, coeffs))
        assert out.exact_combo == combo(
            H, {i: weights.get(i, 1) ** 2 * q for i, q in coeffs.items()})

    @settings(max_examples=10, deadline=None)
    @given(weights=st.dictionaries(st.integers(0, 3),
                                   st.sampled_from([F(1, 2), F(1), F(2)])),
           coeffs=st.dictionaries(st.integers(0, 3),
                                  st.fractions(-3, 3, max_denominator=9)))
    def test_diagonal_canonical_dual_and_pseudo_inverse(self, weights, coeffs):
        # the inverse frame operator divides coordinate i by w_i^2, so the
        # canonical dual sends f to f_i / w_i and the pseudo-inverse's
        # mass is the sum of f_i^2 / w_i^2
        n = 16
        H = SpaceDescriptor()
        G, norms, ao = diagonal_gframe(H, weights)
        dual, _ = canonical_dual_pair(G, norms, ao)
        f = vec(H, coeffs)
        out = pseudo_inverse(G, norms, ao).apply(f)
        for i in range(5):
            want = combo(G.op(i).cod, {0: coeffs.get(i, 0) / weights.get(i, 1)})
            for got in (dual.op(i).apply(f), out.component(i)):
                assert got.approx(n).sub(want).norm_squared() <= pow2(-2 * n)
        mass = sum((q * q / weights.get(i, 1) ** 2 for i, q in coeffs.items()),
                   F(0))
        assert abs(out.normsq.approx(n) - mass) <= pow2(-n)

    # a [1/4, 9] window takes up to 10 s an example, hence the few examples
    @settings(max_examples=5, deadline=None)
    @given(weights=_weights, coeffs=_vectors)
    def test_diagonal_reconstruction(self, weights, coeffs):
        H = SpaceDescriptor()
        G, norms, ao = diagonal_gframe(H, weights)
        dual, ao_d = canonical_dual_pair(G, norms, ao)
        f = vec(H, coeffs)
        for n in (16, 32):
            got = reconstruct(G, dual, norms, f, ao_d).approx(n)
            assert got.sub(f.exact_combo).norm_squared() <= pow2(-2 * n)

    def test_frame_operator_on_exact_input_makes_no_tail_cut(self, H, monkeypatch):
        cuts = []
        certified_tail_cut = realcore.certified_tail_cut

        def counting(*args, **kwargs):
            cuts.append(kwargs.get("what"))
            return certified_tail_cut(*args, **kwargs)

        for module in (realcore, hilbert, directsum, gframes, gallery):
            if hasattr(module, "certified_tail_cut"):
                monkeypatch.setattr(module, "certified_tail_cut", counting)
        f = {0: F(1, 3), 1: F(-2, 5), 4: F(1, 7)}
        frames = [
            (diagonal_gframe(H, {0: F(2), 1: F(1, 2)}), {0: 4, 1: F(1, 4)}),
            # atoms e0, e0, e1, e2, ...: exact unit norms, operator diag(2, 1, ...)
            (atoms_gframe(H, [combo(H, {0: 1})] * 2, -1, F(1), F(2))[:3], {0: 2}),
        ]
        for (G, norms, ao), weight in frames:
            out = frame_operator(G, norms, ao).apply(vec(H, f))
            assert out.approx(32) == combo(
                H, {k: weight.get(k, 1) * q for k, q in f.items()})
            assert cuts == []

    def test_exact_evaluations(self, H):
        G = riesz_correspondence(
            lambda i: (vec(H, {i: F(3, 5), i + 1: F(4, 5)}), creal_from_rational(1)),
            F(1, 2), F(2))
        out = G.op(2).apply(vec(H, {2: 3, 3: F(1, 5)}))
        assert out.exact_combo == combo(out.space, {0: F(49, 25)})
