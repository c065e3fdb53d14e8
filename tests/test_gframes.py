import gc
import random
import subprocess
import sys
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
    SpeckerData,
    SpectralHypothesisError,
    SumName,
    VectorName,
    analysis,
    atoms_gframe,
    basis_vector,
    block_gframe,
    canonical_dual_pair,
    column_lower_adjoint,
    column_lower_operator,
    corresponding_frame,
    creal_from_rational,
    creal_sqrt,
    diagonal_gframe,
    dual_from_left_inverse,
    frame_operator,
    gated_adjoint,
    gated_dual_tau,
    gframe_from_corresponding,
    gframe_to_frame,
    inner_product,
    invert_frame_operator,
    kernel_dual_pair,
    kernel_from_dual,
    linear_combination,
    operator_compose,
    operator_from_columns,
    pseudo_inverse,
    reconstruct,
    remark_frame_operator,
    richardson_iterate,
    riesz_correspondence,
    scalar_codomain,
    sum_inner_product,
    synthesis,
    upper_u_operator,
    vec_distance,
    vec_norm,
    vector_from_coefficients,
    zero_operator,
)
from exactframes import directsum, gallery, gframes, hilbert, realcore
from exactframes.realcore import bits_for, creal_mul, creal_scale, pow2
from exactframes.suites import standard_frames

from conftest import (assert_same_outcomes, claimed_total, claims, combo,
                      exact_prefixes, finishes, identity_operator,
                      off_by_one_unit, random_combo, vec)

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
    return atoms_gframe(H, [e0, e0], -1, F(1), F(2))


def scalar_value(v, n=25):
    return v.approx(n).coeff(0)


class TestOperatorNames:
    def test_bound_respected_on_samples(self, H):
        op = operator_from_columns(
            H, H, lambda k: combo(H, {k: 2 if k == 0 else 1}), F(2))
        rng = random.Random(2)
        for _ in range(5):
            f = VectorName.from_combo(random_combo(rng, H))
            out_sq = inner_product(op.apply(f), op.apply(f)).approx(25)
            in_sq = inner_product(f, f).approx(25)
            assert out_sq <= 4 * in_sq + pow2(-20)

    def test_linearity(self, H):
        op = operator_from_columns(H, H, lambda k: combo(H, {k: F(3, 2)}),
                                   F(2))
        rng = random.Random(4)
        x = VectorName.from_combo(random_combo(rng, H))
        y = VectorName.from_combo(random_combo(rng, H))
        lhs = op.apply(linear_combination(H, [(F(2), x), (F(-1, 3), y)]))
        rhs = linear_combination(
            H, [(F(2), op.apply(x)), (F(-1, 3), op.apply(y))])
        assert vec_distance(lhs, rhs).approx(25) <= pow2(-25)

    def test_apply_is_memoised(self, H, weighted):
        G, norms, ao = weighted
        inv = invert_frame_operator(frame_operator(G, norms, ao), G.lower, G.upper)
        f = vec(H, {0: 1, 1: F(1, 2)})
        assert inv.apply(f).approx(20) is inv.apply(f).approx(20)

    def test_two_compositions_share_one_inversion(self, H):
        S = operator_from_columns(
            H, H, lambda k: combo(H, {k: {0: F(4), 1: F(1, 4)}.get(k, 1)}),
            F(4))
        calls = [0]

        def counted(g):
            calls[0] += 1
            return S.apply(g)

        inv = invert_frame_operator(OperatorName(H, H, S.bound, counted),
                                    F(1, 4), F(4))
        f = vec(H, {0: 1, 1: F(1, 2), 2: F(-1, 3)})
        # equal bounds, so both query the inverse at one precision
        first = operator_compose(operator_from_columns(
            H, H, lambda k: combo(H, {k: 1}), F(2)), inv)
        second = operator_compose(operator_from_columns(
            H, H, lambda k: combo(H, {k: 2}), F(2)), inv)
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
        G, _ = riesz_correspondence(
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

    def test_lazy_input_stays_within_the_bound(self, H):
        atoms = [combo(H, {0: F(1, 2), 1: F(-1)}), combo(H, {1: F(2, 3)})]
        G, _ = riesz_correspondence(
            lambda i: (VectorName.from_combo(atoms[i]), creal_sqrt(
                creal_from_rational(atoms[i].norm_squared()))), F(1), F(2))
        c = combo(H, {0: F(1, 3), 1: F(-2, 5), 3: F(1, 7)})
        for i, atom in enumerate(atoms):
            for k in (0, 1, 3):
                for n in (0, 8, 32):
                    got = G.op(i).apply(off_by_one_unit(c, k)).approx(n)
                    assert abs(got.coeff(0) - c.inner(atom)) <= pow2(-n)

    def test_zero_atoms_allowed(self, H):
        def atoms(i):
            if i == 1:
                return VectorName.zero(H), creal_from_rational(0)
            k = i if i == 0 else i - 1
            return basis_vector(H, k), creal_from_rational(1)

        G, _ = riesz_correspondence(atoms, F(1), F(1))
        assert G.op(1).bound == 0
        assert abs(scalar_value(G.op(1).apply(vec(H, {0: 5})))) <= pow2(-25)


    def test_returns_the_atom_norms_and_reads_each_atom_once(self, H):
        reads = []

        def atoms(i):
            reads.append(i)
            return vec(H, {i: i + 1}), creal_from_rational(i + 1)

        G, norms = riesz_correspondence(atoms, F(1, 2), F(2))
        G.op(2).apply(vec(H, {2: 1}))
        assert norms(2, 0).exact_value == 3
        assert norms(2, 1).exact_value == 0
        assert norms(5, 0).exact_value == 6
        assert sorted(reads) == [0, 2, 5]

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
        assert creal_sqrt(out.normsq).approx(20) <= pow2(-19)

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


class TestIdentityPlusFiniteRank:
    """The stock constructors' frame operator, I plus finite rank, against
    the certified synthesis of the analysis that every other (norms, ao)
    gets."""

    # the g-frame kinds of the command line, and an atoms frame whose S
    # couples two coordinates
    KINDS = {
        "parseval": lambda H: diagonal_gframe(H),
        "diagonal": lambda H: diagonal_gframe(H, {0: F(2), 1: F(1, 2)}),
        "block": lambda H: block_gframe(H, 2),
        "atoms": lambda H: atoms_gframe(H, [combo(H, {0: 1})] * 2, -1,
                                        F(1), F(2)),
        "atoms-coupled": lambda H: atoms_gframe(
            H, [combo(H, {0: 1, 1: 1}), combo(H, {1: 1})], 0, F(1, 4), F(3)),
    }

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_synthesis_of_analysis_is_the_oracle(self, H, kind):
        # k on both sides of the 64-term exact window of the general path
        G, norms, ao = self.KINDS[kind](H)
        for k in (3, 63, 64, 100):
            c = combo(H, {0: 1, k: F(3, 5)})
            for f in (VectorName.from_combo(c), off_by_one_unit(c, k)):
                general = synthesis(G, norms).apply(analysis(G, ao).apply(f))
                fast = frame_operator(G, norms, ao).apply(f)
                for n in (16, 32):
                    d = general.approx(n).sub(fast.approx(n)).norm_squared()
                    assert d <= pow2(-2 * n), (k, n)

    @pytest.mark.parametrize("read", [
        lambda G, norms, ao, f: frame_operator(G, norms, ao).apply(f),
        lambda G, norms, ao, f: reconstruct(G, norms, ao, f),
        lambda G, norms, ao, f: canonical_dual_pair(G, norms, ao)[1](f),
    ], ids=["frame-operator", "reconstruct", "canonical-dual-mass"])
    def test_understated_norms_claim_is_not_bypassed(self, H, redundant, read):
        # atom 0 is e0, of norm 1, claimed as 1/2
        G, norms, ao = redundant

        def claimed(i, j):
            return creal_from_rational(F(1, 2)) if (i, j) == (0, 0) \
                else norms(i, j)

        f = vec(H, {0: F(3, 5), 1: F(-4, 5)})
        with pytest.raises(PrecisionExhaustionError,
                           match="^coordinate square sum: claimed total "
                                 "understates the data"):
            read(G, claimed, ao, f).approx(20)

    def test_foreign_analysis_oracle_takes_the_general_path(self, H, redundant):
        G, norms, ao = redundant
        foreign = lambda f: ao(f)
        stock = frame_operator(G, norms, ao)
        general = frame_operator(G, norms, foreign)
        assert general is not stock
        f = vec(H, {0: F(3, 5), 1: F(-4, 5), 70: F(1, 7)})
        for n in (16, 32):
            d = general.apply(f).approx(n).sub(stock.apply(f).approx(n))
            assert d.norm_squared() <= pow2(-2 * n)


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
        f = vec(H, {0: F(1, 3), 4: F(5, 8), 7: F(-1)})
        u = reconstruct(G, norms, ao, f)
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
        dual, _ = canonical_dual_pair(G, norms, ao)
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
            got = reconstruct(G, norms, ao, f).approx(n)
            assert got.sub(f.exact_combo).norm_squared() <= pow2(-2 * n)


# prefix atoms q e_k with q^2 in [9/16, 16/9]; each index below the tail
# start T carries one or two of them, and at most one sits on top of the
# tail, so the frame operator is an exact diagonal with weights in [1/2, 4]
_atom_coefficients = st.sampled_from([s * q for s in (1, -1)
                                      for q in (F(3, 4), F(1), F(5, 4), F(4, 3))])


@st.composite
def _basis_multiple_atoms(draw):
    T = draw(st.integers(0, 3))
    atoms = [(k, q) for k in range(T)
             for q in draw(st.lists(_atom_coefficients, min_size=1, max_size=2))]
    extra = draw(st.lists(st.integers(T, T + 3), max_size=2, unique=True))
    atoms += [(k, draw(_atom_coefficients)) for k in extra]
    return T, draw(st.permutations(atoms))


class TestAtomsGFrame:
    @settings(max_examples=20, deadline=None)
    @given(frame=_basis_multiple_atoms(),
           coeffs=st.dictionaries(st.integers(0, 7),
                                  st.fractions(-3, 3, max_denominator=9)))
    def test_atoms_against_exact_values(self, frame, coeffs):
        # S e_k = w_k e_k with w_k the sum of q^2 over the atoms at k,
        # plus 1 on the tail; the dual's values are q f_k / w_k and the
        # pseudo-inverse mass is the sum of f_k^2 / w_k
        T, atoms = frame
        H = SpaceDescriptor()
        weight = {k: F(1) for k in range(T, T + 4)}
        for k, q in atoms:
            weight[k] = weight.get(k, F(0)) + q * q
        prefix = [combo(H, {k: q}) for k, q in atoms]
        G, norms, ao = atoms_gframe(H, prefix, T - len(prefix),
                                    min(weight.values()),
                                    max(weight.values()))

        def w(k):
            return weight.get(k, F(1))

        def dual_value(i):
            k, q = atoms[i] if i < len(atoms) else (i - len(atoms) + T, F(1))
            return q * coeffs.get(k, 0) / w(k)

        n = 16
        f = vec(H, coeffs)
        want_s = combo(H, {k: w(k) * q for k, q in coeffs.items()})
        got_s = frame_operator(G, norms, ao).apply(f).approx(n)
        assert got_s.sub(want_s).norm_squared() <= pow2(-2 * n)
        dual, _ = canonical_dual_pair(G, norms, ao)
        out = pseudo_inverse(G, norms, ao).apply(f)
        for i in range(len(atoms) + 8):
            want = dual_value(i)
            for got in (dual.op(i).apply(f), out.component(i)):
                assert abs(got.approx(n).coeff(0) - want) <= pow2(-n)
        mass = sum((q * q / w(k) for k, q in coeffs.items()), F(0))
        assert abs(out.normsq.approx(n) - mass) <= pow2(-n)
        for n in (16, 32):
            got = reconstruct(G, norms, ao, f).approx(n)
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


def _understated_gate(face):
    """face(H, s, gate) applied to e0, for terms 1/4 and 1/16 (squared
    mass 17/256) under a gate claimed as 1/256."""
    def build(H):
        s = SpeckerData.from_prefix([1, 3])
        op = face(H, s, creal_from_rational(F(1, 256)))
        return op.apply(basis_vector(H, 0))
    return build


@pytest.mark.parametrize("what, build", [
    ("coordinate square sum", _understated_coordinates),
    ("row coefficient oracle", _understated_row_coefficients),
    ("input norm datum", _understated_input_norm),
    ("norm gate", _understated_gate(gated_adjoint)),
    ("norm gate", _understated_gate(column_lower_operator)),
    ("norm gate", _understated_gate(remark_frame_operator)),
    ("norm gate", _understated_gate(
        lambda H, s, gate: gated_dual_tau(H, s, gate).op(0))),
], ids=["coordinate-square-sum", "row-coefficient-oracle", "input-norm-datum",
        "norm-gate-gated-adjoint-upper", "norm-gate-gated-adjoint-column",
        "norm-gate-remark-frame-operator", "norm-gate-gated-dual-tau"])
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
        f = basis_vector(H, 0)
        assert vec_distance(reconstruct(G, norms, ao, f),
                            f).approx(30) <= pow2(-30)

    def test_weighted(self, H, weighted):
        G, norms, ao = weighted
        f = vec(H, {0: 1, 1: 1})
        assert vec_distance(reconstruct(G, norms, ao, f),
                            f).approx(25) <= pow2(-25)

    def test_redundant(self, H, redundant):
        G, norms, ao = redundant
        f = vec(H, {0: F(1, 3), 2: F(-1)})
        assert vec_distance(reconstruct(G, norms, ao, f),
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
        f = vec(H, coeffs)
        for n in (16, 32):
            got = reconstruct(G, norms, ao, f).approx(n)
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
            (atoms_gframe(H, [combo(H, {0: 1})] * 2, -1, F(1), F(2)), {0: 2}),
        ]
        for (G, norms, ao), weight in frames:
            out = frame_operator(G, norms, ao).apply(vec(H, f))
            assert out.approx(32) == combo(
                H, {k: weight.get(k, 1) * q for k, q in f.items()})
            assert cuts == []

    def test_exact_evaluations(self, H):
        G, _ = riesz_correspondence(
            lambda i: (vec(H, {i: F(3, 5), i + 1: F(4, 5)}), creal_from_rational(1)),
            F(1, 2), F(2))
        out = G.op(2).apply(vec(H, {2: 3, 3: F(1, 5)}))
        assert out.exact_combo == combo(out.space, {0: F(49, 25)})


# the window [1/4, 1] or [1/2, 1] claimed for diag(1/16, 1, 1, ...): the
# lower bound overstates the spectrum at e0
_FALSE_LOWER_BOUND = """
import sys
from fractions import Fraction as F
from exactframes import (FiniteCombo, SpaceDescriptor, SpectralHypothesisError,
                         VectorName, invert_frame_operator,
                         operator_from_columns)
H = SpaceDescriptor()
S = operator_from_columns(
    H, H, lambda k: FiniteCombo(H, {k: F(1, 16) if k == 0 else F(1)}), F(1))
inv = invert_frame_operator(S, F(sys.argv[1]), F(1))
g = VectorName.from_combo(FiniteCombo(H, {0: F(1), 1: F(1)}))
for n in (8, 16, 32):
    try:
        inv.apply(g).approx(n)
    except SpectralHypothesisError:
        continue
    sys.exit(1)
"""

_window_ends = st.sampled_from([F(1, 4), F(1, 2), F(1), F(2), F(4), F(9)])


class TestSpectralCertificate:
    @pytest.mark.parametrize("lower", ["1/4", "1/2"])
    def test_false_lower_bound_raises(self, lower):
        proc = subprocess.run([sys.executable, "-c", _FALSE_LOWER_BOUND, lower],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr

    # Left out as undetectable: a coordinate of f along an eigenvalue
    # outside the window that is smaller than about lower * 2^-(n+1).  The
    # residual of f never exceeds the stopping threshold there, so no
    # check on it can see the false window, and the inverse image may be
    # off on that coordinate by up to (lower / eigenvalue) * 2^-(n+1).
    # Every nonzero coordinate drawn here is at least 1/9.
    @settings(max_examples=25, deadline=None)
    @given(weights=_weights, coeffs=_vectors, ends=st.tuples(_window_ends,
                                                             _window_ends))
    @example(weights={0: F(1, 2)}, coeffs={0: F(1), 1: F(1)},
             ends=(F(1), F(4)))
    @example(weights={0: F(3)}, coeffs={0: F(1), 1: F(-1, 3)},
             ends=(F(1, 2), F(4)))
    def test_diagonal_windows(self, weights, coeffs, ends):
        lower, upper = sorted(ends)
        n = 32
        H = SpaceDescriptor()
        G0, norms, ao = diagonal_gframe(H, weights)
        G = GFrameName(H, G0.op, lower, upper)
        dual, _ = canonical_dual_pair(G, norms, ao)
        f = vec(H, coeffs)
        # the iteration only meets the eigenvalues on the support of f
        holds = all(lower <= weights.get(i, 1) ** 2 <= upper
                    for i, q in coeffs.items() if q)
        try:
            got = reconstruct(G, norms, ao, f).approx(n)
            assert got.sub(f.exact_combo).norm_squared() <= pow2(-2 * n)
            for i in range(6):
                w = weights.get(i, 1)
                want = combo(G.op(i).cod, {0: coeffs.get(i, 0) / w})
                err = dual.op(i).apply(f).approx(n).sub(want).norm_squared()
                assert err <= pow2(-2 * n)
        except SpectralHypothesisError:
            assert not holds

    def test_true_window_steps_stay_within_the_a_priori_count(self, H, weighted,
                                                              monkeypatch):
        G, norms, ao = weighted
        S = frame_operator(G, norms, ao)
        applied = []
        counted = OperatorName(H, H, S.bound,
                               lambda u: applied.append(1) or S.apply(u))
        g = vec(H, {0: 1, 1: F(-1, 3)})
        steps = gframes._iteration_count(F(2), F(1), F(4), 32) + 3
        u = richardson_iterate(counted, F(1), F(4), g, steps, 32)
        assert 0 < len(applied) <= steps
        want = combo(H, {0: F(1, 4), 1: F(-1, 3)})
        assert u.sub(want).norm_squared() <= pow2(-66)


# the tridiagonal operator e_k -> e_k + (e_(k-1) + e_(k+1))/4 has spectrum
# inside [1/2, 3/2] and no finite rank: the Krylov loop's one path with no
# step bound of its own, checked against relaxation in a subprocess
_INFINITE_RANK = """
from fractions import Fraction as F
from exactframes import (FiniteCombo, SpaceDescriptor, VectorName, gframes,
                         invert_frame_operator, operator_from_columns,
                         richardson_iterate)
H = SpaceDescriptor()

def column(k):
    terms = {k: F(1), k + 1: F(1, 4)}
    if k:
        terms[k - 1] = F(1, 4)
    return FiniteCombo(H, terms)

lower, upper = F(1, 2), F(3, 2)
S = operator_from_columns(H, H, column, upper)
answered = []
krylov = gframes._krylov_iterate
gframes._krylov_iterate = lambda *args: answered.append(krylov(*args)) or answered[-1]
g = VectorName.from_combo(FiniteCombo(H, {0: F(1), 3: F(-2, 3)}))
inverse = invert_frame_operator(S, lower, upper).apply(g)
for n in (16, 32, 64):
    got = inverse.approx(n)
    steps = gframes._iteration_count(F(2), lower, upper, n) + 3
    want = richardson_iterate(S, lower, upper, g, steps, n)
    assert got.sub(want).norm_squared() <= F(1, 4 ** n), n
assert len(answered) == 3 and None not in answered, answered
"""


class TestKrylovInversion:
    """Conjugate gradients where S is exact: at most r + 1 products of S
    on the identity plus rank r, and the window decided on the Lanczos
    matrix of the steps."""

    @staticmethod
    def _counted_inverse(H, G, norms, ao):
        S = frame_operator(G, norms, ao)
        inputs = []
        counted = OperatorName(H, H, S.bound,
                               lambda u: inputs.append(u) or S.apply(u))
        return invert_frame_operator(counted, G.lower, G.upper), inputs

    @pytest.mark.parametrize("kind", ["diagonal", "atoms"])
    def test_rank_two_takes_at_most_three_products(self, H, kind):
        f = {0: F(1, 3), 1: F(-2, 5), 2: F(1, 7), 3: F(1)}
        if kind == "diagonal":
            # S = diag(4, 1/4, 1, 1, ...)
            frame = diagonal_gframe(H, {0: F(2), 1: F(1, 2)})
            want = {0: F(1, 12), 1: F(-8, 5), 2: F(1, 7), 3: F(1)}
        else:
            # atoms e0 + e1, e1, then e2, e3, ...: S = [[1, 1], [1, 2]] + I
            frame = atoms_gframe(H, [combo(H, {0: 1, 1: 1}), combo(H, {1: 1})],
                                 0, F(1, 4), F(3))
            want = {0: 2 * f[0] - f[1], 1: f[1] - f[0], 2: f[2], 3: f[3]}
        inv, inputs = self._counted_inverse(H, *frame)
        # exactness is probed once, on the zero vector, at construction
        assert [u.exact_combo.is_zero() for u in inputs] == [True]
        g = inv.apply(vec(H, f))
        rank = 2
        for n in (32, 64):
            before = len(inputs)
            got = g.approx(n)
            assert 0 < len(inputs) - before <= rank + 1, (n, inputs[before:])
            assert got.sub(combo(H, want)).norm_squared() <= pow2(-2 * n)

    def test_ritz_values_outside_a_false_window_raise(self, H):
        # S = diag(2, 1, 1, ...): on this f each Krylov direction has its
        # Rayleigh quotient (28/19, 28/23) inside the claim [1, 3/2], but
        # the Ritz values are 1 and 2
        e0 = combo(H, {0: 1})
        G, norms, ao = atoms_gframe(H, [e0, e0], -1, F(1), F(3, 2))
        f = vec(H, {0: 1, 1: 1, 2: F(1, 3)})
        with pytest.raises(SpectralHypothesisError,
                           match="spectral window does not hold"):
            reconstruct(G, norms, ao, f).approx(32)
        inv = invert_frame_operator(frame_operator(G, norms, ao), G.lower,
                                    G.upper)
        with pytest.raises(SpectralHypothesisError):
            inv.apply(f).approx(16)

    def test_infinite_rank_agrees_with_relaxation(self):
        proc = subprocess.run([sys.executable, "-c", _INFINITE_RANK],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestReconstructionPaths:
    """reconstruct reads S(S^-1 f); it must agree with the synthesis of
    the canonical dual's analysis, which it does not call."""

    @staticmethod
    def _frames(H):
        e0 = combo(H, {0: 1})
        frames = dict(standard_frames(H))
        frames.update({
            "parseval": diagonal_gframe(H),
            "block 2": block_gframe(H, 2),
            "atoms 1 2": atoms_gframe(H, [e0, e0], -1, F(1), F(2)),
            "diagonal 0:2": diagonal_gframe(H, {0: F(2)}),
            "diagonal 0:2 1:1/2": diagonal_gframe(H, {0: F(2), 1: F(1, 2)}),
        })
        return frames

    def test_canonical_dual_agrees_with_the_composition(self, H):
        f = vec(H, {1: F(1, 3), 2: F(-2, 5)})
        for name, (G, norms, ao) in self._frames(H).items():
            dual, ao_d = canonical_dual_pair(G, norms, ao)
            direct = reconstruct(G, norms, ao, f)
            composed = synthesis(G, norms).apply(
                analysis(dual, ao_d).apply(f).in_space(G.sum_space()))
            for n in (16, 32, 64):
                gap = direct.approx(n).sub(composed.approx(n))
                assert gap.norm_squared() <= pow2(-2 * n), (name, n)

    def test_canonical_dual_iterates_at_linear_precision(self, H, monkeypatch):
        # the stock frame operator is exact, so the Krylov loop runs
        precisions = []
        iterate = gframes._krylov_iterate

        def recording(S, lower, upper, g, precision):
            precisions.append(precision)
            return iterate(S, lower, upper, g, precision)

        monkeypatch.setattr(gframes, "_krylov_iterate", recording)
        G, norms, ao = diagonal_gframe(H, {0: F(2), 1: F(1, 2)})
        f = vec(H, {1: F(1, 3), 2: F(-2, 5)})
        got = reconstruct(G, norms, ao, f).approx(64)
        assert got.sub(f.exact_combo).norm_squared() <= pow2(-128)
        # n + 1 + bits_for(4) = 67
        assert precisions == [67]

    def test_lazy_frame_operator_relaxes_at_linear_precision(self, H,
                                                             monkeypatch):
        # a claimed norms takes the synthesis of the analysis, whose exact
        # images come only from exact prefixes: it always relaxes
        precisions = []
        iterate = gframes.richardson_iterate

        def recording(S, lower, upper, g, steps, precision):
            precisions.append(precision)
            return iterate(S, lower, upper, g, steps, precision)

        def krylov(*args):
            raise AssertionError("the Krylov loop ran on lazy products")

        monkeypatch.setattr(gframes, "richardson_iterate", recording)
        monkeypatch.setattr(gframes, "_krylov_iterate", krylov)
        G, norms, ao = diagonal_gframe(H, {0: F(2), 1: F(1, 2)})
        claimed = lambda i, j: norms(i, j)      # equal in value, not the same
        f = vec(H, {1: F(1, 3), 2: F(-2, 5)})
        got = reconstruct(G, claimed, ao, f).approx(64)
        assert got.sub(f.exact_combo).norm_squared() <= pow2(-128)
        assert precisions == [67]


_SPECKER = SpeckerData.from_prefix([1, 3])
_GATE = creal_from_rational(F(17, 256))

# every operator built on bounded_operator, with an input index its
# error is amplified from
_BOUNDED_OPERATOR_USERS = {
    "columns": lambda H: (operator_from_columns(
        H, H, lambda k: combo(H, {k: 2 if k == 0 else 1}), F(2)), 0),
    "frame operator": lambda H: (
        frame_operator(*diagonal_gframe(H, {0: F(2)})), 0),
    "upper toeplitz": lambda H: (upper_u_operator(H, _SPECKER), 3),
    "lower synthesis": lambda H: (
        upper_u_operator(H, _SPECKER), 3),
    "column adjoint": lambda H: (
        column_lower_adjoint(H, _SPECKER), 1),
    "gated lower toeplitz": lambda H: (
        gated_adjoint(H, _SPECKER, _GATE), 0),
    "gated loaded column": lambda H: (
        column_lower_operator(H, _SPECKER, _GATE), 0),
    "dual tau": lambda H: (
        gated_dual_tau(H, _SPECKER, _GATE).op(0), 0),
    "remark frame operator": lambda H: (
        remark_frame_operator(H, _SPECKER, _GATE), 0),
}


class TestBoundedOperatorRule:
    @pytest.mark.parametrize("name", list(_BOUNDED_OPERATOR_USERS))
    def test_adversarial_lazy_input_stays_within_the_bound(self, H, name):
        T, k = _BOUNDED_OPERATOR_USERS[name](H)
        c = combo(H, {0: F(1, 3), 1: F(-2, 5), 3: F(1, 7)})
        for n in (8, 16, 32):
            got = T.apply(off_by_one_unit(c, k)).approx(n)
            # the exact-input image, itself read within 2^-(n+24)
            want = T.apply(VectorName.from_combo(c)).approx(n + 24)
            slack = pow2(-n) + pow2(-(n + 24))
            assert got.sub(want).norm_squared() <= slack * slack, (name, n)

    def test_frame_operator_reads_a_lazy_input_at_linear_precision(self, H):
        G, norms, ao = diagonal_gframe(H, {0: F(2), 1: F(1, 2)})
        S = frame_operator(G, norms, ao)
        c = combo(H, {0: F(1, 3), 1: F(-2, 5)})
        for n in (16, 32, 64):
            asked = []
            f = VectorName(H, lambda m: asked.append(m) or c)
            got = S.apply(f).approx(n)
            assert max(asked) <= n + 1 + bits_for(G.upper)
            want = combo(H, {0: F(4, 3), 1: F(-1, 10)})
            assert got.sub(want).norm_squared() <= pow2(-2 * n)
