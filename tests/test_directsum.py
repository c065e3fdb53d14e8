import random
from fractions import Fraction

import pytest

from exactframes import (
    CRealSeq,
    PrecisionExhaustionError,
    SumName,
    SumSpace,
    creal_from_rational,
    creal_sqrt,
    fourier_to_sum,
    sum_embed,
    sum_inner_product,
    sum_to_fourier,
    vec_distance,
)
from exactframes.realcore import pairing, pow2

from conftest import combo, finishes, random_combo, vec

F = Fraction


@pytest.fixture
def ss(H):
    return SumSpace(lambda i: H)


def exact_norms(comps):
    return CRealSeq(lambda i: creal_sqrt(creal_from_rational(
        comps[i].norm_squared() if i in comps else F(0))))


class TestMemoisedComponents:
    def test_component_may_read_earlier_components(self, H):
        ss = SumSpace(lambda i: H if i == 0 else ss.component(i - 1))
        assert finishes(lambda: ss.component(1))
        assert ss.component(3) is H


class TestEmbedding:
    def test_basis_embed(self, H, ss):
        F00 = sum_embed(ss, 0, vec(H, {0: 1}))
        assert abs(F00.normsq.approx(20) - 1) <= pow2(-20)
        assert F00.component(0).approx(10).terms == ((0, F(1)),)
        assert F00.component(3).approx(10).is_zero()

    def test_zero_embed(self, H, ss):
        Z = sum_embed(ss, 2, vec(H, {}))
        assert Z.normsq.approx(30) <= pow2(-30)

    def test_pythagorean_mass(self, H, ss):
        G = sum_embed(ss, 1, vec(H, {0: F(3, 5), 1: F(4, 5)}))
        assert abs(G.normsq.approx(25) - 1) <= pow2(-25)


class TestSumInnerProduct:
    def test_unit_diagonal(self, ss):
        E00 = ss.basis(0, 0)
        assert abs(sum_inner_product(E00, E00).approx(20) - 1) <= pow2(-20)

    def test_cross_slots_vanish(self, ss):
        assert abs(sum_inner_product(ss.basis(0, 0),
                                     ss.basis(1, 0)).approx(20)) <= pow2(-20)

    def test_orthogonal_combination(self, H, ss):
        plus = SumName.finite(ss, {0: combo(H, {0: 1}), 1: combo(H, {1: 1})})
        minus = SumName.finite(ss, {0: combo(H, {0: 1}),
                                    1: combo(H, {1: -1})})
        assert abs(plus.normsq.approx(10) - 2) <= pow2(-10)
        assert abs(sum_inner_product(plus, minus).approx(25)) <= pow2(-25)

    def test_matches_norm_datum(self, H, ss):
        rng = random.Random(13)
        for _ in range(5):
            comps = {i: random_combo(rng, H, max_terms=4, den=8, indices=6)
                     for i in rng.sample(range(6), 3)}
            X = SumName.finite(ss, comps)
            self_ip = sum_inner_product(X, X).approx(25)
            assert abs(self_ip - X.normsq.approx(25)) <= pow2(-23)

    def test_norm_from_datum(self, H, ss):
        X = SumName.finite(ss, {0: combo(H, {0: F(3, 5), 1: F(4, 5)})})
        assert abs(creal_sqrt(X.normsq).approx(25) - 1) <= pow2(-25)

    def test_component_partials_stay_below_mass(self, H, ss):
        X = SumName.finite(ss, {0: combo(H, {0: 1}), 3: combo(H, {1: F(1, 2)})})
        total = X.normsq.approx(30)
        running = F(0)
        for i in range(6):
            c = X.component(i).approx(30)
            running += c.norm_squared()
            assert running <= total + pow2(-25)


class TestBasisOrthonormality:
    def test_sampled_pairs(self, ss):
        pairs = [(0, 0), (0, 1), (1, 0), (2, 3)]
        for i, j in pairs:
            for k, l in pairs:
                got = sum_inner_product(ss.basis(i, j), ss.basis(k, l)).approx(30)
                want = 1 if (i, j) == (k, l) else 0
                assert abs(got - want) <= pow2(-30)

    def test_flat_indexing_follows_pairing(self, ss):
        k = pairing(1, 2)
        E = ss.flat_basis(k)
        assert E.component(1).approx(10).terms == ((2, F(1)),)


class TestFourierDirection:
    def test_basis_coefficients(self, ss):
        G = sum_to_fourier(ss.basis(0, 0))
        assert abs(G.coeff(0, 0).approx(20) - 1) <= pow2(-20)
        for i, j in ((0, 1), (1, 0), (2, 2)):
            assert abs(G.coeff(i, j).approx(20)) <= pow2(-20)

    def test_scaled_component(self, H, ss):
        G = sum_to_fourier(sum_embed(ss, 1, vec(H, {0: F(1, 2)})))
        assert abs(G.coeff(1, 0).approx(20) - F(1, 2)) <= pow2(-20)
        assert abs(G.normsq.approx(20) - F(1, 4)) <= pow2(-20)

    def test_expansion_coefficients(self, H, ss):
        G = sum_to_fourier(SumName.finite(
            ss, {0: combo(H, {0: F(3, 5), 1: F(4, 5)})}))
        assert abs(G.coeff(0, 0).approx(25) - F(3, 5)) <= pow2(-25)
        assert abs(G.coeff(0, 1).approx(25) - F(4, 5)) <= pow2(-25)

    def test_parseval_partials_below_mass(self, H, ss):
        X = SumName.finite(ss, {0: combo(H, {0: 1, 2: F(1, 2)}),
                                2: combo(H, {1: F(2, 3)})})
        G = sum_to_fourier(X)
        total = X.normsq.approx(30)
        running = F(0)
        for size in (1, 2, 4, 6):
            running = sum((G.coeff(i, j).approx(30) ** 2
                           for i in range(size) for j in range(size)),
                          F(0))
            assert running <= total + pow2(-25)
        assert abs(running - total) <= pow2(-20)


class TestSumDirection:
    def test_basis_roundtrip(self, H, ss):
        E00 = ss.basis(0, 0)
        back = fourier_to_sum(sum_to_fourier(E00),
                              CRealSeq.from_values([F(1)]))
        d = vec_distance(back.component(0), E00.component(0)).approx(30)
        assert d <= pow2(-30)

    def test_zero_with_zero_norms(self, ss):
        Z = SumName.zero(ss)
        back = fourier_to_sum(sum_to_fourier(Z), CRealSeq.from_values([]))
        for i in range(3):
            assert back.component(i).approx(25).norm_squared() <= pow2(-48)

    def test_random_roundtrips(self, H, ss):
        rng = random.Random(17)
        for _ in range(5):
            comps = {i: random_combo(rng, H, max_terms=5, den=8, indices=8)
                     for i in rng.sample(range(5), rng.randint(1, 3))}
            X = SumName.finite(ss, comps)
            back = fourier_to_sum(sum_to_fourier(X), exact_norms(comps))
            for i in range(6):
                d = vec_distance(back.component(i), X.component(i)).approx(30)
                assert d <= pow2(-30)

    def test_wrong_component_norms_fail_loudly(self, H, ss):
        X = SumName.finite(ss, {0: combo(H, {0: 1})})
        wrong = CRealSeq.from_values([F(1, 2)])     # true norm is 1
        back = fourier_to_sum(sum_to_fourier(X), wrong)
        with pytest.raises(PrecisionExhaustionError):
            back.component(0).approx(20)

    def test_understated_mass_in_inner_product(self, H, ss):
        honest = SumName.finite(ss, {0: combo(H, {0: 1})})
        lying = SumName(ss, honest.component, creal_from_rational(F(1, 4)))
        with pytest.raises(PrecisionExhaustionError):
            sum_inner_product(lying, lying).approx(20)
