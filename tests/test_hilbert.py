import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from exactframes import (
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
    riesz_functional,
    riesz_representer,
    vec_distance,
    vec_lincomb,
    vec_norm,
    vector_from_coefficients,
)
from exactframes.realcore import pow2

from conftest import combo, random_combo, vec

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
        v = vec_lincomb(F(1), basis_vector(H, 0), F(1), basis_vector(H, 1))
        assert v.approx(10).terms == ((0, F(1)), (1, F(1)))

    def test_zero_coefficients(self, H):
        v = vec_lincomb(F(0), vec(H, {0: 1}), F(0), vec(H, {1: 1}))
        assert v.approx(20).is_zero()

    def test_cancellation(self, H):
        e0 = basis_vector(H, 0)
        v = vec_lincomb(F(1, 2), e0, F(-1, 2), e0)
        assert v.approx(40).norm_squared() <= pow2(-80)

    def test_space_mismatch(self, H):
        other = SpaceDescriptor()
        with pytest.raises(SpaceMismatchError):
            vec_lincomb(F(1), basis_vector(H, 0), F(1), basis_vector(other, 0))

    def test_name_consistency(self, H):
        rng = random.Random(3)
        for _ in range(10):
            x = VectorName.from_combo(random_combo(rng, H))
            y = VectorName.from_combo(random_combo(rng, H))
            v = vec_lincomb(F(rng.randint(-9, 9), rng.randint(1, 9)), x,
                            F(rng.randint(-9, 9), rng.randint(1, 9)), y)
            grid = [0, 7, 16, 35]
            at = {n: v.approx(n) for n in grid}
            for n in grid:
                for m in grid:
                    bound = pow2(-n) + pow2(-m)
                    assert at[n].sub(at[m]).norm_squared() <= bound * bound


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
