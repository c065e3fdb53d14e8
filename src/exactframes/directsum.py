"""The l2 direct sum of a sequence of component spaces.

Two name formats coexist for the same space.  A SumName gives each
component as a vector name plus the total squared norm as one CReal; a
FourierName gives the doubly indexed basis coordinates plus the same
total.  Converting SumName -> FourierName is free; the converse
genuinely needs a computable sequence of component norms, which is why
fourier_to_sum takes it as an explicit argument and certifies against
it.

The injected basis E(i, j) (component basis vector j placed at slot i)
is orthonormal for the sum space; flat indexing threads through the
pairing bijection.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .errors import SpaceMismatchError
from .realcore import (
    CReal,
    CRealSeq,
    PrefixSums,
    _Memo,
    _term_limit,
    certified_tail_cut,
    creal_from_rational,
    creal_mul,
    creal_sum,
    pow2,
    unpairing,
)
from .hilbert import (
    FiniteCombo,
    SpaceDescriptor,
    VectorName,
    basis_vector,
    inner_product,
    same_space,
    vector_from_coefficients,
)


class SumSpace:
    """The l2 sum of the component spaces produced by an oracle."""

    def __init__(self, components: Callable[[int], SpaceDescriptor]):
        self._components = components
        self._cache = _Memo()
        self.descriptor = SpaceDescriptor(dimension=None)

    def component(self, i: int) -> SpaceDescriptor:
        if i < 0:
            raise ValueError("component index must be a natural number")
        return self._cache.lookup(i, self._components, i)

    def basis(self, i: int, j: int) -> "SumName":
        return sum_embed(self, i, basis_vector(self.component(i), j))

    def flat_basis(self, k: int) -> "SumName":
        i, j = unpairing(k)
        return self.basis(i, j)


class SumName:
    """Componentwise names plus the total squared norm as extra data.

    The normsq field is part of the name, not derivable from the
    components: without it no truncation of the component sequence can
    be certified.
    """

    __slots__ = ("space", "_fn", "normsq", "_cache", "_normsq_sums")

    def __init__(self, space: SumSpace, fn: Callable[[int], VectorName],
                 normsq: CReal):
        self.space = space
        self._fn = fn
        self.normsq = normsq
        self._cache = _Memo()
        self._normsq_sums = PrefixSums()

    def component(self, i: int) -> VectorName:
        return self._cache.lookup(i, self._checked_component, i)

    def _checked_component(self, i: int) -> VectorName:
        got = self._fn(i)
        if not same_space(got.space, self.space.component(i)):
            raise SpaceMismatchError(f"component {i} lives in the wrong space")
        return got

    def normsq_partial(self, count: int) -> CReal:
        """The sum of the squared norms of the first count components,
        memoised on this name across precisions and callers."""
        return self._normsq_sums.upto(count, self._component_normsq)

    def _component_normsq(self, i: int) -> CReal:
        c = self.component(i)
        return inner_product(c, c)

    @classmethod
    def finite(cls, space: SumSpace,
               comps: Mapping[int, FiniteCombo]) -> "SumName":
        """A finitely supported element with exact combination data; the
        squared norm is then an exact rational."""
        table = {i: VectorName.from_combo(c) for i, c in comps.items()}
        normsq = sum((c.norm_squared() for c in comps.values()), Fraction(0))

        def fn(i: int) -> VectorName:
            got = table.get(i)
            return got if got is not None else VectorName.zero(space.component(i))

        return cls(space, fn, creal_from_rational(normsq))

    @classmethod
    def zero(cls, space: SumSpace) -> "SumName":
        return cls.finite(space, {})

    def in_space(self, space: SumSpace) -> "SumName":
        """View this name in another sum space over the same component
        spaces; membership is still checked component by component."""
        if space is self.space:
            return self
        return SumName(space, self.component, self.normsq)


class FourierName:
    """Doubly indexed basis coordinates plus the total squared norm."""

    __slots__ = ("space", "_fn", "normsq", "_cache")

    def __init__(self, space: SumSpace, fn: Callable[[int, int], CReal],
                 normsq: CReal):
        self.space = space
        self._fn = fn
        self.normsq = normsq
        self._cache = _Memo()

    def coeff(self, i: int, j: int) -> CReal:
        return self._cache.lookup((i, j), self._fn, i, j)


def sum_embed(space: SumSpace, i: int, f: VectorName) -> SumName:
    """Coordinate injection: f at slot i, zero elsewhere."""
    if not same_space(f.space, space.component(i)):
        raise SpaceMismatchError(f"vector does not live in component {i}")

    def fn(k: int) -> VectorName:
        return f if k == i else VectorName.zero(space.component(k))

    return SumName(space, fn, inner_product(f, f))


def component_cut(F: SumName, theta: Fraction, limit: int) -> int:
    """Certified count with the component tail square <= 2*theta, the
    "sum norm datum" cut at a constant allowance; partial square sums
    are monotone, so any larger count keeps the bound."""
    return certified_tail_cut(F.normsq, F.normsq_partial, lambda _: theta,
                              limit, what="sum norm datum")


def sum_inner_product(F: SumName, G: SumName) -> CReal:
    """Certified inner product: the cross tail is bounded by the product
    of the two certified component tails."""
    if F.space is not G.space:
        raise SpaceMismatchError("sum names from different sum spaces")

    def fn(n: int) -> Fraction:
        # per-side tail squares <= 2*theta, so cross tail <= 2*theta <= 2^-(n+2)
        theta = pow2(-(n + 3))
        limit = _term_limit(n)
        count = max(component_cut(F, theta, limit),
                    component_cut(G, theta, limit))
        finite = creal_sum([inner_product(F.component(i), G.component(i))
                            for i in range(count)])
        return finite.approx(n + 1)

    return CReal(fn)


def sum_to_fourier(F: SumName) -> FourierName:
    """Componentwise basis coordinates; the norm datum passes through."""

    def fn(i: int, j: int) -> CReal:
        space_i = F.space.component(i)
        if space_i.dimension is not None and j >= space_i.dimension:
            return creal_from_rational(0)
        return inner_product(F.component(i), basis_vector(space_i, j))

    return FourierName(F.space, fn, F.normsq)


def fourier_to_sum(G: FourierName, compnorms: CRealSeq) -> SumName:
    """Reassemble components from coordinates.

    compnorms.at(i) must equal the norm of component i; that sequence is
    the load-bearing hypothesis here, and each component assembly
    certifies its truncation against it (failing loudly when it is
    understated)."""

    def fn(i: int) -> VectorName:
        space_i = G.space.component(i)
        norm_i = compnorms.at(i)
        return vector_from_coefficients(
            space_i, lambda j: G.coeff(i, j), creal_mul(norm_i, norm_i))

    return SumName(G.space, fn, G.normsq)
