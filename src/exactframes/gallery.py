"""Counterexample operator constructions over Specker-style term data.

Three Toeplitz-flavored operators on an infinite space, parameterized by
SpeckerData terms a_1, a_2, ... (a_k = term(k-1)).  Each has a direction
that is computable outright (finite matrix action on finite rational
combinations) and a direction whose columns carry the whole term
sequence at once, which is constructible exactly when the squared l2
mass of the terms is supplied as an explicit NormOracle gate.  All gated
assemblies certify their truncations against the gate: an understated
gate yields PrecisionExhaustionError, never a wrong vector.

Finitely truncated term data (SpeckerData.from_prefix) with an exact
rational gate turns every construction here into an exact
finite-dimensional computation, which is how the test batteries check
them against direct linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionExhaustionError
from .realcore import (
    Comparison,
    CReal,
    SpeckerData,
    _term_limit,
    bits_for,
    ceil_int,
    certified_tail_cut,
    creal_add,
    creal_compare,
    creal_from_rational,
    creal_scale,
    creal_sqrt,
    creal_sub,
    dyadic_round,
    pow2,
    prec_for,
)
from .hilbert import FiniteCombo, SpaceDescriptor, VectorName
from .gframes import GFrameName, NormsOracle, OperatorName, zero_operator

_ZERO = creal_from_rational(0)
_ONE = creal_from_rational(1)


@dataclass(frozen=True)
class NormOracle:
    """Externally supplied value of the squared l2 mass of the terms.

    This is the datum the constructions below cannot compute for
    themselves; a correct value unlocks them, an understated one makes
    their certificates fail loudly.
    """
    value: CReal

    @classmethod
    def exact(cls, q: Fraction) -> "NormOracle":
        return cls(creal_from_rational(q))


@dataclass(frozen=True)
class ToeplitzUpperU:
    """Upper-triangular Toeplitz action: row i is (0...0, 1, a_1, a_2, ...)."""
    specker: SpeckerData


@dataclass(frozen=True)
class ColumnLowerU:
    """Identity plus a single loaded column: column 0 is (1, a_1, a_2, ...)."""
    specker: SpeckerData


@dataclass(frozen=True)
class ToeplitzLowerU:
    """Lower-triangular Toeplitz action: column j is the shifted
    (1, a_1, a_2, ...)."""
    specker: SpeckerData


def _require_infinite(space: SpaceDescriptor) -> None:
    if space.dimension is not None:
        raise ValueError("gallery constructions act on an infinite space")


def _upper_toeplitz_program(space: SpaceDescriptor, s: SpeckerData):
    """(Uf)_i = f_i + sum over k >= 1 of a_k f_(i+k): exact on finite
    combinations, since only finitely many terms meet the support."""

    def program(f: VectorName) -> VectorName:
        def fn(n: int) -> FiniteCombo:
            c = f.approx(n + 2)      # operator norm <= 1 + l1(a) <= 2
            out = {k: q for k, q in c.terms}
            for j, q in c.terms:
                for i in range(j):
                    t = s.term(j - i - 1)
                    if t:
                        out[i] = out.get(i, Fraction(0)) + t * q
            return FiniteCombo(space, out)

        return VectorName(space, fn)

    return program


def upper_u_operator(space: SpaceDescriptor, s: SpeckerData) -> OperatorName:
    """The upper-Toeplitz operator itself; computable with no gate."""
    _require_infinite(space)
    return OperatorName(space, space, Fraction(3),
                        _upper_toeplitz_program(space, s))


def lower_u_synthesis(space: SpaceDescriptor, t: ToeplitzLowerU) -> OperatorName:
    """The synthesis-side action of the lower-Toeplitz construction: the
    upper-triangular transpose action, computable with no gate."""
    _require_infinite(space)
    return OperatorName(space, space, Fraction(3),
                        _upper_toeplitz_program(space, t.specker))


def column_lower_adjoint(space: SpaceDescriptor, u: ColumnLowerU) -> OperatorName:
    """The adjoint of the loaded-column operator: row 0 gathers the
    terms, every other row is the identity; exact on finite combinations."""
    _require_infinite(space)
    s = u.specker

    def program(f: VectorName) -> VectorName:
        def fn(n: int) -> FiniteCombo:
            c = f.approx(n + 2)
            out = {k: q for k, q in c.terms}
            acc = Fraction(0)
            for k, q in c.terms:
                if k >= 1:
                    t = s.term(k - 1)
                    if t:
                        acc += t * q
            if acc:
                out[0] = out.get(0, Fraction(0)) + acc
            return FiniteCombo(space, out)

        return VectorName(space, fn)

    return OperatorName(space, space, Fraction(3), program)


def _gated_column(s: SpeckerData, gate: NormOracle, weight: Fraction,
                  err: Fraction, n: int) -> list[tuple[int, Fraction]]:
    """The nonzero (k, a_k) for 1 <= k <= K, with K certified against the
    gate so that weight times the l2 mass of the neglected terms is at
    most sqrt(2) * err; understated gates fail here."""
    theta = (err / weight) ** 2
    cut = certified_tail_cut(
        gate.value,
        lambda count: creal_from_rational(s.sum_of_squares(count)),
        theta, prec_for(theta), _term_limit(n), what="norm gate")
    return [(k, t) for k in range(1, cut + 1) if (t := s.term(k - 1))]


def _gated_lower_toeplitz(space: SpaceDescriptor, s: SpeckerData,
                          gate: NormOracle) -> OperatorName:
    def program(f: VectorName) -> VectorName:
        def fn(n: int) -> FiniteCombo:
            c = f.approx(n + 3)
            if not c.terms:
                return FiniteCombo(space, {})
            # column tails: l1 * sqrt(2) * 2^-(n+3) <= 2^-(n+2)
            l1 = sum(abs(q) for _, q in c.terms)
            column = _gated_column(s, gate, l1, pow2(-(n + 3)), n)
            out: dict[int, Fraction] = {}
            for j, q in c.terms:
                out[j] = out.get(j, Fraction(0)) + q
                for k, t in column:
                    out[j + k] = out.get(j + k, Fraction(0)) + t * q
            return FiniteCombo(space, out)

        return VectorName(space, fn)

    return OperatorName(space, space, Fraction(3), program)


def _gated_loaded_column(space: SpaceDescriptor, s: SpeckerData,
                         gate: NormOracle) -> OperatorName:
    def program(f: VectorName) -> VectorName:
        def fn(n: int) -> FiniteCombo:
            c = f.approx(n + 3)
            out = {k: q for k, q in c.terms}
            c0 = c.coeff(0)
            if c0:
                for k, t in _gated_column(s, gate, abs(c0), pow2(-(n + 3)), n):
                    out[k] = out.get(k, Fraction(0)) + t * c0
            return FiniteCombo(space, out)

        return VectorName(space, fn)

    return OperatorName(space, space, Fraction(3), program)


def gated_adjoint(space: SpaceDescriptor,
                  construction, gate: NormOracle) -> OperatorName:
    """The gate-requiring direction of a construction: the adjoint of its
    computable face.

    For the upper-Toeplitz operator that is its adjoint (lower-Toeplitz
    columns); for the loaded-column operator it is the operator itself
    (the adjoint of its computable adjoint); for the lower-Toeplitz
    construction it is again the lower-Toeplitz action.  Every produced
    column is truncated against the gate.
    """
    _require_infinite(space)
    if isinstance(construction, ColumnLowerU):
        return _gated_loaded_column(space, construction.specker, gate)
    if isinstance(construction, (ToeplitzUpperU, ToeplitzLowerU)):
        return _gated_lower_toeplitz(space, construction.specker, gate)
    raise TypeError(f"unsupported gallery construction: {construction!r}")


def _effective_prefix(s: SpeckerData, gate: NormOracle, budget: Fraction,
                      limit: int) -> tuple[int, Fraction]:
    """Certify a cut K against the gate so the neglected term l1 mass is
    at most min(margin/2, budget * margin**2 / 2), margin = 1 - l1 of
    the kept terms.

    The l1 control comes from the distinct-powers structure of
    SpeckerData: every neglected term is at most the square root of the
    certified residual, and distinct powers of two below that bound sum
    to less than twice it.
    """
    count = 4
    while True:
        if count > limit:
            raise PrecisionExhaustionError(
                f"norm gate leaves too much mass unplaced within {limit} terms")
        sigma = s.sum_of_terms(count)
        margin = 1 - sigma           # > 0: distinct powers 2^-(j+1) sum below 1
        target_l1 = min(margin / 2, budget * margin * margin / 2)
        eps = (target_l1 / 3) ** 2   # residual <= 2*eps gives l1 <= 3*sqrt(eps)
        p = prec_for(eps)
        residual = creal_sub(gate.value,
                             creal_from_rational(s.sum_of_squares(count)))
        verdict = creal_compare(residual, creal_from_rational(eps), p)
        if verdict is not Comparison.GREATER_CERTAIN:
            if creal_compare(residual, creal_from_rational(-eps),
                             p) is Comparison.LESS_CERTAIN:
                raise PrecisionExhaustionError(
                    "norm gate understates the term data "
                    f"(residual provably negative by index {count})")
            return count, sigma
        count *= 2


def _extend_reciprocal(bs: list[int], shifts: list[tuple[int, int]],
                       upto: int) -> None:
    """Extend bs to index upto with the reciprocal convolution symbol in
    scaled integers: B_m = b_m * 2**w, b_0 = 1 and b_m = - sum over l of
    a_l b_(m-l), each kept term a_l = 2**-shift given as (l, shift).

    The shifts are exact as long as 2**w bounds the denominator of every
    b_m reached, e.g. w = upto * max(shift): a product of k terms has
    denominator at most 2**(k * max(shift)), and k <= m.
    """
    for m in range(len(bs), upto + 1):
        acc = 0
        for l, shift in shifts:
            if l > m:
                break
            acc += bs[m - l] >> shift
        bs.append(-acc)


def gated_dual_tau(space: SpaceDescriptor, t: ToeplitzUpperU,
                   gate: NormOracle) -> GFrameName:
    """The dual g-frame of the single-operator upper-Toeplitz g-frame:
    the inverse of its synthesis-side lower-Toeplitz action.

    A single-operator g-frame has exactly one dual, the inverse of the
    adjoint, so the rows are the reciprocal convolution coefficients
    b_m (b_0 = 1, b_m = -sum a_l b_(m-l)), not just their first-order
    part (-a_m).  The gate enters twice: it certifies an effective
    truncation of the terms (perturbation control through the l1 margin)
    and the certified margin drives the geometric envelope that
    truncates the b sequence.  An understated gate fails at construction.
    """
    _require_infinite(space)
    s = t.specker
    # construction probe: fixes a sound operator bound, rejects bad gates
    _, sigma0 = _effective_prefix(s, gate, Fraction(1, 1 << 12),
                                  _term_limit(8))
    margin0 = 1 - sigma0
    tau_bound = 2 / margin0
    in_shift = bits_for(tau_bound)

    def program(f: VectorName) -> VectorName:
        def fn(n: int) -> FiniteCombo:
            c = f.approx(n + 2 + in_shift)
            if not c.terms:
                return FiniteCombo(space, {})
            l1 = sum(abs(q) for _, q in c.terms)
            l2_up = Fraction(c.norm_upper())
            # neglected-terms perturbation: ||tau - tau_cut|| <= budget
            budget = pow2(-(n + 4)) / max(Fraction(1), l2_up)
            cut, sigma = _effective_prefix(s, gate, budget, _term_limit(n))
            if sigma == 0:
                return c
            # every kept term is a power of two: b_m = B_m / 2**w exactly
            shifts = [(l, e + 1) for l in range(1, cut + 1)
                      if (e := s.exponent(l - 1)) is not None]
            top = max(shift for _, shift in shifts)
            w = cut * top
            bs = [1 << w]
            _extend_reciprocal(bs, shifts, cut)
            # geometric envelope over blocks of length cut:
            # sup |b| over block j <= sigma**j * sup over block 0
            h0 = Fraction(max(abs(b) for b in bs), 1 << w)
            tail_target = pow2(-(n + 4)) / l1
            sigma2 = sigma * sigma
            target2 = tail_target * tail_target
            blocks = 1
            mass = cut * h0 * h0 * sigma2 / (1 - sigma2)
            while mass > target2:
                mass *= sigma2
                blocks += 1
            depth = blocks * cut
            extra = (depth - cut) * top
            bs = [b << extra for b in bs]
            w += extra
            _extend_reciprocal(bs, shifts, depth)
            # one common denominator L * 2**w for the whole output
            L = math.lcm(*(q.denominator for _, q in c.terms))
            nonzero = [(m, b) for m, b in enumerate(bs) if b]
            acc: dict[int, int] = {}
            for j, q in c.terms:
                nj = q.numerator * (L // q.denominator)
                for m, b in nonzero:
                    acc[j + m] = acc.get(j + m, 0) + b * nj
            den = L << w
            return FiniteCombo(space, {k: Fraction(v, den)
                                       for k, v in acc.items()})

        return VectorName(space, fn)

    tau_op = OperatorName(space, space, tau_bound, program)

    def ops(i: int) -> OperatorName:
        return tau_op if i == 0 else zero_operator(space, space)

    return GFrameName(space, ops, Fraction(1, 4), tau_bound * tau_bound)


def toeplitz_upper_gframe(space: SpaceDescriptor, t: ToeplitzUpperU,
                          gate: NormOracle, lower: Fraction,
                          upper: Fraction) -> tuple[GFrameName, NormsOracle]:
    """The single-operator g-frame of the upper-Toeplitz action together
    with its column-norm oracle sqrt(1 + gate) (every adjoint column is
    a shift of (1, a_1, a_2, ...))."""
    U = upper_u_operator(space, t.specker)

    def ops(i: int) -> OperatorName:
        return U if i == 0 else zero_operator(space, space)

    G = GFrameName(space, ops, lower, upper)
    rownorm = creal_sqrt(creal_add(_ONE, gate.value))

    def norms(i: int, j: int) -> CReal:
        return rownorm if i == 0 else _ZERO

    return G, norms


def remark_frame_operator(space: SpaceDescriptor, u: ColumnLowerU,
                          gate: NormOracle) -> OperatorName:
    """Frame operator of the loaded-column vector family e_0,
    (-a_1, 1, 0, ...), (-a_2, 0, 1, ...), ...

    Acting on f it returns (1 + gate) f_0 - sum a_k f_k on coordinate 0
    and f_i - a_i f_0 elsewhere; both the coordinate-0 value and the
    truncation of the trailing column need the gate.
    """
    _require_infinite(space)
    s = u.specker
    gate_up = Fraction(max(0, ceil_int(gate.value.approx(0))) + 2)
    bound = 3 + 2 * gate_up
    in_shift = bits_for(bound)

    def program(f: VectorName) -> VectorName:
        def fn(n: int) -> FiniteCombo:
            c = f.approx(n + 2 + in_shift)
            out = {k: q for k, q in c.terms if k >= 1}
            c0 = c.coeff(0)
            cross = Fraction(0)
            for k, q in c.terms:
                if k >= 1:
                    t = s.term(k - 1)
                    if t:
                        cross += t * q
            head = creal_add(creal_scale(c0, gate.value),
                             creal_from_rational(c0 - cross))
            h = dyadic_round(head.approx(n + 3), n + 3)
            if h:
                out[0] = h
            if c0:
                for k, t in _gated_column(s, gate, abs(c0), pow2(-(n + 4)), n):
                    out[k] = out.get(k, Fraction(0)) - t * c0
            return FiniteCombo(space, out)

        return VectorName(space, fn)

    return OperatorName(space, space, bound, program)
