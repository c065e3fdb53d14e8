"""Counterexample operator constructions over Specker-style term data.

Three Toeplitz-flavored operators on an infinite space, parameterized by
SpeckerData terms a_1, a_2, ... (a_k = term(k-1)).  Each has a direction
that is computable outright (finite matrix action on finite rational
combinations) and a direction whose columns carry the whole term
sequence at once, which is constructible exactly when the squared l2
mass of the terms, sum of a_k**2, is supplied as an explicit gate: a
CReal that the caller claims, since the terms alone do not determine
it.  Every function takes the terms as SpeckerData s and, where needed,
that gate.  All gated assemblies certify their truncations against the
gate: an understated gate yields PrecisionExhaustionError, never a wrong
vector.

Finitely truncated term data (SpeckerData.from_prefix) with an exact
rational gate turns every construction here into an exact
finite-dimensional computation, which is how the test batteries check
them against direct linear algebra.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .realcore import (
    CReal,
    SpeckerData,
    _term_limit,
    bits_for,
    ceil_int,
    certified_tail_cut,
    creal_add,
    creal_from_rational,
    creal_scale,
    creal_sqrt,
    dyadic_round,
    pow2,
)
from .hilbert import FiniteCombo, SpaceDescriptor, VectorName
from .gframes import (
    GFrameName,
    NormsOracle,
    OperatorName,
    bounded_operator,
    zero_operator,
)

_ZERO = creal_from_rational(0)
_ONE = creal_from_rational(1)


def _require_infinite(space: SpaceDescriptor) -> None:
    if space.dimension is not None:
        raise ValueError("gallery constructions act on an infinite space")


def upper_u_operator(space: SpaceDescriptor, s: SpeckerData) -> OperatorName:
    """The upper-Toeplitz operator U itself, computable with no gate:
    row i is (0...0, 1, a_1, a_2, ...), so (Uf)_i = f_i + sum over
    k >= 1 of a_k f_(i+k), exact on finite combinations, since only
    finitely many terms meet the support; the operator norm is at most
    1 + l1(a) <= 2.  It is also the synthesis-side face of the
    lower-Toeplitz construction, whose columns are the shifted
    (1, a_1, a_2, ...)."""
    _require_infinite(space)

    def image(c: FiniteCombo) -> VectorName:
        out = {k: q for k, q in c.terms}
        for j, q in c.terms:
            for i in range(j):
                t = s.term(j - i - 1)
                if t:
                    out[i] = out.get(i, Fraction(0)) + t * q
        return VectorName.from_combo(FiniteCombo(space, out))

    return bounded_operator(space, space, Fraction(3), image)


def column_lower_adjoint(space: SpaceDescriptor, s: SpeckerData) -> OperatorName:
    """C*, the adjoint of the loaded-column operator C: row 0 gathers
    the terms, every other row is the identity; exact on finite
    combinations, so it needs no gate."""
    _require_infinite(space)

    def image(c: FiniteCombo) -> VectorName:
        out = {k: q for k, q in c.terms}
        acc = Fraction(0)
        for k, q in c.terms:
            if k >= 1:
                t = s.term(k - 1)
                if t:
                    acc += t * q
        if acc:
            out[0] = out.get(0, Fraction(0)) + acc
        return VectorName.from_combo(FiniteCombo(space, out))

    return bounded_operator(space, space, Fraction(3), image)


def _gated_column(s: SpeckerData, gate: CReal, weight: Fraction,
                  err: Fraction, n: int) -> list[tuple[int, Fraction]]:
    """The nonzero (k, a_k) for 1 <= k <= K, with K certified against the
    gate so that weight times the l2 mass of the neglected terms is at
    most sqrt(2) * err; understated gates fail here."""
    theta = (err / weight) ** 2
    cut = certified_tail_cut(
        gate,
        lambda count: creal_from_rational(s.sum_of_squares(count)),
        lambda count: theta, _term_limit(n), what="norm gate")
    return [(k, t) for k in range(1, cut + 1) if (t := s.term(k - 1))]


def gated_adjoint(space: SpaceDescriptor, s: SpeckerData,
                  gate: CReal) -> OperatorName:
    """U*, the gated adjoint of upper_u_operator: the lower-Toeplitz
    action whose column j is the shifted (1, a_1, a_2, ...).  Each column
    carries every term, so it is truncated against the gate, the claimed
    squared l2 mass of the terms; an understated gate fails."""
    _require_infinite(space)

    def image(c: FiniteCombo) -> VectorName:
        def fn(n: int) -> FiniteCombo:
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

    return bounded_operator(space, space, Fraction(3), image)


def column_lower_operator(space: SpaceDescriptor, s: SpeckerData,
                          gate: CReal) -> OperatorName:
    """C, the gated adjoint of column_lower_adjoint: the identity plus a
    loaded column 0 = (1, a_1, a_2, ...).  That column is truncated
    against the gate, the claimed squared l2 mass of the terms; an
    understated gate fails."""
    _require_infinite(space)

    def image(c: FiniteCombo) -> VectorName:
        def fn(n: int) -> FiniteCombo:
            out = {k: q for k, q in c.terms}
            c0 = c.coeff(0)
            if c0:
                for k, t in _gated_column(s, gate, abs(c0), pow2(-(n + 3)), n):
                    out[k] = out.get(k, Fraction(0)) + t * c0
            return FiniteCombo(space, out)

        return VectorName(space, fn)

    return bounded_operator(space, space, Fraction(3), image)


def _effective_prefix(s: SpeckerData, gate: CReal, budget: Fraction,
                      limit: int) -> tuple[int, Fraction]:
    """Certify a cut K against the gate so the neglected term l1 mass is
    at most min(margin/2, budget * margin**2 / 2), margin = 1 - l1 of
    the kept terms; return K and that l1.  K is the "norm gate"
    certified_tail_cut of the squared mass, its allowance eps(count)
    read from the terms kept.

    The l1 control comes from the distinct-powers structure of
    SpeckerData: every neglected term is at most the square root of the
    certified residual, and distinct powers of two below that bound sum
    to less than twice it.
    """
    def eps(count: int) -> Fraction:
        margin = 1 - s.sum_of_terms(count)  # > 0: distinct 2^-(j+1) sum below 1
        target_l1 = min(margin / 2, budget * margin * margin / 2)
        return (target_l1 / 3) ** 2  # residual <= 2*eps gives l1 <= 3*sqrt(eps)

    cut = certified_tail_cut(
        gate,
        lambda count: creal_from_rational(s.sum_of_squares(count)),
        eps, limit, what="norm gate")
    return cut, s.sum_of_terms(cut)


def _extend_reciprocal(bs: list[int], shifts: list[tuple[int, int]],
                       upto: int) -> None:
    """Extend bs to index upto with the reciprocal convolution symbol in
    scaled integers: B_m ~ b_m * 2**w from B_0 = 2**w, where b_0 = 1 and
    b_m = - sum over l of a_l b_(m-l), each kept term a_l = 2**-shift
    given as (l, shift), and every shift floors.

    The floors are exact while 2**w bounds the denominator of every b_m
    reached, e.g. w = upto * max(shift): a product of k terms has
    denominator at most 2**(k * max(shift)), and k <= m.  At any smaller
    w it is a fixed-point expansion: each floor errs by less than one
    unit and the K kept terms sum to sigma < 1, so by induction on m
    every B_m lies within K / (1 - sigma) units of b_m * 2**w.
    """
    for m in range(len(bs), upto + 1):
        acc = 0
        for l, shift in shifts:
            if l > m:
                break
            acc += bs[m - l] >> shift
        bs.append(-acc)


def gated_dual_tau(space: SpaceDescriptor, s: SpeckerData,
                   gate: CReal) -> GFrameName:
    """The dual g-frame of the single-operator upper-Toeplitz g-frame:
    the inverse of its synthesis-side lower-Toeplitz action.

    A single-operator g-frame has exactly one dual, the inverse of the
    adjoint, so the rows are the reciprocal convolution coefficients
    b_m (b_0 = 1, b_m = -sum a_l b_(m-l)), not just their first-order
    part (-a_m).  The gate enters twice: it certifies an effective
    truncation of the terms (perturbation control through the l1 margin)
    and the certified margin drives the geometric envelope that
    truncates the b sequence.  The gate is the claimed squared l2 mass
    of the terms; an understated gate fails at construction.

    The budget of approx(n) on an input c of l1 norm l1:
    - the cut of the terms and the tail of the b sequence past depth
      spend 2**-(n+4) each;
    - the expansion runs in fixed point at W = n + 4 + bits(isqrt(depth)
      + 1) + bits(l1 K / (1 - sigma)) bits, K kept terms of l1 mass
      sigma.  Each coefficient errs by at most K / (1 - sigma) units of
      2**-W (see _extend_reciprocal), so, over depth + 1 coefficients
      convolved with c, the output errs in norm by at most
      sqrt(depth + 1) l1 K / ((1 - sigma) 2**W) <= 2**-(n+4);
    - each of the K' output coefficients is rounded once to the 2**-g
      grid, g = n + 3 + bits(isqrt(K') + 1), which costs at most
      sqrt(K') 2**-(g+1) <= 2**-(n+4).
    That is 2**-(n+2) in all, and every output denominator is a power of
    two no larger than 2**g.
    """
    _require_infinite(space)
    # construction probe: fixes a sound operator bound, rejects bad gates
    _, sigma0 = _effective_prefix(s, gate, Fraction(1, 1 << 12),
                                  _term_limit(8))
    margin0 = 1 - sigma0
    tau_bound = 2 / margin0

    def image(c: FiniteCombo) -> VectorName:
        def fn(n: int) -> FiniteCombo:
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
            # geometric envelope over blocks of length cut: sup |b| over
            # block j <= sigma**j * h0, h0 = sup over block 0 = H / 2**w;
            # the tail mass cut h0^2 sigma^(2 blocks) / (1 - sigma^2) is
            # held to (2^-(n+4) / l1)^2, compared by cross-multiplication
            H = max(abs(b) for b in bs)
            sn2, sd2 = sigma.numerator ** 2, sigma.denominator ** 2
            mass = cut * H * H * sn2 * l1.numerator ** 2 << (2 * n + 8)
            target = (sd2 - sn2) * l1.denominator ** 2 << (2 * w)
            blocks = 1
            while mass > target:
                mass *= sn2
                target *= sd2
                blocks += 1
            depth = blocks * cut
            W = (n + 4 + bits_for(math.isqrt(depth) + 1)
                 + bits_for(l1 * len(shifts) / (1 - sigma)))
            bs = [1 << W]
            _extend_reciprocal(bs, shifts, depth)
            # one common denominator L * 2**W for the whole output
            L = math.lcm(*(q.denominator for _, q in c.terms))
            nonzero = [(m, b) for m, b in enumerate(bs) if b]
            acc: dict[int, int] = {}
            for j, q in c.terms:
                nj = q.numerator * (L // q.denominator)
                for m, b in nonzero:
                    acc[j + m] = acc.get(j + m, 0) + b * nj
            den = L << W
            half = den >> 1
            g = n + 3 + bits_for(math.isqrt(len(acc)) + 1)
            out = {}
            for k, v in acc.items():
                if r := ((v << g) + half) // den:
                    out[k] = Fraction(r, 1 << g)
            return FiniteCombo(space, out)

        return VectorName(space, fn)

    tau_op = bounded_operator(space, space, tau_bound, image)

    def ops(i: int) -> OperatorName:
        return tau_op if i == 0 else zero_operator(space, space)

    return GFrameName(space, ops, Fraction(1, 4), tau_bound * tau_bound)


def toeplitz_upper_gframe(space: SpaceDescriptor, s: SpeckerData,
                          gate: CReal, lower: Fraction,
                          upper: Fraction) -> tuple[GFrameName, NormsOracle]:
    """The single-operator g-frame of the upper-Toeplitz action together
    with its column-norm oracle sqrt(1 + gate), the gate being the
    claimed squared l2 mass of the terms (every adjoint column is a
    shift of (1, a_1, a_2, ...))."""
    U = upper_u_operator(space, s)

    def ops(i: int) -> OperatorName:
        return U if i == 0 else zero_operator(space, space)

    G = GFrameName(space, ops, lower, upper)
    rownorm = creal_sqrt(creal_add(_ONE, gate))

    def norms(i: int, j: int) -> CReal:
        return rownorm if i == 0 else _ZERO

    return G, norms


def remark_frame_operator(space: SpaceDescriptor, s: SpeckerData,
                          gate: CReal) -> OperatorName:
    """Frame operator of the loaded-column vector family e_0,
    (-a_1, 1, 0, ...), (-a_2, 0, 1, ...), ...

    Acting on f it returns (1 + gate) f_0 - sum a_k f_k on coordinate 0
    and f_i - a_i f_0 elsewhere; both the coordinate-0 value and the
    truncation of the trailing column need the gate, the claimed squared
    l2 mass of the terms.
    """
    _require_infinite(space)
    gate_up = Fraction(max(0, ceil_int(gate.approx(0))) + 2)
    bound = 3 + 2 * gate_up

    def image(c: FiniteCombo) -> VectorName:
        def fn(n: int) -> FiniteCombo:
            out = {k: q for k, q in c.terms if k >= 1}
            c0 = c.coeff(0)
            cross = Fraction(0)
            for k, q in c.terms:
                if k >= 1:
                    t = s.term(k - 1)
                    if t:
                        cross += t * q
            head = creal_add(creal_scale(c0, gate),
                             creal_from_rational(c0 - cross))
            h = dyadic_round(head.approx(n + 3), n + 3)
            if h:
                out[0] = h
            if c0:
                for k, t in _gated_column(s, gate, abs(c0), pow2(-(n + 4)), n):
                    out[k] = out.get(k, Fraction(0)) - t * c0
            return FiniteCombo(space, out)

        return VectorName(space, fn)

    return bounded_operator(space, space, bound, image)
