"""Operator names, frames and generalized frames, and the certified
operator algebra on them: synthesis, analysis, the frame operator with
its certified inversion, canonical and perturbed duals.

Conditional data (column norms, per-row coefficient sums, analysis
sums) appear as explicit arguments throughout.  None of them is
derivable from the other names in general, so the signatures demand
them; every construction certifies against whatever was claimed and
fails with PrecisionExhaustionError when a claim understates the data
it meets.
"""

from __future__ import annotations

import math
import threading
import weakref
from fractions import Fraction
from typing import (Callable, Iterable, Mapping, NamedTuple, Optional,
                    Sequence, Union)

from .errors import (
    InvariantViolationError,
    SpaceMismatchError,
    SpectralHypothesisError,
)
from .realcore import (
    CReal,
    CRealSeq,
    _Memo,
    bits_for,
    ceil_int,
    creal_add,
    creal_from_rational,
    creal_mul,
    creal_scale,
    creal_sqrt,
    creal_sum,
    pow2,
)
# kept for bench/tests/test_bench.py, whose tracer check reads this name
from .realcore import certified_tail_cut  # noqa: F401
from .hilbert import (
    FiniteCombo,
    FunctionalName,
    SpaceDescriptor,
    VectorName,
    _bessel_expansion,
    _bessel_sum,
    _combo_sum,
    _coordinate,
    _rational_sqrt,
    basis_vector,
    ceil_sqrt_int,
    inner_product,
    linear_combination,
    riesz_representer,
    same_space,
    sqrt_upper,
    vec_norm,
    vector_from_coefficients,
)
from .directsum import SumName, SumSpace, sum_inner_product

NormsOracle = Callable[[int, int], CReal]
AnalysisOracle = Callable[[VectorName], CReal]
CoefficientOracle = Callable[[VectorName, int], CReal]

_ZERO = creal_from_rational(0)


class OperatorName:
    """A bounded operator as (domain, codomain, certified bound,
    evaluation program).

    The bound is a rational upper bound on the operator norm and is what
    every downstream precision schedule keys off.  For codomains that are
    direct sums the program returns SumNames.
    """

    __slots__ = ("dom", "cod", "bound", "_program")

    def __init__(self, dom: SpaceDescriptor, cod: SpaceDescriptor,
                 bound: Fraction, program):
        bound = Fraction(bound)
        if bound < 0:
            raise ValueError("operator bound must be nonnegative")
        self.dom = dom
        self.cod = cod
        self.bound = bound
        self._program = program

    def apply(self, f):
        fspace = f.space if isinstance(f, VectorName) else f.space.descriptor
        if not same_space(fspace, self.dom):
            raise SpaceMismatchError(
                f"operator domain {self.dom!r} does not match input {fspace!r}")
        return self._program(f)

    def __repr__(self) -> str:
        return f"OperatorName({self.dom.ident}->{self.cod.ident}, bound={self.bound})"


def bounded_operator(dom: SpaceDescriptor, cod: SpaceDescriptor,
                     bound: Fraction,
                     image: Callable[[FiniteCombo], VectorName]) -> OperatorName:
    """The operator sending each exact input c to image(c), for a linear
    image bounded by bound: a bounded operator is computable from its
    values on finite rational combinations and its norm bound (Pour-El
    and Richards, Computability in Analysis and Physics, 1989)."""
    def program(f: VectorName) -> VectorName:
        c = f.exact_combo
        if c is not None:
            return image(c)
        s = bits_for(bound)

        def fn(n: int) -> FiniteCombo:
            # ||T f - T c|| <= bound 2^-(n+1+s) <= 2^-(n+1) for the input
            # error, plus 2^-(n+1) for reading the image at n + 1
            return image(f.approx(n + 1 + s)).approx(n + 1)

        return VectorName(cod, fn)

    return OperatorName(dom, cod, bound, program)


def operator_from_columns(dom: SpaceDescriptor, cod: SpaceDescriptor,
                          column: Callable[[int], Union[FiniteCombo, VectorName]],
                          bound: Fraction) -> OperatorName:
    """The operator sending basis vector k to column(k); sound whenever
    bound really dominates the operator norm."""
    cols = _Memo()

    def named_column(k: int) -> VectorName:
        ck = column(k)
        return VectorName.from_combo(ck) if isinstance(ck, FiniteCombo) else ck

    def image(c: FiniteCombo) -> VectorName:
        return linear_combination(
            cod, [(q, cols.lookup(k, named_column, k)) for k, q in c.terms])

    return bounded_operator(dom, cod, bound, image)


def zero_operator(dom: SpaceDescriptor, cod: SpaceDescriptor) -> OperatorName:
    return OperatorName(dom, cod, Fraction(0), lambda f: VectorName.zero(cod))


def operator_compose(outer: OperatorName, inner: OperatorName,
                     bound: Optional[Fraction] = None) -> OperatorName:
    if not same_space(outer.dom, inner.cod):
        raise SpaceMismatchError("composition spaces do not line up")
    b = Fraction(bound) if bound is not None else outer.bound * inner.bound
    return OperatorName(inner.dom, outer.cod, b,
                        lambda f: outer.apply(inner.apply(f)))


_SUM_SPACE = ("sum space",)


class GFrameName:
    """A sequence of operator names out of a common domain together with
    rational frame bounds.

    The bounds are caller-supplied and trusted for scheduling; they are
    verified only as testable partial-sum statements, since exact bounds
    are not recoverable from the names.
    """

    def __init__(self, dom: SpaceDescriptor, ops: Callable[[int], OperatorName],
                 lower: Fraction, upper: Fraction,
                 sum_space: Optional[SumSpace] = None):
        lower, upper = Fraction(lower), Fraction(upper)
        if not (0 < lower <= upper):
            raise ValueError("frame bounds must satisfy 0 < lower <= upper")
        self.dom = dom
        self.lower = lower
        self.upper = upper
        self._ops = ops
        self._cache = _Memo()
        self._derived = _Memo()
        if sum_space is not None:
            self._derived.lookup(_SUM_SPACE, lambda: sum_space)

    def op(self, i: int) -> OperatorName:
        if i < 0:
            raise ValueError("index must be a natural number")
        return self._cache.lookup(i, self._checked_op, i)

    def _checked_op(self, i: int) -> OperatorName:
        got = self._ops(i)
        if not same_space(got.dom, self.dom):
            raise SpaceMismatchError(f"operator {i} has the wrong domain")
        return got

    def sum_space(self) -> SumSpace:
        return self._derived.lookup(
            _SUM_SPACE, lambda: SumSpace(lambda i: self.op(i).cod))

    def derived(self, key: tuple, builder: Callable[[], object]) -> object:
        """Cache for objects derived from this frame and a fixed set of
        oracles (keyed by their identities).  Sharing the derived names
        lets their memoised evaluations be reused across the operations
        that would otherwise rebuild them.  A builder may call derived
        itself; when two threads race, the first built object wins."""
        return self._derived.lookup(key, builder)


class FrameName:
    """A doubly indexed vector frame with bounds.

    The norms of its vectors are not kept here: they are the data that
    assembled the vectors, and every operation that needs them (as
    synthesis does) takes them as an explicit argument."""

    def __init__(self, space: SpaceDescriptor,
                 vecs: Callable[[int, int], VectorName],
                 lower: Fraction, upper: Fraction):
        lower, upper = Fraction(lower), Fraction(upper)
        if not (0 < lower <= upper):
            raise ValueError("frame bounds must satisfy 0 < lower <= upper")
        self.space = space
        self.lower = lower
        self.upper = upper
        self._vecs = vecs
        self._vc = _Memo()

    def vec(self, i: int, j: int) -> VectorName:
        return self._vc.lookup((i, j), self._vecs, i, j)


class OrthonormalRows:
    """Inner system whose rows are the declared orthonormal bases of the
    codomain spaces."""

    def __init__(self, spaces: Callable[[int], SpaceDescriptor]):
        self.spaces = spaces


class RowFrame(NamedTuple):
    """One row of a FrameRows system: a frame for a codomain space with
    its bounds and a name for its frame operator."""
    atoms: Callable[[int], VectorName]
    count: Optional[int]
    lower: Fraction
    upper: Fraction
    frame_op: OperatorName


class FrameRows:
    """Inner system whose rows are frames with uniform outer bounds
    lower = inf of the row lower bounds, upper = sup of the row upper
    bounds."""

    def __init__(self, rows: Callable[[int], RowFrame],
                 lower: Fraction, upper: Fraction):
        lower, upper = Fraction(lower), Fraction(upper)
        if not (0 < lower <= upper):
            raise ValueError("system bounds must satisfy 0 < lower <= upper")
        self.lower = lower
        self.upper = upper
        self._rows = rows
        self._cache = _Memo()

    def rows(self, i: int) -> RowFrame:
        return self._cache.lookup(i, self._rows, i)


InnerSystem = Union[OrthonormalRows, FrameRows]


def scalar_codomain() -> SpaceDescriptor:
    """A one-dimensional codomain: scalars viewed as a Hilbert space."""
    return SpaceDescriptor(dimension=1)


# ---------------------------------------------------------------------------
# frames <-> scalar g-frames


def riesz_correspondence(atoms: Callable[[int], tuple[VectorName, CReal]],
                         lower: Fraction, upper: Fraction
                         ) -> tuple[GFrameName, NormsOracle]:
    """Turn a vector frame (with per-atom norms) into the g-frame of
    evaluation operators f -> <f, atom_i> into a shared scalar space:
    each value is the inner product placed at index 0 (_coordinate).

    Returns the g-frame with its column norms (W. Sun): the (i, 0)
    vector of the corresponding frame is atom i itself, so norms(i, 0)
    is the atom's norm and norms(i, j) = 0 for j > 0.  Each atoms(i) is
    read once.  Zero atoms are allowed; their operators are zero with
    bound 0.
    """
    read = _Memo()

    def atom(i: int) -> tuple[VectorName, CReal]:
        return read.lookup(i, atoms, i)

    dom = atom(0)[0].space
    scal = scalar_codomain()
    cap = Fraction(ceil_sqrt_int(upper))

    def make_op(i: int) -> OperatorName:
        y, ynorm = atom(i)
        if not same_space(y.space, dom):
            raise SpaceMismatchError("frame atoms must share one space")

        def program(f: VectorName, y=y) -> VectorName:
            return _coordinate(scal, 0, inner_product(f, y))

        if ynorm.exact_value is not None:
            b = ynorm.exact_value         # exact norms give exact bounds
        else:
            b = max(ynorm.approx(1) + Fraction(1, 2), Fraction(0))
        return OperatorName(dom, scal, min(b, cap), program)

    def norms(i: int, j: int) -> CReal:
        return atom(i)[1] if j == 0 else _ZERO

    return GFrameName(dom, make_op, lower, upper), norms


def gframe_to_frame(G: GFrameName, opnorms: CRealSeq) -> Callable[[int], VectorName]:
    """Recover the vector frame behind a scalar-valued g-frame.

    opnorms.at(i) must be the operator norm of the i-th operator; the
    representer of each evaluation functional cannot be assembled
    without it.  The frame vectors are the j = 0 vectors of the
    corresponding frame over the codomain bases."""
    corr = corresponding_frame(G, OrthonormalRows(lambda i: G.op(i).cod),
                               lambda i, j: opnorms.at(i))
    return lambda i: corr.vec(i, 0)


# ---------------------------------------------------------------------------
# corresponding frames


def corresponding_frame(G: GFrameName, sys: InnerSystem,
                        norms: NormsOracle) -> FrameName:
    """The family adjoint(op_i) applied to the row vectors, assembled as
    representers through the supplied norms.

    norms(i, j) must equal the norm of the (i, j) frame vector; a wrong
    claim surfaces as PrecisionExhaustionError during assembly, never as
    a wrong vector.  Row indices beyond a finite row yield zero vectors.
    """
    H = G.dom
    if isinstance(sys, OrthonormalRows):
        lower, upper = G.lower, G.upper

        def row_vector(i: int, j: int) -> Optional[VectorName]:
            cod = G.op(i).cod
            if cod.dimension is not None and j >= cod.dimension:
                return None
            return basis_vector(cod, j)
    else:
        lower, upper = G.lower * sys.lower, G.upper * sys.upper

        def row_vector(i: int, j: int) -> Optional[VectorName]:
            row = sys.rows(i)
            if row.count is not None and j >= row.count:
                return None
            return row.atoms(j)

    def vec(i: int, j: int) -> VectorName:
        uij = row_vector(i, j)
        if uij is None:
            return VectorName.zero(H)

        def ev(f: VectorName, i=i, uij=uij) -> CReal:
            return inner_product(G.op(i).apply(f), uij)

        return riesz_representer(FunctionalName(H, ev, norms(i, j)))

    return FrameName(H, vec, lower, upper)


def gframe_from_corresponding(F: FrameName, sys: InnerSystem,
                              co: CoefficientOracle) -> GFrameName:
    """Rebuild the g-frame whose corresponding frame is F.

    For orthonormal rows each operator value is assembled coordinatewise
    in its codomain, with truncation certified against co(f, i), the
    claimed per-row coefficient mass.  For frame rows the row expansion
    is resummed and pushed through the certified inverse of the row
    frame operator.  Finite rows or finite-dimensional codomains skip
    the certificates (the sums are exact).
    """
    H = F.space
    if isinstance(sys, OrthonormalRows):
        lower, upper = F.lower, F.upper
        op_cap = Fraction(ceil_sqrt_int(upper))

        def make_op(i: int) -> OperatorName:
            cod = sys.spaces(i)

            def program(f: VectorName, i=i, cod=cod) -> VectorName:
                return vector_from_coefficients(
                    cod, lambda k: inner_product(f, F.vec(i, k)), co(f, i))

            return OperatorName(H, cod, op_cap, program)

        return GFrameName(H, make_op, lower, upper)

    lower = F.lower / sys.upper
    upper = F.upper / sys.lower
    op_cap = Fraction(ceil_sqrt_int(upper))

    def make_op(i: int) -> OperatorName:
        row = sys.rows(i)
        cod = row.atoms(0).space
        s_inv = invert_frame_operator(row.frame_op, row.lower, row.upper)

        def program(f: VectorName, i=i) -> VectorName:
            resummed = _bessel_expansion(
                cod, lambda k: inner_product(f, F.vec(i, k)), row.atoms,
                row.count, lambda: co(f, i), row.upper,
                "row coefficient oracle")
            return s_inv.apply(resummed)

        return OperatorName(H, cod, op_cap, program)

    return GFrameName(H, make_op, lower, upper)


# ---------------------------------------------------------------------------
# synthesis / analysis / frame operator


def synthesis(G: GFrameName, norms: NormsOracle) -> OperatorName:
    """The map (f_i) -> sum of adjoint(op_i) f_i, certified end to end.

    norms feeds the corresponding-frame columns; the sum of the
    component adjoints is the _bessel_sum cut against the input's normsq
    datum.  Repeated calls with the same norms oracle return one shared
    name."""
    return G.derived(("synthesis", norms),
                     lambda: _build_synthesis(G, norms))


def _build_synthesis(G: GFrameName, norms: NormsOracle) -> OperatorName:
    corr = G.derived(("corresponding", norms), lambda: corresponding_frame(
        G, OrthonormalRows(lambda i: G.op(i).cod), norms))
    ss = G.sum_space()
    H = G.dom

    def program(F: SumName) -> VectorName:
        adj = _Memo()

        def component_adj(i: int) -> VectorName:
            # adjoint(op_i) F_i over the codomain basis, with the
            # corresponding-frame vectors as columns
            fi = F.component(i)
            cod = G.op(i).cod
            return _bessel_expansion(
                H, lambda j: inner_product(fi, basis_vector(cod, j)),
                lambda j: corr.vec(i, j), cod.dimension,
                lambda: inner_product(fi, fi), G.upper, "component expansion")

        return _bessel_sum(H, lambda i: adj.lookup(i, component_adj, i),
                           F.normsq, F.normsq_partial, G.upper,
                           "input norm datum")

    return OperatorName(ss.descriptor, H, sqrt_upper(G.upper, bits=4),
                        program)


def analysis(G: GFrameName, ao: AnalysisOracle) -> OperatorName:
    """The map f -> (op_i f) with the total normsq supplied by ao; the
    oracle is the extra datum that makes the output a full sum name."""
    def build() -> OperatorName:
        ss = G.sum_space()

        def program(f: VectorName) -> SumName:
            return SumName(ss, lambda i: G.op(i).apply(f), ao(f))

        return OperatorName(G.dom, ss.descriptor,
                            Fraction(ceil_sqrt_int(G.upper)), program)

    return G.derived(("analysis", ao), build)


def frame_operator(G: GFrameName, norms: NormsOracle,
                   ao: AnalysisOracle) -> OperatorName:
    """S, the synthesis of the analysis, bounded by the upper frame bound
    (trusted as the synthesis cut trusts it): a lazy input is read at
    linear precision, not through a cut at about 2n bits.

    diagonal_gframe, block_gframe and atoms_gframe register, for the
    norms and ao they return, S as the identity plus finite rank,
    exact at every index (_identity_plus_finite_rank).  Any other
    oracle, a caller's claimed norms included, gets the certified
    synthesis of the analysis built here."""
    def build() -> OperatorName:
        syn = synthesis(G, norms)
        ana = analysis(G, ao)

        def image(c: FiniteCombo) -> VectorName:
            return syn.apply(ana.apply(VectorName.from_combo(c)))

        op = bounded_operator(G.dom, G.dom, G.upper, image)
        return _CertifiedImages(op.dom, op.cod, op.bound, op._program)

    return G.derived(("frame-operator", norms, ao), build)


class _CertifiedImages(OperatorName):
    """The synthesis of the analysis: an exact input has an exact image
    only where each certified cut closes on an exact prefix (64 terms
    at most), so invert_frame_operator keeps it on relaxation."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# certified inversion


def _iteration_count(gbound: Fraction, lower: Fraction, upper: Fraction,
                     n: int) -> int:
    rho = (upper - lower) / (upper + lower)
    err = Fraction(gbound) / lower
    target = pow2(-(n + 1))
    k = 0
    while err > target:
        err *= rho
        k += 1
    return k


def richardson_iterate(S: OperatorName, lower: Fraction, upper: Fraction,
                       g: VectorName, steps: int, precision: int) -> FiniteCombo:
    """Run u <- u + omega (g - S u), omega = 2/(lower+upper), for at most
    steps steps and return the exact iterate.

    Step k runs at operand precision p = precision + (steps - k) + 3 plus
    a shift absorbing omega, so the perturbation series is dominated by a
    geometric sum; the result is within
    rho**steps * (||g||/lower) + 2**-(precision+1) of the true inverse
    image, rho = (upper-lower)/(upper+lower).

    Each step also certifies its residual.  The computed residual r~_k
    is within eps_k = 2**-(p-1) of r_k = g - S u_k.  Under the window,
    ||r_(k+1)|| <= rho ||r_k|| + delta_k with delta_k = upper * (omega
    eps_k + 2**-(p+2)) (the residual error and the grid snap pushed
    through S), so a residual that provably breaks this bound raises
    SpectralHypothesisError.  Once ||r~_k|| + eps_k <= (3/4) lower *
    2**-(precision+1), u_k is within (3/4) 2**-(precision+1) of the
    inverse image; it is returned early, snapped to a grid that adds at
    most 2**-(precision+3).
    """
    lower, upper = Fraction(lower), Fraction(upper)
    if not (0 < lower <= upper):
        raise ValueError("spectral bounds must satisfy 0 < lower <= upper")
    if not same_space(S.dom, S.cod):
        raise SpaceMismatchError("inversion needs an endomorphism")
    omega = Fraction(2) / (lower + upper)
    rho = (upper - lower) / (upper + lower)
    shift = bits_for(2 * omega + 1)
    # residual norms are bounded in integer units of 2**-(p+4): eps_k is
    # 32 units, eps_(k+1) 64 and the snap 4, so delta_k is at most drift
    drift = ceil_int(upper * (32 * omega + 4))
    u = FiniteCombo(S.dom, {})
    allowed = None              # the bound on ||r~_k|| the window implies
    for k in range(steps):
        p = precision + (steps - k) + 3 + shift
        su = S.apply(VectorName.from_combo(u)).approx(p)
        r = g.approx(p).sub(su)
        low, high = _norm_bounds(r, p + 4)
        # a unit of this step is two units of the last one
        if allowed is not None and 2 * low > allowed:
            raise SpectralHypothesisError(
                f"residual of step {k} exceeds the contraction bound; the "
                "claimed spectral window does not hold")
        # (3/4) lower 2**-(precision+1) in units
        target = (3 * lower.numerator << (p - precision + 1)) // lower.denominator
        if high + 32 <= target:
            grid = precision + 2 + (len(u.terms).bit_length() + 1) // 2
            return u.rounded(grid)
        u = _combo_sum(S.dom, ((1, u), (omega, r)))
        grid = p + (len(u.terms).bit_length() + 1) // 2 + 1
        u = u.rounded(grid)     # snap error <= 2**-(p+2)
        allowed = ceil_int(rho * (high + 32)) + drift + 64
    return u


def _krylov_iterate(S: OperatorName, lower: Fraction, upper: Fraction,
                    g: VectorName, precision: int) -> Optional[FiniteCombo]:
    """Conjugate gradients (M. R. Hestenes and E. Stiefel, J. Res. NBS
    49, 1952; for frames, K. Gröchenig, IEEE Trans. Signal Process.
    41(12), 1993) on S u = g~, g~ = g.approx(p), in exact rationals.
    Returns None, leaving the precision to richardson_iterate, at the
    first product of S that is not exact or once the Chebyshev count of
    steps has run without a certificate.

    The residual r = g~ - S u is exact, so ||g - S u|| <= ||r|| + eps,
    eps = 2**-p, and richardson_iterate's certificate ||r|| + eps <=
    (3/4) lower 2**-(precision+1) stops the loop with the iterate
    snapped to its grid.  The steps' alpha_j and beta_j define the
    Lanczos matrix T, the exact compression of S to the Krylov space,
    with diagonal 1/alpha_j + beta_(j-1)/alpha_(j-1) and squared
    off-diagonal beta_j/alpha_j**2.  Every Ritz value of a true window
    lies in [lower, upper], so T - lower I and upper I - T are positive
    semidefinite; exact LDL^T pivots decide this as each step adds a
    row.  A negative pivot, a zero pivot with a row after it (every
    off-diagonal entry is nonzero, since the loop goes on only while
    r is not zero), or <S d, d> <= 0 raises SpectralHypothesisError.
    In exact arithmetic the loop ends within r + 1 steps on the
    identity plus rank r."""
    p = precision + 8 + bits_for(4 / (lower + upper) + 1) + bits_for(1 / lower)
    u, r = FiniteCombo(S.dom, {}), g.approx(p)
    d, rho = r, r.norm_squared()
    # (3/4) lower 2**-(precision+1) - eps, the bound on ||r||
    slack = 3 * lower * pow2(-(precision + 3)) - pow2(-p)
    # Chebyshev: ||r_k|| <= 2 s**k sqrt(upper/lower) ||g~|| for s =
    # (sqrt(B)-sqrt(A))/(sqrt(B)+sqrt(A)); ln(1/s) >= 2 sqrt(A/B) and
    # ln 2 < 7/10, so this many steps take ||r|| below slack
    root = ceil_sqrt_int(upper / lower)
    steps = 7 * root * (precision + 4 + bits_for(root) + bits_for(1 / lower)
                        + bits_for(math.isqrt(ceil_int(rho)) + 1)) // 20 + 1
    # the last LDL^T pivots of T - lower I and upper I - T, and the last
    # beta/alpha and beta/alpha**2 (a Fraction, so the first row is exact)
    pivots, carry, off = (1, 1), 0, Fraction(0)
    while rho > slack * slack:
        q = S.apply(VectorName.from_combo(d)).exact_combo if steps else None
        if q is None:
            return None
        steps -= 1
        delta = q.inner(d)
        diag = delta / rho + carry          # 1/alpha + the last beta/alpha
        pivots = [e - off / last if last else -1 for e, last in
                  zip((diag - lower, upper - diag), pivots)]
        if delta <= 0 or min(pivots) < 0:
            raise SpectralHypothesisError(
                "the Lanczos matrix of the Krylov steps leaves the claimed "
                "window; the claimed spectral window does not hold")
        alpha = rho / delta
        u = _combo_sum(S.dom, ((1, u), (alpha, d)))
        r = _combo_sum(S.dom, ((1, r), (-alpha, q)))
        beta = (fresh := r.norm_squared()) / rho
        rho = fresh
        d = _combo_sum(S.dom, ((1, r), (beta, d)))
        carry, off = beta / alpha, beta / alpha / alpha
    return u.rounded(precision + 2 + (len(u.terms).bit_length() + 1) // 2)


def _norm_bounds(c: FiniteCombo, m: int) -> tuple[int, int]:
    """Integers low <= ||c|| 2**m <= high."""
    acc = 0                     # acc <= ||c||^2 4**m <= acc + len
    for _, q in c.terms:
        num, den = q.numerator, q.denominator
        acc += (num * num << 2 * m) // (den * den)
    return math.isqrt(acc), math.isqrt(acc + len(c.terms)) + 1


def invert_frame_operator(S: OperatorName, lower: Fraction,
                          upper: Fraction) -> OperatorName:
    """Certified inverse of a self-adjoint operator with spectrum inside
    [lower, upper].

    Where S maps exact inputs to exact images (the stock g-frames'
    identity plus finite rank, operator_from_columns with exact columns,
    the identity), each precision runs conjugate gradients in exact
    rationals (_krylov_iterate), which ends within r + 1 steps on the
    identity plus rank r.  This is decided once, before any input is
    read: by S applied to the zero vector, and for the synthesis of the
    analysis (the Toeplitz g-frame, a claimed norms, user g-frames) by
    construction, since its exact images are only those of exact
    prefixes.  Those operators, a product that turns out lazy, and a
    Krylov loop past its Chebyshev count run relaxation iteration with
    an explicit geometric rate (richardson_iterate), unchanged.  Both
    stop on one residual certificate.

    The window is a claimed datum.  The Krylov loop decides it on the
    Lanczos matrix of its steps, and relaxation checks that the residual
    g - S u contracts as the window predicts; each raises
    SpectralHypothesisError when the window provably fails.  A lower
    bound that overstates the spectrum only where the Krylov space or
    the residuals of g never show it stays undetectable, as mass past a
    certified cut does.

    Every dual component and the dual's analysis mass apply the inverse
    to the same input, so the iterates are shared per input name and
    precision.  The table is keyed weakly and holds nothing
    that refers to the input, so it goes when the input does; the first
    iterate stored wins a race."""
    lower, upper = Fraction(lower), Fraction(upper)
    if not (0 < lower <= upper):
        raise ValueError("spectral bounds must satisfy 0 < lower <= upper")
    iterates: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    lock = threading.Lock()
    krylov = not isinstance(S, _CertifiedImages) and S.apply(
        VectorName.zero(S.dom)).exact_combo is not None

    def program(g: VectorName) -> VectorName:
        with lock:
            table = iterates.setdefault(g, _Memo())

        def iterate(n: int) -> FiniteCombo:
            u = _krylov_iterate(S, lower, upper, g, n) if krylov else None
            if u is not None:
                return u
            # the residual certificate usually stops the iteration before
            # the a-priori count; the extra steps give its contraction
            # check room when the window does not hold
            gbound = Fraction(g.approx(0).norm_upper() + 1)
            steps = _iteration_count(gbound, lower, upper, n) + 3
            return richardson_iterate(S, lower, upper, g, steps, n)

        return VectorName(S.dom, lambda n: table.lookup(n, iterate, n))

    return OperatorName(S.dom, S.cod, Fraction(1) / lower, program)


# ---------------------------------------------------------------------------
# duals, pseudo-inverse, reconstruction


def _inverse_frame_operator(G: GFrameName, norms: NormsOracle,
                            ao: AnalysisOracle) -> OperatorName:
    """The inverse frame operator, one per (norms, ao), so that duals
    and reconstructions from the same oracles share its iterates."""
    return G.derived(("inverse-frame-operator", norms, ao),
                     lambda: invert_frame_operator(
                         frame_operator(G, norms, ao), G.lower, G.upper))


def canonical_dual_pair(G: GFrameName, norms: NormsOracle,
                        ao: AnalysisOracle) -> tuple[GFrameName, AnalysisOracle]:
    """The canonical dual (op_i composed with the inverse frame operator)
    together with its analysis oracle f -> <inverse f, f>.

    The dual layer reaches the inverse frame operator through this pair:
    the pseudo-inverse and the kernel constructions are built from it."""
    s_inv = _inverse_frame_operator(G, norms, ao)
    cap = Fraction(ceil_sqrt_int(Fraction(1) / G.lower))

    def make_op(i: int) -> OperatorName:
        lam = G.op(i)
        return operator_compose(lam, s_inv,
                                bound=min(lam.bound / G.lower, cap))

    dual = GFrameName(G.dom, make_op, Fraction(1) / G.upper,
                      Fraction(1) / G.lower, sum_space=G.sum_space())

    def ao_dual(f: VectorName) -> CReal:
        return inner_product(s_inv.apply(f), f)

    return dual, ao_dual


def pseudo_inverse(G: GFrameName, norms: NormsOracle,
                   ao: AnalysisOracle) -> OperatorName:
    """The analysis map of the canonical dual: f -> (op_i applied to the
    inverse image)_i, with normsq <inverse f, f>."""
    return analysis(*canonical_dual_pair(G, norms, ao))


def reconstruct(G: GFrameName, norms: NormsOracle, ao: AnalysisOracle,
                f: VectorName) -> VectorName:
    """f reconstructed through the canonical dual: the synthesis of its
    analysis is S(S^-1 f) (W. Sun, J. Math. Anal. Appl. 322, 2006), and
    S reads the iterate at linear precision.  Another dual D gives the
    synthesis of G applied to the analysis of D."""
    return frame_operator(G, norms, ao).apply(
        _inverse_frame_operator(G, norms, ao).apply(f))


def dual_from_left_inverse(G: GFrameName, phi: OperatorName,
                           phi_star: OperatorName) -> GFrameName:
    """Dual built from a left inverse phi of the analysis map, through
    the adjoint's components: the j-th dual operator sends f to the j-th
    component of phi_star(f).

    phi must satisfy phi after analysis = identity (caller's contract);
    violations surface as reconstruction failures in the checks, never
    silently."""
    if not same_space(phi.cod, G.dom):
        raise SpaceMismatchError("left inverse must land in the frame domain")
    if not same_space(phi_star.dom, G.dom):
        raise SpaceMismatchError("adjoint name must start at the frame domain")

    def make_op(j: int) -> OperatorName:
        cod = G.op(j).cod

        def program(f: VectorName, j=j) -> VectorName:
            return phi_star.apply(f).component(j)

        return OperatorName(G.dom, cod, phi.bound, program)

    return GFrameName(G.dom, make_op, Fraction(1) / G.upper,
                      phi.bound * phi.bound, sum_space=G.sum_space())


def _combined_mass(a: SumName, b: SumName, sign: int) -> CReal:
    """The squared norm of a + sign * b from the two masses and the
    certified cross term."""
    return creal_add(creal_add(a.normsq, b.normsq),
                     creal_scale(Fraction(2 * sign), sum_inner_product(a, b)))


def kernel_dual_pair(G: GFrameName, norms: NormsOracle, ao: AnalysisOracle,
                     psi: OperatorName) -> tuple[GFrameName, AnalysisOracle]:
    """Dual perturbed by a kernel operator: op_i of the dual sends f to
    (canonical dual)_i f plus component i of psi(f).

    Requires synthesis(G) after psi to vanish; spot-checked on the first
    basis vector at construction.  The analysis oracle combines the
    canonical mass, psi's mass and the exact cross term (computed as a
    certified sum-space inner product, not by a one-sided bound).
    """
    syn = synthesis(G, norms)
    probe = syn.apply(psi.apply(basis_vector(G.dom, 0)))
    if vec_norm(probe).approx(20) > pow2(-18):
        raise InvariantViolationError(
            "kernel operator fails the null condition: synthesis of psi "
            "on a basis vector is not zero")

    canonical, ao_c = canonical_dual_pair(G, norms, ao)
    tplus = analysis(canonical, ao_c)
    op_cap = sqrt_upper(G.upper) / G.lower + psi.bound

    def make_op(i: int) -> OperatorName:
        can_i = canonical.op(i)

        def program(f: VectorName, i=i) -> VectorName:
            return linear_combination(
                can_i.cod, [(1, can_i.apply(f)), (1, psi.apply(f).component(i))])

        return OperatorName(G.dom, can_i.cod,
                            min(can_i.bound + psi.bound, op_cap), program)

    dual = GFrameName(G.dom, make_op, Fraction(1) / G.upper,
                      op_cap * op_cap, sum_space=G.sum_space())

    def ao_dual(f: VectorName) -> CReal:
        return _combined_mass(tplus.apply(f), psi.apply(f), 1)

    return dual, ao_dual


def kernel_from_dual(G: GFrameName, D: GFrameName, norms: NormsOracle,
                     ao: AnalysisOracle, ao_D: AnalysisOracle) -> OperatorName:
    """Recover the kernel operator of a dual: f -> (D_i f - canonical_i f)_i,
    the analysis of D minus the pseudo-inverse, as a sum name whose
    normsq comes from the two masses and the exact cross term."""
    if not same_space(G.dom, D.dom):
        raise SpaceMismatchError("dual pair must share the domain")
    tplus = pseudo_inverse(G, norms, ao)
    d_ana = analysis(D, ao_D)
    ss = G.sum_space()

    def program(f: VectorName) -> SumName:
        d_coeffs = d_ana.apply(f).in_space(ss)
        c_coeffs = tplus.apply(f)

        def comp(i: int) -> VectorName:
            return linear_combination(ss.component(i), [
                (1, d_coeffs.component(i)), (-1, c_coeffs.component(i))])

        return SumName(ss, comp, _combined_mass(d_coeffs, c_coeffs, -1))

    return OperatorName(G.dom, ss.descriptor, d_ana.bound + tplus.bound,
                        program)


# ---------------------------------------------------------------------------
# stock constructions used by the command line and the check batteries


def _identity_plus_finite_rank(
        G: GFrameName, norms: NormsOracle,
        pairs: Sequence[tuple[Fraction, VectorName]]
        ) -> tuple[GFrameName, NormsOracle, AnalysisOracle]:
    """A stock g-frame with its oracles, built from the finite list of
    (c, y) pairs, y exact, for which W. Sun's S = sum of op_i* op_i is
    I + sum of c y (x) y, as for frames near an orthonormal basis (P. G.
    Casazza and O. Christensen, J. Approx. Theory 103, 2000).

    The analysis oracle is f -> ||f||^2 + sum of c <f, y>^2.  The frame
    operator of these (norms, ao), stored under the key frame_operator
    reads, sends an exact v to v + sum of c <v, y> y, exact at every
    index.  It does not read norms: they are the constructor's own,
    computed from the atoms that give the pairs, so no claimed datum
    goes unread; any other (norms, ao) gets the certified synthesis of
    the analysis."""
    combos = [(c, y.exact_combo) for c, y in pairs]

    def ao(f: VectorName) -> CReal:
        total = inner_product(f, f)
        if not pairs:
            return total
        parts = [total]
        for c, y in pairs:
            ip = inner_product(f, y)
            sq = creal_mul(ip, ip)
            parts.append(sq if c == 1 else creal_scale(c, sq))
        return creal_sum(parts)

    def image(v: FiniteCombo) -> VectorName:
        return VectorName.from_combo(_combo_sum(
            G.dom, [(1, v)] + [(c * v.inner(y), y) for c, y in combos]))

    G.derived(("frame-operator", norms, ao),
              lambda: bounded_operator(G.dom, G.dom, G.upper, image))
    return G, norms, ao


def diagonal_gframe(space: SpaceDescriptor,
                    overrides: Union[Mapping[int, Fraction],
                                     Iterable[tuple[int, Fraction]],
                                     None] = None
                    ) -> tuple[GFrameName, NormsOracle, AnalysisOracle]:
    """Scalar-valued g-frame f -> w_i <f, e_i> with weight 1 except for
    the finitely many overrides, given as a mapping or as (index, weight)
    pairs with distinct indices; returns the frame together with its
    column-norm and analysis oracles.

    It is the riesz_correspondence of the atoms w_i e_i, which also
    supplies the column norms |w_i|; on a finite space an index at or
    past the dimension has the zero atom."""
    if isinstance(overrides, Mapping):
        overrides = overrides.items()
    table: dict[int, Fraction] = {}
    for i, w in overrides or ():
        space.check_index(i)
        if i in table:
            raise ValueError(f"duplicate weight index {i}")
        if w == 0:
            raise ValueError("zero weights would break the lower bound")
        table[i] = Fraction(w)

    def atom(i: int) -> tuple[VectorName, CReal]:
        if space.dimension is not None and i >= space.dimension:
            return VectorName.zero(space), _ZERO
        w = table.get(i, Fraction(1))
        return (VectorName.from_combo(FiniteCombo(space, {i: w})),
                creal_from_rational(abs(w)))

    squares = {w * w for w in table.values()}
    uncovered = space.dimension is None or len(table) < space.dimension
    if uncovered:
        squares.add(Fraction(1))
    G, norms = riesz_correspondence(atom, min(squares), max(squares))
    return _identity_plus_finite_rank(
        G, norms, [(w * w - 1, basis_vector(space, i))
                   for i, w in table.items() if w * w != 1])


def block_gframe(space: SpaceDescriptor, width: int
                 ) -> tuple[GFrameName, NormsOracle, AnalysisOracle]:
    """Tight g-frame chopping coordinates into consecutive blocks: the
    i-th operator maps f to its coordinates [i*width, (i+1)*width) in a
    width-dimensional codomain."""
    if width <= 0:
        raise ValueError("block width must be positive")
    if space.dimension is not None:
        raise ValueError("block decomposition needs an infinite space")
    cod = SpaceDescriptor(dimension=width)

    def make_op(i: int) -> OperatorName:
        def column(k: int, i=i) -> FiniteCombo:
            j = k - i * width
            return FiniteCombo(cod, {j: Fraction(1)} if 0 <= j < width else {})

        return operator_from_columns(space, cod, column, Fraction(1))

    G = GFrameName(space, make_op, Fraction(1), Fraction(1))

    def norms(i: int, j: int) -> CReal:
        return creal_from_rational(1 if j < width else 0)

    return _identity_plus_finite_rank(G, norms, [])


def atoms_gframe(space: SpaceDescriptor, prefix: Sequence[FiniteCombo],
                 tail_offset: int, lower: Fraction, upper: Fraction
                 ) -> tuple[GFrameName, NormsOracle, AnalysisOracle]:
    """G-frame of a vector frame given as an explicit finite prefix of
    rational atoms followed by the shifted basis e_(i + tail_offset).

    The analysis oracle is exact: the tail coefficient mass telescopes
    against the squared norm, so only finitely many corrections remain.
    """
    if space.dimension is not None:
        raise ValueError("the shifted-basis tail needs an infinite space")
    P = len(prefix)
    if P + tail_offset < 0:
        raise ValueError("tail offset points below the basis")
    named = [VectorName.from_combo(c) for c in prefix]

    def atom(i: int) -> tuple[VectorName, CReal]:
        if i >= P:
            return basis_vector(space, i + tail_offset), creal_from_rational(1)
        q = prefix[i].norm_squared()
        root = _rational_sqrt(q)
        if root is not None:
            return named[i], creal_from_rational(root)
        return named[i], creal_sqrt(creal_from_rational(q))

    G, norms = riesz_correspondence(atom, lower, upper)
    return _identity_plus_finite_rank(
        G, norms,
        [(Fraction(-1), basis_vector(space, k)) for k in range(P + tail_offset)]
        + [(Fraction(1), y) for y in named])
