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

import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

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
    creal_add,
    creal_from_rational,
    creal_mul,
    creal_scale,
    creal_sqrt,
    creal_sum,
    dyadic_round,
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
    _rational_sqrt,
    basis_vector,
    ceil_sqrt_int,
    inner_product,
    linear_combination,
    riesz_representer,
    same_space,
    sqrt_upper,
    vec_add,
    vec_norm,
    vec_sub,
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


def operator_from_columns(dom: SpaceDescriptor, cod: SpaceDescriptor,
                          column: Callable[[int], Union[FiniteCombo, VectorName]],
                          bound: Fraction) -> OperatorName:
    """The operator sending basis vector k to column(k); sound whenever
    bound really dominates the operator norm."""
    bound = Fraction(bound)
    cols = _Memo()
    s = bits_for(bound)

    def action(c: FiniteCombo, n: int) -> FiniteCombo:
        exact = FiniteCombo(cod, {})
        pairs = []
        for k, q in c.terms:
            ck = cols.lookup(k, column, k)
            if isinstance(ck, FiniteCombo):
                exact = exact.add(ck.scale(q))
            else:
                pairs.append((q, ck))
        if not pairs:
            return exact
        return exact.add(linear_combination(cod, pairs).approx(n + 1))

    def program(f: VectorName) -> VectorName:
        c0 = f.exact_combo
        if c0 is not None and all(
                isinstance(cols.lookup(k, column, k), FiniteCombo)
                for k in c0.support):
            return VectorName.from_combo(action(c0, 0))

        def fn(n: int) -> FiniteCombo:
            # bound * 2^-(n+1+s) <= 2^-(n+1) input error
            return action(f.approx(n + 1 + s), n)

        return VectorName(cod, fn)

    return OperatorName(dom, cod, bound, program)


def identity_operator(space: SpaceDescriptor) -> OperatorName:
    return OperatorName(space, space, Fraction(1), lambda f: f)


def zero_operator(dom: SpaceDescriptor, cod: SpaceDescriptor) -> OperatorName:
    return OperatorName(dom, cod, Fraction(0), lambda f: VectorName.zero(cod))


def diagonal_operator(space: SpaceDescriptor,
                      weight: Callable[[int], Fraction],
                      bound: Fraction) -> OperatorName:
    def column(k: int) -> FiniteCombo:
        return FiniteCombo(space, {k: Fraction(weight(k))})

    return operator_from_columns(space, space, column, bound)


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
    """A doubly indexed vector frame with bounds and per-vector norms.

    vecnorm(i, j) houses the norm data that makes the family usable: the
    vectors themselves are assembled through those values."""

    def __init__(self, space: SpaceDescriptor,
                 vecs: Callable[[int, int], VectorName],
                 vecnorms: Callable[[int, int], CReal],
                 lower: Fraction, upper: Fraction):
        lower, upper = Fraction(lower), Fraction(upper)
        if not (0 < lower <= upper):
            raise ValueError("frame bounds must satisfy 0 < lower <= upper")
        self.space = space
        self.lower = lower
        self.upper = upper
        self._vecs = vecs
        self._norms = vecnorms
        self._vc = _Memo()
        self._nc = _Memo()

    def vec(self, i: int, j: int) -> VectorName:
        return self._vc.lookup((i, j), self._vecs, i, j)

    def vecnorm(self, i: int, j: int) -> CReal:
        return self._nc.lookup((i, j), self._norms, i, j)


class OrthonormalRows:
    """Inner system whose rows are the declared orthonormal bases of the
    codomain spaces."""

    def __init__(self, spaces: Callable[[int], SpaceDescriptor]):
        self.spaces = spaces


@dataclass(frozen=True)
class RowFrame:
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
                         lower: Fraction, upper: Fraction) -> GFrameName:
    """Turn a vector frame (with per-atom norms) into the g-frame of
    evaluation operators f -> <f, atom_i> into a shared scalar space.

    Zero atoms are allowed; their operators are zero with bound 0.
    """
    first, _ = atoms(0)
    dom = first.space
    scal = scalar_codomain()
    cap = Fraction(ceil_sqrt_int(upper))

    def make_op(i: int) -> OperatorName:
        y, ynorm = atoms(i)
        if not same_space(y.space, dom):
            raise SpaceMismatchError("frame atoms must share one space")

        def program(f: VectorName, y=y) -> VectorName:
            ip = inner_product(f, y)
            if ip.exact_value is not None:
                return VectorName.from_combo(FiniteCombo(scal, {0: ip.exact_value}))

            def fn(n: int) -> FiniteCombo:
                v = dyadic_round(ip.approx(n + 1), n + 1)
                return FiniteCombo(scal, {0: v} if v else {})

            return VectorName(scal, fn)

        if ynorm.exact_value is not None:
            b = ynorm.exact_value         # exact norms give exact bounds
        else:
            b = max(ynorm.approx(1) + Fraction(1, 2), Fraction(0))
        return OperatorName(dom, scal, min(b, cap), program)

    return GFrameName(dom, make_op, lower, upper)


def gframe_to_frame(G: GFrameName, opnorms: CRealSeq) -> Callable[[int], VectorName]:
    """Recover the vector frame behind a scalar-valued g-frame.

    opnorms.at(i) must be the operator norm of the i-th operator; the
    representer of each evaluation functional cannot be assembled
    without it."""

    def frame_vector(i: int) -> VectorName:
        cod = G.op(i).cod

        def ev(f: VectorName, i=i, cod=cod) -> CReal:
            return inner_product(G.op(i).apply(f), basis_vector(cod, 0))

        return riesz_representer(FunctionalName(G.dom, ev, opnorms.at(i)))

    return frame_vector


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

    def vecnorm(i: int, j: int) -> CReal:
        return norms(i, j) if row_vector(i, j) is not None else _ZERO

    return FrameName(H, vec, vecnorm, lower, upper)


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
    def build() -> OperatorName:
        syn = synthesis(G, norms)
        ana = analysis(G, ao)
        return OperatorName(G.dom, G.dom, G.upper,
                            lambda f: syn.apply(ana.apply(f)))

    return G.derived(("frame-operator", norms, ao), build)


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
    """Run u <- u + omega (g - S u), omega = 2/(lower+upper), for a fixed
    number of steps and return the exact iterate.

    Step k runs at operand precision precision + (steps - k) + 3 plus a
    shift absorbing omega, so the perturbation series is dominated by a
    geometric sum; the result is within
    rho**steps * (||g||/lower) + 2**-(precision+2) of the true inverse
    image, rho = (upper-lower)/(upper+lower).  Iterate growth beyond the
    spectral envelope raises SpectralHypothesisError.
    """
    lower, upper = Fraction(lower), Fraction(upper)
    if not (0 < lower <= upper):
        raise ValueError("spectral bounds must satisfy 0 < lower <= upper")
    if not same_space(S.dom, S.cod):
        raise SpaceMismatchError("inversion needs an endomorphism")
    omega = Fraction(2) / (lower + upper)
    shift = bits_for(2 * omega + 1)
    gbound = Fraction(g.approx(0).norm_upper() + 1)
    envelope = 2 * gbound / lower + 3
    u = FiniteCombo(S.dom, {})
    for k in range(steps):
        p = precision + (steps - k) + 3 + shift
        su = S.apply(VectorName.from_combo(u)).approx(p)
        gq = g.approx(p)
        u = u.add(gq.sub(su).scale(omega))
        grid = p + (len(u.terms).bit_length() + 1) // 2 + 1
        u = u.rounded(grid)
        if u.norm_upper() > envelope:
            raise SpectralHypothesisError(
                "iterates escaped the spectral envelope; the claimed "
                "spectral window does not hold")
    return u


def invert_frame_operator(S: OperatorName, lower: Fraction,
                          upper: Fraction) -> OperatorName:
    """Certified inverse of a self-adjoint operator with spectrum inside
    [lower, upper], realised by relaxation iteration with an explicit
    geometric rate.

    Every dual component and the dual's analysis mass apply the inverse
    to the same input, so the iterates are shared per input name and
    quantised precision.  The table is keyed weakly and holds nothing
    that refers to the input, so it goes when the input does; the first
    iterate stored wins a race."""
    lower, upper = Fraction(lower), Fraction(upper)
    if not (0 < lower <= upper):
        raise ValueError("spectral bounds must satisfy 0 < lower <= upper")
    iterates: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    lock = threading.Lock()

    def program(g: VectorName) -> VectorName:
        gbound = Fraction(g.approx(0).norm_upper() + 1)
        with lock:
            table = iterates.setdefault(g, {})

        def fn(n: int) -> FiniteCombo:
            with lock:
                got = table.get(n)
            if got is None:
                # extra steps cost nothing when the window holds (the map
                # is a contraction) and give the divergence guard room to
                # observe growth when it does not
                steps = _iteration_count(gbound, lower, upper, n) + 3
                got = richardson_iterate(S, lower, upper, g, steps, n)
                with lock:
                    got = table.setdefault(n, got)
            return got

        return VectorName(S.dom, fn)

    return OperatorName(S.dom, S.cod, Fraction(1) / lower, program)


# ---------------------------------------------------------------------------
# duals, pseudo-inverse, reconstruction


def canonical_dual_pair(G: GFrameName, norms: NormsOracle,
                        ao: AnalysisOracle) -> tuple[GFrameName, AnalysisOracle]:
    """The canonical dual (op_i composed with the inverse frame operator)
    together with its analysis oracle f -> <inverse f, f>.

    This is the one place the dual layer reaches the inverse frame
    operator: the pseudo-inverse and the kernel constructions are built
    from this pair.  The inverse is shared per (norms, ao), so every
    dual built from the same oracles shares its iterates."""
    s_inv = G.derived(("inverse-frame-operator", norms, ao),
                      lambda: invert_frame_operator(
                          frame_operator(G, norms, ao), G.lower, G.upper))
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


def reconstruct(G: GFrameName, D: GFrameName, norms_G: NormsOracle,
                f: VectorName, ao_D: AnalysisOracle) -> VectorName:
    """Synthesis of G applied to the analysis of the dual D at f; equal
    to f whenever D really is a dual of G."""
    if not same_space(G.dom, D.dom):
        raise SpaceMismatchError("dual pair must share the domain")
    coeffs = analysis(D, ao_D).apply(f).in_space(G.sum_space())
    return synthesis(G, norms_G).apply(coeffs)


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
            return vec_add(can_i.apply(f), psi.apply(f).component(i))

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
            return vec_sub(d_coeffs.component(i), c_coeffs.component(i))

        return SumName(ss, comp, _combined_mass(d_coeffs, c_coeffs, -1))

    return OperatorName(G.dom, ss.descriptor, d_ana.bound + tplus.bound,
                        program)


# ---------------------------------------------------------------------------
# stock constructions used by the command line and the check batteries


def diagonal_gframe(space: SpaceDescriptor,
                    overrides: Union[Mapping[int, Fraction],
                                     Iterable[tuple[int, Fraction]],
                                     None] = None
                    ) -> tuple[GFrameName, NormsOracle, AnalysisOracle]:
    """Scalar-valued g-frame f -> w_i <f, e_i> with weight 1 except for
    the finitely many overrides, given as a mapping or as (index, weight)
    pairs with distinct indices; returns the frame together with its
    column-norm and analysis oracles."""
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
    scal = scalar_codomain()

    def weight(i: int) -> Fraction:
        return table.get(i, Fraction(1))

    def make_op(i: int) -> OperatorName:
        w = weight(i)

        def column(k: int, i=i, w=w) -> FiniteCombo:
            return FiniteCombo(scal, {0: w} if k == i else {})

        return operator_from_columns(space, scal, column, abs(w))

    squares = {w * w for w in table.values()}
    uncovered = space.dimension is None or len(table) < space.dimension
    if uncovered:
        squares.add(Fraction(1))
    lower, upper = min(squares), max(squares)
    G = GFrameName(space, make_op, lower, upper)

    def norms(i: int, j: int) -> CReal:
        return creal_from_rational(abs(weight(i))) if j == 0 else _ZERO

    base_corrections = [(i, w * w - 1) for i, w in table.items() if w * w != 1]

    def ao(f: VectorName) -> CReal:
        total = inner_product(f, f)
        parts = [total]
        for i, c in base_corrections:
            ip = inner_product(f, basis_vector(space, i))
            parts.append(creal_scale(c, creal_mul(ip, ip)))
        return creal_sum(parts) if len(parts) > 1 else total

    return G, norms, ao


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

    def ao(f: VectorName) -> CReal:
        return inner_product(f, f)

    return G, norms, ao


def atoms_gframe(space: SpaceDescriptor, prefix: Sequence[FiniteCombo],
                 tail_offset: int, lower: Fraction, upper: Fraction
                 ) -> tuple[GFrameName, NormsOracle, AnalysisOracle,
                            Callable[[int], VectorName]]:
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

    def atom(i: int) -> VectorName:
        if i < P:
            return VectorName.from_combo(prefix[i])
        return basis_vector(space, i + tail_offset)

    def atom_norm(i: int) -> CReal:
        if i >= P:
            return creal_from_rational(1)
        q = prefix[i].norm_squared()
        root = _rational_sqrt(q)
        if root is not None:
            return creal_from_rational(root)
        return creal_sqrt(creal_from_rational(q))

    G = riesz_correspondence(lambda i: (atom(i), atom_norm(i)), lower, upper)

    def norms(i: int, j: int) -> CReal:
        return atom_norm(i) if j == 0 else _ZERO

    def ao(f: VectorName) -> CReal:
        parts = [inner_product(f, f)]
        for k in range(P + tail_offset):
            ip = inner_product(f, basis_vector(space, k))
            parts.append(creal_scale(Fraction(-1), creal_mul(ip, ip)))
        for i in range(P):
            ip = inner_product(f, atom(i))
            parts.append(creal_mul(ip, ip))
        return creal_sum(parts)

    return G, norms, ao, atom
