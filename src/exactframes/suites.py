"""Acceptance-style check batteries.

Each battery returns a list of CheckResult rows (name, pass/fail, the
measured bound).  The command line `suite` subcommand prints them one
per line; the test suite asserts them.  Everything is deterministic:
random data comes from seeded generators, and measured values are exact
rationals formatted in scientific notation.

The finite-dimensional oracles used against the gallery are independent
of the oracle-name machinery: plain Fraction matrix algebra on explicit
truncations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import PrecisionExhaustionError
from .realcore import (
    CReal,
    CRealSeq,
    SpeckerData,
    creal_from_rational,
    creal_limit,
    creal_mul,
    creal_scale,
    creal_sqrt,
    creal_sum,
    pow2,
    unpairing,
)
from .hilbert import (
    FiniteCombo,
    SpaceDescriptor,
    VectorName,
    basis_vector,
    ceil_sqrt_int,
    inner_product,
    linear_combination,
    riesz_functional,
    riesz_representer,
    vec_distance,
    vec_norm,
)
from .directsum import SumName, SumSpace, fourier_to_sum, sum_to_fourier
from .gframes import (
    AnalysisOracle,
    GFrameName,
    NormsOracle,
    OperatorName,
    OrthonormalRows,
    analysis,
    atoms_gframe,
    block_gframe,
    canonical_dual_pair,
    corresponding_frame,
    diagonal_gframe,
    dual_from_left_inverse,
    frame_operator,
    kernel_dual_pair,
    kernel_from_dual,
    pseudo_inverse,
    richardson_iterate,
    synthesis,
)
from .gallery import (
    column_lower_adjoint,
    column_lower_operator,
    gated_adjoint,
    gated_dual_tau,
    remark_frame_operator,
    toeplitz_upper_gframe,
    upper_u_operator,
)

SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    measured: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{self.name}\t{status}\t{self.measured}"


def _fmt(q: Fraction) -> str:
    return format(float(q), ".3e")


def _rand_rational(rng: random.Random, num_bound: int = 10 ** 6,
                   den_bound: int = 10 ** 6) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound),
                    rng.randint(1, den_bound))


def _rand_combo(rng: random.Random, space: SpaceDescriptor, max_terms: int = 8,
                den_bound: int = 16, index_bound: int = 24) -> FiniteCombo:
    terms: dict[int, Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        k = rng.randrange(index_bound)
        terms[k] = Fraction(rng.randint(-den_bound, den_bound),
                            rng.randint(1, den_bound))
    return FiniteCombo(space, terms)


# ---------------------------------------------------------------------------
# criterion 1: Cauchy consistency


def _consistency_excess(approx, precisions, gap_of) -> Fraction:
    """Largest signed violation over precision pairs; <= 0 means every
    pair satisfies its bound.  gap_of(a, b, bound) must be an exact
    rational with the sign of (distance(a, b) - bound)."""
    worst = None
    values = {n: approx(n) for n in precisions}
    for n in precisions:
        for m in precisions:
            if m < n:
                continue
            gap = gap_of(values[n], values[m], pow2(-n) + pow2(-m))
            if worst is None or gap > worst:
                worst = gap
    return worst


def cauchy_consistency_battery(count: int = 1000,
                               seed: int = SEED) -> list[CheckResult]:
    rng = random.Random(seed)
    precisions = (0, 5, 10, 20, 35)
    H = SpaceDescriptor()

    reals: list[CReal] = []
    vectors: list[VectorName] = []
    n_vectors = count * 2 // 5
    n_reps = 30

    while len(reals) < count - n_vectors:
        a = creal_from_rational(_rand_rational(rng))
        b = creal_from_rational(_rand_rational(rng))
        reals.append(a + b)
        reals.append(a - b)
        reals.append(a * b)
        reals.append(creal_scale(_rand_rational(rng), b))
        reals.append(abs(a - b))
        reals.append(creal_sqrt(abs(creal_mul(a, a))))
        q = abs(_rand_rational(rng, 8, 8)) + Fraction(1, 3)
        ratio = Fraction(1, rng.randint(2, 5))
        partials = CRealSeq(lambda k, q=q, r=ratio: creal_from_rational(
            q * (1 - r ** k) / (1 - r)))
        reals.append(creal_limit(partials, lambda n: n + 4))
        x = _rand_combo(rng, H)
        y = _rand_combo(rng, H)
        reals.append(inner_product(VectorName.from_combo(x),
                                   VectorName.from_combo(y)))
        reals.append(vec_norm(VectorName.from_combo(x)))

    while len(vectors) < n_vectors - n_reps:
        x = VectorName.from_combo(_rand_combo(rng, H))
        y = VectorName.from_combo(_rand_combo(rng, H))
        a, b = _rand_rational(rng, 12, 12), _rand_rational(rng, 12, 12)
        vectors.append(linear_combination(H, [(a, x), (b, y)]))
        c = inner_product(x, y)
        vectors.append(linear_combination(H, [(c, x), (Fraction(1, 2), y)]))

    for _ in range(n_reps):
        y = VectorName.from_combo(_rand_combo(rng, H, max_terms=4, den_bound=8))
        vectors.append(riesz_representer(riesz_functional(y, vec_norm(y))))

    reals = reals[:count - n_vectors]
    vectors = vectors[:n_vectors]

    worst_real = max(_consistency_excess(
        x.approx, precisions,
        lambda a, b, bound: abs(a - b) - bound) for x in reals)
    # vector bound compared in the squared domain (exact, same sign)
    worst_vec = max(_consistency_excess(
        v.approx, precisions,
        lambda a, b, bound: a.sub(b).norm_squared() - bound * bound)
        for v in vectors)

    return [
        CheckResult(f"cauchy-consistency reals n={len(reals)}",
                    worst_real <= 0, _fmt(worst_real)),
        CheckResult(f"cauchy-consistency vectors n={len(vectors)}",
                    worst_vec <= 0, _fmt(worst_vec)),
    ]


# ---------------------------------------------------------------------------
# criterion 2: representer round trips


def riesz_roundtrip_battery(count: int = 100,
                            seed: int = SEED + 1) -> list[CheckResult]:
    rng = random.Random(seed)
    H = SpaceDescriptor()
    tol = pow2(-30)
    worst = Fraction(0)
    for _ in range(count):
        y = VectorName.from_combo(_rand_combo(rng, H))
        rep = riesz_representer(riesz_functional(y, vec_norm(y)))
        d = vec_distance(rep, y).approx(35)
        worst = max(worst, d)
    return [CheckResult(f"riesz-roundtrip n={count} tol=2^-30",
                        worst <= tol, _fmt(worst))]


# ---------------------------------------------------------------------------
# criterion 3: representation reductions


def reduction_roundtrip_battery(count: int = 50,
                                seed: int = SEED + 2) -> list[CheckResult]:
    rng = random.Random(seed)
    H = SpaceDescriptor()
    ss = SumSpace(lambda i: H)
    tol = pow2(-30)
    worst = Fraction(0)
    for _ in range(count):
        comps = {}
        for _ in range(rng.randint(1, 5)):
            comps[rng.randrange(8)] = _rand_combo(rng, H, max_terms=5,
                                                  den_bound=16, index_bound=8)
        F = SumName.finite(ss, comps)
        norms = CRealSeq(lambda i, c=comps: creal_sqrt(creal_from_rational(
            c[i].norm_squared() if i in c else Fraction(0))))
        back = fourier_to_sum(sum_to_fourier(F), norms)
        for i in range(max(comps) + 2 if comps else 2):
            d = vec_distance(back.component(i), F.component(i)).approx(30)
            worst = max(worst, d)
    return [CheckResult(f"reduction-roundtrip n={count} tol=2^-30",
                        worst <= tol, _fmt(worst))]


# ---------------------------------------------------------------------------
# shared frame fixtures


def test_panel(space: SpaceDescriptor) -> list[VectorName]:
    """Ten fixed rational vectors with small supports."""
    specs = [
        {0: Fraction(1)},
        {1: Fraction(1)},
        {0: Fraction(1), 1: Fraction(1)},
        {0: Fraction(1, 3), 2: Fraction(-1)},
        {0: Fraction(3, 5), 1: Fraction(4, 5)},
        {2: Fraction(7, 16), 5: Fraction(-3, 8)},
        {0: Fraction(-2), 3: Fraction(1, 2), 6: Fraction(1, 4)},
        {4: Fraction(9, 11)},
        {0: Fraction(1, 7), 1: Fraction(-1, 7), 7: Fraction(2, 7)},
        {1: Fraction(5, 4), 2: Fraction(1, 16), 8: Fraction(-5, 6)},
    ]
    return [VectorName.from_combo(FiniteCombo(space, t)) for t in specs]


def standard_frames(space: SpaceDescriptor):
    """The three stock g-frames: tight diagonal, weighted diagonal, and
    the doubled-first-atom redundant frame."""
    parseval = diagonal_gframe(space)
    weighted = diagonal_gframe(space, {0: Fraction(2)})
    e0 = FiniteCombo(space, {0: Fraction(1)})
    redundant = atoms_gframe(space, [e0, e0], -1, Fraction(1), Fraction(2))
    return {
        "parseval": parseval,
        "weighted": weighted,
        "redundant": redundant,
    }


# ---------------------------------------------------------------------------
# criterion 4: reconstruction identities


def reconstruction_battery() -> list[CheckResult]:
    H = SpaceDescriptor()
    panel = test_panel(H)
    tol = pow2(-25)
    results = []
    for name, (G, norms, ao) in standard_frames(H).items():
        syn = synthesis(G, norms)
        dual, ao_d = canonical_dual_pair(G, norms, ao)
        ana = analysis(dual, ao_d)
        worst = Fraction(0)
        for f in panel:
            u = syn.apply(ana.apply(f).in_space(G.sum_space()))
            worst = max(worst, vec_distance(u, f).approx(25))
        results.append(CheckResult(
            f"reconstruction {name} canonical-dual panel tol=2^-25",
            worst <= tol, _fmt(worst)))
        tplus = pseudo_inverse(G, norms, ao)
        worst = Fraction(0)
        for f in panel[:4]:
            u = syn.apply(tplus.apply(f).in_space(G.sum_space()))
            worst = max(worst, vec_distance(u, f).approx(25))
        results.append(CheckResult(
            f"pseudo-inverse {name} right-inverse panel tol=2^-25",
            worst <= tol, _fmt(worst)))
    return results


# ---------------------------------------------------------------------------
# criterion 5: iterative inversion certificate


def richardson_battery() -> list[CheckResult]:
    H = SpaceDescriptor()
    G, norms, ao = diagonal_gframe(H, {0: Fraction(2)})
    S = frame_operator(G, norms, ao)       # acts as diag(4, 1, 1, ...)
    lower, upper = Fraction(1), Fraction(4)
    rho = Fraction(3, 5)
    cases = {
        "e0": (FiniteCombo(H, {0: Fraction(1)}),
               FiniteCombo(H, {0: Fraction(1, 4)})),
        "e0+e1": (FiniteCombo(H, {0: Fraction(1), 1: Fraction(1)}),
                  FiniteCombo(H, {0: Fraction(1, 4), 1: Fraction(1)})),
    }
    results = []
    for name, (g, exact) in cases.items():
        ok = True
        worst_ratio = Fraction(0)
        gnormsq = g.norm_squared()
        for k in range(21):
            u = richardson_iterate(S, lower, upper, VectorName.from_combo(g),
                                   k, 35)
            err_sq = u.sub(exact).norm_squared()
            # sufficient for err <= rho^k ||g|| + 2^-30
            bound_sq = rho ** (2 * k) * gnormsq + pow2(-60)
            if err_sq > bound_sq:
                ok = False
            if bound_sq > 0:
                worst_ratio = max(worst_ratio, err_sq / bound_sq)
        results.append(CheckResult(
            f"richardson-certificate {name} k<=20", ok, _fmt(worst_ratio)))
    return results


# ---------------------------------------------------------------------------
# criterion 6: dual characterization through kernel operators


def _half_first_coordinate_kernel(G: GFrameName) -> OperatorName:
    """psi f = (c/2, -c/2, 0, ...) with c = <f, e_0>; synthesis kills it
    on the doubled-atom frame since atoms 0 and 1 coincide."""
    ss = G.sum_space()
    H = G.dom

    def program(f: VectorName) -> SumName:
        c = inner_product(f, basis_vector(H, 0))

        def comp(i: int) -> VectorName:
            cod = ss.component(i)
            if i == 0:
                return linear_combination(
                    cod, [(creal_scale(Fraction(1, 2), c), basis_vector(cod, 0))])
            if i == 1:
                return linear_combination(
                    cod, [(creal_scale(Fraction(-1, 2), c), basis_vector(cod, 0))])
            return VectorName.zero(cod)

        return SumName(ss, comp, creal_scale(Fraction(1, 2), creal_mul(c, c)))

    return OperatorName(H, ss.descriptor, Fraction(1), program)


def dual_characterization_battery() -> list[CheckResult]:
    H = SpaceDescriptor()
    panel = test_panel(H)
    tol = pow2(-25)
    e0 = FiniteCombo(H, {0: Fraction(1)})
    G, norms, ao = atoms_gframe(H, [e0, e0], -1, Fraction(1), Fraction(2))
    results = []

    psi = _half_first_coordinate_kernel(G)
    dual, ao_d = kernel_dual_pair(G, norms, ao, psi)
    syn = synthesis(G, norms)
    ana = analysis(dual, ao_d)
    worst = Fraction(0)
    for f in panel:
        u = syn.apply(ana.apply(f).in_space(G.sum_space()))
        worst = max(worst, vec_distance(u, f).approx(25))
    results.append(CheckResult(
        "kernel-dual nonzero-psi reconstruction tol=2^-25",
        worst <= tol, _fmt(worst)))

    canonical, ao_c = canonical_dual_pair(G, norms, ao)
    psi0 = kernel_from_dual(G, canonical, norms, ao, ao_c)
    worst = Fraction(0)
    for f in panel:
        out = psi0.apply(f)
        for i in range(6):
            worst = max(worst, vec_norm(out.component(i)).approx(25))
    results.append(CheckResult(
        "kernel-of-canonical-dual componentwise-zero tol=2^-25",
        worst <= tol, _fmt(worst)))
    return results


# ---------------------------------------------------------------------------
# criterion 7: gallery against direct finite linear algebra


def _matrix_apply(rows: list[list[Fraction]], c: FiniteCombo,
                  space: SpaceDescriptor) -> FiniteCombo:
    size = len(rows)
    out = {}
    for i in range(size):
        acc = Fraction(0)
        for j, q in c.terms:
            if j < size:
                acc += rows[i][j] * q
        if acc:
            out[i] = acc
    return FiniteCombo(space, out)


def _upper_matrix(terms: Sequence[Fraction], size: int) -> list[list[Fraction]]:
    def a(k: int) -> Fraction:
        return terms[k - 1] if 1 <= k <= len(terms) else Fraction(0)

    return [[Fraction(1) if i == j else (a(j - i) if j > i else Fraction(0))
             for j in range(size)] for i in range(size)]


def _transpose(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    size = len(rows)
    return [[rows[j][i] for j in range(size)] for i in range(size)]


def _forward_substitution_inverse(rows: list[list[Fraction]]
                                  ) -> list[list[Fraction]]:
    """Inverse of a unit lower-triangular matrix, column by column, in
    integers over one common denominator.

    With D the lcm of the entries' denominators (a power of two for the
    gallery's terms), each entry of the inverse is a polynomial of degree
    at most size - 1 in the entries, so its denominator divides
    S = D**(size - 1).  A column is carried as integers X_i = S inv[i][j];
    then D X_i = - sum over k < i of (D rows[i][k]) X_k, and the division
    by D is exact."""
    size = len(rows)
    D = math.lcm(*(q.denominator for row in rows for q in row))
    S = D ** max(size - 1, 0)
    below = [[(k, q.numerator * (D // q.denominator))
              for k, q in enumerate(row[:i]) if q]
             for i, row in enumerate(rows)]
    inv = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        x = [0] * size
        x[j] = S
        for i in range(j + 1, size):
            x[i] = -(sum(r * x[k] for k, r in below[i]) // D)
        for i in range(j, size):
            if x[i]:
                inv[i][j] = Fraction(x[i], S)
    return inv


def gallery_battery() -> list[CheckResult]:
    H = SpaceDescriptor()
    block = 120
    tol = pow2(-25)
    s = SpeckerData.from_prefix([1, 3])          # terms 1/4, 1/16
    gate_value = s.sum_of_squares(2)             # 17/256
    gate = creal_from_rational(gate_value)
    terms = [s.term(0), s.term(1)]
    upper_m = _upper_matrix(terms, block)
    lower_m = _transpose(upper_m)
    collow_m = [[Fraction(1) if i == j else
                 (terms[i - 1] if j == 0 and 1 <= i <= len(terms)
                  else Fraction(0))
                 for j in range(block)] for i in range(block)]
    tau_m = _forward_substitution_inverse(lower_m)

    probes = [FiniteCombo(H, t) for t in (
        {0: Fraction(1)},
        {1: Fraction(1)},
        {0: Fraction(1, 3), 1: Fraction(-2), 4: Fraction(5, 8)},
        {2: Fraction(7, 16), 3: Fraction(1)},
    )]

    # the lower-toeplitz construction's faces are the upper one's: its
    # synthesis is U and its gated face is U*
    constructions = [
        ("upper-toeplitz U", upper_u_operator(H, s), upper_m),
        ("column-lower adjoint", column_lower_adjoint(H, s),
         _transpose(collow_m)),
        ("lower-toeplitz synthesis", upper_u_operator(H, s), upper_m),
        ("gated adjoint of upper", gated_adjoint(H, s, gate), lower_m),
        ("gated column-lower", column_lower_operator(H, s, gate), collow_m),
        ("gated lower-toeplitz", gated_adjoint(H, s, gate), lower_m),
        ("gated dual tau", gated_dual_tau(H, s, gate).op(0), tau_m),
        ("remark frame operator", remark_frame_operator(H, s, gate),
         _remark_matrix(terms, gate_value, block)),
    ]
    results = []
    worst_overall = Fraction(0)
    all_ok = True
    for name, op, matrix in constructions:
        worst = Fraction(0)
        for c in probes:
            got = op.apply(VectorName.from_combo(c)).approx(30)
            want = _matrix_apply(matrix, c, H)
            diff_sq = got.sub(want).norm_squared()
            worst = max(worst, diff_sq)
        ok = worst <= tol * tol
        all_ok = all_ok and ok
        worst_overall = max(worst_overall, worst)
        results.append(CheckResult(
            f"gallery-vs-linear-algebra {name} tol=2^-25", ok, _fmt(worst)))

    # reconstruction through the gated dual
    tau = gated_dual_tau(H, s, gate)
    GT, normsT = toeplitz_upper_gframe(H, s, gate, Fraction(1, 4),
                                       Fraction(4))

    def ao_tau(f: VectorName) -> CReal:
        out = tau.op(0).apply(f)
        return inner_product(out, out)

    syn = synthesis(GT, normsT)
    ana = analysis(tau, ao_tau)
    worst = Fraction(0)
    for c in probes[:2]:
        f = VectorName.from_combo(c)
        u = syn.apply(ana.apply(f).in_space(GT.sum_space()))
        worst = max(worst, vec_distance(u, f).approx(25))
    results.append(CheckResult(
        "gallery tau-dual reconstruction tol=2^-25", worst <= tol,
        _fmt(worst)))

    # understated gates must fail with certified exhaustion, never a value
    f0 = VectorName.from_combo(probes[0])
    understated = [creal_from_rational(Fraction(0)),
                   creal_from_rational(gate_value / 2)]
    failures = 0
    trials = 0
    for bad in understated:
        for make in (
                lambda: gated_adjoint(H, s, bad).apply(f0).approx(25),
                lambda: column_lower_operator(H, s, bad).apply(f0).approx(25),
                lambda: gated_dual_tau(H, s, bad).op(0).apply(f0).approx(25),
                lambda: remark_frame_operator(H, s, bad).apply(f0).approx(25),
        ):
            trials += 1
            try:
                make()
            except PrecisionExhaustionError:
                failures += 1
    results.append(CheckResult(
        f"gallery understated-gate certified-failure {failures}/{trials}",
        failures == trials, str(failures)))
    return results


def _remark_matrix(terms: Sequence[Fraction], gate_value: Fraction,
                   size: int) -> list[list[Fraction]]:
    def a(k: int) -> Fraction:
        return terms[k - 1] if 1 <= k <= len(terms) else Fraction(0)

    rows = [[Fraction(0)] * size for _ in range(size)]
    rows[0][0] = 1 + gate_value
    for k in range(1, size):
        rows[0][k] = -a(k)
        rows[k][0] = -a(k)
        rows[k][k] = Fraction(1)
    return rows


# ---------------------------------------------------------------------------
# criterion 8: frame inequality invariants


def _gframe_partial(G: GFrameName, f: VectorName, count: int) -> CReal:
    sq = []
    for i in range(count):
        v = G.op(i).apply(f)
        sq.append(inner_product(v, v))
    return creal_sum(sq)


def frame_inequality_battery() -> list[CheckResult]:
    H = SpaceDescriptor()
    panel = test_panel(H)
    tol = pow2(-20)
    results = []
    frames: list[tuple[str, GFrameName, Optional[AnalysisOracle]]] = []
    fixtures = standard_frames(H)
    for name, (G, norms, ao) in fixtures.items():
        frames.append((name, G, ao))
        dual, ao_d = canonical_dual_pair(G, norms, ao)
        frames.append((f"{name}-canonical-dual", dual, ao_d))

    G, norms, ao = fixtures["redundant"]
    psi = _half_first_coordinate_kernel(G)
    kd, kd_ao = kernel_dual_pair(G, norms, ao, psi)
    frames.append(("redundant-kernel-dual", kd, kd_ao))
    dual0, ao_d0 = canonical_dual_pair(G, norms, ao)
    li = dual_from_left_inverse(G, synthesis(dual0, _dual_diag_norms(G)),
                                analysis(dual0, ao_d0))
    frames.append(("redundant-left-inverse-dual", li, ao_d0))
    bG, bnorms, bao = block_gframe(H, 2)
    frames.append(("block-width-2", bG, bao))

    for name, frame, ao_f in frames:
        worst_upper = Fraction("-1000000")
        worst_lower = Fraction("-1000000")
        bound_ok = True
        cap = Fraction(ceil_sqrt_int(frame.upper))
        for i in range(8):
            if frame.op(i).bound > cap:
                bound_ok = False
        for f in panel:
            nf = f.exact_combo.norm_squared()
            partial = _gframe_partial(frame, f, 64).approx(25)
            worst_upper = max(worst_upper,
                              partial - (frame.upper * nf + tol))
            worst_lower = max(worst_lower,
                              (frame.lower * nf - tol) - partial)
            if ao_f is not None:
                mass = ao_f(f).approx(25)
                if mass > frame.upper * nf + tol or \
                        mass < frame.lower * nf - tol:
                    bound_ok = False
        ok = worst_upper <= 0 and worst_lower <= 0 and bound_ok
        results.append(CheckResult(
            f"frame-inequality {name} N<=64 tol=2^-20", ok,
            _fmt(max(worst_upper, worst_lower))))

    # doubly indexed vector frames, enumerated in pairing order
    for name in ("parseval", "weighted"):
        G, norms, ao = fixtures[name]
        corr = corresponding_frame(
            G, OrthonormalRows(lambda i: G.op(i).cod), norms)
        worst_upper = worst_lower = Fraction("-1000000")
        for f in panel:
            nf = f.exact_combo.norm_squared()
            squares = []
            for k in range(64):
                i, j = unpairing(k)
                ip = inner_product(f, corr.vec(i, j))
                squares.append(creal_mul(ip, ip))
            partial = creal_sum(squares).approx(25)
            worst_upper = max(worst_upper, partial - (corr.upper * nf + tol))
            worst_lower = max(worst_lower, (corr.lower * nf - tol) - partial)
        ok = worst_upper <= 0 and worst_lower <= 0
        results.append(CheckResult(
            f"frame-inequality corresponding-{name} flat-N<=64 tol=2^-20",
            ok, _fmt(max(worst_upper, worst_lower))))
    return results


def _dual_diag_norms(G: GFrameName) -> NormsOracle:
    """Column norms of the canonical dual of the doubled-atom frame:
    the frame operator is diag(2, 1, 1, ...), so dual atoms are e0/2,
    e0/2, e1, e2, ..."""
    def norms(i: int, j: int) -> CReal:
        if j != 0:
            return creal_from_rational(0)
        return creal_from_rational(Fraction(1, 2) if i in (0, 1) else 1)

    return norms


# ---------------------------------------------------------------------------
# suite registry


SUITES: dict[str, list[Callable[[], list[CheckResult]]]] = {
    "invariants": [cauchy_consistency_battery, frame_inequality_battery],
    "roundtrips": [riesz_roundtrip_battery, reduction_roundtrip_battery],
    "reconstruction": [reconstruction_battery, richardson_battery,
                       dual_characterization_battery],
    "gallery": [gallery_battery],
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{sorted(SUITES)}")
    results = []
    for battery in SUITES[name]:
        results.extend(battery())
    return results
