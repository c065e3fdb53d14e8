"""Command-line front end.

Reads a task document, runs the requested operations at the requested
precisions, and prints exact rational results, each with its guarantee
line.  Also runs the named check suites.

Document grammar (line oriented; '#' starts a comment; blank lines are
ignored; the first directive must be the version):

    version 1
    space <name> infinite|<dim>
    vector <name> <space> [<idx>:<rat> ...]
    sumspace <name> <space>                  # every component is <space>
    sumvec <name> <sumspace> [normsq <rat>] [<idx>@<vector> ...]
    gframe <name> <space> parseval
    gframe <name> <space> diagonal [<idx>:<rat> ...]
    gframe <name> <space> block <width>
    gframe <name> <space> atoms <A> <B> <tail-offset> | <combo> | <combo> ...
    gallery <name> <kind> <space> enum <e0,e1,...>|empty [gate <rat>]
    task <op> <args...> precision <n>

with <rat> matching -?[0-9]+(/[1-9][0-9]*)?  (binary floats are rejected:
they would silently break every certification), <combo> a space-separated
list of <idx>:<rat> pairs (empty for the zero vector), and <kind> one of
upper-toeplitz, column-lower, lower-toeplitz.

Task operations:

    norm <vector>                  inner <vector> <vector>
    sum-inner <sumvec> <sumvec>    apply <gallery> <vector>
    gated-apply <gallery> <vector> dual-apply <gallery> <vector>
    frame-op <gframe|gallery> <vector>
    reconstruct <gframe> <vector>

`apply` runs the construction's ungated face, `gated-apply` the gated
adjoint (requires a declared gate), `dual-apply` the gated dual of an
upper-toeplitz construction, `frame-op` the frame operator (canonical
for g-frames, the gated loaded-column one for column-lower galleries),
and `reconstruct` the canonical-dual reconstruction.  A g-frame and a
gallery construction may not share a name.

Exit codes: 0 ok, 2 parse/validation error, 3 unresolved reference,
4 precision exhaustion, 5 invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    InvariantViolationError,
    PrecisionExhaustionError,
    SpecParseError,
    SpecResolveError,
)
from .realcore import (
    SpeckerData,
    creal_from_rational,
    format_rational,
    parse_rational,
)
from .hilbert import (
    FiniteCombo,
    SpaceDescriptor,
    VectorName,
    inner_product,
    vec_norm,
)
from .directsum import SumName, SumSpace, sum_inner_product
from .gframes import (
    atoms_gframe,
    block_gframe,
    canonical_dual_pair,
    diagonal_gframe,
    frame_operator,
    reconstruct,
)
from .gallery import (
    ColumnLowerU,
    NormOracle,
    ToeplitzLowerU,
    ToeplitzUpperU,
    column_lower_adjoint,
    gated_adjoint,
    gated_dual_tau,
    lower_u_synthesis,
    remark_frame_operator,
    upper_u_operator,
)
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOLVE = 3
EXIT_EXHAUSTION = 4
EXIT_INVARIANT = 5

DEFAULT_MAX_PRECISION = 64

_GALLERY_KINDS = ("upper-toeplitz", "column-lower", "lower-toeplitz")


@dataclass(frozen=True)
class Task:
    op: str
    args: tuple[str, ...]
    precision: int


@dataclass
class SpecDocument:
    version: str
    declarations: list[tuple[str, list[str]]] = field(default_factory=list)
    tasks: list[Task] = field(default_factory=list)


def _rat(token: str) -> Fraction:
    try:
        return parse_rational(token)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from None


def _nat(token: str, what: str) -> int:
    if not token.isdigit():
        raise SpecParseError(f"{what} must be a decimal natural, got {token!r}")
    return int(token)


def _combo_tokens(tokens: Sequence[str]) -> list[tuple[int, Fraction]]:
    out = []
    for tok in tokens:
        if ":" not in tok:
            raise SpecParseError(f"expected idx:rational, got {tok!r}")
        idx, _, val = tok.partition(":")
        out.append((_nat(idx, "basis index"), _rat(val)))
    return out


def load_document(text: str, max_precision: int = DEFAULT_MAX_PRECISION
                  ) -> SpecDocument:
    """Parse and validate the line-oriented task document."""
    doc: Optional[SpecDocument] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]
        if doc is None:
            if head != "version" or len(rest) != 1:
                raise SpecParseError(
                    f"line {lineno}: the first directive must be 'version <v>'")
            doc = SpecDocument(version=rest[0])
            continue
        if head == "task":
            if len(rest) < 3 or rest[-2] != "precision":
                raise SpecParseError(
                    f"line {lineno}: task needs '... precision <n>'")
            precision = _nat(rest[-1], "precision")
            if precision > max_precision:
                raise SpecParseError(
                    f"line {lineno}: precision {precision} exceeds the "
                    f"configured maximum {max_precision}")
            doc.tasks.append(Task(rest[0], tuple(rest[1:-2]), precision))
        elif head in ("space", "vector", "sumspace", "sumvec", "gframe",
                      "gallery"):
            doc.declarations.append((head, rest))
        else:
            raise SpecParseError(f"line {lineno}: unknown directive {head!r}")
    if doc is None:
        raise SpecParseError("empty document")
    return doc


class Registry:
    """Resolved objects of one document."""

    def __init__(self) -> None:
        self.spaces: dict[str, SpaceDescriptor] = {}
        self.vectors: dict[str, VectorName] = {}
        self.sumspaces: dict[str, SumSpace] = {}
        self.sumvecs: dict[str, SumName] = {}
        self.gframes: dict[str, tuple] = {}
        self.gallery: dict[str, tuple] = {}

    def _get(self, table: dict, name: str, what: str):
        if name not in table:
            raise SpecResolveError(f"unknown {what} {name!r}")
        return table[name]

    def space(self, name: str) -> SpaceDescriptor:
        return self._get(self.spaces, name, "space")

    def vector(self, name: str) -> VectorName:
        return self._get(self.vectors, name, "vector")

    def sumvec(self, name: str) -> SumName:
        return self._get(self.sumvecs, name, "sum vector")


def _declare_space(reg: Registry, rest: list[str]) -> None:
    if len(rest) != 2:
        raise SpecParseError("space needs: <name> infinite|<dim>")
    name, dim = rest
    dimension = None if dim == "infinite" else _nat(dim, "dimension")
    if dimension == 0:
        raise SpecParseError("dimension must be positive")
    reg.spaces[name] = SpaceDescriptor(dimension=dimension)


def _declare_vector(reg: Registry, rest: list[str]) -> None:
    if len(rest) < 2:
        raise SpecParseError("vector needs: <name> <space> [idx:rat ...]")
    name, space_name, *terms = rest
    tokens = _combo_tokens(terms)          # literal validation before lookup
    space = reg.space(space_name)
    reg.vectors[name] = VectorName.from_combo(FiniteCombo(space, tokens))


def _declare_sumspace(reg: Registry, rest: list[str]) -> None:
    if len(rest) != 2:
        raise SpecParseError("sumspace needs: <name> <space>")
    name, space_name = rest
    space = reg.space(space_name)
    reg.sumspaces[name] = SumSpace(lambda i: space)


def _declare_sumvec(reg: Registry, rest: list[str]) -> None:
    if len(rest) < 2:
        raise SpecParseError(
            "sumvec needs: <name> <sumspace> [normsq <rat>] [idx@vector ...]")
    name, ss_name, *rest = rest
    ss = reg._get(reg.sumspaces, ss_name, "sum space")
    normsq: Optional[Fraction] = None
    if rest[:1] == ["normsq"]:
        if len(rest) < 2:
            raise SpecParseError("normsq needs a rational value")
        normsq = _rat(rest[1])
        rest = rest[2:]
    comps: dict[int, FiniteCombo] = {}
    for tok in rest:
        if "@" not in tok:
            raise SpecParseError(f"expected idx@vector, got {tok!r}")
        idx, _, vec_name = tok.partition("@")
        v = reg.vector(vec_name)
        if v.exact_combo is None:
            raise SpecResolveError(
                f"sumvec component {vec_name!r} must be an exact literal")
        slot = _nat(idx, "component index")
        if slot in comps:
            raise ValueError(f"duplicate component index {slot}")
        comps[slot] = v.exact_combo
    made = SumName.finite(ss, comps)
    if normsq is not None:
        made = SumName(ss, made.component, creal_from_rational(normsq))
    reg.sumvecs[name] = made


def _declare_gframe(reg: Registry, rest: list[str]) -> None:
    if len(rest) < 3:
        raise SpecParseError("gframe needs: <name> <space> <kind> ...")
    name, space_name, kind, *args = rest
    space = reg.space(space_name)
    if kind == "parseval":
        reg.gframes[name] = diagonal_gframe(space)[:3]
    elif kind == "block":
        if len(args) != 1:
            raise SpecParseError("block needs: <width>")
        reg.gframes[name] = block_gframe(space, _nat(args[0], "block width"))
    elif kind == "diagonal":
        reg.gframes[name] = diagonal_gframe(space, _combo_tokens(args))[:3]
    elif kind == "atoms":
        if len(args) < 3:
            raise SpecParseError("atoms needs: <A> <B> <tail-offset> | ...")
        lower, upper = _rat(args[0]), _rat(args[1])
        try:
            tail_offset = int(args[2])
        except ValueError:
            raise SpecParseError("tail-offset must be an integer") from None
        atoms_part = args[3:]
        prefix: list[FiniteCombo] = []
        current: list[str] = []
        if atoms_part and atoms_part[0] != "|":
            raise SpecParseError("atom list must start with '|'")
        for tok in atoms_part[1:] + ["|"]:
            if tok == "|":
                prefix.append(FiniteCombo(space, _combo_tokens(current)))
                current = []
            else:
                current.append(tok)
        if not atoms_part:
            raise SpecParseError("atoms needs at least one '|' atom")
        reg.gframes[name] = atoms_gframe(space, prefix, tail_offset,
                                         lower, upper)[:3]
    else:
        raise SpecParseError(f"unknown gframe kind {kind!r}")


def _declare_gallery(reg: Registry, rest: list[str]) -> None:
    if len(rest) < 4 or rest[3] != "enum":
        raise SpecParseError(
            "gallery needs: <name> <kind> <space> enum <list>|empty [gate <rat>]")
    name, kind, space_name = rest[0], rest[1], rest[2]
    if kind not in _GALLERY_KINDS:
        raise SpecParseError(f"unknown gallery kind {kind!r}")
    space = reg.space(space_name)
    if space.dimension is not None:
        raise SpecParseError(f"gallery {name!r} needs an infinite space")
    args = rest[4:]
    if not args:
        raise SpecParseError("enum needs a value list or 'empty'")
    enum_tok, args = args[0], args[1:]
    if enum_tok == "empty":
        values: list[int] = []
    else:
        values = [_nat(v, "enumerator value") for v in enum_tok.split(",")]
    gate: Optional[NormOracle] = None
    if args:
        if args[0] != "gate" or len(args) != 2:
            raise SpecParseError("trailing gallery arguments must be 'gate <rat>'")
        gate = NormOracle.exact(_rat(args[1]))
    try:
        specker = SpeckerData.from_prefix(values)
    except InvariantViolationError as exc:
        raise SpecParseError(f"gallery {name!r}: {exc}") from None
    construction = {
        "upper-toeplitz": ToeplitzUpperU,
        "column-lower": ColumnLowerU,
        "lower-toeplitz": ToeplitzLowerU,
    }[kind](specker)
    reg.gallery[name] = (kind, construction, gate, space)


def build_registry(doc: SpecDocument) -> Registry:
    reg = Registry()
    # each kind of name has its own table: a space and a vector may share
    # a name, two spaces may not; g-frames and gallery constructions share
    # one namespace, since frame-op takes either
    constructions = (reg.gframes, reg.gallery)
    handlers = {
        "space": (_declare_space, (reg.spaces,)),
        "vector": (_declare_vector, (reg.vectors,)),
        "sumspace": (_declare_sumspace, (reg.sumspaces,)),
        "sumvec": (_declare_sumvec, (reg.sumvecs,)),
        "gframe": (_declare_gframe, constructions),
        "gallery": (_declare_gallery, constructions),
    }
    for head, rest in doc.declarations:
        handler, tables = handlers[head]
        name = rest[0] if rest else ""
        if any(name in table for table in tables):
            raise SpecParseError(f"{head} {name!r} is already declared")
        try:
            handler(reg, rest)
        except (ValueError, IndexError) as exc:
            raise SpecParseError(f"{head} {name!r}: {exc}") from None
    return reg


def _need_args(task: Task, count: int) -> None:
    if len(task.args) != count:
        raise SpecResolveError(
            f"operation {task.op!r} takes {count} argument(s), "
            f"got {len(task.args)}")


def _gallery_gate(entry) -> NormOracle:
    kind, construction, gate, space = entry
    if gate is None:
        raise SpecResolveError(
            f"gated operation on a {kind} construction declared without a gate")
    return gate


def _value_lines(value: FiniteCombo) -> list[str]:
    return [f"value = {value.to_text()}"]


def execute_task(reg: Registry, task: Task, precision: int) -> list[str]:
    op = task.op
    if op == "norm":
        _need_args(task, 1)
        result = vec_norm(reg.vector(task.args[0]))
        return [f"value = {format_rational(result.approx(precision))}"]
    if op == "inner":
        _need_args(task, 2)
        result = inner_product(reg.vector(task.args[0]),
                               reg.vector(task.args[1]))
        return [f"value = {format_rational(result.approx(precision))}"]
    if op == "sum-inner":
        _need_args(task, 2)
        result = sum_inner_product(reg.sumvec(task.args[0]),
                                   reg.sumvec(task.args[1]))
        return [f"value = {format_rational(result.approx(precision))}"]
    if op in ("apply", "gated-apply", "dual-apply"):
        _need_args(task, 2)
        entry = reg._get(reg.gallery, task.args[0], "gallery construction")
        kind, construction, gate, space = entry
        v = reg.vector(task.args[1])
        if op == "apply":
            operator = {
                "upper-toeplitz": lambda: upper_u_operator(
                    space, construction.specker),
                "column-lower": lambda: column_lower_adjoint(
                    space, construction),
                "lower-toeplitz": lambda: lower_u_synthesis(
                    space, construction),
            }[kind]()
        elif op == "gated-apply":
            operator = gated_adjoint(space, construction, _gallery_gate(entry))
        else:
            if kind != "upper-toeplitz":
                raise SpecResolveError(
                    "dual-apply needs an upper-toeplitz construction")
            operator = gated_dual_tau(space, construction,
                                      _gallery_gate(entry)).op(0)
        combo = operator.apply(v).approx(precision)
        return _value_lines(combo)
    if op == "frame-op":
        _need_args(task, 2)
        name = task.args[0]
        v = reg.vector(task.args[1])
        if name in reg.gframes:
            G, norms, ao = reg.gframes[name]
            out = frame_operator(G, norms, ao).apply(v)
        else:
            entry = reg._get(reg.gallery, name, "g-frame or gallery construction")
            kind, construction, gate, space = entry
            if kind != "column-lower":
                raise SpecResolveError(
                    "frame-op on a gallery object needs a column-lower construction")
            out = remark_frame_operator(space, construction,
                                        _gallery_gate(entry)).apply(v)
        return _value_lines(out.approx(precision))
    if op == "reconstruct":
        _need_args(task, 2)
        G, norms, ao = reg._get(reg.gframes, task.args[0], "g-frame")
        v = reg.vector(task.args[1])
        dual, ao_d = canonical_dual_pair(G, norms, ao)
        out = reconstruct(G, dual, norms, v, ao_d)
        return _value_lines(out.approx(precision))
    raise SpecResolveError(f"unknown operation {task.op!r}")


def run_task(doc: SpecDocument, index: int, *,
             precision_override: Optional[int] = None,
             max_precision: int = DEFAULT_MAX_PRECISION,
             registry: Optional[Registry] = None) -> str:
    """Execute one task of a parsed document and return its report."""
    if not 0 <= index < len(doc.tasks):
        raise SpecResolveError(f"task index {index} out of range "
                               f"(document has {len(doc.tasks)})")
    reg = registry if registry is not None else build_registry(doc)
    task = doc.tasks[index]
    precision = task.precision
    if precision_override is not None:
        if precision_override < 0:
            raise SpecParseError(
                f"precision must be a natural number, got {precision_override}")
        if precision_override > max_precision:
            raise SpecParseError(
                f"precision {precision_override} exceeds the configured "
                f"maximum {max_precision}")
        precision = precision_override
    header = f"task {index} {task.op} {' '.join(task.args)}"
    lines = [header]
    lines.extend(execute_task(reg, task, precision))
    lines.append(f"error <= 2^-{precision}")
    return "\n".join(lines)


def _run_eval(args) -> int:
    try:
        with open(args.spec_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    doc = load_document(text, max_precision=args.max_precision)
    reg = build_registry(doc)
    indices = range(len(doc.tasks)) if args.task is None else [args.task]

    def one(i: int) -> str:
        return run_task(doc, i, precision_override=args.precision,
                        max_precision=args.max_precision, registry=reg)

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            futures = [(i, pool.submit(one, i)) for i in indices]
        outcomes = []
        for i, fut in futures:
            outcomes.append((i, fut.exception() or fut.result()))
        # deterministic: the lowest-index failure decides the exit
        for i, out in outcomes:
            if isinstance(out, BaseException):
                raise out
        reports = [out for _, out in outcomes]
    else:
        reports = [one(i) for i in indices]
    print("\n\n".join(reports))
    return EXIT_OK


def _run_suite(args) -> int:
    results = run_suite(args.name)
    for r in results:
        print(r.line())
    failed = sum(1 for r in results if not r.ok)
    print(f"suite {args.name}: {len(results) - failed}/{len(results)} passed")
    return EXIT_OK if failed == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="exactframes",
        description="certified frame computations with exact rational output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run the tasks of a document")
    p_eval.add_argument("spec_file")
    p_eval.add_argument("--task", type=int, default=None,
                        help="run a single task by index")
    p_eval.add_argument("--precision", type=int, default=None,
                        help="override every task's precision")
    p_eval.add_argument("--max-precision", type=int,
                        default=DEFAULT_MAX_PRECISION)
    p_eval.add_argument("--threads", type=int, default=1)

    p_suite = sub.add_parser("suite", help="run a named check battery")
    p_suite.add_argument("name", choices=sorted(SUITES))

    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            code = _run_eval(args)
        else:
            code = _run_suite(args)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    except SpecResolveError as exc:
        print(f"resolve error: {exc}", file=sys.stderr)
        code = EXIT_RESOLVE
    except PrecisionExhaustionError as exc:
        print(f"precision exhaustion: {exc}", file=sys.stderr)
        code = EXIT_EXHAUSTION
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        code = EXIT_INVARIANT
    sys.exit(code)


if __name__ == "__main__":
    main()
