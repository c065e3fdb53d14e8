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
upper-toeplitz, column-lower, lower-toeplitz.  An index may appear only
once in a vector, in diagonal weights and in each atom, whatever the
coefficients: `0:5 0:0` is refused, while the atoms `| 0:1 | 0:1` are
two combinations and stay legal.  parseval takes no arguments.  A
gallery's enumerator values must be distinct: a repeated value is
refused at its declaration.

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
and `reconstruct` the canonical-dual reconstruction S(S^-1 f), read
through the frame operator S at linear precision.  A claimed spectral
window that the inversion's residuals prove false exits 5.  A g-frame
and a gallery construction may not share a name.

Exit codes: 0 ok, 2 parse/validation error, 3 unresolved reference,
4 precision exhaustion, 5 invariant violation.  When the reader of the
output leaves early, as `exactframes eval DOC | head -1` does, the rest
of the output is dropped without a traceback and the exit code is the
one the run would have had.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import (
    InvariantViolationError,
    PrecisionExhaustionError,
    SpecParseError,
    SpecResolveError,
)
from .realcore import (
    CReal,
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
    diagonal_gframe,
    frame_operator,
    reconstruct,
)
from . import gallery

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOLVE = 3
EXIT_EXHAUSTION = 4
EXIT_INVARIANT = 5

# error class, stderr prefix and exit code of each documented failure
_FAILURES = (
    (SpecParseError, "parse error", EXIT_PARSE),
    (SpecResolveError, "resolve error", EXIT_RESOLVE),
    (PrecisionExhaustionError, "precision exhaustion", EXIT_EXHAUSTION),
    (InvariantViolationError, "invariant violation", EXIT_INVARIANT),
)

DEFAULT_MAX_PRECISION = 64

# gallery kind -> {operation: the gallery function that builds its face},
# read from the gallery module when a task runs, so a rebinding of the
# module's functions reaches every task; every face but apply takes the
# declared gate, and every kind has apply and gated-apply
_GALLERY_FACES = {
    "upper-toeplitz": {"apply": "upper_u_operator",
                       "gated-apply": "gated_adjoint",
                       "dual-apply": "gated_dual_tau"},
    "column-lower": {"apply": "column_lower_adjoint",
                     "gated-apply": "column_lower_operator",
                     "frame-op": "remark_frame_operator"},
    "lower-toeplitz": {"apply": "upper_u_operator",
                       "gated-apply": "gated_adjoint"},
}


class Task(NamedTuple):
    op: str
    args: tuple[str, ...]
    precision: int


class SpecDocument:
    """A parsed document: its version, then its declarations and its
    tasks in document order."""

    def __init__(self, version: str) -> None:
        self.version = version
        self.declarations: list[tuple[str, list[str]]] = []
        self.tasks: list[Task] = []


def _rat(token: str) -> Fraction:
    try:
        return parse_rational(token)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from None


def _nat(token: str, what: str) -> int:
    # ASCII digits only: str.isdigit and int() alone also take other
    # scripts' digits, superscripts and underscores
    if not (token.isascii() and token.isdigit()):
        raise SpecParseError(f"{what} must be a decimal natural, got {token!r}")
    return int(token)


def _integer(token: str, error: Exception) -> int:
    """ASCII digits after an optional minus, as _nat reads them; raises
    error on any other token."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise error
    return int(token)


def _int_option(token: str) -> int:
    """An eval option's integer.  A bad token exits 2 through argparse;
    the range checks stay with run_task."""
    return _integer(token, argparse.ArgumentTypeError(
        f"expected ASCII decimal digits, got {token!r}"))


def _combo_tokens(tokens: Sequence[str]) -> dict[int, Fraction]:
    out = {}
    for tok in tokens:
        if ":" not in tok:
            raise SpecParseError(f"expected idx:rational, got {tok!r}")
        idx, _, val = tok.partition(":")
        k = _nat(idx, "basis index")
        if k in out:
            # refused even beside a zero, which FiniteCombo would drop
            raise ValueError(f"duplicate basis index {k}")
        out[k] = _rat(val)
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
            doc = SpecDocument(rest[0])
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
        elif head in _DECLARATIONS:
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
        slot = _nat(idx, "component index")
        if slot in comps:
            raise ValueError(f"duplicate component index {slot}")
        comps[slot] = v.exact_combo
    made = SumName.finite(ss, comps)
    if normsq is not None:
        made = SumName(ss, made.component, creal_from_rational(normsq))
    reg.sumvecs[name] = made


def _atoms(space: SpaceDescriptor, args: list[str]) -> tuple:
    lower, upper = _rat(args[0]), _rat(args[1])
    tail_offset = _integer(args[2], SpecParseError(
        f"tail-offset must be a decimal integer, got {args[2]!r}"))
    atoms_part = args[3:]
    if not atoms_part:
        raise SpecParseError("atoms needs at least one '|' atom")
    if atoms_part[0] != "|":
        raise SpecParseError("atom list must start with '|'")
    bars = [k for k, tok in enumerate(atoms_part) if tok == "|"]
    prefix = [FiniteCombo(space, _combo_tokens(atoms_part[a + 1:b]))
              for a, b in zip(bars, bars[1:] + [len(atoms_part)])]
    return atoms_gframe(space, prefix, tail_offset, lower, upper)


# g-frame kind -> (fewest arguments, most arguments or None, the error
# for any other count, builder from the space and the arguments)
_GFRAME_KINDS = {
    "parseval": (0, 0, "parseval takes no arguments",
                 lambda space, args: diagonal_gframe(space)),
    "diagonal": (0, None, "", lambda space, args: diagonal_gframe(
        space, _combo_tokens(args))),
    "block": (1, 1, "block needs: <width>", lambda space, args: block_gframe(
        space, _nat(args[0], "block width"))),
    "atoms": (3, None, "atoms needs: <A> <B> <tail-offset> | ...", _atoms),
}


def _declare_gframe(reg: Registry, rest: list[str]) -> None:
    if len(rest) < 3:
        raise SpecParseError("gframe needs: <name> <space> <kind> ...")
    name, space_name, kind, *args = rest
    space = reg.space(space_name)
    if kind not in _GFRAME_KINDS:
        raise SpecParseError(f"unknown gframe kind {kind!r}")
    fewest, most, usage, build = _GFRAME_KINDS[kind]
    if len(args) < fewest or most is not None and len(args) > most:
        raise SpecParseError(usage)
    reg.gframes[name] = build(space, args)


def _declare_gallery(reg: Registry, rest: list[str]) -> None:
    if len(rest) < 4 or rest[3] != "enum":
        raise SpecParseError(
            "gallery needs: <name> <kind> <space> enum <list>|empty [gate <rat>]")
    name, kind, space_name = rest[0], rest[1], rest[2]
    if kind not in _GALLERY_FACES:
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
    gate: Optional[CReal] = None
    if args:
        if args[0] != "gate" or len(args) != 2:
            raise SpecParseError("trailing gallery arguments must be 'gate <rat>'")
        gate = creal_from_rational(_rat(args[1]))
    try:
        specker = SpeckerData.from_prefix(values)
    except InvariantViolationError as exc:
        raise SpecParseError(f"gallery {name!r}: {exc}") from None
    reg.gallery[name] = (kind, specker, gate, space)


# directive -> (its declaration, the registry tables its name must be new
# in): each kind of name has its own table, so a space and a vector may
# share a name and two spaces may not; g-frames and gallery constructions
# share one namespace, since frame-op takes either
_DECLARATIONS = {
    "space": (_declare_space, ("spaces",)),
    "vector": (_declare_vector, ("vectors",)),
    "sumspace": (_declare_sumspace, ("sumspaces",)),
    "sumvec": (_declare_sumvec, ("sumvecs",)),
    "gframe": (_declare_gframe, ("gframes", "gallery")),
    "gallery": (_declare_gallery, ("gframes", "gallery")),
}


def build_registry(doc: SpecDocument) -> Registry:
    reg = Registry()
    for head, rest in doc.declarations:
        handler, tables = _DECLARATIONS[head]
        name = rest[0] if rest else ""
        if any(name in getattr(reg, table) for table in tables):
            raise SpecParseError(f"{head} {name!r} is already declared")
        try:
            handler(reg, rest)
        except (ValueError, IndexError) as exc:
            raise SpecParseError(f"{head} {name!r}: {exc}") from None
    return reg


def _on_gallery(reg: Registry, op: str, name: str, vector: str,
                refusal: str = "", what: str = "gallery construction"
                ) -> VectorName:
    """The vector under the face of a gallery construction that
    _GALLERY_FACES names for operation op; the construction resolves
    before the vector, and refusal is the error of a kind without it."""
    kind, specker, gate, space = reg._get(reg.gallery, name, what)
    f = reg.vector(vector)
    faces = _GALLERY_FACES[kind]
    if op not in faces:
        raise SpecResolveError(refusal)
    build = getattr(gallery, faces[op])
    if op == "apply":
        return build(space, specker).apply(f)
    if gate is None:
        raise SpecResolveError(
            f"gated operation on a {kind} construction declared without a gate")
    face = build(space, specker, gate)
    # the dual is a g-frame; the task applies its operator 0
    return (face.op(0) if op == "dual-apply" else face).apply(f)


def _frame_op(reg: Registry, name: str, vector: str) -> VectorName:
    if name in reg.gframes:
        return frame_operator(*reg.gframes[name]).apply(reg.vector(vector))
    return _on_gallery(reg, "frame-op", name, vector, "frame-op on a gallery "
                       "object needs a column-lower construction",
                       "g-frame or gallery construction")


# operation -> (argument count, evaluator): the evaluator resolves the
# task's names, a construction before its vector, and returns a CReal or
# a VectorName
_OPERATIONS = {
    "norm": (1, lambda reg, f: vec_norm(reg.vector(f))),
    "inner": (2, lambda reg, f, g: inner_product(reg.vector(f),
                                                 reg.vector(g))),
    "sum-inner": (2, lambda reg, x, y: sum_inner_product(reg.sumvec(x),
                                                         reg.sumvec(y))),
    "apply": (2, lambda reg, g, f: _on_gallery(reg, "apply", g, f)),
    "gated-apply": (2, lambda reg, g, f: _on_gallery(reg, "gated-apply", g, f)),
    "dual-apply": (2, lambda reg, g, f: _on_gallery(
        reg, "dual-apply", g, f,
        "dual-apply needs an upper-toeplitz construction")),
    "frame-op": (2, _frame_op),
    "reconstruct": (2, lambda reg, g, f: reconstruct(
        *reg._get(reg.gframes, g, "g-frame"), reg.vector(f))),
}


def execute_task(reg: Registry, task: Task, precision: int) -> list[str]:
    if task.op not in _OPERATIONS:
        raise SpecResolveError(f"unknown operation {task.op!r}")
    count, evaluate = _OPERATIONS[task.op]
    if len(task.args) != count:
        raise SpecResolveError(
            f"operation {task.op!r} takes {count} argument(s), "
            f"got {len(task.args)}")
    value = evaluate(reg, *task.args)
    answer = value.approx(precision)
    text = format_rational(answer) if isinstance(value, CReal) else answer.to_text()
    return [f"value = {text}"]


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
    return "\n".join([header, *execute_task(reg, task, precision),
                      f"error <= 2^-{precision}"])


def _run_eval(args) -> tuple[int, str]:
    try:
        with open(args.spec_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE, ""
    doc = load_document(text, max_precision=args.max_precision)
    reg = build_registry(doc)
    indices = range(len(doc.tasks)) if args.task is None else [args.task]
    # in document order: the first failure decides the exit
    reports = [run_task(doc, i, precision_override=args.precision,
                        max_precision=args.max_precision, registry=reg)
               for i in indices]
    return EXIT_OK, "\n\n".join(reports) + "\n"


def _run_suite(args) -> tuple[int, str]:
    # the batteries load only for this command, so eval starts without them
    from .suites import SUITES, run_suite

    if args.name not in SUITES:
        raise SpecParseError(
            f"unknown suite {args.name!r}; choose from {sorted(SUITES)}")
    results = run_suite(args.name)
    failed = sum(1 for r in results if not r.ok)
    summary = f"suite {args.name}: {len(results) - failed}/{len(results)} passed"
    return (EXIT_OK if failed == 0 else 1,
            "\n".join([r.line() for r in results] + [summary, ""]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="exactframes",
        description="certified frame computations with exact rational output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run the tasks of a document")
    p_eval.add_argument("spec_file")
    p_eval.add_argument("--task", type=_int_option, default=None,
                        help="run a single task by index")
    p_eval.add_argument("--precision", type=_int_option, default=None,
                        help="override every task's precision")
    p_eval.add_argument("--max-precision", type=_int_option,
                        default=DEFAULT_MAX_PRECISION)

    p_suite = sub.add_parser("suite", help="run a named check battery")
    p_suite.add_argument("name")

    args = parser.parse_args(argv)
    try:
        code, out = (_run_eval if args.command == "eval" else _run_suite)(args)
    except tuple(row[0] for row in _FAILURES) as exc:
        prefix, code = next((p, c) for kind, p, c in _FAILURES
                            if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        sys.exit(code)
    try:
        print(out, end="", flush=True)
    except BrokenPipeError:
        # the reader left early: the run's code stands, and stdout now
        # writes to nothing, so the final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
