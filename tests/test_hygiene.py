"""Source checks that need no third-party linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "exactframes"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names imported at module level that the module never reads.  An
    import line marked `# noqa: F401` is kept on purpose, as for
    pyflakes."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [a.asname or a.name.partition(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import math\nfrom os import path, sep\nx = path.join(sep)\n"
    assert unused_imports(source) == ["math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> list[str]:
    """Module-level functions, classes and constants whose names start
    with one underscore (dunders excluded)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names
            if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def references(source: str) -> set[str]:
    """Every name the source reads, as a name, an attribute or an import."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def test_dead_private_names_are_found():
    source = ("_USED = 1\n_DEAD = 2\n__all__ = []\n"
              "def _helper():\n    return _USED\n"
              "class _Gone:\n    pass\n"
              "x = _helper()\n")
    assert [n for n in private_definitions(source)
            if n not in references(source)] == ["_DEAD", "_Gone"]


def test_every_private_name_is_used():
    sources = [p.read_text() for p in PACKAGE.glob("*.py")]
    used = set().union(*map(references, sources))
    dead = [name for source in sources for name in private_definitions(source)
            if name not in used]
    assert dead == []


ROOT = PACKAGE.parents[1]
READERS = sorted(p for d in ("src", "tests", "bench")
                 for p in (ROOT / d).rglob("*.py"))


def public_methods(source: str) -> list[str]:
    """Class.name for each public method or property of every class."""
    return [f"{node.name}.{item.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def attribute_reads(source: str) -> set[str]:
    """Every name the source reads as an attribute, .name, or as a
    __dict__["name"] key."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "__dict__"
              and isinstance(node.slice, ast.Constant)):
            reads.add(node.slice.value)
    return reads


def test_unread_methods_are_found():
    source = ("class A:\n    def used(self):\n        pass\n"
              "    @property\n    def prop(self):\n        pass\n"
              "    def listed(self):\n        pass\n"
              "    def dead(self):\n        pass\n"
              "    def _private(self):\n        pass\n"
              "a = A()\na.used()\nx = a.prop\nA.__dict__['listed']\n"
              "a.dead = 1\n")
    reads = attribute_reads(source)
    assert [m for m in public_methods(source)
            if m.partition(".")[2] not in reads] == ["A.dead"]


def test_every_public_method_has_a_reader():
    reads = set().union(*(attribute_reads(p.read_text()) for p in READERS))
    unread = [m for p in PACKAGE.glob("*.py")
              for m in public_methods(p.read_text())
              if m.partition(".")[2] not in reads]
    assert unread == []


# exported names that no library module reads, each with the reason it
# stays public
UNCALLED_EXPORTS = {
    "gframe_to_frame": "Sun's correspondence from a g-frame to its frame; "
                       "a battery of the second path will call it",
    "gframe_from_corresponding": "Sun's correspondence back from the "
                                 "frame; the same battery will call it",
    "pairing": "the diagonal enumeration of index pairs, the inverse of "
               "unpairing, which directsum and suites read",
}


def uncalled_exports(init_source: str, module_sources: list[str]) -> list[str]:
    """The names that the package's __init__ imports from its modules and
    no module source reads.  __all__ is not used: it also lists the
    submodules."""
    used = set().union(*map(references, module_sources))
    return [a.name for node in ast.parse(init_source).body
            if isinstance(node, ast.ImportFrom) for a in node.names
            if a.name not in used]


def test_uncalled_exports_are_found():
    init = ("from .a import read, defined_only\nfrom .b import Cls\n"
            "__all__ = ['read', 'defined_only', 'Cls', 'a', 'b']\n")
    modules = ["def read():\n    pass\ndef defined_only():\n    pass\n",
               "from .a import read\nclass Cls:\n    x = read()\n"]
    assert uncalled_exports(init, modules) == ["defined_only", "Cls"]


def test_every_exported_name_has_a_library_caller():
    init = (PACKAGE / "__init__.py").read_text()
    uncalled = uncalled_exports(init, [p.read_text() for p in MODULES])
    assert sorted(uncalled) == sorted(UNCALLED_EXPORTS)


def raising_functions(source: str, error: str) -> list[str]:
    """The module-level function around each `raise <error>(...)` or
    `raise <error>`, or "<module>" for a raise outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == error:
                    found.append(owner)
            top = owner == "<module>" and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if top else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_raising_functions_are_found():
    source = ("class E(Exception):\n    pass\n"
              "def f():\n    def g():\n        raise E('x')\n    raise E\n"
              "raise E()\n")
    assert raising_functions(source, "E") == ["f", "f", "<module>"]


def test_only_the_tail_cut_raises_precision_exhaustion():
    # every understated datum fails through the one two-sided walk, so it
    # fails with the one message form "<what>: claimed total understates
    # the data"
    raises = [(path.stem, owner) for path in PACKAGE.glob("*.py")
              for owner in raising_functions(path.read_text(),
                                             "PrecisionExhaustionError")]
    assert raises and set(raises) == {("realcore", "certified_tail_cut")}
