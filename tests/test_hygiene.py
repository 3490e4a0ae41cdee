"""Source hygiene checks over the package's own modules."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gjms"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def imports(tree: ast.Module):
    """(bound name, line, source module or None) for each name a module imports;
    the source is the sibling module name for a relative import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno, None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = node.module if node.level == 1 else None
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno, source


def unread_imports(name: str, modules: dict[str, ast.Module]) -> list[str]:
    """Names module ``name`` imports and never reads.  Re-exporting is a use:
    a name listed in ``__all__`` or imported from this module by a sibling
    counts as read."""
    tree = modules[name]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    for other in modules.values():
        read.update(bound for bound, _, source in imports(other) if source == name)
    return [f"{bound} (line {line})" for bound, line, _ in imports(tree) if bound not in read]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_imported_name_is_read(name):
    assert unread_imports(name, MODULES) == []


def test_the_scan_finds_an_unread_import():
    modules = {
        "a": ast.parse("from .b import c, d, e\nimport f.g\nimport h as i\n__all__ = ['d']\nprint(i)\n"),
        "b": ast.parse("from .a import c\nfrom .c import e\n"),
    }
    assert unread_imports("a", modules) == ["e (line 1)", "f (line 2)"]


def test_no_library_module_imports_random():
    # every check is exact and deterministic: no draw decides a verdict
    assert [name for name, tree in MODULES.items() if any(bound == "random" for bound, _, _ in imports(tree))] == []


def float_uses(tree: ast.Module) -> list[str]:
    """Float literals, calls of ``float`` or ``round``, and int-literal true
    divisions in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"literal {node.value!r} (line {node.lineno})")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "round"):
            found.append(f"{node.func.id}() (line {node.lineno})")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if all(isinstance(side, ast.Constant) and type(side.value) is int for side in (node.left, node.right)):
                found.append(f"int division (line {node.lineno})")
    return found


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_floats(name):
    # every number is exact: Fractions and ints only
    assert float_uses(MODULES[name]) == []


def test_the_scan_finds_a_float():
    tree = ast.parse("x = 0.5\ny = float(x)\nz = round(y, 2)\nw = 1e3j\nv = 2 / 3\nu = F(2) / 3\n")
    assert float_uses(tree) == [
        "literal 0.5 (line 1)",
        "float() (line 2)",
        "round() (line 3)",
        "literal 1000j (line 4)",
        "int division (line 5)",
    ]


def nested_imports(tree: ast.Module) -> list[str]:
    """Import statements inside a function or method body."""
    lines = {
        inner.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    }
    return [f"import (line {line})" for line in sorted(lines)]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    # a module's imports run once, at import; one inside a function runs (and,
    # without a byte-code cache, compiles its module) at the first call
    assert nested_imports(MODULES[name]) == []


def test_the_scan_finds_a_nested_import():
    tree = ast.parse(
        "import a\n"
        "def f():\n    import b\n    return b\n"
        "class C:\n    from c import e\n    def m(self):\n        def g():\n            from c import d\n        return g\n"
    )
    assert nested_imports(tree) == ["import (line 3)", "import (line 9)"]


# Library code no other library code references, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    "backgrounds.Background.from_json": "the public inverse of to_json",
    "cli.entry": "the console script",
    "series.TruncatedSeries.variable": "benchmarks/test_tracer.py reads it",
}


def definitions(tree: ast.AST, prefix: str):
    """(qualified name, node) for each def or class, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            yield name, node
            yield from definitions(node, name)


def references(tree: ast.AST) -> list[str]:
    """Every name a Name, an Attribute or an import alias mentions."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.alias):
            found.extend({node.name.split(".")[-1], node.asname} - {None})
    return found


def unreferenced(modules: dict[str, ast.Module]) -> list[str]:
    """Non-dunder defs and classes whose name no Name, Attribute or import
    alias mentions outside their own definition."""
    counts = Counter(ref for tree in modules.values() for ref in references(tree))
    flagged = []
    for module, tree in modules.items():
        for qualified, node in definitions(tree, module):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if counts[node.name] == references(node).count(node.name):
                flagged.append(qualified)
    return sorted(flagged)


def test_every_definition_is_referenced():
    assert unreferenced(MODULES) == sorted(UNREFERENCED_ALLOWED)


def test_the_scan_finds_an_unreferenced_definition():
    modules = {
        "a": ast.parse(
            "from .b import used\n"
            "def dead(n):\n    return dead(n - 1)\n"
            "class Box:\n    def __eq__(self, other): ...\n    def read(self): return self.size\n"
            "    def size(self): ...\n"
        ),
        "b": ast.parse("import gjms.a as alias\ndef used(): return alias.Box\n"),
    }
    assert unreferenced(modules) == ["a.Box.read", "a.dead"]


# SigmaPoly's integer row is read by its class and the series kernels only.
ROW_ATTRIBUTES = {"ints", "den", "from_row"}
ROW_MODULES = {"core", "series"}


def row_reads(tree: ast.Module) -> list[str]:
    """Attributes that read a SigmaPoly's integer row or build one from a row."""
    found = [
        (node.lineno, node.col_offset, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ROW_ATTRIBUTES
    ]
    return [f"{attr} (line {line})" for line, _, attr in sorted(found)]


@pytest.mark.parametrize("name", sorted(set(MODULES) - ROW_MODULES))
def test_the_integer_row_stays_in_core_and_series(name):
    assert row_reads(MODULES[name]) == []


def test_the_scan_finds_a_row_read():
    tree = ast.parse(
        "def f(p, q):\n    x = p.ints[0] * q.coeffs[0]\n    return SigmaPoly.from_row([x], p.den)\n"
        "den, ints = 1, []\n"
    )
    assert row_reads(tree) == ["ints (line 2)", "from_row (line 3)", "den (line 3)"]


def public_nc_constructions(tree: ast.Module) -> list[str]:
    """Calls of the name ``NcPoly`` itself: the checked constructor for
    callers' input.  ``NcPoly._reduced(...)`` and text naming NcPoly are not
    such calls."""
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "NcPoly"
    ]
    return [f"NcPoly() (line {line})" for line in sorted(lines)]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_library_code_calls_the_public_nc_constructor(name):
    # the library builds every NcPoly on the trusted integer path
    assert public_nc_constructions(MODULES[name]) == []


def test_the_scan_finds_a_public_nc_construction():
    tree = ast.parse(
        "def f(items):\n    p = NcPoly(items)\n    return NcPoly._reduced(items, 1), f'NcPoly({p})'\n"
        "q = NcPoly()\n"
    )
    assert public_nc_constructions(tree) == ["NcPoly() (line 2)", "NcPoly() (line 4)"]
