"""Checks on the package source itself, read with `ast`."""

import ast
from pathlib import Path

import cellsheaf

PACKAGE = Path(cellsheaf.__file__).parent


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each float literal, true division and use of the
    name `float` in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "the name float"))
    return sorted(found)


def test_the_scan_finds_each_kind_of_float_use():
    source = "a = 0.5\nb = 1 / 2\nb /= 3\nc = float(4)\nd = 7 // 2\ne = '1/2'\n"
    assert float_uses(ast.parse(source)) == [
        (1, "literal 0.5"), (2, "true division"), (3, "true division"),
        (4, "the name float"),
    ]


def test_no_floats_anywhere_in_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{line}: {what}"
        for path in modules
        for line, what in float_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def unread_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) for each name a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_finds_each_unread_import():
    source = (
        "from __future__ import annotations\nimport os.path\nimport re as regex\n"
        "from math import gcd, lcm\nfrom .order import iter_bits as bits\n"
        "def f(x: lcm) -> int:\n    return os.path.join(bits(x))\n"
    )
    assert unread_imports(ast.parse(source)) == [(3, "regex"), (4, "gcd")]


def test_no_unread_imports_in_the_package():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in modules
        for line, name in unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def unreferenced_privates(trees: dict) -> list[tuple[str, int, str]]:
    """(module, line, name) for each module-level `_name` function or class
    that no module of `trees` (module name -> tree) reads by name or as an
    attribute."""
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in referenced
    )


def test_the_scan_finds_each_unreferenced_private():
    trees = {
        "a": ast.parse(
            "def _called():\n    pass\n\ndef _dead():\n    pass\n\n"
            "class _Dead:\n    def _method(self):\n        pass\n\n"
            "def _used_elsewhere():\n    pass\n\ndef public():\n    return _called()\n"
            "def __dunder__():\n    pass\n"),
        "b": ast.parse("from .a import _used_elsewhere\n\n"
                       "def _as_attribute():\n    pass\n\n"
                       "x = _used_elsewhere\ny = module._as_attribute\n"),
    }
    assert unreferenced_privates(trees) == [("a", 4, "_dead"), ("a", 7, "_Dead")]


def test_no_unreferenced_privates_in_the_package():
    trees = {str(path.relative_to(PACKAGE)): ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert trees
    assert unreferenced_privates(trees) == []
