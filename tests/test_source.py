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
