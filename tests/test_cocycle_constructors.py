"""Every cocycle is built by its validating constructor.

`make_cocycle` checks a rational cocycle's window domain, and
`make_matrix_cocycle` also checks invertibility and any declared algebra.
Code in ``src/livsic/*.py`` that made a `LocallyConstantCocycle` or a
`MatrixCocycle` some other way would skip those checks, so the standard
library's ast finds every call of the two records and the function it
sits in.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "livsic"
RECORDS = {"LocallyConstantCocycle", "MatrixCocycle"}
CONSTRUCTORS = {
    ("sft.py", "make_cocycle", "LocallyConstantCocycle"),
    ("matrix.py", "make_matrix_cocycle", "MatrixCocycle"),
}


def _record_calls(source: str) -> list[tuple[str | None, str]]:
    """(innermost enclosing function or None, record name) for every call
    of a cocycle record, by bare name or as a module attribute."""
    calls = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in RECORDS:
                calls.append((function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return calls


def test_the_scan_sees_every_call():
    source = (
        "def make_matrix_cocycle():\n"
        "    return MatrixCocycle(sft=None)\n"
        "def generate():\n"
        "    def inner():\n"
        "        return matrix.LocallyConstantCocycle()\n"
        "    return inner\n"
        "top = MatrixCocycle\n"
        "other = MatrixCocycle()\n"
        "f = lambda: LocallyConstantCocycle()\n"
    )
    assert _record_calls(source) == [
        ("make_matrix_cocycle", "MatrixCocycle"),
        ("inner", "LocallyConstantCocycle"),
        (None, "MatrixCocycle"),
        ("<lambda>", "LocallyConstantCocycle"),
    ]


def test_cocycles_are_built_only_by_their_constructors():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for function, record in _record_calls(path.read_text(encoding="utf-8")):
            found.add((path.name, function, record))
    assert found == CONSTRUCTORS
