"""The package's value types are records, not dataclasses.

``dataclasses`` builds each class from generated source and imports
``inspect``; together that was about a quarter of a command line process.
Only ``abelian.py`` and ``matrix.py`` may import it, and only for the four
types the benchmark's checker tests pass to ``dataclasses.replace``.  The
standard library's ast finds the imports, the decorated classes and every
other use in ``src/livsic/*.py``.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "livsic"
MODULES = sorted(PACKAGE.glob("*.py"))
KEPT = {
    "abelian.py": {"CohomologySolution", "EqualWeightPair", "ViolationWitness"},
    "matrix.py": {"MatrixSolution"},
}


def _dataclass_uses(source: str) -> tuple[list[int], list[str], list[int]]:
    """Lines importing dataclasses, classes it decorates, and lines of any
    other use of a name bound by such an import."""
    tree = ast.parse(source)
    imports, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases = [a for a in node.names if a.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            aliases = node.names if (node.module or "").split(".")[0] == "dataclasses" else []
        else:
            continue
        if aliases:
            imports.append(node.lineno)
            bound.update((a.asname or a.name).split(".")[0] for a in aliases)
    classes, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            used = [d for d in node.decorator_list if _root_name(d) in bound]
            if used:
                classes.append(node.name)
                decorators.update(id(n) for d in used for n in ast.walk(d))
    others = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in bound and id(node) not in decorators
    ]
    return sorted(imports), sorted(classes), sorted(others)


def _root_name(node) -> str | None:
    while isinstance(node, (ast.Call, ast.Attribute)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def test_the_check_sees_every_use():
    source = (
        "import os\n"
        "from dataclasses import dataclass, replace\n"
        "@dataclass(frozen=True)\n"
        "class A: pass\n"
        "@dataclass\n"
        "class B: pass\n"
        "def f(x):\n"
        "    import dataclasses as dc\n"
        "    return replace(x), dc.fields(x)\n"
        "@dc.dataclass\n"
        "class C: pass\n"
    )
    assert _dataclass_uses(source) == ([2, 8], ["A", "B", "C"], [9, 9])
    assert _dataclass_uses("import os, dataclasses\n") == ([1], [], [])
    clean = "from .record import record\nfrom . import dataclasses\n@record\nclass D: pass\n"
    assert _dataclass_uses(clean) == ([], [], [])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dataclasses_only_for_the_kept_types(path):
    imports, classes, others = _dataclass_uses(path.read_text(encoding="utf-8"))
    assert others == []
    if path.name not in KEPT:
        assert (imports, classes) == ([], [])
    else:
        assert set(classes) <= KEPT[path.name]
