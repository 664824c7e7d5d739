"""No module imports a name from a sibling module and then leaves it unused.

No linter runs on this package, so the standard library's ast stands in
for one: a name bound by ``from .x import ...`` in ``src/livsic/*.py``
(the package ``__init__`` re-exports by design) must be read somewhere in
the same module.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "livsic"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_sibling_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                imported[alias.asname or alias.name] = f".{node.module}"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} from {module}" for name, module in imported.items() if name not in used
    )


def test_the_check_sees_an_orphaned_import():
    source = "from .sft import SftSpec, Word\nfrom .errors import BadShape as B\nx: Word\n"
    assert _unused_sibling_imports(source) == ["B from .errors", "SftSpec from .sft"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sibling_imports_are_used(path):
    assert _unused_sibling_imports(path.read_text(encoding="utf-8")) == []
