"""No module in the package imports ``gc``.

The garbage collector's switches and thresholds are process-global: a
library that disables, freezes or retunes the collector changes every
other allocation in its caller's process, so a speedup bought that way is
not the library's own.  The standard library's ast finds the imports in
``src/livsic/*.py``.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "livsic"
MODULES = sorted(PACKAGE.glob("*.py"))


def _gc_import_lines(source: str) -> list[int]:
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "gc" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_a_gc_import():
    source = "import os\ndef f():\n    import gc\n    gc.disable()\nfrom gc import freeze\n"
    assert _gc_import_lines(source) == [3, 5]
    assert _gc_import_lines("import os, gc as collector\n") == [1]
    assert _gc_import_lines("from . import gc\nimport gcd\nfrom math import gcd\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_gc_import(path):
    assert _gc_import_lines(path.read_text(encoding="utf-8")) == []
