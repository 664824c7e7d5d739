"""No correctness check in the package is an ``assert`` statement.

``python -O`` strips every assert, so a check written as one vanishes
exactly when nobody is looking.  Checks raise a livsic error instead (see
``errors.check_invariant``).  The standard library's ast finds the
statements in ``src/livsic/*.py``.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "livsic"
MODULES = sorted(PACKAGE.glob("*.py"))


def _assert_lines(source: str) -> list[int]:
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_the_check_sees_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
    assert _assert_lines(source) == [3]
    assert _assert_lines("raise AssertionError  # not an assert statement\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert _assert_lines(path.read_text(encoding="utf-8")) == []
