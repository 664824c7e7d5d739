"""Only groups.py knows how a deck group's elements are encoded.

A Group is F x Z^d.  Code outside groups.py reads an element's two factors
with Group.split and builds one with Group.join, and branches on the rank
d where finite and lattice covers differ.  It reads `is_finite` only to
refuse a group that is not finite, as `if not group.is_finite: raise
InfiniteGroup(...)`: three times in matrix.py, twice in oracles.py.  The
standard library's ast finds every read in ``src/livsic/*.py``.
"""
from __future__ import annotations

import ast
from pathlib import Path

from livsic.groups import Group

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "livsic"
FINITE_ONLY = {"matrix.py": 3, "oracles.py": 2}


def _is_finite_reads(source: str) -> tuple[list[int], list[int]]:
    """Lines of every read of an `is_finite` attribute, and the lines of
    those that are refusals: the test of an `if not ...is_finite:` whose
    body is one raise of InfiniteGroup."""
    tree = ast.parse(source)
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "is_finite"
    ]
    refusals = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.UnaryOp)
        and isinstance(node.test.op, ast.Not)
        and isinstance(node.test.operand, ast.Attribute)
        and node.test.operand.attr == "is_finite"
        and len(node.body) == 1
        and isinstance(node.body[0], ast.Raise)
        and isinstance(node.body[0].exc, ast.Call)
        and getattr(node.body[0].exc.func, "id", None) == "InfiniteGroup"
    ]
    return sorted(reads), sorted(refusals)


def test_the_scan_sees_every_read():
    source = (
        "if not group.is_finite:\n"
        "    raise InfiniteGroup('finite only')\n"
        "finite = system.group.is_finite\n"
        "if not g.is_finite:\n"
        "    raise ValueError('finite only')\n"
        "if g.is_finite:\n"
        "    raise InfiniteGroup('inverted')\n"
        "rank = getattr(g, 'rank')\n"
    )
    assert _is_finite_reads(source) == ([1, 3, 4, 6], [1])


def test_is_finite_is_read_outside_groups_only_to_refuse_infinite_groups():
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "groups.py":
            continue
        reads, refusals = _is_finite_reads(path.read_text(encoding="utf-8"))
        assert reads == refusals, path.name
        if reads:
            counts[path.name] = len(reads)
    assert counts == FINITE_ONLY


def test_the_group_has_no_element_inverse():
    # The finite factor's inverses are a table; nothing needs Z^d's.
    assert not hasattr(Group, "inv")
