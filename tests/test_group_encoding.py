"""Only groups.py knows how a deck group's elements are encoded.

A Group is F x Z^d.  Code outside groups.py reads an element's two factors
with Group.split and builds one with Group.join, and branches on the rank
d where finite and lattice covers differ.  It reads `is_finite` only to
refuse a group that is not finite, as `if not group.is_finite: raise
InfiniteGroup(...)`: three times in matrix.py, twice in oracles.py.

Only groups.py knows how the finite factor F is stored, too: other code
reads F's products through Group.row, its inverses and its identity
index, never the Cayley table.  The one `.table` read outside groups.py
is serialization.group_doc's, twice, of a GroupSpec's own table.  The
standard library's ast finds every read in ``src/livsic/*.py``.
"""
from __future__ import annotations

import ast
from array import array
from pathlib import Path

from livsic import (
    LivsicError,
    check_transitivity,
    generate_cocycle,
    generate_matrix_cocycle,
    make_cocycle,
    make_matrix_cocycle,
    solve_finite_gamma,
    solve_matrix_finite,
)
from livsic import abelian, sft, skew
from livsic.groups import Group
from corpus import cover_corpus, random_rotation, random_u, rng_for

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "livsic"
FINITE_ONLY = {"matrix.py": 3, "oracles.py": 2}
SPEC_TABLES = {("serialization.py", "group_doc"): 2}


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


def _table_reads(source: str) -> dict[str, int]:
    """{top-level definition: its count of `.table` attribute reads}."""
    counts = {}
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "table":
                name = getattr(top, "name", "<module>")
                counts[name] = counts.get(name, 0) + 1
    return counts


def test_the_scan_sees_every_table_read():
    source = (
        "def solve(group):\n"
        "    rows = group.table\n"
        "    return rows[0][1], group.row(0), spec.table[1]\n"
        "\n"
        "class Cover:\n"
        "    def order(self):\n"
        "        return len(self.group().table)\n"
        "\n"
        "size = len(GROUP.table)\n"
        "table = build(table=((0,),))\n"
    )
    assert _table_reads(source) == {"solve": 2, "Cover": 1, "<module>": 1}


def test_only_groups_reads_the_cayley_table():
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "groups.py":
            for name, n in _table_reads(path.read_text(encoding="utf-8")).items():
                counts[path.name, name] = n
    assert counts == SPEC_TABLES


def _seam_answers() -> list[str]:
    """repr of every answer and refusal of transitive_cover,
    check_transitivity, solve_finite_gamma and solve_matrix_finite, each
    cocycle also perturbed, over the cover corpus at r = 1-3, every memo
    emptied first."""
    sft._TREES.clear()
    skew._COVERS.clear()
    abelian._BOXES.clear()
    answers = []
    for index, (label, system) in enumerate(cover_corpus(61, instances=2)):
        # First, so that it decides the cover over 1-blocks itself.
        answers.append(f"{label} {_answer(check_transitivity, system)!r}")
        for r in (1, 2, 3):
            rng = rng_for(67, 3 * index + r)
            rational = generate_cocycle(system, block_range=r, seed=rng.randrange(2**31))
            values = dict(rational.values)
            values[min(values)] += 1
            u = random_u(system, r, rng.randrange(2**31), "rotation")
            matrix = generate_matrix_cocycle(system, u, None, block_range=r)
            bumped = dict(matrix.values)
            bumped[min(bumped)] = bumped[min(bumped)] @ random_rotation(rng)
            calls = [
                (skew.transitive_cover, system, r),
                (solve_finite_gamma, system, rational),
                (solve_finite_gamma, system, make_cocycle(system.sft, r, values)),
                (solve_matrix_finite, system, matrix),
                (solve_matrix_finite, system, make_matrix_cocycle(system.sft, r, bumped)),
            ]
            for solve, *args in calls:
                answers.append(f"{label} r={r} {solve.__name__}: {_answer(solve, *args)!r}")
    return answers


def _answer(solve, *args):
    try:
        answer = solve(*args)
    except LivsicError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    return (answer.wpot, answer.cyc, answer.via) if isinstance(answer, skew.Cover) else answer


def test_callers_only_index_the_rows_of_the_finite_factor(monkeypatch):
    # Rows stored another way (here array('H'), as a flat table would give
    # them) change no answer and no refusal.
    expected = _seam_answers()
    row, rows = Group.row, []

    def packed(group, f):
        rows.append(f)
        return array("H", row(group, f))

    monkeypatch.setattr(Group, "row", packed)
    assert _seam_answers() == expected
    assert len(rows) > len(expected)
    assert sum("Obstruction" in a for a in expected) >= 20
    assert sum("NotTransitiveError" in a for a in expected) >= 20


def test_the_group_has_no_element_inverse():
    # The finite factor's inverses are a table; nothing needs Z^d's.
    assert not hasattr(Group, "inv")
