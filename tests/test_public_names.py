"""No public function or class of the package exists only for its tests.

Every top-level public function and class in ``src/livsic/`` must be read
somewhere the program runs: as an ``ast`` name or attribute in the package
outside its own definition, or by name in a file under ``perfbench/`` or
``bench/`` (as text, since the tracer names the functions it wraps by
string), or it is one of the REFERENCES the tests compare the solvers
against.  The package ``__init__`` re-exports and lists lazy names by
design, so its imports and strings count for nothing.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "livsic"

# Reference implementations the tests compare against: the brute-force
# oracles, and count_periodic_points, the trace count the orbit census is
# checked by.
REFERENCES = (
    "brute_matrix_solution_check",
    "brute_orbit_list",
    "brute_periodic_census",
    "brute_solution_check",
    "brute_transitivity",
    "brute_vanishing",
    "count_periodic_points",
)


def _definitions_and_uses(sources: dict[str, str]):
    """({public top-level def or class: module}, {name read: the top-level
    definitions or module-level statements reading it}), over the sources."""
    defined, readers = {}, {}
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not owner.startswith("_"):
                defined[owner] = module
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)):
                    readers.setdefault(name, set()).add((module, owner))
    return defined, readers


def _unread(sources: dict[str, str], outside: str) -> list[str]:
    """Public names of sources that nothing reads, by the three checks."""
    defined, readers = _definitions_and_uses(sources)
    return sorted(
        name
        for name, module in defined.items()
        if not readers.get(name, set()) - {(module, name)}
        and not re.search(rf"\b{name}\b", outside)
        and name not in REFERENCES
    )


def test_the_check_sees_a_function_only_its_tests_call():
    sources = {
        "a": "def used():\n    return 1\n\ndef lonely():\n    return used()\n",
        "b": "class Kept:\n    pass\n\n_MEMO = Kept()\n\ndef wrapped():\n    return wrapped\n",
    }
    assert _unread(sources, "") == ["lonely", "wrapped"]
    assert _unread(sources, "WRAPPED = ('b', 'wrapped')") == ["lonely"]
    assert _unread(sources, "x = _wrapped_lonely") == ["lonely", "wrapped"]


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = {
        p.stem: p.read_text(encoding="utf-8")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    }
    outside = "\n".join(
        p.read_text(encoding="utf-8")
        for folder in ("perfbench", "bench")
        for p in sorted((ROOT / folder).rglob("*.py"))
    )
    assert _unread(sources, outside) == []
