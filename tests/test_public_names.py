"""No public function, class or keyword of the package exists only for its tests.

Every top-level public function and class in ``src/livsic/`` must be read
somewhere the program runs: as an ``ast`` name or attribute in the package
outside its own definition, or by name in a file under ``perfbench/`` or
``bench/`` (as text, since the tracer names the functions it wraps by
string), or it is one of the REFERENCES the tests compare the solvers
against.  The package ``__init__`` re-exports and lists lazy names by
design, so its imports and strings count for nothing.

One level down, every public method or property of a public class must
be read as an attribute in the package outside its own definition, or
appear as a word under ``perfbench/`` or ``bench/``.  A read is matched to
a method by name alone, so a read of any attribute of that name counts.

Every keyword-only parameter of a public function, or of
a public method of a public class, must be passed by that keyword from
some call in the package (outside the function's own body), under
``perfbench/`` or under ``bench/``; the REFERENCES are exempt.  A call is
matched to a definition by name: the called name or attribute.
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


def _unread_methods(sources: dict[str, str], outside: str) -> list[str]:
    """module.class.method for every public method or property of a public
    top-level class of sources that no attribute read outside its own
    definition, and no word of outside, names."""
    reads, methods = {}, {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads[node.attr] = reads.get(node.attr, 0) + 1
        for top in tree.body:
            if not isinstance(top, ast.ClassDef) or top.name.startswith("_"):
                continue
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    own = sum(
                        isinstance(n, ast.Attribute) and n.attr == node.name
                        for n in ast.walk(node)
                    )
                    methods[f"{module}.{top.name}.{node.name}"] = node.name, own
    return sorted(
        label
        for label, (name, own) in methods.items()
        if reads.get(name, 0) == own and not re.search(rf"\b{name}\b", outside)
    )


def _keyword_only(sources: dict[str, str]) -> dict[tuple[str, str], str]:
    """{(function name, keyword): its label, module.qualname.keyword} for
    every keyword-only parameter of a public top-level function or of a
    public method of a public top-level class, REFERENCES left out."""
    found = {}
    for module, source in sources.items():
        for top in ast.parse(source).body:
            if isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                defs = [(f"{top.name}.", node) for node in top.body]
            else:
                defs = [("", top)]
            for prefix, node in defs:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                if node.name not in REFERENCES:
                    for arg in node.args.kwonlyargs:
                        found[node.name, arg.arg] = f"{module}.{prefix}{node.name}.{arg.arg}"
    return found


def _passed(source: str, skip_own: bool) -> set[tuple[str, str]]:
    """{(called name, keyword)} for every call in source that passes that
    keyword, the called name its last name or attribute.  With skip_own,
    a call inside a top-level function (or method) of the same name is
    left out, so a definition cannot pass its own keywords."""
    passed = set()
    for top in ast.parse(source).body:
        scopes = top.body + top.decorator_list if isinstance(top, ast.ClassDef) else [top]
        for scope in scopes:
            own = scope.name if isinstance(scope, ast.FunctionDef) else None
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if not (skip_own and name == own):
                    passed.update((name, kw.arg) for kw in node.keywords if kw.arg)
    return passed


def _unpassed(sources: dict[str, str], outside: list[str]) -> list[str]:
    """Keyword-only parameters of sources that no call passes, as labels."""
    passed = set().union(
        *(_passed(source, True) for source in sources.values()),
        *(_passed(source, False) for source in outside),
    )
    return sorted(label for key, label in _keyword_only(sources).items() if key not in passed)


def _package_and_outside():
    sources = {
        p.stem: p.read_text(encoding="utf-8")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    }
    outside = [
        p.read_text(encoding="utf-8")
        for folder in ("perfbench", "bench")
        for p in sorted((ROOT / folder).rglob("*.py"))
    ]
    return sources, outside


def test_the_check_sees_a_function_only_its_tests_call():
    sources = {
        "a": "def used():\n    return 1\n\ndef lonely():\n    return used()\n",
        "b": "class Kept:\n    pass\n\n_MEMO = Kept()\n\ndef wrapped():\n    return wrapped\n",
    }
    assert _unread(sources, "") == ["lonely", "wrapped"]
    assert _unread(sources, "WRAPPED = ('b', 'wrapped')") == ["lonely"]
    assert _unread(sources, "x = _wrapped_lonely") == ["lonely", "wrapped"]


def test_every_public_name_has_a_caller_outside_the_tests():
    sources, outside = _package_and_outside()
    assert _unread(sources, "\n".join(outside)) == []


def test_the_check_sees_a_method_only_its_tests_read():
    sources = {
        "a": "class Orbit:\n"
             "    @property\n    def period(self):\n        return len(self.word)\n"
             "\n    @classmethod\n    def from_word(cls, w):\n        return cls.from_word(w)\n"
             "\n    def label(self):\n        return self.period\n"
             "\n    def _peek(self):\n        return 0\n"
             "\n\nclass _Hidden:\n    def lonely(self):\n        return 1\n",
        "b": "def run(orbit):\n    return orbit.label()\n",
    }
    # A method's read of itself counts for nothing; private methods and
    # private classes are not checked.
    assert _unread_methods(sources, "") == ["a.Orbit.from_word"]
    assert _unread_methods(sources, "WRAPPED = ('a', 'from_word')") == []
    assert _unread_methods({"a": sources["a"]}, "") == ["a.Orbit.from_word", "a.Orbit.label"]


def test_every_public_method_has_a_reader_outside_the_tests():
    sources, outside = _package_and_outside()
    assert _unread_methods(sources, "\n".join(outside)) == []


def test_the_check_sees_a_keyword_only_its_tests_pass():
    sources = {
        "a": "def build(spec, *, cap=1, mode=None):\n    return spec\n\n"
             "def run():\n    return build(0, cap=2)\n",
        "b": "class Solver:\n    def solve(self, *, tol=0.0):\n        return self.solve(tol=tol)\n"
             "\n    def _peek(self, *, deep=False):\n        return deep\n"
             "\n\ndef recurse(n, *, depth=0):\n    return recurse(n, depth=depth + 1)\n",
    }
    # A method's or function's call of itself passes nothing; private
    # methods are not checked.
    assert _unpassed(sources, []) == ["a.build.mode", "b.Solver.solve.tol", "b.recurse.depth"]
    outside = ["Solver().solve(tol=1e-9)\n", "build(1, mode='fast')\n"]
    assert _unpassed(sources, outside) == ["b.recurse.depth"]
    # A keyword passed to some other callee does not count.
    assert _unpassed(sources, ["run(mode='fast', depth=1)\n"]) == _unpassed(sources, [])


def test_every_keyword_only_parameter_is_passed_outside_the_tests():
    sources, outside = _package_and_outside()
    assert _unpassed(sources, outside) == []
