"""No module in the package keeps process-wide state.

What livsic derives for a shift or a skew system (block trees, covers,
closing-walk searches) is held by that object and freed with it, so no
module binds a container or an instance that calls could fill: at module
level, no name is bound to a call of a package class or of ``dict``,
``list``, ``set``, ``defaultdict``, ``OrderedDict`` or ``deque``, nor to
an empty ``{}`` or ``[]``, and no function is cached by ``lru_cache`` or
``cache`` without an integer ``maxsize``.  Constant tables built from
literals pass.  The standard library's ast reads ``src/livsic/*.py``.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "livsic"
MODULES = sorted(PACKAGE.glob("*.py"))
CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "deque"}
CACHES = {"lru_cache", "cache"}


def _package_classes() -> set[str]:
    return {node.name for path in MODULES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)}


def _name(node) -> str | None:
    """The called name of f(...) or a.b.f(...)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _unbounded_cache(node) -> bool:
    """node is lru_cache or cache, bare or called, with no int maxsize."""
    call = node if isinstance(node, ast.Call) else None
    if _name(call.func if call else node) not in CACHES:
        return False
    if call is None:
        return True
    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    return not any(isinstance(size, ast.Constant) and type(size.value) is int for size in sizes)


def _module_statements(body):
    """The statements run at import: the module's, and those nested in its
    if, try, with and loop blocks, but not in functions or classes."""
    for stmt in body:
        yield stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_statements(getattr(stmt, field, []))


def _state_lines(source: str, classes: set[str]) -> list[int]:
    lines = []
    for stmt in _module_statements(ast.parse(source).body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [deco.lineno for deco in stmt.decorator_list if _unbounded_cache(deco)]
            continue
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)) or stmt.value is None:
            continue
        value = stmt.value
        if isinstance(value, ast.Call):
            called = _name(value.func)
            state = (called in classes or called in CONTAINERS
                     or _unbounded_cache(value.func))
        else:
            state = (isinstance(value, ast.Dict) and not value.keys
                     or isinstance(value, ast.List) and not value.elts)
        if state:
            lines.append(stmt.lineno)
    return lines


def test_the_check_sees_module_state():
    classes = {"StateMemo"}
    source = (
        "from collections import OrderedDict, deque\n"
        "import functools\n"
        "_TREES = StateMemo(len)\n"                        # 3
        "_SEEN = {}\n"                                     # 4
        "_LOG: list = []\n"                                # 5
        "_BY_KEY = dict()\n"                               # 6
        "if True:\n"
        "    _QUEUE = deque()\n"                           # 8
        "_ORDER = OrderedDict()\n"                         # 9
        "@functools.lru_cache(maxsize=None)\n"             # 10
        "def f(x):\n"
        "    return x\n"
        "@functools.cache\n"                               # 13
        "def g(x):\n"
        "    return x\n"
        "@lru_cache\n"                                     # 16
        "def h(x):\n"
        "    return x\n"
        "k = lru_cache()(h)\n"                             # 19
        "_HITS = set()\n"                                  # 20
    )
    assert _state_lines(source, classes) == [3, 4, 5, 6, 8, 9, 10, 13, 16, 19, 20]
    constants = (
        "@lru_cache(maxsize=8)\n"
        "def names(k):\n"
        "    return k\n"
        "@lru_cache(16)\n"
        "def more(k):\n"
        "    return k\n"
        "_READERS = {'int': int}\n"
        "_LAZY = {'a': ('b',)}\n"
        "_HOME = {n: m for m, ns in _LAZY.items() for n in ns}\n"
        "_TOL = 1e-9\n"
        "_WORD = tuple[int, ...]\n"
        "def f():\n"
        "    seen = {}\n"
        "    memo = StateMemo(len)\n"
        "    return seen, memo\n"
        "class C:\n"
        "    held = []\n"
    )
    assert _state_lines(constants, classes) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_state(path):
    assert _state_lines(path.read_text(encoding="utf-8"), _package_classes()) == []
