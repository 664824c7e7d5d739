"""Seeded mutations of the example systems, run through livsic.cli.main in
one process.

Usage: python tests/mutation_gate.py DIR, with src on the import path.
Each case writes its document to DIR and runs one command on it.  A case
passes when main returns 0, 1 or 2 within CASE_CPU_S of CPU, and a 2
comes with error_doc's structured object on stderr.  The program prints
a JSON summary: the cases run, the count of each exit code, and the
first failures.  test_mutation_gate.py runs it under launcher.launch's
address-space limit, so an input that exhausts memory fails that test
rather than the test runner.

The cases are the ESCAPES, inputs that once crashed or ran without
bound, on their commands, and then CASES seeded mutations.  A mutation
replaces one or two leaves of an example system with one of VALUES, or
deletes one key of an object.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import signal
import sys
from pathlib import Path

from livsic.cli import main

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
SYSTEMS = (
    "bad-reducible.json", "full2-c2-halfturn.json", "full2-c2-quarterturn.json",
    "full2-diag-sl2.json", "full2-z-drift-perturbed.json", "full2-z-drift.json",
    "full2-z-perturbed.json", "full2-z.json", "full3-z2.json", "gm-c2.json", "gm-s3.json",
)
COMMANDS = (
    ("validate",), ("check-transitivity",), ("orbits", "--max-period", "5"),
    ("verify-vanishing", "--max-period", "5"), ("solve",), ("distortion", "--depth", "3"),
)
VALUES = (True, False, 1.5, math.nan, "", "e", "1/0", 0, -1, 10**30,
          [], [[1, 0], []], {}, {"a": {"b": []}})
CASES = 2_000
SEED = 24
CASE_CPU_S = 2.0
DELETE = object()  # an edit's value that deletes the entry

# name: (example, the (path, value) edits to it, the commands to run it through).
ESCAPES = {
    "gm-c2 range 10^30": ("gm-c2.json", [(("cocycle", "range"), 10**30)],
                          [("validate",), ("solve",)]),
    "full2-c2-quarterturn range 10^30": (
        "full2-c2-quarterturn.json", [(("cocycle", "range"), 10**30)],
        [("distortion", "--depth", "3")]),
    # gm-c2 on the two-symbol cycle shift, whose words number 2 at every length.
    "cycle2 range 200000": (
        "gm-c2.json", [(("sft", "transition"), [[0, 1], [1, 0]]),
                       (("cocycle", "range"), 200_000),
                       (("cocycle", "values"), {"12": "0", "21": "0"})],
        [("validate",)]),
    "full3-z2 psi 10^7": ("full3-z2.json", [(("psi", 0, 0), 10**7)], [("solve",)]),
    "full3-z2 psi 10^30": ("full3-z2.json", [(("psi", 0, 0), 10**30)], [("solve",)]),
}


def example(name: str):
    return json.loads((EXAMPLES / name).read_text(encoding="utf-8"))


def edited(doc, edits):
    """doc with each (path, value) of edits set, a path listing the keys
    and indices down to the entry it replaces; a value of DELETE removes
    that entry."""
    for (*parents, last), value in edits:
        node = doc
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    return doc


def escape(name: str):
    """The document of one of the ESCAPES."""
    system, edits, _ = ESCAPES[name]
    return edited(example(system), edits)


def _paths(node, path=()):
    """(leaves, keys): the paths to every scalar of a JSON tree, and to
    every entry of its objects."""
    leaves, keys = [], []
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            if isinstance(node, dict):
                keys.append(path + (key,))
            more_leaves, more_keys = _paths(child, path + (key,))
            leaves += more_leaves
            keys += more_keys
    else:
        leaves.append(path)
    return leaves, keys


def mutations(rng: random.Random, count: int):
    """count seeded (label, document, command) cases."""
    docs = {name: example(name) for name in SYSTEMS}
    paths = {name: _paths(doc) for name, doc in docs.items()}
    for _ in range(count):
        name, command = rng.choice(SYSTEMS), rng.choice(COMMANDS)
        leaves, keys = paths[name]
        if rng.random() < 0.2:
            edits = [(rng.choice(keys), DELETE)]
        else:
            targets = rng.sample(leaves, min(len(leaves), rng.choice((1, 2))))
            edits = [(path, rng.choice(VALUES)) for path in targets]
        label = f"{name} {' '.join(command)} " + "; ".join(
            f"{'/'.join(map(str, path))}={'<deleted>' if value is DELETE else repr(value)}"
            for path, value in edits)
        yield label, edited(json.loads(json.dumps(docs[name])), edits), command


class _OutOfTime(BaseException):
    """Raised in a case past CASE_CPU_S; not an Exception, so that main does
    not report it as a crash of its own."""


def _out_of_time(signum, frame):
    raise _OutOfTime


def run_case(path: Path, doc, command) -> int | str:
    """The exit code of a case that passes, otherwise what went wrong."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_PROF, CASE_CPU_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
    except _OutOfTime:
        return f"more than {CASE_CPU_S} s of CPU"
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    if code not in (0, 1, 2):
        return f"exit {code}: {err.getvalue()[:300]}"
    if code == 2:
        try:
            error = json.loads(err.getvalue())
        except ValueError:
            return f"exit 2 without a structured error: {err.getvalue()[:300]}"
        if not (isinstance(error, dict) and isinstance(error.get("error"), str)
                and isinstance(error.get("message"), str)):
            return f"exit 2 with {error!r:.300}"
    return code


def run(directory: Path) -> dict:
    signal.signal(signal.SIGPROF, _out_of_time)
    path = directory / "case.json"
    cases = [(f"{name}: {' '.join(command)}", escape(name), command)
             for name, (_, _, commands) in ESCAPES.items() for command in commands]
    pinned = len(cases)
    cases += mutations(random.Random(SEED), CASES)
    codes, failures = {}, []
    for i, (label, doc, command) in enumerate(cases):
        result = run_case(path, doc, command)
        if i < pinned and result != 2:
            result = f"expected exit 2, got {result}"
        if isinstance(result, int):
            codes[result] = codes.get(result, 0) + 1
        else:
            failures.append(f"{label}: {result}")
    return {"cases": len(cases), "codes": codes, "failures": failures[:20]}


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run(Path(sys.argv[1]))))
