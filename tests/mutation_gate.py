"""Seeded mutations of the example documents, run through livsic.cli.main in
one process.

Usage: python tests/mutation_gate.py DIR, with src on the import path.
Each case writes its document to DIR and runs one command on it.  A case
passes when main returns 0, 1 or 2 within CASE_CPU_S of CPU, and a 2
comes with error_doc's structured object on stderr.  The program prints
a JSON summary: the cases run, the count of each exit code (codes for
the escapes and the CASES mutations, scaled_codes for the scaled ones,
document_codes for the mutated DOCUMENTS), and the first failures.
test_mutation_gate.py runs it under launcher.launch's address-space
limit, so an input that exhausts memory fails that test rather than the
test runner.

The cases are the ESCAPES, inputs that once crashed or ran without
bound, on their commands; then CASES seeded mutations, each replacing one
or two leaves of an example system with one of VALUES, or deleting one
key of an object; then SCALED_CASES seeded mutations that keep the
document's shape, each multiplying one numeric leaf by one of FACTORS, so
that more of them reach the solvers and the distortion scan.  A scaled
case is an example system on one of SCALED_COMMANDS, or one of BASES, an
so(2) or sl(2) basis file, given to `distortion --depth 3 --algebra`
over one of MATRIX_SYSTEMS.  Last come the DOCUMENTS cases: the two
example solutions given to `verify-solution` over their systems
(SOLUTION_CASES), and the example u table given to `generate --u`
(U_CASES), each deleting one key, replacing one or two leaves with
VALUES, or multiplying one numeric leaf by one of FACTORS.
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
FACTORS = (-1, 0.5, 2, 1e-6, 1e6)
SCALED_CASES = 250
SCALED_SEED = 25
SCALED_COMMANDS = COMMANDS + (("check-distortion", "--theta", "2"),)
BASES = ("so2-basis.json", "sl2 basis")
MATRIX_SYSTEMS = ("full2-c2-halfturn.json", "full2-c2-quarterturn.json", "full2-diag-sl2.json")
DOC = object()  # a command's argument that names the case's document
CASE_CPU_S = 2.0
DELETE = object()  # an edit's value that deletes the entry
# name: the command that reads it, DOC where the mutated document goes.
DOCUMENTS = {
    "full2-z.solution.json": ("verify-solution", str(EXAMPLES / "full2-z.json"),
                              "--solution", DOC),
    "full2-c2-halfturn.solution.json": (
        "verify-solution", str(EXAMPLES / "full2-c2-halfturn.json"), "--solution", DOC),
    "u-table.json": ("generate", str(EXAMPLES / "full2-z.json"), "--u", DOC, "--alpha", "1/2"),
}
SOLUTION_CASES = 1_200
U_CASES = 400
DOCUMENT_SEED = 26

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


def _value_edits(rng: random.Random, leaves, keys):
    """One key deleted, one time in five, else one or two leaves replaced by VALUES."""
    if rng.random() < 0.2:
        return [(rng.choice(keys), DELETE)]
    targets = rng.sample(leaves, min(len(leaves), rng.choice((1, 2))))
    return [(path, rng.choice(VALUES)) for path in targets]


def _shown(edits) -> str:
    return "; ".join(
        f"{'/'.join(map(str, path))}={'<deleted>' if value is DELETE else repr(value)}"
        for path, value in edits)


def mutations(rng: random.Random, count: int):
    """count seeded (label, document, command) cases."""
    docs = {name: example(name) for name in SYSTEMS}
    paths = {name: _paths(doc) for name, doc in docs.items()}
    for _ in range(count):
        name, command = rng.choice(SYSTEMS), rng.choice(COMMANDS)
        edits = _value_edits(rng, *paths[name])
        label = f"{name} {' '.join(command)} " + _shown(edits)
        yield label, edited(json.loads(json.dumps(docs[name])), edits), command


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _leaf(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _scaled(doc, path, factor):
    """The numeric leaf at path times factor; an int stays an int when the
    product is whole."""
    value = _leaf(doc, path) * factor
    if isinstance(_leaf(doc, path), int) and float(value).is_integer():
        value = int(value)
    return value


def scaled_mutations(rng: random.Random, count: int):
    """count seeded (label, document, command) cases, each with one numeric
    leaf multiplied by a factor; an int stays an int when the product is
    whole.  About a quarter are one of the BASES, given to `distortion
    --algebra` over a matrix example; the rest are example systems."""
    docs = {name: example(name) for name in SYSTEMS}
    docs["so2-basis.json"] = example("so2-basis.json")
    docs["sl2 basis"] = example("full2-diag-sl2.json")["cocycle"]["algebra"]
    leaves = {name: [path for path in _paths(doc)[0] if _numeric(_leaf(doc, path))]
              for name, doc in docs.items()}
    for _ in range(count):
        if rng.random() < 0.25:
            name, system = rng.choice(BASES), rng.choice(MATRIX_SYSTEMS)
            command = ("distortion", str(EXAMPLES / system), "--depth", "3", "--algebra", DOC)
            shown = f"distortion {system} --depth 3 --algebra"
        else:
            name, command = rng.choice(SYSTEMS), rng.choice(SCALED_COMMANDS)
            shown = " ".join(command)
        path, factor = rng.choice(leaves[name]), rng.choice(FACTORS)
        value = _scaled(docs[name], path, factor)
        label = f"{name} {shown} {'/'.join(map(str, path))}*{factor!r}"
        yield label, edited(json.loads(json.dumps(docs[name])), [(path, value)]), command


def document_mutations(rng: random.Random, names, count: int):
    """count seeded (label, document, command) cases over the named
    DOCUMENTS, each on the command that reads it: a third multiply one
    numeric leaf by one of FACTORS (where the document has one), the rest
    are _value_edits."""
    docs = {name: example(name) for name in names}
    paths = {name: _paths(doc) for name, doc in docs.items()}
    numeric = {name: [path for path in paths[name][0] if _numeric(_leaf(doc, path))]
               for name, doc in docs.items()}
    for _ in range(count):
        name = rng.choice(names)
        if numeric[name] and rng.random() < 1 / 3:
            path, factor = rng.choice(numeric[name]), rng.choice(FACTORS)
            edits = [(path, _scaled(docs[name], path, factor))]
            shown = f"{'/'.join(map(str, path))}*{factor!r}"
        else:
            edits = _value_edits(rng, *paths[name])
            shown = _shown(edits)
        label = f"{name} {DOCUMENTS[name][0]} {shown}"
        yield label, edited(json.loads(json.dumps(docs[name])), edits), DOCUMENTS[name]


class _OutOfTime(BaseException):
    """Raised in a case past CASE_CPU_S; not an Exception, so that main does
    not report it as a crash of its own."""


def _out_of_time(signum, frame):
    raise _OutOfTime


def run_case(path: Path, doc, command) -> int | str:
    """The exit code of a case that passes, otherwise what went wrong."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    args = command[1:] if DOC in command else (DOC, *command[1:])
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_PROF, CASE_CPU_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], *(str(path) if arg is DOC else arg for arg in args)])
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
    scaled_from = len(cases)
    cases += scaled_mutations(random.Random(SCALED_SEED), SCALED_CASES)
    documents_from = len(cases)
    rng = random.Random(DOCUMENT_SEED)
    solutions = [name for name in DOCUMENTS if name.endswith(".solution.json")]
    cases += document_mutations(rng, solutions, SOLUTION_CASES)
    cases += document_mutations(rng, ["u-table.json"], U_CASES)
    codes, scaled_codes, document_codes, failures = {}, {}, {}, []
    for i, (label, doc, command) in enumerate(cases):
        result = run_case(path, doc, command)
        if i < pinned and result != 2:
            result = f"expected exit 2, got {result}"
        if isinstance(result, int):
            tally = (document_codes if i >= documents_from
                     else scaled_codes if i >= scaled_from else codes)
            tally[result] = tally.get(result, 0) + 1
        else:
            failures.append(f"{label}: {result}")
    return {"cases": len(cases), "codes": codes, "scaled_codes": scaled_codes,
            "document_codes": document_codes, "failures": failures[:20]}


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run(Path(sys.argv[1]))))
