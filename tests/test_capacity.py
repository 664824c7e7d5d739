"""The capacity contract at its edges: for each entry point and cap, the
largest input admitted and the first one refused.

Each row runs one `livsic` command through launcher.launch, so that the
child's peak RSS counts the launcher's image, not the test runner's; the
child alone runs under RLIMIT_AS and a wall limit, and its CPU time and
peak RSS come from os.wait4.  An admitted case must exit 0 or 1 within
its bounds.  A refused case must exit 2 with its structured error,
within the same bounds.

The bounds are written once, in the table.  A case that misses its bound
is a failing test to report, never a bound to raise in the same change.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from corpus import random_u
from launcher import launch
from mutation_gate import escape
from livsic import (
    GroupSpec,
    SftSpec,
    build_group,
    check_transitivity,
    count_periodic_points,
    generate_matrix_cocycle,
    make_cocycle,
    make_matrix_cocycle,
    make_skew_system,
    parse_system_document,
)
from livsic.abelian import generate_cocycle
from livsic.errors import DEFAULT_MAX_GROUP_ORDER
from livsic.serialization import SystemEnvelope, group_doc, system_to_doc

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 1 << 30  # RLIMIT_AS of the child, in bytes
WALL_LIMIT_S = 20.0  # the child is killed past this

_S5 = GroupSpec.permutation(5, [(2, 1, 3, 4, 5), (2, 3, 4, 5, 1)])


def _c2_power(m: int) -> GroupSpec:
    """C2^m as the permutation group of the m transpositions (2i-1 2i),
    named a, b, ...: 2**m elements on 2m points."""
    gens = []
    for i in range(m):
        p = list(range(1, 2 * m + 1))
        p[2 * i], p[2 * i + 1] = p[2 * i + 1], p[2 * i]
        gens.append(p)
    return GroupSpec.permutation(2 * m, gens)


def _full2_over(spec: GroupSpec, psi: tuple[str, str]) -> dict:
    """The full 2-shift over the group of spec, psi by element names.  The
    group is built only by the command under test."""
    return {"sft": {"k": 2, "transition": [[1, 1], [1, 1]]}, "group": group_doc(spec),
            "psi": list(psi)}


def _s5_full2(r: int, perturbed: bool) -> dict:
    """S5 over the full 2-shift with psi = its two generators, a transitive
    cover: 2**r blocks and 120 * 2**r product states at block length r."""
    group = build_group(_S5)
    system = make_skew_system(
        SftSpec.full_shift(2), group, (group.element_by_name("a"), group.element_by_name("b"))
    )
    cocycle = generate_cocycle(system, block_range=r, seed=r)
    if perturbed:
        values = dict(cocycle.values)
        values[(1,) * (r + 1)] += Fraction(1, 3)
        cocycle = make_cocycle(system.sft, r, values)
    return system_to_doc(SystemEnvelope(system=system, cocycle=cocycle, group_doc=group_doc(_S5)))


def _s5_full2_rotation(r: int, perturbed: bool) -> dict:
    """_s5_full2 with a generated rotation cocycle (trivial deck factor):
    2**(r + 1) matrix values.  Perturbed, one window is sheared, which no
    deck factor absorbs."""
    group = build_group(_S5)
    system = make_skew_system(
        SftSpec.full_shift(2), group, (group.element_by_name("a"), group.element_by_name("b"))
    )
    u = random_u(system, r, r, "rotation")
    cocycle = generate_matrix_cocycle(system, u, None, block_range=r)
    if perturbed:
        values = dict(cocycle.values)
        values[(1,) * (r + 1)] = values[(1,) * (r + 1)] @ [[1.0, 0.5], [0.0, 1.0]]
        cocycle = make_matrix_cocycle(system.sft, r, values)
    return system_to_doc(SystemEnvelope(system=system, cocycle=cocycle, group_doc=group_doc(_S5)))


def _z3_full(k: int) -> dict:
    """Z^3 over the full k-shift, psi seeded with entries in [-2, 2]."""
    rng = random.Random(f"z3 full{k}")
    psi = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(k)]
    return {"sft": {"k": k, "transition": [[1] * k] * k},
            "group": group_doc(GroupSpec.free_abelian(3)), "psi": psi}


def _z2_full2(r: int) -> dict:
    """Z^2 over the full 2-shift with psi = e_1, e_2 and a generated
    cocycle of block range r: 2**(r + 1) values, 2**r blocks."""
    group_spec = GroupSpec.free_abelian(2)
    system = make_skew_system(SftSpec.full_shift(2), build_group(group_spec), ((1, 0), (0, 1)))
    cocycle = generate_cocycle(system, block_range=r, seed=r)
    envelope = SystemEnvelope(system=system, cocycle=cocycle, group_doc=group_doc(group_spec))
    return system_to_doc(envelope)


def _z2_full2_zero(r: int) -> dict:
    """_z2_full2 with a zero cocycle of block range r written out
    directly, since past range 14 the state cap refuses to generate one:
    2**(r + 1) values."""
    doc = _z2_full2(1)
    windows = map("".join, product("12", repeat=r + 1))
    doc["cocycle"] = {"kind": "rational", "range": r, "values": dict.fromkeys(windows, "0")}
    return doc


def _example(name: str) -> dict:
    return json.loads((ROOT / "docs" / "examples" / name).read_text(encoding="utf-8"))


def _orbit_count(spec: SftSpec, max_period: int) -> int:
    """Primitive orbits of period <= max_period, from the trace formula."""
    points = {}  # points of least period n
    for n in range(1, max_period + 1):
        points[n] = count_periodic_points(spec, n) - sum(
            points[d] for d in range(1, n) if n % d == 0
        )
    return sum(points[n] // n for n in points)


# Prints count, number of orbits listed and max_period of an `orbits` payload.
_ORBITS_SUMMARY = (
    "import json, sys; out = json.load(open(sys.argv[1], encoding='utf-8'));"
    "print(out['count'], len(out['orbits']), out['max_period'])"
)


def _orbits_listed(doc: dict, code: int, out: Path) -> bool:
    # The payload at the work budget is 12 MB of JSON.  A child parses it:
    # parsed here, it would raise this process's peak RSS, which every
    # later child of the test run inherits in its own ru_maxrss.
    summary = subprocess.run(
        [sys.executable, "-c", _ORBITS_SUMMARY, str(out)],
        capture_output=True, text=True, check=True,
    )
    count, listed, max_period = map(int, summary.stdout.split())
    spec = parse_system_document(doc).system.sft
    return count == listed == _orbit_count(spec, max_period)


def _solved(doc: dict, code: int, out: Path) -> bool:
    payload = json.loads(out.read_text(encoding="utf-8"))
    if code == 0:
        return payload["certification"]["certified"] is True
    return payload["solvable"] is False


def _verdict(doc: dict, code: int, out: Path) -> bool:
    payload = json.loads(out.read_text(encoding="utf-8"))
    return payload["status"] == check_transitivity(parse_system_document(doc).system).status


def _validated(doc: dict, code: int, out: Path) -> bool:
    # Every admitted `validate` row builds a group at the group-order cap.
    payload = json.loads(out.read_text(encoding="utf-8"))
    return payload["ok"] is True and payload["group"]["order"] == DEFAULT_MAX_GROUP_ORDER


# What an admitted command must print, given its document, exit code and
# stdout file.
ADMITTED = {
    "validate": _validated,
    "solve": _solved,
    "orbits": _orbits_listed,
    "verify-vanishing": lambda doc, code, out: json.loads(out.read_text())["holds"] is True,
    "check-transitivity": _verdict,
}

_STATES = "product graph would have 61440 vertices"


def _windows_refused(r: int, fits: int) -> dict:
    """The refusal of a document whose cocycle's windows are past the work
    budget: the r-block graph they are the edges of."""
    message = (f"/cocycle/values: the {r}-block graph exceeds the work budget; "
               f"the largest block length within it is {fits}")
    return {"error": "DocumentError", "pointer": "/cocycle/values", "message": message}


def _witness_refused(edges: int) -> dict:
    return {"error": "RangeTooLarge", "message": f"the inconsistency's witness walks, "
            f"{edges} edges, exceed the work budget of 2000000"}

_WORK = "exceeds the work budget; the largest period within it is 12"

# name, document builder and its arguments, command and its extra arguments,
# exit code, CPU seconds, peak RSS in MiB, structured error of a refusal.
CASES = [
    # LIVSIC_MAX_STATES (50 000) on `solve` over a finite group.
    ("solve S5 full2 r8", (_s5_full2, 8, False), ["solve"], 0, 1.0, 64, None),
    ("solve S5 full2 r8 perturbed", (_s5_full2, 8, True), ["solve"], 1, 1.0, 64, None),
    ("solve S5 full2 r9", (_s5_full2, 9, False), ["solve"], 2, 1.0, 64,
     {"error": "RangeTooLarge", "message": _STATES}),
    # The same cap on the matrix solver, over the same cover.
    ("solve S5 full2 rotation r8", (_s5_full2_rotation, 8, False), ["solve"], 0, 1.0, 64, None),
    ("solve S5 full2 rotation r8 perturbed", (_s5_full2_rotation, 8, True), ["solve"],
     1, 1.0, 64, None),
    ("solve S5 full2 rotation r9", (_s5_full2_rotation, 9, False), ["solve"], 2, 1.0, 64,
     {"error": "RangeTooLarge", "message": _STATES}),
    # The work budget on the simplex of `check-transitivity` over Z^3: k + 4
    # pivots on a (k + 4) x (k^2 + k + 4) tableau on the full k-shift,
    # 1 922 544 at k = 35 and 2 137 600 at k = 36.
    ("check-transitivity Z3 full20", (_z3_full, 20), ["check-transitivity"], 1, 1.0, 64, None),
    ("check-transitivity Z3 full35", (_z3_full, 35), ["check-transitivity"], 1, 1.0, 64, None),
    ("check-transitivity Z3 full36", (_z3_full, 36), ["check-transitivity"], 2, 1.0, 64,
     {"error": "RangeTooLarge", "message": "the cone test's simplex, 40 pivots on a 40 x 1336 "
      "tableau, exceeds the work budget"}),
    # LIVSIC_MAX_STATES on a cocycle's windows: range 14 has 32 768.  Range
    # 15's 65 536 are refused by their count, before any value is parsed.
    ("solve Z2 full2 range 14", (_z2_full2, 14), ["solve"], 0, 3.0, 128, None),
    ("solve Z2 full2 range 15", (_z2_full2_zero, 15), ["solve"], 2, 1.0, 64,
     {"error": "DocumentError", "pointer": "/cocycle/values",
      "message": "/cocycle/values: 65536 windows exceed the state cap 50000"}),
    # The work budget (2 000 000 symbols) on spelling a cocycle's windows,
    # counted before any is spelt: range 10^30 on the golden mean and full
    # 2-shifts, and range 200 000 on the two-symbol cycle shift, which has
    # 2 words of every length.
    ("validate gm-c2 range 10^30", (escape, "gm-c2 range 10^30"), ["validate"], 2, 1.0, 64,
     _windows_refused(10**30, 20)),
    ("solve gm-c2 range 10^30", (escape, "gm-c2 range 10^30"), ["solve"], 2, 1.0, 64,
     _windows_refused(10**30, 20)),
    ("distortion full2-c2-quarterturn range 10^30",
     (escape, "full2-c2-quarterturn range 10^30"), ["distortion", "--depth", "3"], 2, 1.0, 64,
     _windows_refused(10**30, 15)),
    ("validate cycle2 range 200000", (escape, "cycle2 range 200000"), ["validate"], 2, 1.0, 64,
     _windows_refused(200_000, 1412)),
    # The work budget (2 000 000 edges) on the Z^2 witness walks, whose
    # repeats grow with psi: one psi entry of 10^7, and of 10^30.
    ("solve full3-z2 psi 10^7", (escape, "full3-z2 psi 10^7"), ["solve"], 2, 1.0, 64,
     _witness_refused(59_999_999)),
    ("solve full3-z2 psi 10^30", (escape, "full3-z2 psi 10^30"), ["solve"], 2, 1.0, 64,
     _witness_refused(6 * 10**30 - 1)),
    # The work budget (2 000 000 words) on `orbits`: 69 706 orbits up to 12.
    ("orbits full3-z2 p12", (_example, "full3-z2.json"), ["orbits", "--max-period", "12"],
     0, 4.0, 256, None),
    ("orbits full3-z2 p13", (_example, "full3-z2.json"), ["orbits", "--max-period", "13"],
     2, 1.0, 64,
     {"error": "RangeTooLarge", "message": f"orbit enumeration up to period 13 {_WORK}"}),
    # The work budget on `distortion`: depth 19 (about 5 s) is the largest
    # it admits.
    ("distortion full2-diag-sl2 depth 20", (_example, "full2-diag-sl2.json"),
     ["distortion", "--depth", "20"], 2, 1.0, 64,
     {"error": "RangeTooLarge", "message": "distortion scan to depth 20 exceeds the work "
      "budget; the largest depth within it is 19"}),
    # LIVSIC_MAX_PERIOD (16) on `orbits` and `verify-vanishing`.
    ("orbits full2-z p16", (_example, "full2-z.json"), ["orbits", "--max-period", "16"],
     0, 1.0, 64, None),
    ("orbits full2-z p17", (_example, "full2-z.json"), ["orbits", "--max-period", "17"],
     2, 1.0, 64, {"error": "RangeTooLarge", "message": "period 17 exceeds cap 16"}),
    ("verify-vanishing full2-z p16", (_example, "full2-z.json"),
     ["verify-vanishing", "--max-period", "16"], 0, 1.0, 64, None),
    ("verify-vanishing full2-z p17", (_example, "full2-z.json"),
     ["verify-vanishing", "--max-period", "17"], 2, 1.0, 64,
     {"error": "RangeTooLarge", "message": "period 17 exceeds cap 16"}),
    # The group-order cap (4 096) on building a group, which `validate` does:
    # a cyclic table, and a permutation closure of 4 096 elements.
    ("validate cyclic 4096", (_full2_over, GroupSpec.cyclic(4096), ("e", "g")), ["validate"],
     0, 2.0, 256, None),
    ("validate cyclic 4097", (_full2_over, GroupSpec.cyclic(4097), ("e", "g")), ["validate"],
     2, 1.0, 64, {"error": "ClosureTooLarge", "message": "cyclic order 4097 exceeds 4096"}),
    ("validate C2^12", (_full2_over, _c2_power(12), ("a", "b")), ["validate"],
     0, 6.0, 256, None),
    ("validate C2^13", (_full2_over, _c2_power(13), ("a", "b")), ["validate"],
     2, 1.0, 64, {"error": "ClosureTooLarge", "message": "closure exceeds 4096 elements"}),
]


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_capacity_edge(case, tmp_path):
    name, (build, *args), (command, *extra), code, cpu_s, rss_mib, error = case
    document = build(*args)
    doc = tmp_path / "system.json"
    doc.write_text(json.dumps(document), encoding="utf-8")
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIVSIC_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    usage = launch(
        [sys.executable, "-m", "livsic.cli", command, str(doc), *extra], out, err,
        address_space=ADDRESS_SPACE, wall_s=WALL_LIMIT_S, env=env,
    )
    assert usage["code"] == code, (name, err.read_text())
    assert usage["cpu_s"] <= cpu_s, (name, usage)
    assert usage["rss_kib"] <= rss_mib * 1024, (name, usage)
    if error is None:
        assert ADMITTED[command](document, code, out), name
    else:
        assert json.loads(err.read_text()) == error
