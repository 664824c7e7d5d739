"""The committed BENCH_<n>.json records and bench/record.py's comparison.

Every record holds each declared metric of every planned run, finite,
from schema 2 on one row per README tour command with its exit codes,
CPU times and peak RSS, from schema 3 on the same for each rung of the
distortion ladder, and from schema 4 for its check-transitivity rung;
`--compare` of a record with itself gives ratio
1 throughout.  The recorder itself runs the benchmark for minutes, so
only its refusal of cap overrides and its reading of the tour are run
here.
"""
from __future__ import annotations

import copy
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(re.findall(r"\d+", p.name)[0]))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
TOUR_COMMANDS = {
    "validate", "check-transitivity", "orbits", "verify-vanishing", "solve", "verify-solution",
    "generate", "distortion", "check-distortion",
}


def _recorder():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record = _recorder()


def test_the_records_are_numbered_from_1():
    assert [p.name for p in RECORDS] == [f"BENCH_{n}.json" for n in range(1, len(RECORDS) + 1)]
    assert len(RECORDS) >= 2
    assert record.next_path(ROOT).name == f"BENCH_{len(RECORDS) + 1}.json"


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_record_holds_every_metric_finite(path):
    doc = json.loads(path.read_text())
    assert doc["schema"] in range(1, record.SCHEMA + 1)
    assert re.fullmatch(r"[0-9a-f]{40}", doc["revision"])
    assert type(doc["dirty"]) is bool
    assert doc["dirty"] == ("diff_sha256" in doc)
    assert doc["command"] == SPEC["command"]
    assert doc["seconds"] > 0 and doc["seeds"] and all(type(s) is int for s in doc["seeds"])
    assert {"python", "numpy", "nproc", "cpu"} <= doc["machine"].keys()
    seeds = doc["seeds"]
    plan = [(w, s, 0) for w in WORKLOADS for s in seeds] + [(w, seeds[0], 1) for w in WORKLOADS]
    assert [(r["workload"], r["seed"], r["trace"]) for r in doc["runs"]] == plan
    for run in doc["runs"]:
        label = (run["workload"], run["seed"], run["trace"])
        assert sorted(run["metrics"]) == sorted(PER_LAYER if run["trace"] else END_TO_END), label
        assert all(math.isfinite(x) for x in run["metrics"].values()), label
        assert run["correct"] and run["failed"] == 0 < run["attempted"], label
        if run["trace"]:
            assert run["spans"], label
            for name, span in run["spans"].items():
                assert span["calls"] > 0, (label, name)
                assert all(math.isfinite(span[k]) for k in ("total_s", "self_s")), (label, name)
    # Schema 2 adds the tour: each README command, run as its own process.
    # Schema 3 adds the distortion ladder, whose every command exits 0, and
    # schema 4 its check-transitivity rung, which exits 1.
    assert ("tour" in doc) == (doc["schema"] >= 2)
    assert ("ladder" in doc) == (doc["schema"] >= 3)
    ladder = {"distortion", "check-transitivity"}
    for part, commands in (("tour", TOUR_COMMANDS), ("ladder", ladder)):
        for row in doc.get(part, ()):
            label = " ".join(row["argv"])
            assert row["argv"][0] in commands and row["expected"] in (0, 1, 2), label
            assert len(row["code"]) == len(row["cpu_s"]) == len(row["rss_kib"]) > 0, label
            assert all(code == row["expected"] for code in row["code"]), label
            assert all(0 < s < record.TOUR_WALL_S for s in row["cpu_s"]), label
            assert all(type(kib) is int and 0 < kib < record.TOUR_ADDRESS_SPACE >> 10
                       for kib in row["rss_kib"]), label
    if "tour" in doc:
        assert len(doc["tour"]) == 25
    if "ladder" in doc:
        rungs = [(row["argv"][0], row["expected"]) for row in doc["ladder"]]
        transitivity = [("check-transitivity", 1)] * (doc["schema"] >= 4)
        assert rungs == [("distortion", 0)] * 4 + transitivity


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_record_compared_with_itself_gives_ratio_1(path):
    doc = json.loads(path.read_text())
    rows, beyond = record.compare(doc, doc, SPEC)
    assert not beyond
    assert all(row["ratio"] == 1 for row in rows)
    assert {(r["workload"], r["metric"]) for r in rows if r["trace"] == 0} == {
        (w, m) for w in WORKLOADS for m in END_TO_END
    }
    assert {(r["workload"], r["metric"]) for r in rows if r["trace"] == 1} == {
        (w, m) for w in WORKLOADS for m in PER_LAYER
    }
    assert all(not row["worse"] for row in rows if "bound" in row)
    processes = len(doc.get("tour", ())) + len(doc.get("ladder", ()))
    assert len([r for r in rows if r["trace"] is None]) == 2 * processes


def test_compare_flags_only_a_change_beyond_its_bound():
    base = json.loads(RECORDS[0].read_text())
    # The median of three runs moves with the middle one, so scale all.
    for factor, metric, worse in (
        (1.2, "op_p90_ms", False),  # lower is better, bound 0.25
        (1.3, "op_p90_ms", True),
        (0.8, "ops_per_s", False),  # higher is better, bound 0.25
        (0.7, "ops_per_s", True),
        (0.5, "op_p50_ms", False),  # better, however far
    ):
        changed = copy.deepcopy(base)
        for run in changed["runs"]:
            if run["workload"] == "cocycle-solve" and run["trace"] == 0:
                run["metrics"][metric] *= factor
        rows, beyond = record.compare(base, changed, SPEC)
        (row,) = [r for r in rows if (r["workload"], r["metric"], r["trace"])
                  == ("cocycle-solve", metric, 0)]
        assert math.isclose(row["ratio"], factor)
        assert row["worse"] is worse and beyond is worse, (metric, factor)


def _compare_output(monkeypatch, capsys, a: str, b: str) -> tuple[int, list[str]]:
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "argv", ["record.py", "--compare", a, b])
    code = record.main()
    return code, capsys.readouterr().out.splitlines()


def test_compare_says_when_two_records_come_from_two_sittings(monkeypatch, capsys):
    code, lines = _compare_output(monkeypatch, capsys, "BENCH_8.json", "BENCH_9.json")
    assert lines[0] == (
        "two sittings: A is b349f410b035 at 2026-10-20T03:06:52Z, B is 57c6527bff5f at"
        " 2026-10-20T04:42:51Z; medians from two sittings measure the host as well as"
        " the code (ROADMAP item 21)"
    )
    assert lines[1].startswith("medians over runs")
    # The note changes neither the verdict nor the tables.
    _, beyond = record.compare(*(json.loads((ROOT / p).read_text())
                                    for p in ("BENCH_8.json", "BENCH_9.json")), SPEC)
    assert code == int(beyond)
    code, lines = _compare_output(monkeypatch, capsys, "BENCH_9.json", "BENCH_9.json")
    assert code == 0 and lines[0].startswith("medians over runs")
    assert not any("sittings" in line for line in lines)


def test_the_tour_is_the_readme_command_tour():
    commands = record.tour_commands(ROOT)
    assert len(commands) == 25
    assert {argv[0] for argv, _ in commands} == TOUR_COMMANDS
    assert commands[0] == (["validate", "docs/examples/gm-c2.json"], 0)
    assert commands[1] == (["validate", "docs/examples/bad-reducible.json"], 2)
    assert commands[-1] == (["check-distortion", "docs/examples/full2-diag-sl2.json",
                             "--theta", "2"], 1)
    # Exit 1 is documented for three transitivity verdicts, two witnesses
    # of solve, one of verify-vanishing and one violated distortion bound.
    assert [code for _, code in commands].count(1) == 7
    assert all((ROOT / arg).is_file() for argv, _ in commands for arg in argv
               if arg.startswith("docs/"))


def test_the_ladder_scans_a_seeded_hyperbolic_document_and_the_tie_case():
    assert record.ladder_commands()[:4] == [
        (["distortion", record.LADDER_DOCUMENT, "--depth", "12"], 0),
        (["distortion", record.LADDER_DOCUMENT, "--depth", "16"], 0),
        (["distortion", record.LADDER_DOCUMENT, "--depth", "19"], 0),
        (["distortion", "docs/examples/full2-diag-sl2.json", "--depth", "19"], 0),
    ]
    doc = record.ladder_document()
    assert doc == record.ladder_document()
    from livsic.serialization import parse_system_document

    cocycle = parse_system_document(doc).cocycle
    assert len(cocycle.algebra) == 3 and sorted(cocycle.values) == [(1,), (2,)]
    for value in cocycle.values.values():
        # Determinant 1, |trace| > 2 and entries at most 2.
        assert math.isclose(value[0, 0] * value[1, 1] - value[0, 1] * value[1, 0], 1.0)
        assert abs(value[0, 0] + value[1, 1]) > 2.0
        assert max(abs(x) for x in value.ravel()) <= 2.0
    first, second = cocycle.values.values()
    assert max(abs(x) for x in (first @ second - second @ first).ravel()) > 0.1


def test_the_recorder_refuses_cap_overrides(tmp_path):
    env = dict(os.environ, LIVSIC_MAX_STATES="5")
    out = tmp_path / "BENCH_x.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "record.py"), "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "LIVSIC_MAX_STATES" in done.stderr
    assert not out.exists()


def test_the_ladder_ends_with_a_seeded_full_20_shift_over_z3():
    assert record.ladder_commands()[4:] == [(["check-transitivity", record.LATTICE_DOCUMENT], 1)]
    doc = record.lattice_document()
    assert doc == record.lattice_document()
    from livsic import check_transitivity
    from livsic.serialization import parse_system_document

    system = parse_system_document(doc).system
    assert system.sft.k == 20 and system.group.rank == 3
    assert all(max(map(abs, z)) <= 2 for z in system.psi_z)
    # A lattice verdict is never "transitive": the command exits 1.
    assert check_transitivity(system).status != "transitive"
