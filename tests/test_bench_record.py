"""The committed BENCH_<n>.json records and bench/record.py's comparison.

Every record holds each declared metric of every planned run, finite, and
`--compare` of a record with itself gives ratio 1 throughout.  The
recorder itself runs the benchmark for minutes, so only its refusal of cap
overrides is run here.
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
    assert doc["schema"] == record.SCHEMA
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
