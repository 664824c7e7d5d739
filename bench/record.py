"""Record the benchmark into a committed BENCH_<n>.json, or compare two records.

    python3 bench/record.py                   # writes the next BENCH_<n>.json
    python3 bench/record.py --out FILE
    python3 bench/record.py --compare BENCH_1.json BENCH_2.json

Run it from the root of the checkout to measure.  For every workload in
BENCHMARK.json it runs

    python3 perfbench/run.py --workload W --seed S --seconds 8 --trace 0

at each of three fixed seeds, then one --trace 1 run per workload for the
per-layer metrics, and copies into the record the checkout's git revision
(with a dirty flag, and a hash of the uncommitted diff when dirty), the
machine record, every metric of every run, and a per-name summary of the
traced run's spans.  It then runs the README's command tour three times
over, and the size ladder three times over: `livsic distortion` on a
seeded hyperbolic sl(2) cocycle over the full 2-shift at depths 12, 16
and 19, and on docs/examples/full2-diag-sl2.json, whose words all tie, at
depth 19, the largest the work budget admits; then `livsic
check-transitivity` on a seeded full 20-shift over Z^3, which exits 1
(a lattice verdict is never `transitive`).  Each command is a fresh
`python -m livsic.cli` process started by tests/launcher.py, and the
record keeps each process's own exit code, CPU time and peak RSS, read
with os.wait4.  It uses the standard library only, and, like the
harness, refuses to run when any LIVSIC_MAX_* variable is set.

--compare A B prints, per workload, the median of each metric over A's
runs and over B's, their ratio B/A, and for the end-to-end metrics whether
B is worse than A by more than the metric's BENCHMARK.json bound; it exits
1 when one is.  Per-layer figures come from one traced run, and tour and
ladder figures are per process; neither has a bound, so their ratios are
printed for reading only.  When the two records were made at different
times, a line before the tables says so: medians from two sittings
measure the host as well as the code.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import random
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

SEEDS = (41, 42, 43)
SECONDS = 8
SCHEMA = 4  # 2 adds the tour rows, 3 the distortion ladder, 4 its transitivity rung
WORK_DIR = ".perfbench_work"
TOUR_RUNS = 3  # passes over the tour, and over the ladder
TOUR_ADDRESS_SPACE = 1 << 30  # RLIMIT_AS of a tour or ladder process, in bytes
TOUR_WALL_S = 60.0  # a tour or ladder process is killed past this
LADDER_SEED = 41
LADDER_DOCUMENT = "ladder-hyperbolic-sl2.json"  # written by ladder_document
LATTICE_DOCUMENT = "ladder-full20-z3.json"  # written by lattice_document
LADDER = [(["distortion", doc, "--depth", str(depth)], 0) for doc, depth in (
    (LADDER_DOCUMENT, 12), (LADDER_DOCUMENT, 16), (LADDER_DOCUMENT, 19),
    ("docs/examples/full2-diag-sl2.json", 19))] + [(["check-transitivity", LATTICE_DOCUMENT], 1)]
SL2_BASIS = [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


class RecordError(Exception):
    pass


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def revision(root: Path) -> dict:
    """HEAD, whether tracked or staged files differ from it, and if so the
    sha256 of `git diff HEAD`, which names the uncommitted change."""
    head = _git(root, "rev-parse", "HEAD").decode().strip()
    diff = _git(root, "diff", "HEAD", "--binary")
    out = {"revision": head, "dirty": bool(diff)}
    if diff:
        out["diff_sha256"] = hashlib.sha256(diff).hexdigest()
    return out


def run_once(root: Path, harness: list, workload: str, seed: int, trace: int):
    """One harness run: (its metrics, verdict and span summary; the
    machine record of its report)."""
    command = [*harness, "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RecordError(f"{' '.join(command)} exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(lines[-1])
    workdir = root / WORK_DIR / f"{workload}-seed{seed}-trace{trace}"
    report = json.loads((workdir / "report.json").read_text())
    run = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }
    if trace:
        run["spans"] = span_summary(json.loads((workdir / "spans.json").read_text()))
    return run, report["machine"]


def span_summary(doc: dict) -> dict:
    """{span name: calls, raw total seconds, raw self seconds} over a traced
    run; a span's self time is its time less that of the spans it caused."""
    spans = doc["spans"]
    at = {name: i for i, name in enumerate(doc["fields"])}
    name_i, start_i, end_i, parent_i = at["name"], at["start"], at["end"], at["parent"]
    calls, total, children = defaultdict(int), defaultdict(float), defaultdict(float)
    for span in spans:
        seconds = span[end_i] - span[start_i]
        calls[span[name_i]] += 1
        total[span[name_i]] += seconds
        if span[parent_i] >= 0:
            children[spans[span[parent_i]][name_i]] += seconds
    return {
        name: {"calls": calls[name], "total_s": total[name], "self_s": total[name] - children[name]}
        for name in sorted(calls)
    }


def tour_commands(root: Path) -> list[tuple[list[str], int]]:
    """The README's command tour, in order: each `livsic` line's arguments
    and the exit code its comment documents (0 when it names none)."""
    text = (root / "README.md").read_text()
    section = text.split("\n## Command tour\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for line in section.splitlines():
        if line.startswith("livsic "):
            command, _, comment = line.partition("#")
            code = re.match(r"\s*exit (\d+)", comment)
            commands.append((shlex.split(command)[1:], int(code.group(1)) if code else 0))
    return commands


def ladder_commands() -> list[tuple[list[str], int]]:
    """The size ladder's `livsic` arguments and expected exit codes."""
    return [(list(argv), code) for argv, code in LADDER]


def ladder_document() -> dict:
    """A system document over the full 2-shift, the sl(2) basis declared,
    whose two window values are seeded hyperbolic matrices R diag(l, 1/l)
    R^-1: R a rotation, 1.5 <= l <= 2.  Their axes differ, so adjoint
    norms spread apart as words grow, and no product's norm reaches 2^19,
    so a depth-19 scan stays within working precision."""
    rng = random.Random(f"{LADDER_SEED}/ladder")

    def hyperbolic():
        stretch, angle = rng.uniform(1.5, 2.0), rng.uniform(0.0, math.pi)
        c, s = math.cos(angle), math.sin(angle)
        return [[stretch * c * c + s * s / stretch, (stretch - 1 / stretch) * c * s],
                [(stretch - 1 / stretch) * c * s, stretch * s * s + c * c / stretch]]

    return {
        "sft": {"k": 2, "transition": [[1, 1], [1, 1]]},
        "group": {"type": "cyclic", "payload": {"order": 2}},
        "psi": ["g", "e"],
        "cocycle": {"kind": "matrix", "range": 0, "dim": 2, "algebra": SL2_BASIS,
                    "values": {"1": hyperbolic(), "2": hyperbolic()}},
    }


def lattice_document() -> dict:
    """A system document over the full 20-shift with Z^3 fibers, psi
    seeded with entries in [-2, 2]."""
    rng = random.Random(f"{LADDER_SEED}/lattice")
    return {
        "sft": {"k": 20, "transition": [[1] * 20] * 20},
        "group": {"type": "free_abelian", "payload": {"rank": 3}},
        "psi": [[rng.randint(-2, 2) for _ in range(3)] for _ in range(20)],
    }


def run_commands(root: Path, commands: list[tuple[list[str], int]]) -> list[dict]:
    """Each command, TOUR_RUNS times over in the given order, as a fresh
    `python -m livsic.cli` process of this checkout started by
    tests/launcher.py: its exit codes, CPU seconds and peak RSS in KiB.
    The processes run in a temporary directory that links the checkout's
    docs/ and holds ladder_document() as LADDER_DOCUMENT and
    lattice_document() as LATTICE_DOCUMENT, so relative paths resolve and
    `--out` files land there."""
    spec = importlib.util.spec_from_file_location("tour_launcher", root / "tests" / "launcher.py")
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    rows = [{"argv": argv, "expected": code, "code": [], "cpu_s": [], "rss_kib": []}
            for argv, code in commands]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "docs").symlink_to(root / "docs")
        (work / LADDER_DOCUMENT).write_text(json.dumps(ladder_document()))
        (work / LATTICE_DOCUMENT).write_text(json.dumps(lattice_document()))
        for _ in range(TOUR_RUNS):
            for row in rows:
                usage = launcher.launch(
                    [sys.executable, "-m", "livsic.cli", *row["argv"]], work / "stdout",
                    work / "stderr", address_space=TOUR_ADDRESS_SPACE, wall_s=TOUR_WALL_S,
                    env=env, cwd=work,
                )
                if usage["code"] != row["expected"]:
                    raise RecordError(f"livsic {shlex.join(row['argv'])} exited {usage['code']},"
                                      f" not {row['expected']}: {(work / 'stderr').read_text()}")
                for name in ("code", "cpu_s", "rss_kib"):
                    row[name].append(usage[name])
    return rows


def record(root: Path, out: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    doc = {
        "schema": SCHEMA,
        **revision(root),
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": spec["command"],
        "seconds": SECONDS,
        "seeds": list(SEEDS),
        "machine": None,
        "runs": [],
    }
    plan = [(w, s, 0) for w in workloads for s in SEEDS] + [(w, SEEDS[0], 1) for w in workloads]
    for workload, seed, trace in plan:
        print(f"record: {workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
        run, machine = run_once(root, spec["command"], workload, seed, trace)
        doc["machine"] = doc["machine"] or machine
        doc["runs"].append(run)
    print("record: README tour", file=sys.stderr, flush=True)
    doc["tour"] = run_commands(root, tour_commands(root))
    print("record: size ladder", file=sys.stderr, flush=True)
    doc["ladder"] = run_commands(root, ladder_commands())
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def next_path(root: Path) -> Path:
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def medians(doc: dict) -> dict:
    """{(workload, trace): {metric: median over the record's runs}}."""
    values = defaultdict(lambda: defaultdict(list))
    for run in doc["runs"]:
        for name, value in run["metrics"].items():
            values[run["workload"], run["trace"]][name].append(value)
    return {key: {name: statistics.median(v) for name, v in metrics.items()}
            for key, metrics in values.items()}


def compare(a: dict, b: dict, spec: dict) -> tuple[list[dict], bool]:
    """One row per (workload, metric) present in both records: medians,
    ratio b/a, and for end-to-end metrics the bound and whether b is worse
    than a beyond it.  Also whether any row is."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    ma, mb = medians(a), medians(b)
    rows, beyond = [], False
    for key in sorted(ma.keys() & mb.keys()):
        for name in sorted(ma[key].keys() & mb[key].keys()):
            x, y = ma[key][name], mb[key][name]
            ratio = _ratio(x, y)
            row = {"workload": key[0], "trace": key[1], "metric": name, "a": x, "b": y,
                   "ratio": ratio, "better": declared.get(name, {}).get("better")}
            if name in end_to_end:
                bound = declared[name]["bound"]
                worse = ratio > 1 + bound if row["better"] == "lower" else ratio < 1 - bound
                row.update(bound=bound, worse=worse)
                beyond |= worse
            rows.append(row)
    for part in ("tour", "ladder"):
        rows_b = {shlex.join(row["argv"]): row for row in b.get(part, ())}
        for row_a in a.get(part, ()):
            command = shlex.join(row_a["argv"])
            if command not in rows_b:
                continue
            for name in ("cpu_s", "rss_kib"):
                x, y = statistics.median(row_a[name]), statistics.median(rows_b[command][name])
                rows.append({"workload": part, "trace": None,
                             "metric": f"{name} livsic {command}", "a": x, "b": y,
                             "ratio": _ratio(x, y), "better": "lower"})
    return rows, beyond


def _ratio(x, y):
    return y / x if x else (1.0 if y == x else math.inf)


def sittings_note(a: dict, b: dict) -> str | None:
    """None when both records were made at one time, otherwise the line
    that names both revisions and times."""
    if a["recorded_utc"] == b["recorded_utc"]:
        return None
    return (f"two sittings: A is {a['revision'][:12]} at {a['recorded_utc']}, B is"
            f" {b['revision'][:12]} at {b['recorded_utc']}; medians from two sittings"
            " measure the host as well as the code (ROADMAP item 21)")


def print_comparison(rows: list[dict], a_name: str, b_name: str) -> None:
    print(f"medians over runs; ratio = {b_name} / {a_name}")
    for trace, title in ((0, "end to end (bound: how much worse B may be)"),
                         (1, "per layer, one traced run each (no bound)"),
                         (None, "README tour and distortion ladder, one process per"
                                " command (no bound)")):
        print(f"\n{title}")
        for row in (r for r in rows if r["trace"] == trace):
            mark = ""
            if "bound" in row:
                mark = f"  bound {row['bound']:.2f}  {'WORSE' if row['worse'] else 'ok'}"
            print(f"  {row['workload']:14s} {row['metric']:44s} {row['a']:12.6g} {row['b']:12.6g}"
                  f"  x{row['ratio']:.3f} ({row['better'] or '-'} is better){mark}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="record here instead of the next BENCH_<n>.json")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args()
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        print("record.py: no BENCHMARK.json here; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        rows, beyond = compare(a, b, spec)
        note = sittings_note(a, b)
        if note:
            print(note)
        print_comparison(rows, args.compare[0].name, args.compare[1].name)
        return 1 if beyond else 0
    overrides = sorted(v for v in os.environ if v.startswith("LIVSIC_MAX"))
    if overrides:
        print(f"record.py: refusing to run with cap overrides set: {overrides}", file=sys.stderr)
        return 2
    if not (root / "perfbench" / "run.py").is_file():
        print("record.py: no perfbench/run.py here; run from the repository root", file=sys.stderr)
        return 2
    out = args.out or next_path(root)
    try:
        record(root, out)
    except RecordError as exc:
        print(f"record.py: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
