"""Worker child: builds one workload's inputs, runs its timed loop, checks answers.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

The harness (run.py) starts it with its own memory limit and waits for the
line "ready", which ends the set-up: import, seeded inputs and one untimed
op.  It then writes "go" (run and report) or "quit" (set-up timing only).
Results go to WORKDIR/results.json; stdout carries only "ready".
"""
from __future__ import annotations

import hashlib
import json
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import clock  # noqa: E402
import livsic  # noqa: E402,F401  (the import is part of set-up)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Calls of every op that the per-slot medians are taken over, at least.
MIN_PASSES = 3
OP_TIMEOUT_S = 90.0
PROCESS_SAMPLES = 5


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def run_op(fn):
    """(status, answer, seconds) for one op; failures never escape."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        answer = fn()
        status = "ok"
    except MemoryError:
        answer, status = None, "oom"
    except (OpTimeout, subprocess.TimeoutExpired):
        answer, status = None, "timeout"
    except Exception as exc:  # a crash inside the program is a failed op
        answer, status = None, f"error {type(exc).__name__}: {exc}"[:300]
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, answer, elapsed


class Loop:
    """The calls of one op list, in the order made, with their answers.

    A record is (slot, raw seconds, status, scale): `scale` turns the raw
    seconds into reference-scaled seconds (see clock.py).  Distinct answers
    are kept for the checker; fingerprinting them is not op time."""

    def __init__(self, ops, inprocess: bool):
        self.ops = ops
        self.inprocess = inprocess
        self.records: list[tuple[int, float, str, float]] = []
        self.answers: dict[tuple[int, bytes], object] = {}
        self.record_keys: list = []

    def call(self, slot: int) -> None:
        op = self.ops[slot]
        before = clock.reference_seconds()
        status, answer, elapsed = run_op(op.inprocess if self.inprocess else op.run)
        scale = clock.scale(before, clock.reference_seconds())
        key = None
        if status == "ok":
            key = (slot, hashlib.sha1(pickle.dumps(answer)).digest())
            self.answers.setdefault(key, answer)
        self.records.append((slot, elapsed, status, scale))
        self.record_keys.append(key)

    def scaled_by_slot(self) -> list[float]:
        """Each slot's median reference-scaled latency over the passes."""
        by_slot: dict[int, list[float]] = {}
        for slot, seconds, _, scale in self.records:
            by_slot.setdefault(slot, []).append(seconds * scale)
        return [statistics.median(by_slot[slot]) for slot in sorted(by_slot)]

    def check(self) -> list[str | None]:
        verdicts = {}
        for key, answer in self.answers.items():
            try:
                verdicts[key] = self.ops[key[0]].check(answer)
            except Exception as exc:
                verdicts[key] = f"check raised {type(exc).__name__}: {exc}"[:300]
        return [
            (status if status != "ok" else verdicts[key])
            for (slot, _, status, _), key in zip(self.records, self.record_keys)
        ]


def run_passes(step, n_slots: int, seconds: float, min_passes: int) -> tuple[int, float]:
    """Closed loop, one client: step(pass, slot) over whole passes, so every
    run measures the same mix, until both `seconds` and `min_passes` are
    reached.  Returns the number of passes and the wall time they took."""
    passes = 0
    start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - start < seconds:
        for slot in range(n_slots):
            step(passes, slot)
        passes += 1
    return passes, time.perf_counter() - start


def process_seconds(argv) -> float:
    """Median reference-scaled wall time of a fresh interpreter running argv."""
    times = []
    for _ in range(PROCESS_SAMPLES):
        before = clock.reference_seconds()
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], check=True)
        elapsed = time.perf_counter() - start
        times.append(elapsed * clock.scale(before, clock.reference_seconds()))
    return statistics.median(times)


def main() -> int:
    workload, seed, seconds, trace, workdir = sys.argv[1:6]
    seed, seconds, trace, workdir = int(seed), float(seconds), trace == "1", Path(workdir)
    signal.signal(signal.SIGALRM, _alarm)
    ops = workloads.build(workload, seed, workdir)
    cli = workload == "cli-tour"
    status, _, _ = run_op(ops[0].run)
    if trace and cli:
        run_op(ops[0].inprocess)
    if status != "ok":
        print(f"warm-up op failed: {status}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    result: dict = {"workload": workload, "seed": seed, "trace": trace, "ops": len(ops)}
    loops = []
    if not trace:
        loop = Loop(ops, inprocess=False)
        passes, wall = run_passes(lambda _, slot: loop.call(slot), len(ops), seconds, MIN_PASSES)
        usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
        result["latencies"] = [r[1] for r in loop.records]
        result["scaled_by_slot"] = loop.scaled_by_slot()
        result["passes"] = passes
        result["wall_s"] = wall
        loops.append(loop)
    else:
        # Each op runs once untraced and once traced, back to back, the
        # untraced call first when pass + slot is even and second otherwise;
        # the overhead compares their per-slot scaled medians.
        plain = Loop(ops, inprocess=cli)
        traced = Loop(ops, inprocess=cli)
        tracer = tracing.Tracer()

        def traced_call(slot):
            tracer.op_id = len(traced.records)
            tracer.install()
            try:
                traced.call(slot)
            finally:
                tracer.uninstall()

        def step(n, slot):
            pair = (plain.call, traced_call) if (n + slot) % 2 == 0 else (traced_call, plain.call)
            for call in pair:
                call(slot)

        passes, _ = run_passes(step, len(ops), seconds, MIN_PASSES)
        scales = [r[3] for r in traced.records]
        op_time = sum(r[1] * r[3] for r in traced.records)
        layer = tracer.layer_metrics(op_time, passes, scales)
        overhead = sum(traced.scaled_by_slot()) / sum(plain.scaled_by_slot())
        layer["trace.overhead_ratio"] = overhead - 1.0
        startup = import_s = 0.0
        if cli:
            startup = process_seconds(["-c", "pass"])
            import_s = process_seconds(["-c", "import livsic"]) - startup
        layer["cli.startup_s"], layer["cli.import_s"] = startup, import_s
        perturbed = [r for r in traced.records if ops[r[0]].perturbed]
        result["layer"] = layer
        result["perturbed_ops"] = len(perturbed)
        result["passes"] = passes
        loops += [plain, traced]
        spans_path = workdir / "spans.json"
        spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                          "spans": tracer.spans}))
        result["spans_file"] = str(spans_path)
        result["traced_ops"] = len(traced.records)

    failures = []
    for loop in loops:
        for (slot, *_), verdict in zip(loop.records, loop.check()):
            if verdict is not None:
                failures.append({"op": ops[slot].name, "reason": verdict})
    if trace:
        witnesses = 0
        for (slot, *_), key in zip(traced.records, traced.record_keys):
            if ops[slot].perturbed and key is not None:
                answer = traced.answers[key]
                witnesses += answer is not None and not isinstance(
                    answer, livsic.CohomologySolution
                )
        result["layer"]["abelian.witness_ratio"] = (
            witnesses / result["perturbed_ops"] if result["perturbed_ops"] else 0.0
        )
    result["attempted"] = sum(len(lp.records) for lp in loops)
    result["failures"] = failures
    (workdir / "results.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
