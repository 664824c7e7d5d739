"""Benchmark harness: one workload, one seed, one run.

    python3 perfbench/run.py --workload cocycle-solve --seed 1 --seconds 10 --trace 0

Run it from the repository root; it uses the package under src/ as it is,
with no install step, and writes only under .perfbench_work/.  With
--trace 0 it measures the end-to-end metrics: set-up is timed three times
and the median reported, then one worker child runs whole passes of the
workload's op mix for --seconds (and at least three passes).
Times are reference-scaled (see clock.py).  With --trace 1 it
reports the per-layer metrics of a traced run, the tracing overhead, and
the capacity probe.  Every answer is checked after the timed region.  The
last line of stdout is the JSON result; the names and units of the
metrics come from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-tour", "cocycle-solve", "orbit-scan", "matrix-scan")
SETUPS = 3
SETUP_WALL_S = 60
WORKER_WALL_S = 150
WORKER_AS_BYTES = 2 << 30
# Full 4-shift Z rungs: 256 blocks (above the timed ladder's top), 1 024 and 4 096.
PROBE_RUNGS = (4, 5, 6)
PROBE_WALL_S = 15
PROBE_AS_BYTES = 512 << 20
WORK_DIR = ".perfbench_work"


class BenchError(Exception):
    pass


def _limit_memory(as_bytes: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (as_bytes, as_bytes))

    return apply


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def start_worker(args, workdir: Path, env: dict):
    """Start a worker and wait for "ready"; returns (process, set-up seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
         str(args.seconds), str(args.trace), str(workdir)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=_limit_memory(WORKER_AS_BYTES),
    )
    ready, _, _ = select.select([proc.stdout], [], [], SETUP_WALL_S)
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker set-up failed (exit {proc.returncode})")
    return proc, elapsed


def finish_worker(proc, command: str, timeout: float) -> None:
    try:
        proc.stdin.write(command + "\n")
        proc.stdin.close()
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker exceeded its {timeout:.0f} s wall limit") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def probe_rung(r: int, seed: int, env: dict, workdir: Path) -> dict:
    """Solve one capacity rung in a child under RLIMIT_AS and a wall limit."""
    start = time.perf_counter()
    with open(workdir / f"probe-r{r}.err", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(r), str(seed)],
            stdout=subprocess.PIPE, stderr=err, text=True, env=env,
            preexec_fn=_limit_memory(PROBE_AS_BYTES),
        )
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > PROBE_WALL_S:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = proc.stdout.read().strip()
    proc.stdout.close()
    record = {"r": r, "blocks": 4**r, "seconds": time.perf_counter() - start,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if timed_out:
        record["outcome"] = "timeout"
    elif proc.returncode == 3:
        record["outcome"] = "oom"
    elif out:
        record.update(json.loads(out))
    else:
        record["outcome"] = f"error (exit {proc.returncode})"
    return record


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(args, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    env = child_env(root)
    workdir = root / WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    info = machine()
    # The harness, the worker and every process they start share one CPU,
    # so the reference loop runs where the measured work runs (clock.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"machine: python {info['python']}, numpy {info['numpy']}, "
          f"nproc {info['nproc']}, cpu {info['cpu']}")

    setups, raw_setups = [], []
    for i in range(1 if args.trace else SETUPS):
        before = clock.reference_seconds()
        proc, seconds = start_worker(args, workdir, env)
        raw_setups.append(seconds)
        setups.append(seconds * clock.scale(before, clock.reference_seconds()))
        if i < (0 if args.trace else SETUPS - 1):
            finish_worker(proc, "quit", SETUP_WALL_S)
    finish_worker(proc, "go", WORKER_WALL_S)
    result = json.loads((workdir / "results.json").read_text())

    attempted = result["attempted"]
    failed = len(result["failures"])
    for failure in result["failures"][:10]:
        print(f"FAILED {failure['op']}: {failure['reason']}")
    report = {"machine": info, "args": vars(args), "setups_s": setups,
              "raw_setups_s": raw_setups, "result": result}
    if not args.trace:
        scaled = result["scaled_by_slot"]
        raw = result["latencies"]
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_ms": statistics.median(scaled) * 1000.0,
            "op_p90_ms": percentile(scaled, 90) * 1000.0,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
        beyond = sum(x * 1000.0 > metrics["op_p90_ms"] for x in scaled)
        print(f"{args.workload} seed {args.seed}: {len(raw)} ops in "
              f"{result['passes']} passes of {result['ops']}, "
              f"{result['wall_s']:.2f} s timed wall, one closed-loop client")
        print(f"times are reference-scaled (clock.py); raw: set-ups "
              f"{', '.join(f'{s:.4f}' for s in raw_setups)} s, {len(raw) / sum(raw):.4g} ops/s, "
              f"p50/p90 {statistics.median(raw) * 1000.0:.4g}/{percentile(raw, 90) * 1000.0:.4g} ms "
              f"over all {len(raw)} ops")
        print(f"op_p50_ms and op_p90_ms from {len(scaled)} per-slot medians over the passes, "
              f"{beyond} beyond p90")
    else:
        metrics = dict(result["layer"])
        probes = [probe_rung(r, args.seed, env, workdir) for r in PROBE_RUNGS]
        report["capacity_probe"] = probes
        for p in probes:
            print(f"capacity probe full4 r={p['r']} ({p['blocks']} blocks): {p['outcome']}, "
                  f"{p['seconds']:.2f} s, peak RSS {p['peak_rss_mb']:.1f} MB")
        metrics["abelian.capacity_max_blocks"] = max(
            [p["blocks"] for p in probes if p["outcome"] == "ok"], default=0
        )
        metrics["abelian.capacity_peak_rss_mb"] = max(p["peak_rss_mb"] for p in probes)
        declared = spec["per_layer"]
        print(f"traced run: {result['traced_ops']} traced ops in {result['passes']} passes "
              f"(per-layer sums and counts are per pass), spans in {result['spans_file']}; "
              f"abelian.witness_ratio base: {result['perturbed_ops']} perturbed ops")
    print(f"failed_ratio: {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    for name, entry in out.items():
        print(f"  {name:44s} {entry['value']:.6g} {entry['unit']}")
    report["metrics"] = out
    (workdir / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "livsic" / "__init__.py").is_file():
        print("run.py: no src/livsic here; run from the repository root", file=sys.stderr)
        return 2
    overrides = sorted(v for v in os.environ if v.startswith("LIVSIC_MAX"))
    if overrides:
        print(f"run.py: refusing to run with cap overrides set: {overrides}", file=sys.stderr)
        return 2
    try:
        return run(args, root)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
