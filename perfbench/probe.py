"""Capacity probe child: solve one full 4-shift Z rung and report.

    python3 perfbench/probe.py R SEED

Prints one JSON line {"outcome", "blocks", "seconds"} and exits 0 when the
solve finished with a certificate.  A MemoryError exits 3 and a refusal by
the caps exits 4; the harness turns a kill at its wall limit into
"timeout" and reads the peak RSS from the child's resource usage.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from livsic import abelian, errors, sft, skew  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    r, seed = int(sys.argv[1]), int(sys.argv[2])
    rng = workloads.rng_for(seed, f"capacity r{r}")
    spec = sft.SftSpec.full_shift(4)
    system = skew.make_skew_system(spec, workloads.group("Z"), [(rng.randint(-3, 3),) for _ in range(4)])
    blocks = workloads.word_count(spec.transitions, r)
    try:
        cocycle = workloads.solvable_cocycle(rng, system, r)
        start = time.perf_counter()
        solution = abelian.solve_free_abelian(system, cocycle)
        seconds = time.perf_counter() - start
    except MemoryError:
        return 3
    except errors.RangeTooLarge as exc:
        print(json.dumps({"outcome": "refused", "blocks": blocks, "reason": str(exc)}))
        return 4
    certified = solution.certificate is not None and solution.certificate.certified
    print(json.dumps({"outcome": "ok" if certified else "uncertified", "blocks": blocks,
                      "seconds": seconds}))
    return 0 if certified else 1


if __name__ == "__main__":
    sys.exit(main())
