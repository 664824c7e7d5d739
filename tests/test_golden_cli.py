"""Byte-for-byte CLI output on the example corpus against a recorded file.

`golden_cli.json` maps each command line to the exit code, stdout and
stderr it produced when recorded.  Any change to those bytes is a change
to the canonical output and must be deliberate: rerecord with

    PYTHONPATH=src python tests/test_golden_cli.py

from the repository root and explain the difference in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
# Paths stay relative to ROOT so that recorded provenance is machine independent.
EXAMPLES = "docs/examples"
AUXILIARY = {"so2-basis.json", "u-table.json"}  # inputs to options, not systems
RATIONAL = ("full2-z-drift", "full2-z-perturbed", "full2-z", "full3-z2", "gm-c2", "gm-s3")
MATRIX = ("full2-c2-halfturn", "full2-c2-quarterturn", "full2-diag-sl2")


def commands() -> list[list[str]]:
    docs = sorted(p.name for p in (ROOT / EXAMPLES).glob("*.json") if p.name not in AUXILIARY)
    out = []
    for name in docs:
        path = f"{EXAMPLES}/{name}"
        out.append(["check-transitivity", path])
        out.append(["orbits", path, "--max-period", "6"])
        out.append(["orbits", path, "--max-period", "6", "--trivial-only"])
        out.append(["verify-vanishing", path, "--max-period", "6"])
    out.extend(["solve", f"{EXAMPLES}/{name}.json"] for name in RATIONAL + MATRIX)
    return out


def capture() -> dict[str, dict]:
    from livsic.cli import main

    results = {}
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in commands():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            results[" ".join(argv)] = {
                "exit": code,
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
            }
    finally:
        os.chdir(cwd)
    return results


def test_cli_outputs_match_recording():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    live = capture()
    assert sorted(live) == sorted(recorded)
    for command, expected in recorded.items():
        assert live[command] == expected, command


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
