"""Seeded mutations of the example systems, algebra basis files, solution
documents and u table never crash `livsic` nor run without bound.

mutation_gate.py runs every case through cli.main in one child, under
launcher.launch's address-space limit, so a case that exhausts memory
fails this test instead of killing the test runner.  Every case must
exit 0, 1 or 2 within its CPU limit, and a 2 must come with a structured
error; the inputs that once escaped are pinned there as named cases and
must exit 2.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from launcher import launch

ROOT = Path(__file__).resolve().parent.parent
GATE = Path(__file__).resolve().parent / "mutation_gate.py"


def test_no_mutation_of_an_example_escapes(tmp_path):
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIVSIC_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    usage = launch([sys.executable, str(GATE), str(tmp_path)], out, err,
                   address_space=1 << 30, wall_s=60.0, env=env)
    assert usage["code"] == 0, err.read_text()
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["failures"] == []
    assert summary["cases"] >= 2_000
    # Mutated solutions and u tables are refused, rejected and accepted.
    assert set(summary["document_codes"]) == {"0", "1", "2"}
    assert usage["cpu_s"] <= 10.0, usage
