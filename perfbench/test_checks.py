"""Self-test of the answer checker: tampered answers must count as failed ops.

    python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402


def _failed_ratio(ops) -> float:
    loop = worker.Loop(ops, inprocess=False)
    for slot in range(len(ops)):
        loop.call(slot)
    verdicts = loop.check()
    return sum(v is not None for v in verdicts) / len(verdicts)


def _tampered(op, tamper):
    answer = op.run()
    return dataclasses.replace(op, run=lambda: tamper(answer), inprocess=lambda: tamper(answer))


@pytest.fixture(scope="module")
def solve_ops(tmp_path_factory):
    ops = workloads.build("cocycle-solve", 7, tmp_path_factory.mktemp("w"))
    named = [op for op in ops if "full4 r2 Z" in op.name]
    return [next(op for op in named if not op.perturbed), next(op for op in named if op.perturbed)]


@pytest.fixture(scope="module")
def cli_ops(tmp_path_factory):
    ops = workloads.build("cli-tour", 7, tmp_path_factory.mktemp("cli"))
    for op in ops:
        op.run = op.inprocess
    return ops


def test_untampered_answers_pass(solve_ops, cli_ops):
    assert _failed_ratio(solve_ops) == 0.0
    assert _failed_ratio(cli_ops) == 0.0


def test_changed_u_value_fails(solve_ops):
    def tamper(solution):
        u = dict(solution.u)
        block = sorted(u)[0]
        u[block] += Fraction(1, 3)
        return dataclasses.replace(solution, u=u)

    solvable = solve_ops[0]
    assert "perturbed" not in solvable.name
    assert _failed_ratio([_tampered(solvable, tamper), solve_ops[1]]) == 0.5


def test_flipped_exit_code_fails(cli_ops):
    ops = list(cli_ops)
    ops[2] = _tampered(ops[2], lambda ans: (1 - ans[0],) + tuple(ans[1:]))
    assert _failed_ratio(ops) == pytest.approx(1 / len(ops))


def test_wrong_witness_sum_fails(solve_ops):
    perturbed = solve_ops[1]
    assert "perturbed" in perturbed.name

    def tamper(exc):
        witness = exc.witness
        if hasattr(witness, "total"):
            witness = dataclasses.replace(witness, total=witness.total + 1)
        else:
            witness = dataclasses.replace(witness, sum_a=witness.sum_b)
        return type(exc)(witness)

    assert _failed_ratio([_tampered(perturbed, tamper)]) == 1.0


def test_matrix_tolerance_is_not_read_from_the_answer(tmp_path):
    ops = workloads.build("matrix-scan", 7, tmp_path)
    solve = next(op for op in ops if op.name.startswith("solve_matrix_finite C2 rotation")
                 and not op.name.endswith("perturbed"))

    def tamper(solution):
        u = {b: m @ workloads.rotation(0.7) if i == 0 else m
             for i, (b, m) in enumerate(sorted(solution.u.items()))}
        return dataclasses.replace(solution, u=u, tol=1e6, max_residual=0.0)

    assert _failed_ratio([_tampered(solve, tamper)]) == 1.0
