"""Solver results on a seeded corpus against a recorded file.

`golden_solvers.json` maps each case name to what the solver returned:
the potential, alpha, degenerate report and certificate of a solution,
or the witness of a CocycleObstruction.  The cases cover the exact
finite-group solver (C2, S3), the Z^d solver (Z, Z^2; violation
witnesses, equal-weight pairs, degenerate lattices) and the matrix
solver (rotation and unipotent families), each solvable and perturbed.
Any change to a recorded value is a change to the solvers' answers and
must be deliberate: rerecord with

    PYTHONPATH=src python tests/test_golden_solvers.py

from the repository root and explain the difference in CHANGES.md.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from corpus import perturb_one_value, random_irreducible_sft, rng_for, s3_group  # noqa: E402
from livsic import (  # noqa: E402
    CocycleObstruction,
    GroupSpec,
    SftSpec,
    build_block_graph,
    build_group,
    generate_cocycle,
    generate_matrix_cocycle,
    make_cocycle,
    make_matrix_cocycle,
    make_skew_system,
    solve_finite_gamma,
    solve_free_abelian,
    solve_matrix_finite,
)
from livsic.oracles import brute_transitivity  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden_solvers.json"
BASE_SEED = 7_919
C2 = build_group(GroupSpec.cyclic(2))
S3 = s3_group()
Z1 = build_group(GroupSpec.free_abelian(1))
Z2 = build_group(GroupSpec.free_abelian(2))


def _plain(value):
    """JSON-ready copy: Fractions as strings, arrays as nested float lists."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, float):
        return repr(value)
    if is_dataclass(value) or hasattr(type(value), "_fields"):
        names = [f.name for f in fields(value)] if is_dataclass(value) else value._fields
        out = {name: _plain(getattr(value, name)) for name in names}
        out["type"] = type(value).__name__
        return out
    if isinstance(value, dict):
        return [[_plain(k), _plain(v)] for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [_plain(x) for x in value]
    return value


def _run(solver, system, cocycle) -> dict:
    try:
        return {"solution": _plain(solver(system, cocycle))}
    except CocycleObstruction as exc:
        return {"witness": _plain(exc.witness)}


def _spec(rng, shape):
    if shape == "sparse":
        return random_irreducible_sft(rng, rng.randint(3, 4))
    return SftSpec.full_shift(shape)


def _finite_system(rng, shape, group):
    """A transitive system; the shift is redrawn too, as a sparse one may admit none."""
    while True:
        spec = _spec(rng, shape)
        system = make_skew_system(spec, group, [rng.randrange(group.order) for _ in range(spec.k)])
        if brute_transitivity(system):
            return system


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _unipotent(rng) -> np.ndarray:
    mat = np.eye(3)
    mat[0, 1], mat[0, 2], mat[1, 2] = (rng.uniform(-2.0, 2.0) for _ in range(3))
    return mat


def _finite_cases(out: dict) -> None:
    index = 0
    for gname, group in (("C2", C2), ("S3", S3)):
        for shape in (2, 3, "sparse"):
            for r in (1, 2):
                for i in range(2):
                    rng = rng_for(BASE_SEED, index)
                    index += 1
                    system = _finite_system(rng, shape, group)
                    cocycle = generate_cocycle(system, block_range=r, seed=rng.randrange(2**31))
                    bad, _, _ = perturb_one_value(cocycle, rng)
                    name = f"finite {gname} {shape} r{r} #{i}"
                    out[name] = _run(solve_finite_gamma, system, cocycle)
                    out[name + " perturbed"] = _run(solve_finite_gamma, system, bad)


def _lattice_cases(out: dict) -> None:
    index = 1_000
    for gname, group in (("Z", Z1), ("Z2", Z2)):
        d = group.rank
        for shape in (2, 3, "sparse"):
            for r in (1, 2):
                for i in range(3):
                    rng = rng_for(BASE_SEED, index)
                    index += 1
                    spec = _spec(rng, shape)
                    psi = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(spec.k)]
                    system = make_skew_system(spec, group, psi)
                    alpha = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d))
                    cocycle = generate_cocycle(
                        system, alpha=alpha, block_range=r, seed=rng.randrange(2**31)
                    )
                    bad, _, _ = perturb_one_value(cocycle, rng)
                    name = f"lattice {gname} {shape} r{r} #{i}"
                    out[name] = _run(solve_free_abelian, system, cocycle)
                    out[name + " perturbed"] = _run(solve_free_abelian, system, bad)
    # Hand-picked lattices: drifting weights (equal-weight pairs) and proper
    # sublattices (degenerate reports), each solvable and perturbed.
    special = (
        ("drift Z", SftSpec.full_shift(2), Z1, ((1,), (1,))),
        ("drift Z 3", SftSpec.full_shift(3), Z1, ((1,), (2,), (1,))),
        ("drift Z2", SftSpec.full_shift(2), Z2, ((1, 0), (1, 1))),
        ("degenerate Z2", SftSpec.full_shift(2), Z2, ((1, 0), (-1, 0))),
        ("degenerate Z2 3", SftSpec.full_shift(3), Z2, ((2, 0), (-1, 0), (0, 0))),
        ("index-2 Z2", SftSpec.full_shift(3), Z2, ((1, 1), (-1, 1), (0, -2))),
    )
    for label, spec, group, psi in special:
        system = make_skew_system(spec, group, psi)
        for r in (1, 2):
            for i in range(3):
                rng = rng_for(BASE_SEED, index)
                index += 1
                alpha = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in psi[0])
                cocycle = generate_cocycle(
                    system, alpha=alpha, block_range=r, seed=rng.randrange(2**31)
                )
                bad, _, _ = perturb_one_value(cocycle, rng)
                name = f"lattice {label} r{r} #{i}"
                out[name] = _run(solve_free_abelian, system, cocycle)
                out[name + " perturbed"] = _run(solve_free_abelian, system, bad)
    system = make_skew_system(SftSpec.full_shift(2), Z1, ((1,), (1,)))
    values = {(1, 1): "0", (1, 2): "0", (2, 1): "0", (2, 2): "1"}
    out["lattice drift Z hand"] = _run(
        solve_free_abelian, system, make_cocycle(system.sft, 1, values)
    )


def _matrix_cases(out: dict) -> None:
    index = 2_000
    for gname, group in (("C2", C2), ("S3", S3)):
        for family in ("rotation", "unipotent"):
            for shape in (2, 3):
                for r in (1, 2):
                    rng = rng_for(BASE_SEED, index)
                    index += 1
                    system = _finite_system(rng, shape, group)
                    blocks = build_block_graph(system.sft, r).vertices
                    names = [group.name_of(g) for g in group.elements()]
                    if family == "rotation":
                        u = {b: _rotation(rng.uniform(0.0, 2.0 * math.pi)) for b in blocks}
                        # The half turn is central in SO(2), so C2 may take it
                        # as the deck factor of g; S3 takes the trivial one.
                        alpha = {
                            n: (np.eye(2) if g == group.identity or gname == "S3" else -np.eye(2))
                            for g, n in enumerate(names)
                        }
                    else:
                        u = {b: _unipotent(rng) for b in blocks}
                        alpha = {n: np.eye(3) for n in names}
                    cocycle = generate_matrix_cocycle(system, u, alpha, block_range=r)
                    values = dict(cocycle.values)
                    window = rng.choice(sorted(values))
                    if family == "rotation":
                        values[window] = values[window] @ _rotation(rng.uniform(0.3, 1.0))
                    else:
                        bump = np.zeros((3, 3))
                        bump[0, 2] = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
                        values[window] = values[window] + bump
                    bad = make_matrix_cocycle(system.sft, r, values)
                    name = f"matrix {gname} {family} full{shape} r{r}"
                    out[name] = _run(solve_matrix_finite, system, cocycle)
                    out[name + " perturbed"] = _run(solve_matrix_finite, system, bad)


def capture() -> dict[str, dict]:
    out: dict[str, dict] = {}
    _finite_cases(out)
    _lattice_cases(out)
    _matrix_cases(out)
    return out


def test_solver_results_match_recording():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    live = json.loads(json.dumps(capture()))
    assert sorted(live) == sorted(recorded)
    for name, expected in recorded.items():
        assert live[name] == expected, name


if __name__ == "__main__":
    # One case per line keeps a changed answer to one line of the diff.
    cases = sorted(capture().items())
    lines = (f"{json.dumps(name)}: {json.dumps(result, sort_keys=True)}" for name, result in cases)
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    sys.exit(0)
