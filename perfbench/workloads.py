"""Seeded inputs and op mixes of the four benchmark workloads.

Every workload function is a pure function of the seed.  The seed draws values:
potentials, perturbations, matrices, sparse transition graphs inside a
fixed size window, and psi wherever the op's cost does not hinge on it.
The shape of every op (alphabet, block length, fiber group, depth) is
fixed, so the work in one pass of a mix stays the same from seed to seed.

A pass is the op list in order; the worker repeats whole passes, so every
run measures the same mix.  The first op of each list is light and serves
as the untimed warm-up.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from livsic import abelian, cli, errors, groups, matrix, oracles, serialization, sft, skew

CLI_OP_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One workload op: `run` returns the answer that `check` judges.

    `inprocess` is set on CLI ops only: the same command through
    `livsic.cli.main` in the worker, which the traced run times.
    `perturbed` marks rational instances whose answer must be a witness.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    perturbed: bool = False
    inprocess: Callable[[], object] | None = None


# ---------------------------------------------------------------------------
# Seeded building blocks.


def rng_for(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}/{tag}")


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def nonzero_rational(rng: random.Random) -> Fraction:
    while True:
        x = rational(rng)
        if x:
            return x


def word_count(rows, length: int) -> int:
    """Admissible words of the given length: the entries of A^(length-1) summed."""
    k = len(rows)
    vec = [1] * k
    for _ in range(length - 1):
        vec = [sum(rows[a][b] * vec[b] for b in range(k)) for a in range(k)]
    return sum(vec)


def sparse_sft(rng: random.Random, k: int, length: int, lo: int, hi: int) -> sft.SftSpec:
    """Irreducible SFT (a random k-cycle plus extra edges) with lo..hi words of `length`."""
    while True:
        perm = list(range(k))
        rng.shuffle(perm)
        rows = [[0] * k for _ in range(k)]
        for i in range(k):
            rows[perm[i]][perm[(i + 1) % k]] = 1
        for _ in range(rng.randint(k // 2, k)):
            rows[rng.randrange(k)][rng.randrange(k)] = 1
        if lo <= word_count(rows, length) <= hi:
            return sft.SftSpec.from_rows(rows)


def shape(rng: random.Random, spec) -> sft.SftSpec:
    """("full", k) or ("sparse", k, length, lo, hi)."""
    if spec[0] == "full":
        return sft.SftSpec.full_shift(spec[1])
    return sparse_sft(rng, *spec[1:])


_GROUP_SPECS = {
    "C2": groups.GroupSpec.cyclic(2),
    "C4": groups.GroupSpec.cyclic(4),
    "S3": groups.GroupSpec.permutation(3, [(2, 1, 3), (2, 3, 1)], names=["s", "r"]),
    "S5": groups.GroupSpec.permutation(5, [(2, 1, 3, 4, 5), (2, 3, 4, 5, 1)]),
    "Z": groups.GroupSpec.free_abelian(1),
    "Z2": groups.GroupSpec.free_abelian(2),
}
_GROUPS: dict = {}


def group(name: str):
    if name not in _GROUPS:
        _GROUPS[name] = groups.build_group(_GROUP_SPECS[name])
    return _GROUPS[name]


def lattice_system(rng, spec, d: int, *, balanced: bool = False):
    """psi with no zero vector, so every symbol moves the fiber.

    `balanced` makes the values sum to zero, so the word 12...k has identity
    weight: on a full shift an identity-weight orbit then exists, and the
    search for one does not cost a seed-dependent number of retries.
    """
    while True:
        psi = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(spec.k)]
        if balanced:
            psi[-1] = tuple(-sum(v[i] for v in psi[:-1]) for i in range(d))
        if all(any(v) and max(map(abs, v)) <= 3 for v in psi):
            return skew.make_skew_system(spec, group("Z" if d == 1 else "Z2"), psi)


def finite_system(rng, spec, name: str, *, transitive: bool = True):
    g = group(name)
    while True:
        psi = [rng.randrange(g.order) for _ in range(spec.k)]
        system = skew.make_skew_system(spec, g, psi)
        if not transitive or oracles.brute_transitivity(system):
            return system


def solvable_cocycle(rng, system, r: int):
    alpha = None
    if not system.group.is_finite:
        alpha = tuple(rational(rng) for _ in range(system.group.rank))
    return abelian.generate_cocycle(
        system, alpha=alpha, block_range=r, seed=rng.randrange(2**31)
    )


def perturbed_cocycle(rng, cocycle, window=None):
    values = dict(cocycle.values)
    if window is None:
        window = rng.choice(sorted(values))
    values[window] += nonzero_rational(rng)
    return abelian.make_cocycle(cocycle.sft, cocycle.block_range, values)


def identity_orbit_window(rng, system, max_period: int, rf: int):
    """A window of length rf+1 on a primitive identity-weight orbit of period <= max_period.

    Perturbing that window changes the orbit's sum, so a vanishing check up
    to max_period must report a witness.  Returns None when a bounded
    search finds no such orbit.
    """
    spec = system.sft
    found = []
    stack = [(a,) for a in range(1, spec.k + 1)]
    visits = 0
    while stack and len(found) < 8 and visits < 1500:
        visits += 1
        word = stack.pop()
        n = len(word)
        if (
            checks.cyclic_ok(spec, word)
            and all(word != word[i:] + word[:i] for i in range(1, n))
            and checks.is_identity(system, checks.weight(system, word))
        ):
            found.append(word)
        if n < max_period:
            stack.extend(word + (b,) for b in spec.successors(word[-1]))
    if not found:
        return None
    word = rng.choice(found)
    i = rng.randrange(len(word))
    return (word * (2 + rf))[i : i + rf + 1]


# ---------------------------------------------------------------------------
# cocycle-solve: exact solvers, half solvable and half perturbed.

_LATTICE_RUNGS = [  # label, shape, block length r, rank d, instances
    # Sixteen blocks, 49 non-tree rows: the plateau the median lands on.
    ("full4 r2 Z", ("full", 4), 2, 1, 10),
    ("full2 r7 Z", ("full", 2), 7, 1, 1),
    ("full3 r4 Z2", ("full", 3), 4, 2, 1),
    # 64 blocks, 193 non-tree rows: the plateau the 90th percentile lands on.
    ("full4 r3 Z", ("full", 4), 3, 1, 9),
    # Top of the timed ladder: 243 blocks and 487 non-tree rows.  The
    # 769-row rung (full4 r4) is the capacity probe's first rung instead,
    # which keeps a pass short enough to repeat four times in a run.
    ("full3 r5 Z", ("full", 3), 5, 1, 1),
]
_FINITE_RUNGS = [  # label, group, shape, r, instances
    ("C2 full3 r3", "C2", ("full", 3), 3, 5),
    ("C2 full4 r3", "C2", ("full", 4), 3, 4),
    ("S3 full2 r4", "S3", ("full", 2), 4, 5),
    ("S3 full3 r3", "S3", ("full", 3), 3, 4),
    ("S5 full2 r4", "S5", ("full", 2), 4, 2),
    # 64 blocks x 120 elements = 7 680 product states.
    ("S5 full2 r6", "S5", ("full", 2), 6, 1),
]


def _solve_op(name, solver, system, cocycle, perturbed):
    def run():
        try:
            return solver(system, cocycle)
        except errors.CocycleObstruction as exc:
            return exc

    return Op(
        name=name,
        run=run,
        check=lambda answer: checks.check_rational_solve(system, cocycle, answer),
        perturbed=perturbed,
    )


def cocycle_solve(seed: int, workdir: Path) -> list[Op]:
    # The lambdas look the solvers up at call time, so traced runs see the wrappers.
    finite = lambda s, c: abelian.solve_finite_gamma(s, c)  # noqa: E731
    lattice = lambda s, c: abelian.solve_free_abelian(s, c)  # noqa: E731
    ops = []
    for label, gname, spec_shape, r, count in _FINITE_RUNGS:
        for i in range(count):
            rng = rng_for(seed, f"finite {label} {i}")
            system = finite_system(rng, shape(rng, spec_shape), gname)
            cocycle = solvable_cocycle(rng, system, r)
            bad = perturbed_cocycle(rng, cocycle)
            ops.append(_solve_op(f"solve_finite_gamma {label}", finite, system, cocycle, False))
            ops.append(_solve_op(f"solve_finite_gamma {label} perturbed", finite, system, bad, True))
    for label, spec_shape, r, d, count in _LATTICE_RUNGS:
        # psi is the same for every seed, so the elimination touches the
        # same rows; the seed draws u, alpha and the perturbed window.
        system = lattice_system(rng_for(0, f"psi {label}"), shape(None, spec_shape), d)
        for i in range(count):
            rng = rng_for(seed, f"lattice {label} {i}")
            cocycle = solvable_cocycle(rng, system, r)
            bad = perturbed_cocycle(rng, cocycle)
            ops.append(_solve_op(f"solve_free_abelian {label}", lattice, system, cocycle, False))
            ops.append(_solve_op(f"solve_free_abelian {label} perturbed", lattice, system, bad, True))
    return ops


# ---------------------------------------------------------------------------
# orbit-scan: orbit enumeration, vanishing checks and transitivity.

_ENUMERATIONS = [  # label, shape, max period, copies
    ("full2 p12", ("full", 2), 12, 1),
    ("sparse5 p16", ("sparse", 5, 16, 10_000, 16_000), 16, 1),
    ("sparse6 p16", ("sparse", 6, 16, 25_000, 45_000), 16, 1),
    ("sparse8 p16", ("sparse", 8, 16, 25_000, 45_000), 16, 1),
    ("full2 p16", ("full", 2), 16, 1),
    # Identical calls: the plateau the 90th percentile lands on.
    ("full2 p15", ("full", 2), 15, 10),
    ("full3 p12", ("full", 3), 12, 1),
    ("full4 p10", ("full", 4), 10, 1),
]
_VANISHING = [  # label, group, shape, max period, instances
    ("S3 full3 p8", "S3", ("full", 3), 8, 1),
    ("C2 full2 p12", "C2", ("full", 2), 12, 1),
    ("S5 full2 p10", "S5", ("full", 2), 10, 1),
    ("Z full2 p12", "Z", ("full", 2), 12, 1),
    ("Z2 full3 p8", "Z2", ("full", 3), 8, 1),
    ("C4 sparse4 p8", "C4", ("sparse", 4, 8, 20, 60), 8, 2),
    ("Z sparse4 p8", "Z", ("sparse", 4, 8, 20, 60), 8, 2),
]
_LATTICE_TRANSITIVITY = [  # label, rank, shape
    ("Z2 full3", 2, ("full", 3)),
    ("Z full2", 1, ("full", 2)),
    ("Z2 full2", 2, ("full", 2)),
    ("Z sparse5 #0", 1, ("sparse", 5, 12, 100, 400)),
    ("Z2 sparse5 #0", 2, ("sparse", 5, 12, 100, 400)),
    ("Z sparse5 #1", 1, ("sparse", 5, 12, 100, 400)),
    ("Z2 sparse5 #1", 2, ("sparse", 5, 12, 100, 400)),
]
# S5 over the full 3-shift (360 product states) is the plateau the median
# lands on; its psi always contains both generators, so every instance is
# transitive and takes the same path.  The others are lighter.
_FINITE_TRANSITIVITY = [
    (f"{g} {s[0]}{s[1]} #{i}", g, s)
    for g, shapes, count in (
        ("C2", (("full", 2),), 10),
        ("C4", (("full", 3), ("sparse", 5, 4, 10, 60)), 2),
        ("S3", (("full", 3), ("sparse", 5, 4, 10, 60)), 2),
        ("S5", (("full", 3),), 20),
    )
    for s in shapes
    for i in range(count)
]


def _vanishing_ops(seed: int) -> list[Op]:
    ops = []
    for label, gname, spec_shape, p, count in _VANISHING:
        for i in range(count):
            rng = rng_for(seed, f"vanishing {label} {i}")
            while True:
                spec = shape(rng, spec_shape)
                if gname in ("Z", "Z2"):
                    system = lattice_system(rng, spec, 1 if gname == "Z" else 2, balanced=True)
                else:
                    system = finite_system(rng, spec, gname, transitive=False)
                window = identity_orbit_window(rng, system, p, 1)
                if window is not None:
                    break
            cocycle = solvable_cocycle(rng, system, 1)
            bad = perturbed_cocycle(rng, cocycle, window)
            for coc, perturbed in ((cocycle, False), (bad, True)):
                ops.append(
                    Op(
                        name=f"verify_vanishing {label}" + (" perturbed" if perturbed else ""),
                        run=lambda s=system, c=coc, p=p: abelian.verify_vanishing(s, c, p),
                        check=lambda a, s=system, c=coc, p=p, ok=not perturbed: (
                            checks.check_vanishing(s, c, p, ok, a)
                        ),
                        perturbed=perturbed,
                    )
                )
    return ops


def orbit_scan(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for label, spec_shape, p, copies in _ENUMERATIONS:
        spec = shape(rng_for(seed, f"enumerate {label}"), spec_shape)
        ops.extend(
            Op(
                name=f"enumerate_periodic_orbits {label}",
                run=lambda spec=spec, p=p: sft.enumerate_periodic_orbits(spec, p),
                check=lambda a, spec=spec, p=p: checks.check_orbits(spec, p, a),
            )
            for _ in range(copies)
        )
    ops.extend(_vanishing_ops(seed))
    for label, d, spec_shape in _LATTICE_TRANSITIVITY:
        rng = rng_for(seed, f"lattice transitivity {label}")
        spec = shape(rng, spec_shape)
        while True:
            psi = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(spec.k)]
            if any(any(v) for v in psi):
                break
        system = skew.make_skew_system(spec, group("Z" if d == 1 else "Z2"), psi)
        ops.append(
            Op(
                name=f"check_transitivity {label}",
                run=lambda s=system: skew.check_transitivity(s),
                check=lambda a, s=system: checks.check_lattice_verdict(s, a),
            )
        )
    for label, gname, spec_shape in _FINITE_TRANSITIVITY:
        rng = rng_for(seed, f"finite transitivity {label}")
        system = finite_system(rng, shape(rng, spec_shape), gname, transitive=False)
        if gname == "S5":
            g = system.group
            psi = [g.element_by_name("a"), g.element_by_name("b"), rng.randrange(g.order)]
            system = skew.make_skew_system(system.sft, g, psi)
        ops.append(
            Op(
                name=f"check_transitivity {label}",
                run=lambda s=system: skew.check_transitivity(s),
                check=lambda a, s=system: checks.check_finite_transitivity(s, a),
            )
        )
    # A light op first: it doubles as the warm-up.
    ops.sort(key=lambda op: not op.name.startswith("check_transitivity C2"))
    return ops


# ---------------------------------------------------------------------------
# matrix-scan: distortion scans and the matrix solver.

SL2_BASIS = [
    [[0.0, 1.0], [0.0, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
    [[0.0, 0.0], [1.0, 0.0]],
]
_DISTORTION = [  # label, shape, block range, depth, declared algebra, instances
    # Same shape, seeded values: the plateau the 90th percentile lands on.
    ("full2 depth8 sl2", ("full", 2), 0, 8, True, 10),
    ("full2 depth12 sl2", ("full", 2), 0, 12, True, 1),
    ("full2 depth11 ambient", ("full", 2), 0, 11, False, 1),
    ("full3 depth7 sl2", ("full", 3), 0, 7, True, 1),
    ("full2 range1 depth10 sl2", ("full", 2), 1, 10, True, 1),
]
_CHECK_DISTORTION = [  # label, shape, depth, instances
    ("full2 depth6", ("full", 2), 6, 2),
    ("full3 depth5", ("full", 3), 5, 2),
]
_MATRIX_SOLVES = [  # label, group, shape, r, family, instances
    ("C2 rotation full2 r2", "C2", ("full", 2), 2, "rotation", 4),
    ("C2 rotation full3 r2", "C2", ("full", 3), 2, "rotation", 3),
    ("S3 unipotent full3 r2", "S3", ("full", 3), 2, "unipotent", 3),
    ("S3 unipotent full2 r4", "S3", ("full", 2), 4, "unipotent", 3),
    ("C2 unipotent full2 r6", "C2", ("full", 2), 6, "unipotent", 2),
]


def _instances(table):
    """(row, i) for i < the instance count in the row's last field."""
    return [(row, i) for row in table for i in range(row[-1])]


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _unipotent(rng) -> np.ndarray:
    mat = np.eye(3)
    mat[0, 1], mat[0, 2], mat[1, 2] = (rng.uniform(-2.0, 2.0) for _ in range(3))
    return mat


def _sl2(rng) -> np.ndarray:
    while True:
        mat = np.array([[rng.uniform(-1.5, 1.5) for _ in range(2)] for _ in range(2)])
        det = float(np.linalg.det(mat))
        if det > 0.3:
            return mat / math.sqrt(det)


def _matrix_cocycle(rng, spec, rf: int, algebra: bool):
    windows = [w for w in itertools.product(range(1, spec.k + 1), repeat=rf + 1)
               if spec.is_admissible(w)]
    return matrix.make_matrix_cocycle(
        spec, rf, {w: _sl2(rng) for w in windows}, algebra=SL2_BASIS if algebra else None
    )


def _matrix_instance(rng, label, gname, spec_shape, r, family):
    system = finite_system(rng, shape(rng, spec_shape), gname)
    g = system.group
    blocks = sft.build_block_graph(system.sft, r).vertices
    if family == "rotation":
        u = {b: rotation(rng.uniform(0.0, 2.0 * math.pi)) for b in blocks}
        # The half turn is central in SO(2), so it is a valid deck factor.
        alpha = {g.name_of(i): (np.eye(2) if i == g.identity else -np.eye(2)) for i in g.elements()}
    else:
        u = {b: _unipotent(rng) for b in blocks}
        alpha = {g.name_of(i): np.eye(3) for i in g.elements()}
    cocycle = matrix.generate_matrix_cocycle(system, u, alpha, block_range=r)
    values = dict(cocycle.values)
    window = rng.choice(sorted(values))
    if family == "rotation":
        values[window] = values[window] @ rotation(rng.uniform(0.3, 1.0))
    else:
        bump = np.zeros((3, 3))
        bump[0, 2] = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
        values[window] = values[window] + bump
    bad = matrix.make_matrix_cocycle(system.sft, r, values)
    solution = matrix.MatrixSolution(
        block_length=r, u=u, alpha=alpha, alpha_constancy_defect=0.0,
        max_residual=0.0, tol=checks.MATRIX_TOL,
    )
    tampered_u = dict(u)
    block = rng.choice(sorted(u))
    tampered_u[block] = tampered_u[block] @ (
        rotation(0.5) if family == "rotation" else _unipotent(rng)
    )
    tampered = matrix.MatrixSolution(
        block_length=r, u=tampered_u, alpha=alpha, alpha_constancy_defect=0.0,
        max_residual=0.0, tol=checks.MATRIX_TOL,
    )
    return system, cocycle, bad, solution, tampered


def matrix_scan(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for label, gname, spec_shape, r, family, count in _MATRIX_SOLVES:
        for i in range(count):
            rng = rng_for(seed, f"matrix {label} {i}")
            system, cocycle, bad, solution, tampered = _matrix_instance(
                rng, label, gname, spec_shape, r, family
            )
            for coc, tag in ((cocycle, ""), (bad, " perturbed")):
                ops.append(
                    Op(
                        name=f"solve_matrix_finite {label}{tag}",
                        run=lambda s=system, c=coc: _matrix_solve(s, c),
                        check=lambda a, s=system, c=coc: checks.check_matrix_solve(s, c, a),
                    )
                )
            for sol, tag in ((solution, ""), (tampered, " tampered")):
                ops.append(
                    Op(
                        name=f"verify_matrix_solution {label}{tag}",
                        run=lambda s=system, c=cocycle, x=sol: matrix.verify_matrix_solution(
                            s, c, x, tol=checks.MATRIX_TOL
                        ),
                        check=lambda a, s=system, c=cocycle, x=sol: checks.check_matrix_verify(
                            s, c, x, a
                        ),
                    )
                )
    for (label, spec_shape, rf, depth, algebra, count), i in _instances(_DISTORTION):
        rng = rng_for(seed, f"distortion {label} {i}")
        cocycle = _matrix_cocycle(rng, shape(rng, spec_shape), rf, algebra)
        ops.append(
            Op(
                name=f"estimate_distortion {label}",
                run=lambda c=cocycle, n=depth: matrix.estimate_distortion(c, n),
                check=lambda a, c=cocycle, n=depth: checks.check_distortion(c, n, a),
            )
        )
    for (label, spec_shape, depth, count), i in _instances(_CHECK_DISTORTION):
        rng = rng_for(seed, f"check distortion {label} {i}")
        cocycle = _matrix_cocycle(rng, shape(rng, spec_shape), 0, True)
        theta = rng.uniform(0.5, 8.0)
        ops.append(
            Op(
                name=f"check_distortion_assumption {label}",
                run=lambda c=cocycle, n=depth, t=theta: matrix.check_distortion_assumption(
                    matrix.estimate_distortion(c, n), t
                ),
                check=lambda a, c=cocycle, n=depth, t=theta: checks.check_distortion_verdict(
                    c, n, t, a
                ),
            )
        )
    return ops


def _matrix_solve(system, cocycle):
    try:
        return matrix.solve_matrix_finite(system, cocycle, tol=1e-9)
    except errors.CocycleObstruction as exc:
        return exc


# ---------------------------------------------------------------------------
# cli-tour: the README command tour, one fresh interpreter per command.

_COPIED_DOCS = (
    "bad-reducible.json",
    "full2-c2-halfturn.json",
    "full2-c2-quarterturn.json",
    "full2-diag-sl2.json",
    "so2-basis.json",
)


def _coboundary(rows, psi, u, alpha):
    """Window values u(b) - u(a) + alpha.psi(a) on every admissible window ab."""
    k = len(rows)
    values = {}
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            if rows[a - 1][b - 1]:
                val = u[b] - u[a]
                if alpha is not None:
                    val += sum((x * y for x, y in zip(alpha, psi[a - 1])), Fraction(0))
                values[f"{a}{b}"] = val
    return values


def _write_rational(path: Path, base: dict, values: dict) -> None:
    doc = dict(base)
    doc["cocycle"] = {
        "kind": "rational",
        "range": 1,
        "values": {key: str(v) for key, v in sorted(values.items())},
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_cli_inputs(seed: int, examples: Path, out: Path) -> dict:
    """Write the tour's documents; rational cocycles are redrawn from the seed.

    Returns the values of the seeded cocycles, keyed by document name, and
    the u table and alpha given to `generate`.
    """
    out.mkdir(parents=True, exist_ok=True)
    for name in _COPIED_DOCS:
        (out / name).write_bytes((examples / name).read_bytes())
    rng = rng_for(seed, "cli-tour")
    drawn = {}
    for name in ("gm-c2", "gm-s3", "full2-z", "full3-z2", "full2-z-drift"):
        base = json.loads((examples / f"{name}.json").read_text())
        rows = base["sft"]["transition"]
        u = {a: rational(rng) for a in range(1, len(rows) + 1)}
        lattice = base["group"]["type"] == "free_abelian"
        alpha = None
        if lattice:
            alpha = [rational(rng) for _ in range(base["group"]["payload"]["rank"])]
        values = _coboundary(rows, base["psi"], u, alpha)
        _write_rational(out / f"{name}.json", base, values)
        drawn[name] = values
        if name == "full2-z":
            (out / "u-table.json").write_text(
                json.dumps({str(a): str(v) for a, v in u.items()}, sort_keys=True)
            )
            drawn["generate-alpha"] = str(alpha[0])
            perturbed = dict(values)
            # Every window of the full 2-shift lies on "12" or "1122", both of
            # weight 0 and period <= 6, so the perturbation is visible.
            perturbed[rng.choice(sorted(values))] += nonzero_rational(rng)
            _write_rational(out / "full2-z-perturbed.json", base, perturbed)
            drawn["full2-z-perturbed"] = perturbed
    return drawn


def _tour(d: Path, alpha: str):
    """The 25 README commands with their documented exit codes."""
    x = lambda name: str(d / name)  # noqa: E731
    return [
        (["validate", x("gm-c2.json")], 0),
        (["validate", x("bad-reducible.json")], 2),
        (["check-transitivity", x("gm-c2.json")], 0),
        (["check-transitivity", x("full2-z.json")], 1),
        (["check-transitivity", x("full2-z-drift.json")], 1),
        (["check-transitivity", x("full3-z2.json")], 1),
        (["orbits", x("gm-c2.json"), "--max-period", "6"], 0),
        (["orbits", x("gm-c2.json"), "--max-period", "3", "--trivial-only"], 0),
        (["verify-vanishing", x("full2-z.json"), "--max-period", "6"], 0),
        (["verify-vanishing", x("full2-z-perturbed.json"), "--max-period", "6"], 1),
        (["solve", x("gm-c2.json")], 0),
        (["solve", x("gm-s3.json")], 0),
        (["solve", x("full2-z.json"), "--out", x("solution.json")], 0),
        (["solve", x("full3-z2.json")], 0),
        (["solve", x("full2-z-drift.json")], 0),
        (["solve", x("full2-z-perturbed.json")], 1),
        (["solve", x("full2-c2-halfturn.json"), "--out", x("matrix-solution.json")], 0),
        (["solve", x("full2-c2-quarterturn.json")], 1),
        (["verify-solution", x("full2-z.json"), "--solution", x("solution.json")], 0),
        (["verify-solution", x("full2-c2-halfturn.json"), "--solution", x("matrix-solution.json")], 0),
        # "--alpha=" keeps a negative seeded alpha from reading as an option.
        (["generate", x("full2-z.json"), "--u", x("u-table.json"), f"--alpha={alpha}"], 0),
        (["distortion", x("full2-diag-sl2.json"), "--depth", "4"], 0),
        (["distortion", x("full2-c2-quarterturn.json"), "--depth", "6",
          "--algebra", x("so2-basis.json")], 0),
        (["check-distortion", x("full2-diag-sl2.json"), "--theta", "3"], 0),
        (["check-distortion", x("full2-diag-sl2.json"), "--theta", "2"], 1),
    ]


def _out_path(args):
    return args[args.index("--out") + 1] if "--out" in args else None


def _run_cli_process(args):
    proc = subprocess.run(
        [sys.executable, "-m", "livsic.cli", *args],
        capture_output=True,
        text=True,
        timeout=CLI_OP_TIMEOUT_S,
    )
    out = _out_path(args)
    return proc.returncode, proc.stdout, proc.stderr, Path(out).read_text() if out else None


def _run_cli_inprocess(args):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse rejecting the command line
            code = exc.code
    out = _out_path(args)
    return code, stdout.getvalue(), stderr.getvalue(), Path(out).read_text() if out else None


def _load(path: str):
    return serialization.parse_system_document(json.loads(Path(path).read_text()))


def _witness_from_doc(doc, k):
    def word(key):
        return serialization.parse_word_key(key, k, "/witness")

    if doc["kind"] == "pair":
        return abelian.EqualWeightPair(
            word_a=word(doc["word_a"]), word_b=word(doc["word_b"]),
            weight=tuple(doc["weight"]),
            sum_a=Fraction(doc["sum_a"]), sum_b=Fraction(doc["sum_b"]),
        )
    orbit = sft.PeriodicOrbit(word=word(doc["orbit"]))
    if "sum" in doc:
        return abelian.ViolationWitness(
            orbit=orbit, multiplicity=doc["multiplicity"], total=Fraction(doc["sum"])
        )
    return matrix.MatrixViolationWitness(
        orbit=orbit, multiplicity=doc["multiplicity"], deviation=doc["deviation"]
    )


def _check_cli(args, code, stdout, stderr, out_text, expected_code, drawn):
    """Judge one tour command from its exit code and canonical output."""
    if code != expected_code:
        return f"exit {code}, expected {expected_code}: {stderr.strip()[:200]}"
    command, path = args[0], args[1]
    if code == 2:
        return None if "error" in json.loads(stderr) else "no structured error"
    payload = json.loads(stdout)
    env = _load(path)
    system, cocycle = env.system, env.cocycle
    k = system.sft.k
    if command == "validate":
        return None if payload["ok"] and payload["irreducible"] else "validate did not report ok"
    if command == "check-transitivity":
        if system.group.is_finite:
            ok = (payload["status"] == "transitive") == oracles.brute_transitivity(system)
            return None if ok else f"verdict {payload['status']} disagrees with the oracle"
        cert = payload.get("certificate") or {}
        functional = cert.get("functional")
        return checks.check_lattice_transitivity(
            system, payload["status"], cert.get("kind"),
            tuple(functional) if functional is not None else None,
        )
    if command == "orbits":
        p = int(args[args.index("--max-period") + 1])
        words = [serialization.parse_word_key(o["word"], k, "/orbits") for o in payload["orbits"]]
        for o, w in zip(payload["orbits"], words):
            if o["class"]["trivial"] != checks.is_identity(system, checks.weight(system, w)):
                return f"orbit {o['word']} has the wrong class flag"
        brute = oracles.brute_orbit_list(system.sft, p)
        if "--trivial-only" in args:
            brute = [w for w in brute if checks.is_identity(system, checks.weight(system, w))]
        return None if words == brute else "orbit list differs from brute_orbit_list"
    if command == "verify-vanishing":
        p = int(args[args.index("--max-period") + 1])
        witness = None if payload["holds"] else _witness_from_doc(payload["witness"], k)
        return checks.check_vanishing(system, cocycle, p, payload["holds"], witness)
    if command == "solve":
        if out_text is not None and out_text != stdout:
            return "--out file differs from stdout"
        if not payload.get("solvable", True):
            witness = _witness_from_doc(payload["witness"], k)
            answer = errors.CocycleObstruction(witness)
            if isinstance(witness, matrix.MatrixViolationWitness):
                return checks.check_matrix_solve(system, cocycle, answer)
            return checks.check_rational_solve(system, cocycle, answer)
        solution = serialization.parse_solution_document(payload).solution
        if isinstance(solution, matrix.MatrixSolution):
            return checks.check_matrix_solve(system, cocycle, solution)
        return checks.check_rational_solve(system, cocycle, solution)
    if command == "verify-solution":
        return None if payload["certified"] else "stored solution not certified"
    if command == "generate":
        values = {key: Fraction(v) for key, v in payload["cocycle"]["values"].items()}
        return None if values == drawn["full2-z"] else "generated cocycle differs from u + alpha"
    if command == "distortion":
        depth = int(args[args.index("--depth") + 1])
        if "--algebra" in args:
            basis = json.loads(Path(args[args.index("--algebra") + 1]).read_text())
            cocycle = matrix.make_matrix_cocycle(
                cocycle.sft, cocycle.block_range, cocycle.values, algebra=basis
            )
        report = matrix.DistortionReport(
            n_max=payload["depth"], mu_s_by_n=(), mu_u_by_n=(), mu_s=payload["mu_s"],
            mu_u=payload["mu_u"], theta_threshold=payload["theta_threshold"],
            algebra_dim=payload["algebra_dim"],
        )
        return checks.check_distortion(cocycle, depth, report)
    if command == "check-distortion":
        theta = float(args[args.index("--theta") + 1])
        verdict = matrix.DistortionVerdict(
            status=payload["status"], theta=theta, threshold=payload["threshold"],
            mu_s=payload["mu_s"], mu_u=payload["mu_u"], n_max=payload["depth"],
        )
        return checks.check_distortion_verdict(cocycle, payload["depth"], theta, verdict)
    return f"no check for {command}"


def cli_tour(seed: int, workdir: Path) -> list[Op]:
    docs = workdir / "cli-docs"
    drawn = write_cli_inputs(seed, Path(__file__).resolve().parent.parent / "docs" / "examples", docs)
    ops = []
    for args, expected in _tour(docs, drawn["generate-alpha"]):
        ops.append(
            Op(
                name="livsic " + " ".join(a if "/" not in a else Path(a).name for a in args),
                run=lambda a=args: _run_cli_process(a),
                inprocess=lambda a=args: _run_cli_inprocess(a),
                check=lambda ans, a=args, e=expected: _check_cli(a, *ans, e, drawn),
            )
        )
    return ops


_WORKLOAD_FUNCTIONS = {
    "cli-tour": cli_tour,
    "cocycle-solve": cocycle_solve,
    "orbit-scan": orbit_scan,
    "matrix-scan": matrix_scan,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    ops = _WORKLOAD_FUNCTIONS[workload](seed, workdir)
    if workload != "cli-tour":  # the tour's order matters: solve --out, then verify-solution
        # Spread same-shape ops over the pass, in the same order for every
        # seed.  The machine's speed flips within a second, so a plateau of
        # ops run back to back would share one speed in each pass.
        rest = ops[1:]
        random.Random(0).shuffle(rest)
        ops = ops[:1] + rest
    return ops
