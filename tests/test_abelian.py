"""Exact rational cohomology: solutions, obstructions, degenerate lattices."""
from __future__ import annotations

import os
import pickle
import subprocess
import sys
from collections import deque
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import pytest

import livsic.abelian as abelian
from livsic import (
    CocycleObstruction,
    CohomologySolution,
    DimensionMismatch,
    EqualWeightPair,
    GroupSpec,
    InvalidCocycle,
    NotStronglyConnected,
    NotTransitiveError,
    SftSpec,
    TorsionAlpha,
    ViolationWitness,
    birkhoff_sum,
    brute_solution_check,
    brute_vanishing,
    build_block_graph,
    build_group,
    enumerate_trivial_class_orbits,
    generate_cocycle,
    make_cocycle,
    make_skew_system,
    psi_n_cyclic,
    solve_finite_gamma,
    solve_free_abelian,
    verify_solution,
    verify_vanishing,
)
from corpus import (
    random_alpha,
    random_irreducible_sft,
    random_lattice_system,
    random_rational,
    random_transitive_system,
    rng_for,
    s3_group,
)
from livsic.skew import SpanningTree

FULL_2 = SftSpec.full_shift(2)
Z1 = build_group(GroupSpec.free_abelian(1))
C2 = build_group(GroupSpec.cyclic(2))


def _z1_system():
    return make_skew_system(FULL_2, Z1, ((1,), (-1,)))


def _solvable_cocycle():
    return make_cocycle(
        FULL_2,
        1,
        {(1, 1): "1/2", (1, 2): "3/2", (2, 1): "-3/2", (2, 2): "-1/2"},
    )


def _cyclic_f_sum(cocycle, word) -> Fraction:
    ext = tuple(word) * (1 + cocycle.block_range)
    return sum(
        (
            cocycle.window_value(ext[i : i + cocycle.block_range + 1])
            for i in range(len(word))
        ),
        Fraction(0),
    )


def test_make_cocycle_domain_must_match_windows():
    with pytest.raises(InvalidCocycle):
        make_cocycle(FULL_2, 1, {(1, 1): 1})
    with pytest.raises(InvalidCocycle):
        make_cocycle(
            FULL_2,
            1,
            {(1, 1): 0, (1, 2): 0, (2, 1): 0, (2, 2): 0, (3, 3): 0},
        )
    with pytest.raises(InvalidCocycle):
        make_cocycle(FULL_2, -1, {})
    with pytest.raises(InvalidCocycle):
        make_cocycle(FULL_2, 0, {(1,): 0.5, (2,): 1})


def test_solve_lattice_exact_solution():
    system = _z1_system()
    solution = solve_free_abelian(system, _solvable_cocycle())
    assert solution.alpha == (Fraction(1, 2),)
    assert solution.u == {(1,): Fraction(0), (2,): Fraction(1)}
    assert solution.degenerate is None
    assert solution.certificate is not None and solution.certificate.certified
    assert brute_solution_check(system, _solvable_cocycle(), solution)


def test_solve_lattice_obstruction_witness():
    system = _z1_system()
    values = {(1, 1): "1", (1, 2): "3/2", (2, 1): "-3/2", (2, 2): "-1/2"}
    cocycle = make_cocycle(FULL_2, 1, values)
    with pytest.raises(CocycleObstruction) as err:
        solve_free_abelian(system, cocycle)
    witness = err.value.witness
    assert isinstance(witness, ViolationWitness)
    assert witness.orbit.word == (1, 1, 2, 2)
    assert witness.multiplicity == 1
    assert witness.total == Fraction(1, 2)
    # The independent word scan agrees on the first counterexample.
    assert brute_vanishing(system, cocycle, 6) == ((1, 1, 2, 2), Fraction(1, 2))


def test_verify_vanishing_matches_solver_verdicts():
    system = _z1_system()
    assert verify_vanishing(system, _solvable_cocycle(), 8) is None
    values = {(1, 1): "1", (1, 2): "3/2", (2, 1): "-3/2", (2, 2): "-1/2"}
    bad = make_cocycle(FULL_2, 1, values)
    found = verify_vanishing(system, bad, 8)
    assert found is not None
    assert _cyclic_f_sum(bad, found.word) == found.total != 0
    assert psi_n_cyclic(system, found.word) == (0,)


def test_constant_cocycle_over_trivial_group():
    trivial = build_group(GroupSpec.cyclic(1))
    system = make_skew_system(FULL_2, trivial, (0, 0))
    c = Fraction(1, 3)
    cocycle = make_cocycle(FULL_2, 0, {(1,): c, (2,): c})
    with pytest.raises(CocycleObstruction) as err:
        solve_finite_gamma(system, cocycle)
    witness = err.value.witness
    assert witness.orbit.word == (1,)
    assert witness.total == c * witness.multiplicity


def test_torsion_weight_needs_doubled_word():
    # Every symbol carries the involution, so the fixed-point orbit only
    # closes up in the extension after two periods.
    system = make_skew_system(FULL_2, C2, (1, 1))
    values = {(1, 1): "1/2", (1, 2): "0", (2, 1): "0", (2, 2): "0"}
    cocycle = make_cocycle(FULL_2, 1, values)
    with pytest.raises(CocycleObstruction) as err:
        solve_finite_gamma(system, cocycle)
    witness = err.value.witness
    assert witness.orbit.word == (1,)
    assert witness.multiplicity == 2
    assert witness.word == (1, 1)
    assert witness.total == Fraction(1)
    oracle = brute_vanishing(system, cocycle, 3)
    assert oracle == ((1, 1), Fraction(1))
    # At the same depth the primitive-orbit scan sees nothing: the only
    # trivial-class primitive orbit through period 3 is (1, 2) with sum 0.
    assert verify_vanishing(system, cocycle, 3) is None


def test_finite_roundtrip_sweep():
    for seed in range(15):
        rng = rng_for(31, seed)
        system = random_transitive_system(rng)
        rf = rng.choice((1, 2))
        cocycle = generate_cocycle(system, block_range=rf, seed=rng.randint(0, 10**6))
        solution = solve_finite_gamma(system, cocycle)
        assert solution.alpha is None
        assert solution.certificate.certified
        rebuilt = generate_cocycle(system, u=solution.u, block_range=rf)
        assert rebuilt.values == cocycle.values
        assert brute_solution_check(system, cocycle, solution, samples=50)


def test_lattice_roundtrip_sweep():
    for seed in range(15):
        rng = rng_for(37, seed)
        d = rng.randint(1, 2)
        system = random_lattice_system(rng, d)
        alpha = random_alpha(rng, d)
        cocycle = generate_cocycle(
            system, alpha=alpha, block_range=1, seed=rng.randint(0, 10**6)
        )
        solution = solve_free_abelian(system, cocycle)
        assert solution.certificate.certified
        rebuilt = generate_cocycle(
            system, u=solution.u, alpha=solution.alpha, block_range=1
        )
        assert rebuilt.values == cocycle.values
        if solution.degenerate is None:
            assert solution.alpha == alpha
        assert brute_solution_check(system, cocycle, solution, samples=50)


def test_degenerate_lattice_direction():
    z2 = build_group(GroupSpec.free_abelian(2))
    system = make_skew_system(FULL_2, z2, ((1, 0), (-1, 0)))
    # The second coordinate of alpha never meets a cycle weight, so the
    # declared value 5 is unobservable and the solver pins it to zero.
    cocycle = generate_cocycle(
        system, alpha=(Fraction(1, 3), Fraction(5)), block_range=1, seed=4
    )
    solution = solve_free_abelian(system, cocycle)
    assert solution.alpha == (Fraction(1, 3), Fraction(0))
    report = solution.degenerate
    assert report is not None
    assert report.lattice_rank == 1
    assert report.lattice_diagonal == (1,)
    assert report.pinned_coordinates == (1,)
    assert solution.certificate.certified


def test_equal_weight_pair_certificate():
    system = make_skew_system(FULL_2, Z1, ((1,), (1,)))
    values = {(1, 1): "0", (1, 2): "0", (2, 1): "0", (2, 2): "1"}
    cocycle = make_cocycle(FULL_2, 1, values)
    # Drift kills every closed word of trivial weight, so no single-word
    # witness can exist even though the cohomological equation fails.
    assert enumerate_trivial_class_orbits(system, 8) == []
    with pytest.raises(CocycleObstruction) as err:
        solve_free_abelian(system, cocycle)
    pair = err.value.witness
    assert isinstance(pair, EqualWeightPair)
    assert psi_n_cyclic(system, pair.word_a) == pair.weight
    assert psi_n_cyclic(system, pair.word_b) == pair.weight
    assert _cyclic_f_sum(cocycle, pair.word_a) == pair.sum_a
    assert _cyclic_f_sum(cocycle, pair.word_b) == pair.sum_b
    assert pair.sum_a != pair.sum_b


def test_solver_requires_transitivity():
    system = make_skew_system(FULL_2, C2, (0, 0))
    cocycle = generate_cocycle(system, block_range=1, seed=1)
    with pytest.raises(NotTransitiveError) as err:
        solve_finite_gamma(system, cocycle)
    (block_a, name_a), (block_b, name_b) = err.value.witness
    assert name_a != name_b


def test_lattice_solver_requires_strong_connectivity():
    reducible = SftSpec.from_rows([[1, 1], [0, 1]])
    system = make_skew_system(reducible, Z1, ((1,), (-1,)))
    values = {(1, 1): 0, (1, 2): 0, (2, 2): 0}
    cocycle = make_cocycle(reducible, 1, values)
    with pytest.raises(NotStronglyConnected):
        solve_free_abelian(system, cocycle)


def test_verify_solution_detects_tampering():
    system = _z1_system()
    cocycle = _solvable_cocycle()
    solution = solve_free_abelian(system, cocycle)
    tampered = CohomologySolution(
        block_length=solution.block_length,
        u={(1,): solution.u[(1,)], (2,): solution.u[(2,)] + 1},
        alpha=solution.alpha,
    )
    report = verify_solution(system, cocycle, tampered)
    assert not report.certified
    assert report.edges_checked == 4
    assert len(report.failures) > 0
    for word, residual in report.failures:
        assert residual != 0
    assert not brute_solution_check(system, cocycle, tampered, samples=20)


def test_verify_solution_shape_checks():
    system = _z1_system()
    cocycle = _solvable_cocycle()
    solution = solve_free_abelian(system, cocycle)
    wrong_rank = CohomologySolution(
        block_length=1, u=solution.u, alpha=(Fraction(1), Fraction(2))
    )
    with pytest.raises(DimensionMismatch):
        verify_solution(system, cocycle, wrong_rank)
    wrong_block = CohomologySolution(block_length=2, u=solution.u, alpha=solution.alpha)
    with pytest.raises(DimensionMismatch):
        verify_solution(system, cocycle, wrong_block)

    finite_system = make_skew_system(FULL_2, C2, (1, 0))
    finite_cocycle = generate_cocycle(finite_system, block_range=1, seed=2)
    finite_solution = solve_finite_gamma(finite_system, finite_cocycle)
    bad_alpha = CohomologySolution(
        block_length=1, u=finite_solution.u, alpha=(Fraction(1),)
    )
    with pytest.raises(TorsionAlpha):
        verify_solution(finite_system, finite_cocycle, bad_alpha)


def test_generate_cocycle_validation():
    system = make_skew_system(FULL_2, C2, (1, 0))
    with pytest.raises(InvalidCocycle):
        generate_cocycle(system, block_range=0, seed=1)
    with pytest.raises(InvalidCocycle):
        generate_cocycle(system, block_range=1)
    with pytest.raises(TorsionAlpha):
        generate_cocycle(system, alpha=(Fraction(1),), block_range=1, seed=1)
    with pytest.raises(InvalidCocycle):
        generate_cocycle(system, u={(1,): 0}, block_range=1)

    lattice = _z1_system()
    with pytest.raises(DimensionMismatch):
        generate_cocycle(lattice, alpha=(1, 2), block_range=1, seed=1)


def test_generated_values_follow_the_formula():
    rng = rng_for(41, 0)
    system = _z1_system()
    u = {(1,): random_rational(rng), (2,): random_rational(rng)}
    alpha = (random_rational(rng),)
    cocycle = generate_cocycle(system, u=u, alpha=alpha, block_range=1)
    for word, value in cocycle.values.items():
        expected = u[word[1:]] - u[word[:-1]] + alpha[0] * system.psi_of(word[0])[0]
        assert value == expected


def test_alpha_is_zero_property():
    base = {(1,): Fraction(0), (2,): Fraction(0)}
    assert CohomologySolution(block_length=1, u=base, alpha=None).alpha_is_zero
    assert CohomologySolution(
        block_length=1, u=base, alpha=(Fraction(0),)
    ).alpha_is_zero
    assert not CohomologySolution(
        block_length=1, u=base, alpha=(Fraction(1, 2),)
    ).alpha_is_zero


_UNCERTIFIED_UNDER_O = r"""
import json
import livsic.abelian as abelian
import livsic.matrix as matrix
from livsic import InvariantViolation, parse_system_document

assert False, "this script must run under python -O"

abelian.verify_solution = lambda *a, **k: abelian.VerificationReport(
    certified=False, edges_checked=0, failures=()
)
matrix.verify_matrix_solution = lambda *a, **k: matrix.MatrixVerificationReport(
    certified=False, edges_checked=0, max_residual=0.0, hom_defect=0.0,
    centrality_defect=0.0, tol=0.0,
)
for name, solve in (
    ("gm-c2.json", abelian.solve_finite_gamma),
    ("full2-z.json", abelian.solve_free_abelian),
    ("full2-c2-halfturn.json", matrix.solve_matrix_finite),
):
    with open(EXAMPLES + "/" + name) as fh:
        env = parse_system_document(json.load(fh))
    try:
        solve(env.system, env.cocycle)
        print(name, "returned")
    except InvariantViolation:
        print(name, "raised")
"""


def test_uncertified_solution_raises_under_python_O():
    root = Path(__file__).resolve().parent.parent
    script = f"EXAMPLES = {str(root / 'docs' / 'examples')!r}\n" + _UNCERTIFIED_UNDER_O
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "gm-c2.json raised",
        "full2-z.json raised",
        "full2-c2-halfturn.json raised",
        "",
    ]


_FULL4_Z_R5 = r"""
import resource
from fractions import Fraction
from livsic import GroupSpec, SftSpec, build_group, generate_cocycle, make_skew_system
from livsic import solve_free_abelian

system = make_skew_system(
    SftSpec.full_shift(4), build_group(GroupSpec.free_abelian(1)), ((1,), (-2,), (3,), (0,))
)
cocycle = generate_cocycle(system, alpha=(Fraction(2, 7),), block_range=5, seed=5)
solution = solve_free_abelian(system, cocycle)
print(len(solution.u), solution.alpha == (Fraction(2, 7),), solution.certificate.certified)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_full4_z_r5_solves_in_little_memory():
    # 1 024 blocks and 3 073 non-tree rows: a dense row-provenance matrix
    # would hold about 9.4 million Fractions (over 500 MB).
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _FULL4_Z_R5], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    summary, peak_kib = proc.stdout.split("\n")[:2]
    assert summary == "1024 True True"
    assert int(peak_kib) < 200 * 1024


def _reference_closing_walk(system, bg, target):
    """The per-edge lattice BFS that _closing_walk must reproduce exactly."""
    d = system.group.rank
    bound = max(8, 2 * max(abs(x) for x in target) if any(target) else 8)
    start = (0, (0,) * d)
    goal = (0, tuple(target))
    if start == goal:
        return []
    prev: dict = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        v, off = state
        for e in bg.out_edges[v]:
            h = bg.edge_head[e]
            step = system.psi_of(bg.edges[e][0])
            noff = tuple(a + b for a, b in zip(off, step))
            if any(abs(x) > bound for x in noff):
                continue
            nstate = (h, noff)
            if nstate in prev:
                continue
            prev[nstate] = (state, e)
            if nstate == goal:
                walk = []
                while prev[nstate] is not None:
                    nstate, edge = prev[nstate]
                    walk.append(edge)
                walk.reverse()
                return walk
            if len(prev) > abelian.DEFAULT_MAX_STATES:
                return None
            queue.append(nstate)
    return None


def _closing_walk_cases():
    """Seeded (system, block graph, target) over Z, Z^2, Z^3 on full and sparse shifts."""
    cases = []
    for seed in range(12):
        rng = rng_for(53, seed)
        d = 1 + seed % 3
        k = rng.randint(2, 3)
        spec = SftSpec.full_shift(k) if seed % 2 else random_irreducible_sft(rng, k)
        group = build_group(GroupSpec.free_abelian(d))
        if seed % 4 == 3:
            # Even steps only: every odd target is unreachable.
            psi = [tuple(2 * rng.randint(-1, 1) for _ in range(d)) for _ in range(k)]
        else:
            psi = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        system = make_skew_system(spec, group, psi)
        bg = build_block_graph(spec, rng.randint(1, 2))
        targets = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(3)]
        targets.append((1,) + (0,) * (d - 1))
        targets.append((0,) * d)
        # Weights of closed walks at block 0: random steps, then the way home.
        home = SpanningTree(bg).next_edge
        for _ in range(3):
            v, walk = 0, []
            for _ in range(rng.randint(1, 6)):
                walk.append(rng.choice(bg.out_edges[v]))
                v = bg.edge_head[walk[-1]]
            while home[v] is not None:
                walk.append(home[v])
                v = bg.edge_head[walk[-1]]
            steps = [system.psi_of(bg.edges[e][0]) for e in walk]
            targets.append(tuple(map(sum, zip(*steps))))
        cases.extend((system, bg, t) for t in targets)
    return cases


def test_closing_walk_matches_per_edge_bfs():
    found = missing = 0
    for system, bg, target in _closing_walk_cases():
        walk = abelian._closing_walk(system, bg, target)
        assert walk == _reference_closing_walk(system, bg, target), target
        if walk is None:
            missing += 1
            continue
        found += 1
        assert all(bg.edge_head[a] == bg.edge_tail[b] for a, b in zip(walk, walk[1:]))
        if walk:
            assert bg.edge_tail[walk[0]] == 0 == bg.edge_head[walk[-1]]
        total = [0] * system.group.rank
        for e in walk:
            total = [a + b for a, b in zip(total, system.psi_of(bg.edges[e][0]))]
        assert tuple(total) == target
    assert found and missing


def test_closing_walk_matches_per_edge_bfs_under_a_small_state_cap(monkeypatch):
    monkeypatch.setattr(abelian, "DEFAULT_MAX_STATES", 40)
    outcomes = set()
    for system, bg, target in _closing_walk_cases():
        walk = abelian._closing_walk(system, bg, target)
        assert walk == _reference_closing_walk(system, bg, target), target
        outcomes.add(walk is None)
    assert outcomes == {True, False}


def _primes_from(n: int, count: int) -> list[int]:
    primes = []
    while len(primes) < count:
        if all(n % q for q in range(2, isqrt(n) + 1)):
            primes.append(n)
        n += 1
    return primes


def test_exact_under_a_denominator_lcm_above_2_64():
    full3 = SftSpec.full_shift(3)
    s3 = s3_group()
    s3_psi = (s3.element_by_name("s"), s3.element_by_name("r"), s3.identity)
    cases = [
        (make_skew_system(full3, Z1, ((1,), (-1,), (0,))), solve_free_abelian),
        (make_skew_system(full3, C2, (1, 0, 0)), solve_finite_gamma),
        (make_skew_system(full3, s3, s3_psi), solve_finite_gamma),
    ]
    primes = _primes_from(999_000, 11)
    for system, solve in cases:
        bg = build_block_graph(full3, 2)
        u = {b: Fraction(i + 1, p) for i, (b, p) in enumerate(zip(bg.vertices, primes))}
        alpha = (Fraction(3, primes[9]),) if system.group.rank else None
        cocycle = generate_cocycle(system, u=u, alpha=alpha, block_range=2)
        assert lcm(*(x.denominator for x in cocycle.values.values())) > 2**64
        solution = solve(system, cocycle)
        assert solution.certificate.certified
        rebuilt = generate_cocycle(
            system, u=solution.u, alpha=solution.alpha, block_range=2
        )
        assert rebuilt.values == cocycle.values

        values = dict(cocycle.values)
        values[(1, 2, 3)] += Fraction(1, primes[10])
        perturbed = make_cocycle(full3, 2, values)
        with pytest.raises(CocycleObstruction) as err:
            solve(system, perturbed)
        witness = err.value.witness
        assert isinstance(witness, ViolationWitness)
        assert witness.total != 0
        assert witness.total == witness.multiplicity * birkhoff_sum(
            perturbed, witness.orbit
        )
        assert psi_n_cyclic(system, witness.word) == system.group.identity
        assert pickle.loads(pickle.dumps(witness)) == witness
