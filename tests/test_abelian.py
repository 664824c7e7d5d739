"""Exact rational cohomology: solutions, obstructions, degenerate lattices."""
from __future__ import annotations

import os
import pickle
import subprocess
import sys
from collections import deque
from dataclasses import replace
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import pytest

import livsic.abelian as abelian
import livsic.groups as groups
import livsic.skew as skew
from launcher import launch
from livsic import (
    CocycleObstruction,
    CohomologySolution,
    DimensionMismatch,
    EqualWeightPair,
    GroupSpec,
    InvalidCocycle,
    NotStronglyConnected,
    NotTransitiveError,
    RangeTooLarge,
    SftSpec,
    TorsionAlpha,
    ViolationWitness,
    brute_solution_check,
    brute_vanishing,
    build_block_graph,
    build_group,
    enumerate_periodic_orbits,
    generate_cocycle,
    make_cocycle,
    make_skew_system,
    orbit_weights,
    parse_system_document,
    solve_finite_gamma,
    solve_free_abelian,
    verify_solution,
    verify_vanishing,
)
from corpus import (
    check_elimination,
    cover_corpus,
    cyclic_weight,
    orbit_sum,
    perturb_one_value,
    product_scc_witness,
    random_alpha,
    random_irreducible_sft,
    random_lattice_system,
    random_rational,
    random_transitive_system,
    rng_for,
    s3_group,
    trivial_orbit_words,
)
from livsic.errors import max_states_cap
from mutation_gate import edited, example
from livsic.sft import SpanningTree
from livsic.skew import build_product_graph

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


def test_the_witness_walks_are_bounded_before_they_are_built():
    # Over Z^2 the witness repeats tree walks by elimination coefficients,
    # which grow with psi: past the work budget in edges it is refused
    # before a walk is repeated.  A psi entry of 10^5 still answers.
    def solve(psi):
        doc = edited(example("full3-z2.json"), [(("psi", 0, 0), psi)])
        envelope = parse_system_document(doc)
        solve_free_abelian(envelope.system, envelope.cocycle)

    for psi, edges in ((10**7, 59_999_999), (10**30, 6 * 10**30 - 1)):
        message = f"^the inconsistency's witness walks, {edges} edges, exceed the work budget"
        with pytest.raises(RangeTooLarge, match=message):
            solve(psi)
    with pytest.raises(CocycleObstruction) as err:
        solve(10**5)
    assert isinstance(err.value.witness, EqualWeightPair)


def test_verify_vanishing_matches_solver_verdicts():
    system = _z1_system()
    assert verify_vanishing(system, _solvable_cocycle(), 8) is None
    values = {(1, 1): "1", (1, 2): "3/2", (2, 1): "-3/2", (2, 2): "-1/2"}
    bad = make_cocycle(FULL_2, 1, values)
    found = verify_vanishing(system, bad, 8)
    assert found is not None
    assert _cyclic_f_sum(bad, found.word) == found.total != 0
    assert cyclic_weight(system, found.word) == (0,)


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
    assert trivial_orbit_words(system, 8) == []
    with pytest.raises(CocycleObstruction) as err:
        solve_free_abelian(system, cocycle)
    pair = err.value.witness
    assert isinstance(pair, EqualWeightPair)
    assert cyclic_weight(system, pair.word_a) == pair.weight
    assert cyclic_weight(system, pair.word_b) == pair.weight
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
    missing_block = CohomologySolution(
        block_length=1, u={(1,): solution.u[(1,)]}, alpha=solution.alpha
    )
    with pytest.raises(DimensionMismatch):
        verify_solution(system, cocycle, missing_block)

    finite_system = make_skew_system(FULL_2, C2, (1, 0))
    finite_cocycle = generate_cocycle(finite_system, block_range=1, seed=2)
    finite_solution = solve_finite_gamma(finite_system, finite_cocycle)
    bad_alpha = CohomologySolution(
        block_length=1, u=finite_solution.u, alpha=(Fraction(1),)
    )
    with pytest.raises(TorsionAlpha):
        verify_solution(finite_system, finite_cocycle, bad_alpha)


def test_a_cocycle_over_another_shift_is_refused():
    # Each entry point used to die with a bare KeyError from the window lookup.
    golden_mean = SftSpec.from_rows([[1, 1], [1, 0]])
    cocycle = make_cocycle(golden_mean, 1, {(1, 1): 1, (1, 2): -1, (2, 1): 0})
    on_three = make_cocycle(SftSpec.full_shift(3), 0, {(1,): 0, (2,): 0, (3,): 0})
    solution = CohomologySolution(1, {(1,): Fraction(0), (2,): Fraction(0)}, None)
    calls = {
        "solve_finite_gamma": solve_finite_gamma,
        "solve_free_abelian": solve_free_abelian,
        "verify_vanishing": lambda s, c: verify_vanishing(s, c, 6),
        "verify_solution": lambda s, c: verify_solution(s, c, solution),
    }
    for system in (make_skew_system(FULL_2, C2, (0, 1)), _z1_system()):
        for name, call in calls.items():
            with pytest.raises(InvalidCocycle, match=(
                r"cocycle transition matrix \(\(1, 1\), \(1, 0\)\) differs from "
                r"the system's \(\(1, 1\), \(1, 1\)\)$"
            )):
                call(system, cocycle)
            with pytest.raises(InvalidCocycle, match="over 3 symbols but the system is over 2$"):
                call(system, on_three)


def test_malformed_rationals_are_invalid_cocycles():
    # "1/0" used to escape as ZeroDivisionError, "one" as ValueError, and a
    # bool was read as 0 or 1.
    lattice, finite = _z1_system(), make_skew_system(FULL_2, C2, (1, 0))
    blocks = build_block_graph(FULL_2, 1).vertices
    u = {block: Fraction(0) for block in blocks}
    zero = make_cocycle(FULL_2, 1, {(a, b): 0 for a in (1, 2) for b in (1, 2)})
    for bad in ("1/0", "one", "", True, False, 0.5, None):
        with pytest.raises(InvalidCocycle):
            make_cocycle(FULL_2, 0, {(1,): bad, (2,): 1})
        with pytest.raises(InvalidCocycle):
            generate_cocycle(lattice, u={**u, blocks[0]: bad}, block_range=1)
        for system in (lattice, finite):
            with pytest.raises(InvalidCocycle):
                generate_cocycle(system, alpha=(bad,), block_range=1, seed=1)
            with pytest.raises(InvalidCocycle):
                verify_solution(system, zero, CohomologySolution(1, u, (bad,)))
    assert make_cocycle(FULL_2, 0, {(1,): "-3/4", (2,): 2}).values[(1,)] == Fraction(-3, 4)


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

abelian._check_edges = lambda *a, **k: abelian.VerificationReport(
    certified=False, edges_checked=0, failures=()
)
matrix._check_solution = lambda *a, **k: matrix.MatrixVerificationReport(
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
from fractions import Fraction
from livsic import GroupSpec, SftSpec, build_group, generate_cocycle, make_skew_system
from livsic import solve_free_abelian

system = make_skew_system(
    SftSpec.full_shift(4), build_group(GroupSpec.free_abelian(1)), ((1,), (-2,), (3,), (0,))
)
cocycle = generate_cocycle(system, alpha=(Fraction(2, 7),), block_range=5, seed=5)
solution = solve_free_abelian(system, cocycle)
print(len(solution.u), solution.alpha == (Fraction(2, 7),), solution.certificate.certified)
"""


def test_full4_z_r5_solves_in_little_memory(tmp_path):
    # 1 024 blocks and 3 073 non-tree rows: a dense row-provenance matrix
    # would hold about 9.4 million Fractions (over 500 MB).  The launcher
    # reads the solve's own peak, not this process's.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    usage = launch(
        [sys.executable, "-c", _FULL4_Z_R5], out, err,
        address_space=1 << 32, wall_s=60.0, env=env,
    )
    assert usage["code"] == 0, err.read_text()
    assert out.read_text() == "1024 True True\n"
    assert usage["rss_kib"] < 200 * 1024


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
            if len(prev) > max_states_cap():
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
    # The cap counts (symbol, offset) states here and (block, offset)
    # states in the reference, so under a small cap the reference may give
    # up where _closing_walk still finds the walk: it must then be the one
    # the reference finds without the cap.
    cases = _closing_walk_cases()
    uncapped = [_reference_closing_walk(*case) for case in cases]
    monkeypatch.setenv("LIVSIC_MAX_STATES", "40")
    outcomes = set()
    newly_found = 0
    for (system, bg, target), full in zip(cases, uncapped):
        walk = abelian._closing_walk(system, bg, target)
        reference = _reference_closing_walk(system, bg, target)
        if reference is not None:
            assert walk == reference, target
        else:
            assert walk is None or walk == full, target
            newly_found += walk is not None
        outcomes.add(walk is None)
    assert outcomes == {True, False}
    assert newly_found


def _one_shot_closing_walk(system, bg, target):
    """The one-shot (symbol, offset) search that _closing_walk's kept boxes
    must reproduce: a fresh breadth-first search per call that returns at
    the first goal discovered and gives up once a state that is not the
    goal takes it past the cap."""
    target = tuple(target)
    if not any(target):
        return []
    spec, cap = bg.spec, max_states_cap()
    bound = max(8, 2 * max(map(abs, target)))
    b0 = bg.vertices[0]
    r = len(b0)
    off = (0,) * len(target)
    for n, a in enumerate(b0, 1):
        off = tuple(x + y for x, y in zip(off, system.psi_of(a)))
        if max(off) > bound or min(off) < -bound:
            return None
        if n < r and off == target and b0[n:] == b0[:-n]:
            return abelian._edge_walk(bg, b0[r - n :])
    if off == target and spec.allows(b0[-1], b0[0]):
        return abelian._edge_walk(bg, b0)
    start = (b0[-1], off)
    prev = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        a, off = state
        for b in spec.successors(a):
            step = tuple(x + y for x, y in zip(off, system.psi_of(b)))
            nstate = (b, step)
            if max(step) > bound or min(step) < -bound or nstate in prev:
                continue
            prev[nstate] = state
            if step == target and spec.allows(b, b0[0]):
                z = []
                while nstate != start:
                    z.append(nstate[0])
                    nstate = prev[nstate]
                return abelian._edge_walk(bg, z[::-1] + list(b0))
            if len(prev) > cap:
                return None
            queue.append(nstate)
    return None


def test_the_box_memo_answers_as_a_fresh_search(monkeypatch):
    # Every case, twice over in a seeded shuffled order, through one shared
    # memo of boxes, the cap switching between 40 and the default: each
    # answer is the one the same call makes on an emptied memo.  After
    # every call the memo holds at most the cap in states, as read by the
    # last call that searched (a call that closes its walk within b0 reads
    # no box); a searched box within the cap is kept as the newest and one
    # past it is not kept.
    cases = _closing_walk_cases()
    caps = ("40", None)

    def with_cap(cap):
        if cap is None:
            monkeypatch.delenv("LIVSIC_MAX_STATES", raising=False)
        else:
            monkeypatch.setenv("LIVSIC_MAX_STATES", cap)

    fresh = {}
    for cap in caps:
        with_cap(cap)
        for i, case in enumerate(cases):
            abelian._BOXES.clear()
            fresh[i, cap] = abelian._closing_walk(*case)
            assert fresh[i, cap] == _one_shot_closing_walk(*case), (i, cap)
    searched = []
    search = abelian._Box.search

    def spy(box, target, cap):
        searched.append(box)
        return search(box, target, cap)

    monkeypatch.setattr(abelian._Box, "search", spy)
    rng = rng_for(67, 0)
    calls = [(i, rng.choice(caps)) for i in range(len(cases))] * 2
    rng.shuffle(calls)
    abelian._BOXES.clear()
    memo, seen = abelian._BOXES, []
    kept = dropped = resumed = last_cap = 0
    for i, cap in calls:
        with_cap(cap)
        searched.clear()
        assert abelian._closing_walk(*cases[i]) == fresh[i, cap], (i, cap)
        held = list(memo.held.values())
        if searched:
            last_cap = max_states_cap()
        assert memo.states == sum(len(box.prev) for box in held) <= last_cap
        if searched:
            (box,) = searched
            resumed += any(box is old for old in seen)
            seen.append(box)
            if len(box.prev) > max_states_cap():
                assert box not in held
                dropped += 1
            else:
                assert held[-1] is box
                kept += 1
    assert kept and dropped and resumed
    assert {walk is None for walk in fresh.values()} == {True, False}


def test_a_kept_box_keeps_the_cap_of_a_one_shot_search(monkeypatch):
    # For every cap from 48 down to 1, with one shared memo warmed under
    # the default cap, every case gets the one-shot search's answer: a
    # goal counts only when at most cap states were discovered before it,
    # whether the box was kept from a larger cap or crosses this one
    # while it expands a state.
    cases = _closing_walk_cases()
    abelian._BOXES.clear()
    for case in cases:
        abelian._closing_walk(*case)
    outcomes = set()
    for cap in range(48, 0, -1):
        monkeypatch.setenv("LIVSIC_MAX_STATES", str(cap))
        for i, case in enumerate(cases):
            walk = abelian._closing_walk(*case)
            assert walk == _one_shot_closing_walk(*case), (i, cap)
            outcomes.add(walk is None)
    assert outcomes == {True, False}


def _closed_walk_weight(system, bg, walk) -> tuple[int, ...]:
    """Weight of a walk of bg that must start and end at block 0."""
    assert all(bg.edge_head[a] == bg.edge_tail[b] for a, b in zip(walk, walk[1:]))
    assert bg.edge_tail[walk[0]] == 0 == bg.edge_head[walk[-1]]
    steps = [system.psi_of(bg.edges[e][0]) for e in walk]
    return tuple(map(sum, zip(*steps)))


def test_closing_walk_finds_a_walk_whose_block_search_exceeds_the_cap():
    # Full 3-shift over Z^2 at r = 3: 27 blocks times 81^2 offsets is past
    # the state cap, 3 symbols times 81^2 is not.  Weight (20, -20) needs
    # n1 - n3 = 20 and n2 - n3 = -20, so at least 3 * 20 = 60 steps.
    spec = SftSpec.full_shift(3)
    system = make_skew_system(
        spec, build_group(GroupSpec.free_abelian(2)), ((1, 0), (0, 1), (-1, -1))
    )
    bg = build_block_graph(spec, 3)
    assert len(bg.vertices) * 81**2 > max_states_cap() > spec.k * 81**2
    walk = abelian._closing_walk(system, bg, (20, -20))
    assert len(walk) == 60
    assert _closed_walk_weight(system, bg, walk) == (20, -20)


def test_closing_walk_closes_a_periodic_first_block_in_fewer_than_r_steps():
    full = SftSpec.full_shift(2)
    # No 1 -> 1, so the first 3-block is (1, 2, 1), which has period 2.
    sparse = SftSpec.from_rows([[0, 1], [1, 1]])
    for spec, r, target, length in (
        (full, 3, (1,), 1),
        (full, 4, (2,), 2),
        (full, 3, (3,), 3),
        (full, 3, (-1,), 5),
        (sparse, 3, (-1,), 2),
        (sparse, 3, (-2,), 4),
    ):
        system = make_skew_system(spec, Z1, ((1,), (-2,)))
        bg = build_block_graph(spec, r)
        walk = abelian._closing_walk(system, bg, target)
        assert walk == _reference_closing_walk(system, bg, target)
        assert len(walk) == length, (spec, r, target)
        assert _closed_walk_weight(system, bg, walk) == target


def _reference_check_edges(system, cocycle, solution, bg):
    """The per-edge Fraction loop that _check_edges must agree with."""
    rf = cocycle.block_range
    u = solution.u
    drift = abelian._drift_table(system, abelian._alpha_vector(system.group, solution.alpha))
    failures = []
    for word in bg.edges:
        expected = u[word[1:]] - u[word[:-1]]
        if drift is not None:
            expected += drift[word[0] - 1]
        residual = cocycle.window_value(word[: rf + 1]) - expected
        if residual != 0:
            failures.append((word, residual))
    return not failures, len(bg.edges), tuple(failures)


def _golden_rational_cases(monkeypatch):
    """(solver, system, cocycle) for every exact-solver call of the golden corpus."""
    import test_golden_solvers as golden

    calls = []
    monkeypatch.setattr(golden, "_run", lambda *call: calls.append(call) or {})
    golden._finite_cases({})
    golden._lattice_cases({})
    return calls


def test_integer_edge_check_matches_the_fraction_loop(monkeypatch):
    calls = _golden_rational_cases(monkeypatch)
    checked = failing = 0
    for solver, system, cocycle in calls:
        try:
            solution = solver(system, cocycle)
        except CocycleObstruction:
            continue
        bg = build_block_graph(system.sft, solution.block_length)
        block = bg.vertices[-1]
        variants = [replace(solution, u={**solution.u, block: solution.u[block] + Fraction(1, 3)})]
        if solution.alpha is not None:
            alpha = (solution.alpha[0] - Fraction(2, 7), *solution.alpha[1:])
            variants.append(replace(solution, alpha=alpha))
        # The solution against its own cocycle and the perturbed copy.
        others = [c for _, s, c in calls if s is system and c.block_range == cocycle.block_range]
        for candidate in (solution, *variants):
            for target in others:
                report = abelian._check_edges(system, target, candidate, bg)
                expected = _reference_check_edges(system, target, candidate, bg)
                assert (report.certified, report.edges_checked, report.failures) == expected
                checked += 1
                failing += not report.certified
    assert checked > 300 and failing > 200


def test_the_solver_certificate_is_verify_solution(monkeypatch):
    # The solver certifies its own ints and verify_solution rescales the
    # Fractions it returns: both must give the one report.
    seen = 0
    for solver, system, cocycle in _golden_rational_cases(monkeypatch):
        try:
            solution = solver(system, cocycle)
        except CocycleObstruction:
            continue
        assert solution.certificate == verify_solution(system, cocycle, solution)
        seen += 1
    assert seen >= 40, seen


def _pivot_row_sets():
    """Seeded integer rows (psi part, defect) for d = 0 to 3.

    Half are consistent (defect = a . psi part) and half have one defect
    moved by 1, which dependent rows may still absorb; a third have a psi
    column that is a combination of the others, and half lead with rows of
    zero psi part.
    """
    sets = []
    for seed in range(240):
        rng = rng_for(59, seed)
        d, n = seed % 4, rng.randint(1, 12)
        psi = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
        if d and seed % 3 == 1:
            j, coef = rng.randrange(d), [rng.randint(-1, 1) for _ in range(d)]
            for row in psi:
                row[j] = sum(c * x for i, (c, x) in enumerate(zip(coef, row)) if i != j)
        if seed // 4 % 2:
            for row in psi[: rng.randint(1, n)]:
                row[:] = [0] * d
        a = [rng.randint(-3, 3) for _ in range(d)]
        defect = [sum(c * x for c, x in zip(a, row)) for row in psi]
        if seed // 8 % 2:
            defect[rng.randrange(n)] += rng.choice((-1, 1))
        sets.append(([(*row, b) for row, b in zip(psi, defect)], d))
    return sets


def test_pivot_rows_match_the_full_reduction():
    kinds = set()
    for rows, d in _pivot_row_sets():
        rank, consistent, swapped = check_elimination(rows, d)
        leading_zero = not any(rows[0][:d])
        kinds.add((d, consistent, rank < d, swapped, leading_zero))
    # Consistent and not, with and without swaps; rank-deficient at every
    # d >= 1; and sets led by a row of zero psi part.
    assert {(c, s) for _, c, _, s, _ in kinds} == {(a, b) for a in (0, 1) for b in (0, 1)}
    assert {(d, r) for d, _, r, _, _ in kinds} >= {(1, True), (2, True), (3, True), (3, False)}
    assert any(z and d for d, _, _, _, z in kinds)


def test_the_solver_pivots_at_most_d_times_on_at_most_d_rows(monkeypatch):
    # Full 4-shift over Z at r = 3 has 193 non-tree rows, the full 3-shift
    # over Z^2 at r = 4 has 163; the solver reduces only its pivot rows, at
    # most d pivots per cover, each on at most d rows, and explains an
    # inconsistent row without another pivot.  A second solve on the same
    # cover, certified or refuted, pivots on no row; once the cover memo is
    # emptied the cover's pivots are made again, and every answer is the
    # one the first cover gave.
    real = groups.bareiss_pivot
    sizes = []

    def spy(mat, r, col, prev):
        sizes.append(len(mat))
        return real(mat, r, col, prev)

    def answer(system, cocycle):
        try:
            return repr(solve_free_abelian(system, cocycle))
        except CocycleObstruction as err:
            return repr(err.witness)

    monkeypatch.setattr(groups, "bareiss_pivot", spy)
    z2 = build_group(GroupSpec.free_abelian(2))
    cases = (
        (make_skew_system(SftSpec.full_shift(2), s3_group(), (1, 2)), 3, 9),
        (make_skew_system(SftSpec.full_shift(4), Z1, ((1,), (-2,), (3,), (0,))), 3, 193),
        (make_skew_system(SftSpec.full_shift(3), z2, ((1, 0), (0, 1), (-1, -1))), 4, 163),
    )
    for seed, (system, r, nontree) in enumerate(cases):
        rng = rng_for(61, seed)
        d = system.group.rank
        bg = build_block_graph(system.sft, r)
        assert len(bg.edges) - len(bg.vertices) + 1 == nontree
        cocycle = generate_cocycle(
            system, alpha=random_alpha(rng, d), block_range=r, seed=seed
        )
        bad = perturb_one_value(cocycle, rng)[0]
        answers = []
        for order in ((cocycle, bad, cocycle), (bad, cocycle, bad)):
            skew._COVERS.clear()
            for i, c in enumerate(order):
                sizes.clear()
                answers.append((c is bad, answer(system, c)))
                if i or not d:
                    assert sizes == [], (i, sizes)
                else:
                    assert 0 < len(sizes) <= d and max(sizes) <= d, sizes
        solved = [a.startswith("CohomologySolution(") for _, a in answers[:2]]
        assert solved == [True, False] and "certified=True" in answers[0][1]
        assert len(set(answers)) == 2, answers


def test_a_cocycle_built_or_unpickled_out_of_window_order_gives_the_same_answer():
    # The solvers read f's numerators by position in make_cocycle's
    # WindowNumerators, which lists them in window order.  A cocycle record
    # built directly with a plain dict, in window order or another, or
    # unpickled from one that held its numerators reversed, is read by
    # window, so its solve and its verification are make_cocycle's.
    cls = abelian.LocallyConstantCocycle
    z2 = build_group(GroupSpec.free_abelian(2))
    cases = (
        (make_skew_system(SftSpec.full_shift(2), s3_group(), (1, 2)), 3),
        (make_skew_system(SftSpec.full_shift(3), Z1, ((1,), (-2,), (0,))), 0),
        (make_skew_system(SftSpec.full_shift(3), Z1, ((1,), (-2,), (0,))), 2),
        (make_skew_system(SftSpec.full_shift(3), z2, ((1, 0), (0, 1), (-1, -1))), 1),
    )

    def answer(system, cocycle):
        try:
            solution = solve_free_abelian(system, cocycle)
        except CocycleObstruction as err:
            return repr(err.witness)
        return repr((solution, verify_solution(system, cocycle, solution)))

    for seed, (system, rf) in enumerate(cases):
        rng = rng_for(67, seed)
        d = system.group.rank
        alpha = random_alpha(rng, d)
        if rf:
            cocycle = generate_cocycle(system, alpha=alpha, block_range=rf, seed=seed)
        else:  # f = alpha(psi) on 1-blocks
            psi = [system.psi_of(a) for a in range(1, system.sft.k + 1)]
            values = {(a,): sum(map(Fraction.__mul__, alpha, p)) for a, p in enumerate(psi, 1)}
            cocycle = make_cocycle(system.sft, 0, values)
        for c in (cocycle, perturb_one_value(cocycle, rng)[0]):
            fields = [getattr(c, name) for name in cls._fields]
            fields[cls._fields.index("numerators")] = dict(reversed(c.numerators.items()))
            built = cls(*fields)
            # A record as an older build pickled it: numerators out of order.
            old = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                object.__setattr__(old, name, value)
            unpickled = pickle.loads(pickle.dumps(old))
            fields[cls._fields.index("numerators")] = dict(c.numerators)
            plain = cls(*fields)
            for other in (built, unpickled, plain):
                assert other == c and type(other.numerators) is dict
                assert answer(system, other) == answer(system, c)
            assert list(built.numerators) == list(reversed(c.numerators))


def test_lattice_witnesses_are_one_lift_of_a_zero_weight_walk(monkeypatch):
    # The lift of a walk of zero Z^d weight closes at once (F is trivial)
    # and its trimmed cycle is primitive, so the multiplicity is 1.
    seen = 0
    for solver, system, cocycle in _golden_rational_cases(monkeypatch):
        if system.group.is_finite:
            continue
        try:
            solver(system, cocycle)
        except CocycleObstruction as err:
            witness = err.witness
            if isinstance(witness, EqualWeightPair):
                continue
            word = witness.word
            assert system.sft.is_admissible(word, cyclic=True), word
            assert cyclic_weight(system, word) == (0,) * system.group.rank, word
            assert witness.multiplicity == 1, word
            assert witness.total != 0 and witness.total == _cyclic_f_sum(cocycle, word)
            seen += 1
    assert seen >= 25, seen


class _NoArithmetic(Fraction):
    """A Fraction whose arithmetic operators raise."""

    def _refuse(self, *args):
        raise AssertionError("Fraction arithmetic in the edge check")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __neg__ = __pos__ = __abs__ = _refuse


def test_integer_edge_check_does_no_fraction_arithmetic():
    z2 = build_group(GroupSpec.free_abelian(2))
    lattice = make_skew_system(SftSpec.full_shift(3), z2, ((1, 0), (0, 2), (-1, 1)))
    for system, alpha in (
        (lattice, (Fraction(2, 3), Fraction(-5, 4))),
        (make_skew_system(FULL_2, C2, (1, 0)), None),
    ):
        cocycle = generate_cocycle(system, alpha=alpha, block_range=2, seed=11)
        solution = solve_free_abelian(system, cocycle)
        inert = CohomologySolution(
            block_length=solution.block_length,
            u={block: _NoArithmetic(x) for block, x in solution.u.items()},
            alpha=None if alpha is None else tuple(map(_NoArithmetic, solution.alpha)),
        )
        with pytest.raises(AssertionError, match="Fraction arithmetic"):
            inert.u[(1, 1)] - inert.u[(1, 2)]
        bg = build_block_graph(system.sft, solution.block_length)
        report = abelian._check_edges(system, cocycle, inert, bg)
        assert report.certified and report.edges_checked == len(bg.edges)
        assert verify_solution(system, cocycle, inert).certified


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
        assert witness.total == witness.multiplicity * orbit_sum(perturbed, witness.orbit.word)
        assert cyclic_weight(system, witness.word) == system.group.identity
        assert pickle.loads(pickle.dumps(witness)) == witness

        # The integer folds over a denominator above 2**64 agree with
        # Fraction folds, and the cocycles pickle whole.
        for orbit in enumerate_periodic_orbits(full3, 5):
            assert orbit_sum(perturbed, orbit.word) == _cyclic_f_sum(perturbed, orbit.word)
        for f in (cocycle, perturbed):
            found = verify_vanishing(system, f, 6)
            assert _as_pair(found) == _first_fraction_violation(system, f, 6)
            assert pickle.loads(pickle.dumps(f)) == f
        assert verify_vanishing(system, cocycle, 6) is None


def _first_fraction_violation(system, cocycle, max_period):
    """(word, sum) of the first identity-weight orbit, in (period, word)
    order, whose sum as a Fraction fold is nonzero, or None."""
    identity = system.group.identity
    for word, weight in orbit_weights(system, max_period):
        if weight == identity:
            total = _cyclic_f_sum(cocycle, word)
            if total:
                return word, total
    return None


def _as_pair(witness):
    return None if witness is None else (witness.orbit.word, witness.total)


def test_integer_folds_agree_with_fraction_folds():
    outcomes = {"vanishing": 0, "violated": 0}
    for i in range(24):
        rng = rng_for(28, 100 + i)
        if i % 2:
            system = random_transitive_system(rng, (2, 3))
        else:
            system = random_lattice_system(rng, 1 + i % 4 // 2, (2, 3))
        spec, rf = system.sft, rng.randint(0, 3)
        windows = build_block_graph(spec, rf + 1).vertices
        dens = (1, 2, 3, 7, 12, 97)
        values = {w: Fraction(rng.randint(-30, 30), rng.choice(dens)) for w in windows}
        drawn = make_cocycle(spec, rf, values)
        assert drawn.denominator == lcm(*(x.denominator for x in values.values()))
        assert drawn.numerators == {w: x * drawn.denominator for w, x in values.items()}
        assert all(type(x) is int for x in drawn.numerators.values())
        coboundary = generate_cocycle(system, block_range=max(rf, 1), seed=i)
        perturbed = perturb_one_value(coboundary, rng)[0]
        for f in (drawn, coboundary, perturbed):
            for orbit in enumerate_periodic_orbits(spec, 6):
                total = orbit_sum(f, orbit.word)
                assert type(total) is Fraction
                assert total == _cyclic_f_sum(f, orbit.word)
            found = verify_vanishing(system, f, 6)
            assert _as_pair(found) == _first_fraction_violation(system, f, 6)
            outcomes["vanishing" if found is None else "violated"] += 1
            # pickle and == see the derived fields through values alone.
            assert pickle.loads(pickle.dumps(f)) == f
            assert make_cocycle(spec, f.block_range, {w: str(x) for w, x in f.values.items()}) == f
        assert verify_vanishing(system, coboundary, 6) is None
        assert perturbed != coboundary
    assert min(outcomes.values()) >= 10, outcomes


def _corner_shifts():
    """Full 2- and 3-shifts and seeded sparse irreducible shifts."""
    shifts = [SftSpec.full_shift(2), SftSpec.full_shift(3)]
    shifts += [random_irreducible_sft(rng_for(43, i), 2 + i % 3) for i in range(6)]
    return shifts


def test_free_abelian_product_graph_is_the_block_graph():
    for i, sft in enumerate(_corner_shifts()):
        d = 1 + i % 2
        group = build_group(GroupSpec.free_abelian(d))
        system = make_skew_system(sft, group, [(s,) * d for s in range(sft.k)])
        for r in (1, 2):
            pg = build_product_graph(system, r)
            bg = build_block_graph(sft, r)
            assert pg.order == 1 and pg.base == bg
            assert pg.edge_tail == bg.edge_tail
            assert pg.edge_head == bg.edge_head
            assert pg.out_edges == bg.out_edges


def test_trivial_group_and_flat_lattice_corners_agree():
    c1 = build_group(GroupSpec.cyclic(1))
    for i, sft in enumerate(_corner_shifts()):
        finite = make_skew_system(sft, c1, (0,) * sft.k)
        flat = make_skew_system(sft, Z1, ((0,),) * sft.k)
        r = 1 + i % 2
        cocycle = generate_cocycle(finite, block_range=r, seed=i)
        a = solve_finite_gamma(finite, cocycle)
        b = solve_free_abelian(flat, cocycle)
        assert a.u == b.u
        assert a.alpha is None and b.alpha == (Fraction(0),)
        # No cycle weight sees the lattice, so alpha is pinned, not solved.
        assert b.degenerate == abelian.DegenerateReport(
            lattice_rank=0, lattice_diagonal=(), pinned_coordinates=(0,)
        )

        perturbed, _, _ = perturb_one_value(cocycle, rng_for(43, i))
        for system, solve in ((finite, solve_finite_gamma), (flat, solve_free_abelian)):
            with pytest.raises(CocycleObstruction) as err:
                solve(system, perturbed)
            witness = err.value.witness
            assert isinstance(witness, ViolationWitness)
            assert witness.total != 0
            assert witness.total == witness.multiplicity * orbit_sum(perturbed, witness.orbit.word)


# ---------------------------------------------------------------------------
# Finite covers are solved on the block graph; the product graph, built
# here, is the reference.

_COVER_STATES = 4_000  # product states per case, to keep the corpus quick
_BRUTE_WORDS = 5_000  # cyclic words brute_vanishing may scan per witness


def _product_graph_u(pg, tree, cocycle):
    """u at (block, identity) of a Q-potential on the product graph, or None
    when some product edge does not close up (f is not a coboundary there)."""
    width = cocycle.block_range + 1
    f = [cocycle.values[pg.base.edges[e // pg.order][:width]] for e in range(len(pg.edge_tail))]
    pot = tree.potentials(Fraction(0), lambda e, p: p + f[e])
    if any(pot[t] + x != pot[h] for x, t, h in zip(f, pg.edge_tail, pg.edge_head)):
        return None
    identity = pg.system.group.identity_index
    return {block: pot[b * pg.order + identity] for b, block in enumerate(pg.base.vertices)}


def test_finite_covers_solve_on_the_block_graph_as_on_the_product_graph():
    counts = {"solved": 0, "refused": 0, "brute": 0, "torsion": 0}
    for label, system in cover_corpus(89):
        order = system.group.order
        for r in range(1, 5):
            if len(build_block_graph(system.sft, r).vertices) * order > _COVER_STATES:
                continue
            rng = rng_for(97, counts["solved"] + counts["refused"])
            cocycle = generate_cocycle(system, block_range=r, seed=rng.randrange(2**31))
            pg = build_product_graph(system, r)
            tree = SpanningTree(pg)
            if not tree.strongly_connected:
                counts["refused"] += 1
                with pytest.raises(NotTransitiveError) as err:
                    solve_finite_gamma(system, cocycle)
                assert err.value.witness == product_scc_witness(tree), (label, r)
                continue
            counts["solved"] += 1
            assert solve_finite_gamma(system, cocycle).u == _product_graph_u(pg, tree, cocycle)

            bad, _, _ = perturb_one_value(cocycle, rng)
            assert _product_graph_u(pg, tree, bad) is None
            with pytest.raises(CocycleObstruction) as err:
                solve_finite_gamma(system, bad)
            witness = err.value.witness
            word = witness.word
            assert isinstance(witness, ViolationWitness)
            assert system.sft.is_admissible(word, cyclic=True)
            assert cyclic_weight(system, word) == system.group.identity
            assert witness.total != 0
            assert witness.total == _cyclic_f_sum(bad, word)
            counts["torsion"] += witness.multiplicity > 1
            if system.sft.k ** len(word) <= _BRUTE_WORDS:
                counts["brute"] += 1
                assert brute_vanishing(system, bad, len(word)) is not None, (label, r)
    assert min(counts.values()) >= 40, counts
