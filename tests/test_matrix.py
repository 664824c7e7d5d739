"""Matrix-valued cocycles: solver, witnesses, verification, distortion."""
from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from launcher import launch
from livsic import (
    AlgebraNotClosed,
    AlphaNotConstant,
    CentralityImpossible,
    CocycleObstruction,
    GroupSpec,
    InfiniteGroup,
    InvalidCocycle,
    MatrixSolution,
    NotAHomomorphism,
    NotTransitiveError,
    PeriodicOrbit,
    RangeTooLarge,
    SftSpec,
    SingularMatrix,
    brute_matrix_solution_check,
    build_block_graph,
    build_group,
    check_distortion_assumption,
    cyclic_product,
    estimate_distortion,
    generate_matrix_cocycle,
    make_matrix_cocycle,
    make_skew_system,
    solve_matrix_finite,
    verify_matrix_solution,
)
from livsic import matrix
from livsic.sft import SpanningTree, check_work
from livsic.skew import build_product_graph
from corpus import cyclic_weight, orbit_sum, random_irreducible_sft, rng_for, s3_group

FULL_2 = SftSpec.full_shift(2)
C2 = build_group(GroupSpec.cyclic(2))
C3 = build_group(GroupSpec.cyclic(3))

HALF_TURN = [[-1.0, 0.0], [0.0, -1.0]]
QUARTER_TURN = [[0.0, -1.0], [1.0, 0.0]]
IDENTITY_2 = [[1.0, 0.0], [0.0, 1.0]]
DIAG_2_HALF = [[2.0, 0.0], [0.0, 0.5]]
SL2_BASIS = [
    [[1.0, 0.0], [0.0, -1.0]],
    [[0.0, 1.0], [0.0, 0.0]],
    [[0.0, 0.0], [1.0, 0.0]],
]


def _c2_system():
    return make_skew_system(FULL_2, C2, (1, 0))


def test_half_turn_deck_factor_is_recovered():
    cocycle = make_matrix_cocycle(FULL_2, 0, {(1,): HALF_TURN, (2,): IDENTITY_2})
    solution = solve_matrix_finite(_c2_system(), cocycle)
    assert solution.max_residual == 0.0
    assert np.array_equal(solution.alpha["g"], np.array(HALF_TURN))
    assert np.array_equal(solution.alpha["e"], np.eye(2))
    for block in ((1,), (2,)):
        assert np.array_equal(solution.u[block], np.eye(2))
    assert solution.certificate is not None and solution.certificate.certified
    assert brute_matrix_solution_check(
        _c2_system(), cocycle, solution, samples=50
    )


def test_quarter_turn_is_obstructed():
    cocycle = make_matrix_cocycle(FULL_2, 0, {(1,): QUARTER_TURN, (2,): IDENTITY_2})
    with pytest.raises(CocycleObstruction) as err:
        solve_matrix_finite(_c2_system(), cocycle)
    witness = err.value.witness
    assert witness.orbit.word == (1,)
    assert witness.multiplicity == 2
    assert witness.word == (1, 1)
    # The doubled fixed point has trivial weight but product R(pi) != I.
    assert cyclic_weight(_c2_system(), witness.word) == C2.identity_index
    assert witness.deviation == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    recomputed = cyclic_product(cocycle, witness.word)
    assert np.linalg.norm(recomputed - np.eye(2)) == pytest.approx(
        witness.deviation, abs=1e-12
    )


def test_deck_factor_not_constant_over_fibers():
    # ubar(1, g^j) = F^j and ubar(2, g^j) = G F^(j-1) solve the edge
    # equations exactly, but the fiber comparison over block (2,) reads
    # G F G^-1, which differs from F because G and F do not commute.  No
    # constant deck factor exists, and the solver must say so rather than
    # return either candidate.
    c, s = math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)
    f_mat = np.array([[c, -s], [s, c]])
    g_mat = np.array(DIAG_2_HALF)
    values = {
        (1, 1): f_mat,
        (1, 2): g_mat,
        (2, 1): f_mat @ np.linalg.inv(g_mat),
        (2, 2): np.eye(2),
    }
    cocycle = make_matrix_cocycle(FULL_2, 1, values)
    system = make_skew_system(FULL_2, C3, (1, 0))
    with pytest.raises(AlphaNotConstant) as err:
        solve_matrix_finite(system, cocycle)
    block, eta_name, gamma_name, deviation = err.value.witness
    assert block == (2,)
    assert gamma_name in ("g", "g^2")
    expected = float(np.linalg.norm(g_mat @ f_mat @ np.linalg.inv(g_mat) - f_mat))
    assert deviation == pytest.approx(expected, rel=1e-9)


def test_regular_representation_alpha_cannot_be_central():
    g = s3_group()
    system = make_skew_system(FULL_2, g, (g.element_by_name("s"), 0))
    n = g.order
    alpha = {}
    for a in range(n):
        mat = np.zeros((n, n))
        for b in range(n):
            mat[g.mul(a, b), b] = 1.0
        alpha[g.name_of(a)] = mat
    u = {(1,): np.eye(n), (2,): np.eye(n)}
    # The regular representation is a genuine homomorphism, so the failure
    # must be the centrality requirement among its own values.
    with pytest.raises(CentralityImpossible) as err:
        generate_matrix_cocycle(system, u, alpha, block_range=1)
    assert "its own values" in str(err.value)


def test_generation_rejects_non_homomorphism():
    system = make_skew_system(FULL_2, C3, (1, 0))
    alpha = {
        "e": IDENTITY_2,
        "g": DIAG_2_HALF,
        "g^2": IDENTITY_2,
    }
    u = {(1,): IDENTITY_2, (2,): IDENTITY_2}
    with pytest.raises(NotAHomomorphism):
        generate_matrix_cocycle(system, u, alpha, block_range=1)


def test_generation_rejects_noncentral_u():
    system = _c2_system()
    alpha = {"e": IDENTITY_2, "g": [[1.0, 0.0], [0.0, -1.0]]}
    u = {(1,): [[1.0, 1.0], [0.0, 1.0]], (2,): IDENTITY_2}
    with pytest.raises(CentralityImpossible) as err:
        generate_matrix_cocycle(system, u, alpha, block_range=1)
    assert "u at" in str(err.value)


def test_generation_input_validation():
    system = _c2_system()
    with pytest.raises(InvalidCocycle):
        generate_matrix_cocycle(system, None, None, block_range=1)
    with pytest.raises(InvalidCocycle):
        generate_matrix_cocycle(
            system, None, None, block_range=1, seed=1, family="orthogonal"
        )
    with pytest.raises(InvalidCocycle):
        generate_matrix_cocycle(system, {(1,): IDENTITY_2}, None, block_range=1)
    with pytest.raises(InvalidCocycle):
        generate_matrix_cocycle(
            system, None, {"e": IDENTITY_2}, block_range=1, seed=1, family="rotation"
        )
    z1 = build_group(GroupSpec.free_abelian(1))
    lattice = make_skew_system(FULL_2, z1, ((1,), (-1,)))
    with pytest.raises(InfiniteGroup):
        generate_matrix_cocycle(lattice, None, None, block_range=1, seed=1, family="rotation")


def test_generation_refuses_a_shift_without_blocks():
    # One symbol and no transition: no block of length 2 is admissible,
    # so there is no u to draw or check, and no value to make.
    system = make_skew_system(SftSpec.from_rows([[0]]), C2, (1,))
    for u, seed, family in (({}, None, None), (None, 1, "rotation")):
        with pytest.raises(InvalidCocycle, match="no block of length 2 is admissible"):
            generate_matrix_cocycle(system, u, None, block_range=2, seed=seed, family=family)


def test_generation_refuses_a_singular_deck_factor():
    # alpha = 0 is multiplicative and commutes with everything, but every
    # value it makes is 0.
    zero = [[0.0, 0.0], [0.0, 0.0]]
    u = {(1,): IDENTITY_2, (2,): IDENTITY_2}
    with pytest.raises(SingularMatrix, match="^value at"):
        generate_matrix_cocycle(_c2_system(), u, {"e": zero, "g": zero}, block_range=1)


def test_generation_refuses_an_algebra_not_closed_under_commutators():
    u = {(1,): DIAG_2_HALF, (2,): IDENTITY_2}
    open_basis = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(AlgebraNotClosed, match="basis elements 0 and 1"):
        generate_matrix_cocycle(_c2_system(), u, None, block_range=1, algebra=open_basis)


def _looped_generate(system, u, alpha, block_range):
    """generate_matrix_cocycle's commutation check and values as they were
    before being stacked: one pair at a time, alpha(g_i) against each later
    alpha(g_j) and then against u block by block, and one product per
    edge.  Returns the CentralityImpossible message of the first pair that
    does not commute, or the values."""
    group = system.group
    bg = build_block_graph(system.sft, block_range)
    alpha_mats = [np.array(alpha[group.name_of(a)], dtype=np.float64) for a in range(group.order)]
    u_mats = {block: np.array(u[block], dtype=np.float64) for block in bg.vertices}
    for gi, x in enumerate(alpha_mats):
        others = [(y, "another of its own values") for y in alpha_mats[gi + 1 :]]
        others += [(u_mats[block], f"u at {block}") for block in bg.vertices]
        for y, what in others:
            defect = float(np.linalg.norm(x @ y - y @ x))
            if defect > 1e-9 * (1.0 + float(np.linalg.norm(x) * np.linalg.norm(y))):
                return f"alpha does not commute with {what} (defect {defect:.3e})"
    u_inv = matrix.invert_blocks(u_mats)
    return {
        word: alpha_mats[system.psi_of(word[0])] @ u_mats[word[1:]] @ u_inv[word[:-1]]
        for word in bg.edges
    }


def _turns(group, step: float, p=np.eye(2)) -> dict:
    """alpha(g^j) = p R(j * step) p^-1, R a rotation, over a cyclic group."""
    return {
        group.name_of(j): p @ [[math.cos(j * step), -math.sin(j * step)],
                               [math.sin(j * step), math.cos(j * step)]] @ np.linalg.inv(p)
        for j in range(group.order)
    }


def _generation_inputs():
    """(system, u, alpha, block range): seeded rotation inputs over C2 and
    C3 and unipotent inputs over S3, each with a central alpha and with
    one that fails to commute with some u value, and the regular
    representation of S3, conjugated by a seeded matrix, whose values do
    not commute."""
    s3 = s3_group()
    s, r = s3.element_by_name("s"), s3.element_by_name("r")
    odd = (s, s3.mul(s, r), s3.mul(r, s))

    def sign(mat):
        return {s3.name_of(a): mat if a in odd else np.eye(3) for a in range(s3.order)}

    full3 = SftSpec.full_shift(3)
    shear = np.array([[1.0, 0.5], [0.0, 1.0]])
    cases = [
        (_c2_system(), _turns(C2, math.pi), {"e": IDENTITY_2, "g": np.diag([1.0, -1.0])},
         matrix._random_rotation),
        (make_skew_system(full3, C3, (1, 0, 2)), _turns(C3, 2 * math.pi / 3),
         _turns(C3, 2 * math.pi / 3, shear), matrix._random_rotation),
        (make_skew_system(FULL_2, s3, (s, r)), sign(-np.eye(3)), sign(np.diag([1.0, 1.0, -1.0])),
         matrix._random_unipotent),
        (make_skew_system(full3, s3, (r, s3.identity_index, s)), sign(-np.eye(3)),
         sign(np.diag([1.0, 1.0, -1.0])), matrix._random_unipotent),
    ]
    for i, (system, central, not_central, draw) in enumerate(cases):
        for block_range in (1, 2):
            rng = rng_for(111, 2 * i + block_range)
            u = {block: draw(rng) for block in build_block_graph(system.sft, block_range).vertices}
            yield system, u, central, block_range
            # Identity on a seeded number of leading blocks moves the first
            # value that alpha does not commute with.
            cut = rng.randrange(len(u))
            eye = np.eye(len(central["e"]))
            u = {block: eye if j < cut else mat for j, (block, mat) in enumerate(u.items())}
            yield system, u, not_central, block_range
    rng = rng_for(113, 0)
    p = np.eye(6) + 0.3 * np.array([[rng.uniform(-1.0, 1.0) for _ in range(6)] for _ in range(6)])
    regular = {}
    for a in range(s3.order):
        perm = np.zeros((6, 6))
        for b in range(s3.order):
            perm[s3.mul(a, b), b] = 1.0
        regular[s3.name_of(a)] = p @ perm @ np.linalg.inv(p)
    u = {block: np.eye(6) for block in ((1,), (2,))}
    yield make_skew_system(FULL_2, s3, (s, r)), u, regular, 1


def test_stacked_generation_matches_the_per_pair_and_per_edge_loops():
    seen = {"values": 0, "refused": 0}
    for system, u, alpha, block_range in _generation_inputs():
        expected = _looped_generate(system, u, alpha, block_range)
        if isinstance(expected, str):
            seen["refused"] += 1
            with pytest.raises(CentralityImpossible) as err:
                generate_matrix_cocycle(system, u, alpha, block_range=block_range)
            assert str(err.value) == expected
            continue
        seen["values"] += 1
        cocycle = generate_matrix_cocycle(system, u, alpha, block_range=block_range)
        assert cocycle.values.keys() == expected.keys()
        for word, value in expected.items():
            assert np.array_equal(cocycle.values[word], value), word
    assert seen == {"values": 8, "refused": 9}


def test_rotation_roundtrip():
    system = _c2_system()
    gen_u = {}
    rng = rng_for(43, 0)
    for block in ((1,), (2,)):
        angle = 2.0 * math.pi * rng.random()
        gen_u[block] = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
    alpha = {"e": IDENTITY_2, "g": HALF_TURN}
    cocycle = generate_matrix_cocycle(system, gen_u, alpha, block_range=1)
    solution = solve_matrix_finite(system, cocycle)
    assert solution.certificate.certified
    for name, mat in alpha.items():
        assert np.allclose(solution.alpha[name], np.array(mat), atol=1e-12)
    # u is recovered up to one global right factor, fixed by the root block.
    gauge = np.linalg.inv(gen_u[(1,)])
    for block in ((1,), (2,)):
        assert np.allclose(solution.u[block], gen_u[block] @ gauge, atol=1e-12)
    assert brute_matrix_solution_check(system, cocycle, solution, samples=50)


def test_solver_requires_transitivity_and_finite_group():
    dead = make_skew_system(FULL_2, C2, (0, 0))
    cocycle = make_matrix_cocycle(FULL_2, 0, {(1,): IDENTITY_2, (2,): IDENTITY_2})
    with pytest.raises(NotTransitiveError):
        solve_matrix_finite(dead, cocycle)
    z1 = build_group(GroupSpec.free_abelian(1))
    lattice = make_skew_system(FULL_2, z1, ((1,), (-1,)))
    with pytest.raises(InfiniteGroup):
        solve_matrix_finite(lattice, cocycle)


def test_verify_matrix_solution_detects_tampering():
    cocycle = make_matrix_cocycle(FULL_2, 0, {(1,): HALF_TURN, (2,): IDENTITY_2})
    solution = solve_matrix_finite(_c2_system(), cocycle)
    tampered = MatrixSolution(
        block_length=solution.block_length,
        u={(1,): solution.u[(1,)], (2,): 2.0 * solution.u[(2,)]},
        alpha=solution.alpha,
        alpha_constancy_defect=solution.alpha_constancy_defect,
        max_residual=solution.max_residual,
        tol=solution.tol,
    )
    report = verify_matrix_solution(_c2_system(), cocycle, tampered, tol=1e-6)
    assert not report.certified
    assert report.max_residual > 0.5
    assert not brute_matrix_solution_check(
        _c2_system(), cocycle, tampered, samples=20
    )


def test_a_matrix_cocycle_over_another_shift_is_refused():
    golden_mean = SftSpec.from_rows([[1, 1], [1, 0]])
    cocycle = make_matrix_cocycle(
        golden_mean, 1, {(1, 1): IDENTITY_2, (1, 2): HALF_TURN, (2, 1): IDENTITY_2}
    )
    solution = MatrixSolution(
        block_length=1,
        u={(1,): np.eye(2), (2,): np.eye(2)},
        alpha={"e": np.eye(2), "g": np.eye(2)},
        alpha_constancy_defect=0.0,
        max_residual=0.0,
        tol=1e-9,
    )
    message = "differs from the system's \\(\\(1, 1\\), \\(1, 1\\)\\)$"
    with pytest.raises(InvalidCocycle, match=message):
        solve_matrix_finite(_c2_system(), cocycle)
    with pytest.raises(InvalidCocycle, match=message):
        verify_matrix_solution(_c2_system(), cocycle, solution)


def _looped_report(system, cocycle, solution, tol):
    """verify_matrix_solution's three defects, one edge, pair and value at a time."""
    group, rf = system.group, cocycle.block_range
    u_inv = {block: np.linalg.inv(mat) for block, mat in solution.u.items()}
    worst = 0.0
    for word in build_block_graph(system.sft, solution.block_length).edges:
        alpha_mat = solution.alpha[group.name_of(system.psi_of(word[0]))]
        expected = alpha_mat @ solution.u[word[1:]] @ u_inv[word[:-1]]
        residual = float(np.linalg.norm(cocycle.window_value(word[: rf + 1]) - expected))
        worst = max(worst, residual)
    hom_defect = 0.0
    for a in range(group.order):
        for b in range(group.order):
            lhs = solution.alpha[group.name_of(group.mul(a, b))]
            rhs = solution.alpha[group.name_of(a)] @ solution.alpha[group.name_of(b)]
            hom_defect = max(hom_defect, float(np.linalg.norm(lhs - rhs)))
    centrality_defect = 0.0
    for mat in solution.alpha.values():
        for value in cocycle.values.values():
            gap = float(np.linalg.norm(mat @ value - value @ mat))
            centrality_defect = max(centrality_defect, gap)
    certified = worst <= tol and hom_defect <= tol and centrality_defect <= tol
    return certified, worst, hom_defect, centrality_defect


def _tampered_copies(solution, rng):
    """The solution with one u matrix, then one alpha matrix, knocked off."""
    block = rng.choice(sorted(solution.u))
    name = rng.choice(sorted(solution.alpha))
    dim = solution.u[block].shape[0]
    kick = np.eye(dim) + 0.25 * np.triu(np.ones((dim, dim)), 1)
    for u, alpha in (
        ({**solution.u, block: solution.u[block] @ kick}, solution.alpha),
        (solution.u, {**solution.alpha, name: kick @ solution.alpha[name]}),
    ):
        yield MatrixSolution(
            block_length=solution.block_length,
            u=u,
            alpha=alpha,
            alpha_constancy_defect=solution.alpha_constancy_defect,
            max_residual=solution.max_residual,
            tol=solution.tol,
        )


def _generated_instances():
    """(system, deck factor, family) for seeded C2 and S3 cocycles."""
    s3 = s3_group()
    s, r = s3.element_by_name("s"), s3.element_by_name("r")
    full3 = SftSpec.full_shift(3)
    half_turn = {"e": IDENTITY_2, "g": HALF_TURN}
    return [
        (_c2_system(), half_turn, "rotation"),
        (make_skew_system(full3, C2, (1, 0, 1)), half_turn, "rotation"),
        (make_skew_system(FULL_2, s3, (s, r)), None, "unipotent"),
        (make_skew_system(full3, s3, (r, s3.identity_index, s)), None, "unipotent"),
    ]


def test_stacked_verifier_matches_the_per_edge_loop():
    for i, (system, alpha, family) in enumerate(_generated_instances()):
        cocycle = generate_matrix_cocycle(
            system, None, alpha, block_range=2, seed=80 + i, family=family
        )
        solution = solve_matrix_finite(system, cocycle)
        tol = solution.certificate.tol
        copies = [solution, *_tampered_copies(solution, rng_for(83, i))]
        for copy in copies:
            report = verify_matrix_solution(system, cocycle, copy, tol=tol)
            certified, worst, hom_defect, centrality_defect = _looped_report(
                system, cocycle, copy, tol
            )
            assert report.certified == certified
            assert report.max_residual == pytest.approx(worst, rel=0.0, abs=1e-15)
            assert report.hom_defect == pytest.approx(hom_defect, rel=0.0, abs=1e-15)
            assert report.centrality_defect == pytest.approx(centrality_defect, rel=0.0, abs=1e-15)
        assert [verify_matrix_solution(system, cocycle, c, tol=tol).certified for c in copies] == [
            True, False, False,
        ]


def test_verifier_on_a_spec_without_edges():
    # Documents refuse a dead symbol; the library takes the spec as given.
    spec = SftSpec.from_rows([[0]])
    system = make_skew_system(spec, C2, (1,))
    cocycle = make_matrix_cocycle(spec, 0, {(1,): IDENTITY_2})
    solution = MatrixSolution(
        block_length=1, u={(1,): np.eye(2)}, alpha={"e": np.eye(2), "g": np.eye(2)},
        alpha_constancy_defect=0.0, max_residual=0.0, tol=1e-9,
    )
    report = verify_matrix_solution(system, cocycle, solution)
    assert report.certified and report.edges_checked == 0 and report.max_residual == 0.0


def _looped_solve(system, cocycle, tol=1e-9):
    """The product-graph solver the block-graph one replaced, one product
    edge and one (gamma, block, eta) at a time: the transfer propagated
    along a tree of the |F|-fold product graph, its closure on every
    product edge, and the deck factor compared over every product vertex.

    Returns ("edge", the first product edge over tol),
    ("alpha", every comparison's deviation keyed by (block, eta, gamma)
    names, the number of product states) or
    ("ok", max_residual, alpha_constancy_defect, the alpha matrices, u)."""
    group = system.group
    pg = build_product_graph(system, cocycle.effective_block_length)
    tree = SpanningTree(pg)
    rf, order, eye = cocycle.block_range, pg.order, np.eye(cocycle.dim)

    def factor(e):
        return cocycle.window_value(pg.base.edges[e // order][: rf + 1])

    transfer = tree.potentials(eye, lambda e, t: factor(e) @ t)
    transfer_inv = list(np.linalg.inv(np.stack(transfer)))
    max_residual = 0.0
    for e in range(len(pg.edge_tail)):
        t, h = pg.edge_tail[e], pg.edge_head[e]
        residual = float(np.linalg.norm(factor(e) - transfer[h] @ transfer_inv[t]))
        max_residual = max(max_residual, residual)
        if residual > tol:
            return "edge", e
    e_idx = group.identity_index
    alpha, defect, devs = [], 0.0, {}
    for gi in range(order):
        ref = transfer[group.mul(e_idx, gi)] @ transfer_inv[e_idx]
        alpha.append(ref)
        for bi, block in enumerate(pg.base.vertices):
            for eta in range(order):
                vid = bi * order + group.mul(eta, gi)
                dev = float(np.linalg.norm(transfer[vid] @ transfer_inv[bi * order + eta] - ref))
                devs[block, group.name_of(eta), group.name_of(gi)] = dev
                defect = max(defect, dev)
    if defect > tol * max(10, pg.n_vertices):
        return "alpha", devs, pg.n_vertices
    u = {block: transfer[bi * order + e_idx] for bi, block in enumerate(pg.base.vertices)}
    return "ok", max_residual, defect, alpha, u


def _solver_instances():
    """Seeded C2 and S3 cocycles of the form f = alpha(psi) u u^-1, each
    also with one window value knocked off, and C2 and C3 cocycles whose
    edges close but whose deck factor differs between fibers."""
    for i, (system, alpha, family) in enumerate(_generated_instances()):
        for block_range in (1, 2):
            cocycle = generate_matrix_cocycle(
                system, None, alpha, block_range=block_range, seed=90 + i, family=family
            )
            yield system, cocycle
            rng = rng_for(97, 2 * i + block_range)
            values = dict(cocycle.values)
            window = rng.choice(sorted(values))
            dim = cocycle.dim
            kick = np.eye(dim) + rng.uniform(0.2, 1.0) * np.triu(np.ones((dim, dim)), 1)
            values[window] = values[window] @ kick
            yield system, make_matrix_cocycle(system.sft, block_range, values)
    # ubar(1, g^j) = F^j and ubar(2, g^j) = G F^(j-1), as in
    # test_deck_factor_not_constant_over_fibers, with F of order n.
    for n, group, seed in ((2, C2, 0), (3, C3, 1), (3, C3, 2)):
        rng = rng_for(101, seed)
        p = np.array([[rng.uniform(1.0, 2.0), rng.uniform(-1.0, 1.0)], [0.0, 1.0]])
        turn = np.diag([1.0, -1.0]) if n == 2 else np.array(
            [[-0.5, -math.sqrt(0.75)], [math.sqrt(0.75), -0.5]]
        )
        f_mat = p @ turn @ np.linalg.inv(p)
        g_mat = np.array([[rng.uniform(1.5, 3.0), rng.uniform(-1.0, 1.0)], [0.0, 1.0]])
        values = {
            (1, 1): f_mat, (1, 2): g_mat, (2, 1): f_mat @ np.linalg.inv(g_mat), (2, 2): np.eye(2),
        }
        yield make_skew_system(FULL_2, group, (1, 0)), make_matrix_cocycle(FULL_2, 1, values)


def _close(mat, ref) -> bool:
    """Within 1e-12 of the reference, relative to its Frobenius norm."""
    return float(np.linalg.norm(mat - ref)) <= 1e-12 * float(np.linalg.norm(ref))


def test_stacked_solver_matches_the_per_edge_and_per_fiber_loops():
    # The block-graph solver against the product-graph reference: the same
    # outcome on every instance, the same alpha and u where both solve, and
    # on the other outcomes a witness or deviation that checks on its own.
    tol = 1e-9
    seen = {"edge": 0, "alpha": 0, "ok": 0}
    for system, cocycle in _solver_instances():
        outcome, *expected = _looped_solve(system, cocycle, tol)
        seen[outcome] += 1
        group, eye = system.group, np.eye(cocycle.dim)
        if outcome == "edge":
            with pytest.raises(CocycleObstruction) as err:
                solve_matrix_finite(system, cocycle, tol=tol)
            found = err.value.witness
            assert cyclic_weight(system, found.word) == group.identity_index
            deviation = float(np.linalg.norm(cyclic_product(cocycle, found.word) - eye))
            assert found.deviation == deviation > tol
        elif outcome == "alpha":
            devs, states = expected
            with pytest.raises(AlphaNotConstant) as err:
                solve_matrix_finite(system, cocycle, tol=tol)
            block, eta, gamma, deviation = err.value.witness
            # One of the reference's comparisons, and past the threshold.
            assert deviation == pytest.approx(devs[block, eta, gamma], rel=1e-9)
            assert deviation > tol * max(10, states)
        else:
            max_residual, defect, alpha, u = expected
            solution = solve_matrix_finite(system, cocycle, tol=tol)
            for gi, mat in enumerate(alpha):
                assert _close(solution.alpha[group.name_of(gi)], mat)
            for block, mat in u.items():
                assert _close(solution.u[block], mat)
            # Both measure rounding only.
            assert max(max_residual, solution.max_residual) < 1e-13
            assert max(defect, solution.alpha_constancy_defect) < 1e-13
    assert seen == {"edge": 8, "alpha": 3, "ok": 8}


def test_a_nonabelian_deck_image_is_not_constant():
    # f = rho(psi) for the regular representation rho of S3: every edge
    # closes, A = rho is a homomorphism and u = I commutes with it, but
    # rho(S3) is not abelian, so no deck factor is central.  The comparison
    # over the first block at the closure's generators finds it, as the
    # product-graph reference does.
    s3 = s3_group()
    psi = (s3.element_by_name("s"), s3.element_by_name("r"))
    system = make_skew_system(FULL_2, s3, psi)
    rho = {a: np.zeros((s3.order, s3.order)) for a in psi}
    for a, mat in rho.items():
        for b in range(s3.order):
            mat[s3.mul(a, b), b] = 1.0
    cocycle = make_matrix_cocycle(FULL_2, 0, {(1,): rho[psi[0]], (2,): rho[psi[1]]})
    outcome, devs, states = _looped_solve(system, cocycle)
    assert outcome == "alpha"
    with pytest.raises(AlphaNotConstant) as err:
        solve_matrix_finite(system, cocycle)
    block, eta, gamma, deviation = err.value.witness
    assert deviation == pytest.approx(devs[block, eta, gamma], rel=1e-12)
    assert deviation == pytest.approx(max(devs.values()), rel=1e-12)


def test_solver_takes_a_few_norm_calls_per_group_element(monkeypatch):
    s3 = s3_group()
    system = make_skew_system(FULL_2, s3, (s3.element_by_name("s"), s3.element_by_name("r")))
    cocycle = generate_matrix_cocycle(system, None, None, block_range=4, seed=7, family="unipotent")
    calls = []
    norm = np.linalg.norm

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    solution = solve_matrix_finite(system, cocycle)
    assert solution.certificate.certified
    # 16 blocks and 96 product states, but one call per stack: closure 1,
    # fiber constancy 1, condition number 2, then the verifier's edges 1
    # and its two checks 2 * 6, one per group element.
    assert len(calls) == 2 * s3.order + 5


def test_make_matrix_cocycle_validation():
    with pytest.raises(SingularMatrix):
        make_matrix_cocycle(FULL_2, 0, {(1,): [[1.0, 1.0], [1.0, 1.0]], (2,): IDENTITY_2})
    with pytest.raises(InvalidCocycle):
        make_matrix_cocycle(FULL_2, 0, {(1,): IDENTITY_2})
    with pytest.raises(InvalidCocycle):
        make_matrix_cocycle(FULL_2, 0, {(1,): [[1.0, 0.0]], (2,): IDENTITY_2})


def test_algebra_closure_checks():
    values = {(1,): DIAG_2_HALF, (2,): IDENTITY_2}
    # Span of the two nilpotent directions is not closed: their commutator
    # is diagonal.
    open_basis = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(AlgebraNotClosed):
        make_matrix_cocycle(FULL_2, 0, values, algebra=open_basis)
    with pytest.raises(AlgebraNotClosed):
        make_matrix_cocycle(FULL_2, 0, values, algebra=[])
    dependent = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 2.0], [0.0, 0.0]]]
    with pytest.raises(AlgebraNotClosed):
        make_matrix_cocycle(FULL_2, 0, values, algebra=dependent)
    closed = make_matrix_cocycle(FULL_2, 0, values, algebra=SL2_BASIS)
    assert closed.algebra is not None and len(closed.algebra) == 3


def _looped_closure(basis):
    """_check_algebra_closed's span test as it was before being stacked: one
    commutator [x_i, x_j] at a time, in (i, j) order.  Returns the
    AlgebraNotClosed message of the first one to leave the span, or None."""
    b_mat = np.stack([b.reshape(-1) for b in basis], axis=1)
    pinv = np.linalg.pinv(b_mat)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            vec = (x @ y - y @ x).reshape(-1)
            residual = float(np.linalg.norm(b_mat @ (pinv @ vec) - vec))
            if residual > 1e-9 * (1.0 + float(np.linalg.norm(vec))):
                return (
                    f"commutator of basis elements {i} and {j} leaves the span "
                    f"(residual {residual:.3e})"
                )
    return None


def test_stacked_closure_check_matches_the_per_pair_loop():
    # Upper triangular matrices, conjugated by a seeded matrix, are closed;
    # with one seeded matrix inserted they are not.
    seen = {"closed": 0, "open": 0}
    for i, dim in enumerate((3, 3, 4, 4, 5)):
        rng = rng_for(117, i)
        p = np.eye(dim) + 0.4 * np.array([[rng.uniform(-1.0, 1.0) for _ in range(dim)]
                                          for _ in range(dim)])
        p_inv = np.linalg.inv(p)
        basis = []
        for a, b in itertools.combinations_with_replacement(range(dim), 2):
            unit = np.zeros((dim, dim))
            unit[a, b] = 1.0
            basis.append(p @ unit @ p_inv)
        extra = np.array([[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(dim)])
        open_basis = list(basis)
        open_basis.insert(rng.randrange(len(basis) + 1), extra)
        values = {(1,): np.eye(dim), (2,): np.eye(dim)}
        for candidate in (basis, open_basis):
            expected = _looped_closure(candidate)
            if expected is None:
                seen["closed"] += 1
                make_matrix_cocycle(FULL_2, 0, values, algebra=candidate)
                continue
            seen["open"] += 1
            with pytest.raises(AlgebraNotClosed) as err:
                make_matrix_cocycle(FULL_2, 0, values, algebra=candidate)
            assert str(err.value) == expected
    assert seen == {"closed": 5, "open": 5}


def _adjoint_norm(g, basis):
    """Operator 2-norm of conjugation by g on the declared or ambient
    algebra: the product of its factors' spectral norms."""
    frame = matrix._algebra_frame(basis)
    factors = matrix._adjoint_factors(g[None], frame, matrix._ALGEBRA_TOL)
    return math.prod(float(matrix._spectral_norms(f)[0]) for f in factors)


def test_adjoint_norm_values():
    g = np.array(DIAG_2_HALF)
    assert _adjoint_norm(g, None) == pytest.approx(4.0, rel=1e-12)
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert _adjoint_norm(g, (e12,)) == pytest.approx(4.0, rel=1e-12)
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    theta = 0.77
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    assert _adjoint_norm(rot, (j,)) == pytest.approx(1.0, abs=1e-12)
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    e21 = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(AlgebraNotClosed):
        _adjoint_norm(shear, (e21,))


def test_cyclic_product_matches_birkhoff_product():
    system = _c2_system()
    for rf in (1, 2):
        cocycle = generate_matrix_cocycle(
            system, None, None, block_range=rf, seed=9, family="rotation"
        )
        for word in [(1,), (1, 2), (1, 1, 2), (2, 1, 2, 2)]:
            # Windows of rf + 1 symbols around the cyclic word, later ones on the left.
            n = len(word)
            expected = np.eye(2)
            for i in range(n):
                window = tuple(word[(i + j) % n] for j in range(rf + 1))
                expected = cocycle.window_value(window) @ expected
            direct = cyclic_product(cocycle, word)
            via_orbit = orbit_sum(cocycle, word)
            assert np.allclose(direct, expected, atol=1e-12)
            assert np.allclose(via_orbit, expected, atol=1e-12)
        with pytest.raises(InvalidCocycle):
            cyclic_product(cocycle, (3,))


def test_distortion_diagonal_cocycle():
    values = {(1,): DIAG_2_HALF, (2,): DIAG_2_HALF}
    with_algebra = make_matrix_cocycle(FULL_2, 0, values, algebra=SL2_BASIS)
    report = estimate_distortion(with_algebra, 4)
    assert report.algebra_dim == 3
    assert report.mu_s == pytest.approx(4.0, rel=1e-9)
    assert report.mu_u == pytest.approx(4.0, rel=1e-9)
    assert report.theta_threshold == pytest.approx(2.0, rel=1e-9)

    ambient = make_matrix_cocycle(FULL_2, 0, values)
    ambient_report = estimate_distortion(ambient, 4)
    assert ambient_report.algebra_dim == 4
    assert ambient_report.mu_s == pytest.approx(4.0, rel=1e-9)

    assert check_distortion_assumption(report, 3.0).status == "satisfied"
    assert check_distortion_assumption(report, 2.0).status == "violated"
    marginal = check_distortion_assumption(report, report.theta_threshold + 5e-7)
    assert marginal.status == "marginal"


def test_distortion_rotation_cocycle_is_undistorted():
    j = [[0.0, -1.0], [1.0, 0.0]]
    system = _c2_system()
    cocycle = generate_matrix_cocycle(
        system, None, None, block_range=1, seed=5, family="rotation"
    )
    with_algebra = make_matrix_cocycle(
        FULL_2,
        1,
        {w: m.tolist() for w, m in cocycle.values.items()},
        algebra=[j],
    )
    report = estimate_distortion(with_algebra, 6)
    assert abs(report.mu_s - 1.0) < 1e-12
    assert abs(report.mu_u - 1.0) < 1e-12
    assert report.theta_threshold < 1e-12


def test_distortion_budget_and_bounds():
    values = {(a,): IDENTITY_2 for a in range(1, 6)}
    cocycle = make_matrix_cocycle(SftSpec.full_shift(5), 0, values)
    # 488 280 words up to length 8 on five symbols, 2 441 405 up to 9.
    with pytest.raises(RangeTooLarge, match="work budget; the largest depth within it is 8$"):
        estimate_distortion(cocycle, 12)
    with pytest.raises(InvalidCocycle):
        estimate_distortion(cocycle, 0)
    # Depth 1 at block range 9 needs the words up to length 10: none fits.
    with pytest.raises(RangeTooLarge, match="no depth is within it$"):
        check_work(SftSpec.full_shift(5), 12, "distortion scan to depth 3", "depth", 9)


def test_a_distortion_budget_refusal_does_not_scale_with_the_depth():
    # The words are counted only up to the first length past the budget:
    # 2 097 150 words up to length 20 on two symbols.
    cocycle = make_matrix_cocycle(FULL_2, 0, {(1,): IDENTITY_2, (2,): IDENTITY_2})
    for depth in (10**3, 10**9):
        with pytest.raises(RangeTooLarge, match="the largest depth within it is 19$"):
            estimate_distortion(cocycle, depth)


def _sl_basis(m: int) -> list[np.ndarray]:
    """Traceless matrices: invariant under conjugation by any GL(m) value."""
    basis = []
    for i, j in itertools.product(range(m), repeat=2):
        if i != j:
            basis.append(np.eye(m)[:, [i]] @ np.eye(m)[[j], :])
    for i in range(m - 1):
        basis.append(np.diag([1.0 if t == i else -1.0 if t == i + 1 else 0.0 for t in range(m)]))
    return basis


def _lstsq_ad_norm(g, algebra):
    """Independent of matrix.py: the ambient norm is ||g|| ||g^-1|| and a
    declared algebra's coefficients come from least squares."""
    g_inv = np.linalg.inv(g)
    if algebra is None:
        return np.linalg.norm(g, 2) * np.linalg.norm(g_inv, 2)
    b_mat = np.stack([x.ravel() for x in algebra], axis=1)
    cols = [np.linalg.lstsq(b_mat, (g @ x @ g_inv).ravel(), rcond=None)[0] for x in algebra]
    return np.linalg.norm(np.stack(cols, axis=1), 2)


def _kron_ad_norm(g, algebra):
    """The per-product formulas the batched scan replaced: the SVD of
    kron(g, g^-T) on the ambient algebra, and on a declared one the SVD of
    the coefficients that the basis pseudo-inverse projects out."""
    g_inv = np.linalg.inv(g)
    if algebra is None:
        return np.linalg.norm(np.kron(g, g_inv.T), 2)
    b_mat = np.stack([x.ravel() for x in algebra], axis=1)
    conjugated = np.stack([(g @ x @ g_inv).ravel() for x in algebra], axis=1)
    return np.linalg.norm(np.linalg.pinv(b_mat) @ conjugated, 2)


def _reference_rates(cocycle, n_max, ad_norm=_lstsq_ad_norm):
    """Per-n forward and backward rates from a word-by-word recursive scan,
    each product scored by ad_norm(product, cocycle.algebra)."""
    spec, rf = cocycle.sft, cocycle.block_range
    inverse = {w: np.linalg.inv(v) for w, v in cocycle.values.items()}
    best_s = [0.0] * (n_max + 1)
    best_u = [0.0] * (n_max + 1)

    def visit(word, prod, inv_prod):
        n = len(word) - rf
        if n >= 1:
            best_s[n] = max(best_s[n], ad_norm(prod, cocycle.algebra) ** (1.0 / n))
            best_u[n] = max(best_u[n], ad_norm(inv_prod, cocycle.algebra) ** (1.0 / n))
        if n == n_max:
            return
        for b in spec.successors(word[-1]) if word else range(1, spec.k + 1):
            nxt = word + (b,)
            if len(nxt) <= rf:
                visit(nxt, prod, inv_prod)
                continue
            window = nxt[-(rf + 1) :]
            visit(nxt, cocycle.values[window] @ prod, inv_prod @ inverse[window])

    eye = np.eye(cocycle.dim)
    visit((), eye, eye)
    return best_s[1:], best_u[1:]


def _near_identity(rng, m: int) -> np.ndarray:
    return np.eye(m) + 0.3 * np.array([[rng.uniform(-1.0, 1.0) for _ in range(m)] for _ in range(m)])


def test_batched_scan_matches_word_by_word_reference():
    cases = []
    for i in range(48):
        rng = rng_for(61, i)
        k = rng.randint(1, 3)
        spec = SftSpec.full_shift(k) if i % 2 else random_irreducible_sft(rng, k)
        rf, m = rng.randint(0, 2), rng.choice((2, 3))
        windows = [
            w for w in itertools.product(range(1, k + 1), repeat=rf + 1)
            if spec.is_admissible(w)
        ]
        values = {w: _near_identity(rng, m) for w in windows}
        algebra = _sl_basis(m) if i % 4 < 2 else None
        depth = rng.randint(1, 6 if k < 3 else 4)
        cases.append((make_matrix_cocycle(spec, rf, values, algebra=algebra), depth))
    # 1 024 words at depth 10 of the full 2-shift and 2 187 at depth 7 of
    # the full 3-shift: several chunks per depth level.
    rng = rng_for(67, 0)
    for k, depth, algebra in ((2, 10, SL2_BASIS), (3, 7, None)):
        values = {(a,): _near_identity(rng, 2) for a in range(1, k + 1)}
        cases.append((make_matrix_cocycle(SftSpec.full_shift(k), 0, values, algebra=algebra), depth))
    for cocycle, depth in cases:
        report = estimate_distortion(cocycle, depth)
        ref_s, ref_u = _reference_rates(cocycle, depth)
        assert report.mu_s_by_n == pytest.approx(ref_s, rel=1e-12, abs=0.0)
        assert report.mu_u_by_n == pytest.approx(ref_u, rel=1e-12, abs=0.0)
        algebra = cocycle.algebra
        assert report.algebra_dim == (len(algebra) if algebra else cocycle.dim**2)


def _sl2_value(rng) -> np.ndarray:
    """A random 2x2 matrix scaled to determinant 1."""
    while True:
        mat = np.array([[rng.uniform(-1.5, 1.5) for _ in range(2)] for _ in range(2)])
        det = float(np.linalg.det(mat))
        if det > 0.3:
            return mat / math.sqrt(det)


def _sl2_cocycle(rng, k: int, rf: int, algebra):
    windows = itertools.product(range(1, k + 1), repeat=rf + 1)
    values = {w: _sl2_value(rng) for w in windows}
    return make_matrix_cocycle(SftSpec.full_shift(k), rf, values, algebra=algebra)


def test_scan_matches_the_per_word_kron_and_projection_norms():
    cases = [  # k, block range, depth, algebra
        (2, 0, 6, SL2_BASIS),
        (2, 0, 6, None),
        (3, 0, 4, SL2_BASIS),
        (2, 1, 5, SL2_BASIS),
    ]
    for i, (k, rf, depth, algebra) in enumerate(cases):
        cocycle = _sl2_cocycle(rng_for(71, i), k, rf, algebra)
        report = estimate_distortion(cocycle, depth)
        ref_s, ref_u = _reference_rates(cocycle, depth, _kron_ad_norm)
        assert report.mu_s_by_n == pytest.approx(ref_s, rel=1e-12, abs=0.0)
        assert report.mu_u_by_n == pytest.approx(ref_u, rel=1e-12, abs=0.0)


def test_scan_takes_one_pinv_and_one_norm_call_per_chunk(monkeypatch):
    cocycle = _sl2_cocycle(rng_for(73, 0), 2, 0, SL2_BASIS)
    calls = {"pinv": 0, "norms": 0}
    pinv, max_norms = np.linalg.pinv, matrix._max_norms

    def counted_pinv(*args, **kwargs):
        calls["pinv"] += 1
        return pinv(*args, **kwargs)

    def counted_norms(factors, split, floors):
        calls["norms"] += 1
        assert all(len(f) == 2 * split for f in factors)
        return max_norms(factors, split, floors)

    monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
    monkeypatch.setattr(matrix, "_max_norms", counted_norms)
    estimate_distortion(cocycle, 8)
    # 2, 4, ..., 256 words: one chunk per depth, forward and backward together.
    assert calls["norms"] == 8
    assert calls["pinv"] <= 1


def _spread_stack(rng, m: int, count: int, spread: float) -> np.ndarray:
    """count products U diag(exp(spread z)) V of m x m matrices, U and V
    orthogonal and z standard normal: 2-norms spread over orders of
    magnitude for spread 1, all equal to 1 for spread 0."""
    def gaussian():
        return np.array([[rng.gauss(0.0, 1.0) for _ in range(m)] for _ in range(m)])

    mats = []
    for _ in range(count):
        scales = np.exp([spread * rng.gauss(0.0, 1.0) for _ in range(m)])
        mats.append(np.linalg.qr(gaussian())[0] @ np.diag(scales) @ np.linalg.qr(gaussian())[0])
    return np.stack(mats)


@pytest.mark.parametrize("m", (2, 3, 4))
def test_max_norms_are_the_largest_exact_norms(m, monkeypatch):
    # _max_norms scores exactly only the rows its bounds cannot rule out;
    # each half's result must equal the maximum over every row, bit for bit.
    rng = rng_for(79, m)
    stacks = {
        "spread": _spread_stack(rng, m, 40, 1.0),
        "orthogonal": _spread_stack(rng, m, 40, 0.0),
        "ties": np.repeat(_spread_stack(rng, m, 1, 1.0), 40, axis=0),
    }
    frame = matrix._algebra_frame(_sl_basis(m))
    scored = []
    spectral = matrix._spectral_norms

    def counted(mats):
        scored.append(len(mats))
        return spectral(mats)

    monkeypatch.setattr(matrix, "_spectral_norms", counted)
    for name, g in stacks.items():
        # The declared sl(m) coefficients, the ambient pair (g, g^-1), and g alone.
        for factors in (matrix._adjoint_factors(g, frame, 1e-6),
                        matrix._adjoint_factors(g, None, 1e-6), (g,)):
            exact = spectral(factors[0])
            for f in factors[1:]:
                exact = exact * spectral(f)
            for split in (1, 17, 39):
                halves = (exact[:split], exact[split:])
                lows = [0.5 * float(h.min()) for h in halves]
                highs = [2.0 * float(h.max()) for h in halves]
                for floors in ((0.0, 0.0), tuple(lows), tuple(highs), (1e6 * highs[0], lows[1]),
                               (float(halves[0].max()), float(halves[1].min()))):
                    scored.clear()
                    got = matrix._max_norms(factors, split, floors)
                    want = tuple(max(floor, float(h.max())) for floor, h in zip(floors, halves))
                    assert got == want, (name, split, floors)
                    if floors == (0.0, 0.0):
                        # Orthogonal and repeated rows leave nothing to prune; spread ones do.
                        pruned = scored != [40] * len(factors)
                        assert pruned is (name == "spread"), (name, split, scored)


def test_scan_rejects_a_singular_product_at_depth_three():
    # Each value has determinant 1 and passes the check; the product of
    # three, diag(1e-9, 1e9), is below 1e-15 times its largest entry squared.
    steep = [[1e-3, 0.0], [0.0, 1e3]]
    cocycle = make_matrix_cocycle(FULL_2, 0, {(1,): steep, (2,): steep})
    assert estimate_distortion(cocycle, 2).mu_s == pytest.approx(1e6, rel=1e-9)
    with pytest.raises(SingularMatrix):
        estimate_distortion(cocycle, 3)


def test_scan_inverts_a_determinant_one_product_with_entries_past_1e6():
    # M^4 has entries near 6.8e6 and determinant 1 up to rounding, which
    # is far above working precision times its largest entry squared.
    mat = np.array([[50.0, 7.0], [7.0, 1.0]])
    cocycle = make_matrix_cocycle(FULL_2, 0, {(1,): mat, (2,): mat})
    report = estimate_distortion(cocycle, 4)
    power = np.linalg.matrix_power(mat, 4)
    assert np.abs(power).max() > 1e6
    # For a 2x2 determinant-1 g, ||Ad(g)|| = ||g|| ||g^-1|| = ||g||^2; the
    # scan's inverse carries the determinant's rounding, near 1e-6.
    expected = np.linalg.norm(power, 2) ** (2 / 4)
    assert report.mu_s == pytest.approx(expected, rel=1e-5)
    assert report.mu_u == pytest.approx(expected, rel=1e-5)


def test_scan_names_a_singular_window_value():
    # make_matrix_cocycle refuses this value; a cocycle built directly
    # reaches the scan's own check of the window values.
    values = {(1,): np.eye(2), (2,): np.array([[1.0, 2.0], [2.0, 4.0]])}
    cocycle = matrix.MatrixCocycle(sft=FULL_2, block_range=0, dim=2, values=values)
    with pytest.raises(SingularMatrix, match=r"^value at \(2,\): determinant"):
        estimate_distortion(cocycle, 2)


def test_scan_names_a_forward_leak_before_a_backward_singular_product():
    # The forward values leave so(2); their inverses, with entries near
    # 1e-8, fall under the singularity test's absolute floor.  A
    # word-by-word scan checks the forward product first.
    big = [[2e8, 0.0], [0.0, 5e7]]
    so2 = [[[0.0, -1.0], [1.0, 0.0]]]
    cocycle = make_matrix_cocycle(FULL_2, 0, {(1,): big, (2,): big}, algebra=so2)
    with pytest.raises(AlgebraNotClosed, match="basis element 0"):
        estimate_distortion(cocycle, 1)


def test_scan_names_a_depth_without_words():
    # 1 -> 2 and nothing after 2: the longest admissible word has length 2.
    spec = SftSpec.from_rows([[0, 1], [0, 0]])
    cocycle = make_matrix_cocycle(spec, 0, {(1,): IDENTITY_2, (2,): DIAG_2_HALF})
    assert estimate_distortion(cocycle, 2).mu_s == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(InvalidCocycle, match="length 3"):
        estimate_distortion(cocycle, 3)


def test_pruning_never_hides_a_refusal():
    # Every row passes the span and singularity checks before any row is
    # pruned, so a refusal holds even where the refused word's norm is the
    # smallest of its depth and its exact norm would never be taken.
    full3 = SftSpec.full_shift(3)
    big = [[4.0, 1.0], [0.0, 0.25]]
    big_t = [[0.25, 3.0], [0.0, 4.0]]
    # The upper triangular traceless matrices: conjugating by big or big_t
    # keeps them there, conjugating by the lower shear leaks.  Word (2)
    # has ||Ad|| about 1.0, words (1) and (3) about 17.9 and 1.8, so only
    # word (1) would get an exact norm.
    borel = [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]
    shear = [[1.0, 0.0], [1e-3, 1.0]]
    leaky = make_matrix_cocycle(full3, 0, {(1,): big, (2,): shear, (3,): big_t}, algebra=borel)
    with pytest.raises(AlgebraNotClosed) as err:
        estimate_distortion(leaky, 1)
    assert str(err.value) == (
        "conjugation moves basis element 0 out of the declared span (residual 2.000e-03)"
    )
    # On the ambient algebra, word (2, 2) is 1e-8 I: ||Ad|| = 1, the
    # smallest at depth 2, and determinant 1e-16, below working precision.
    tiny = [[1e-4, 0.0], [0.0, 1e-4]]
    near_singular = make_matrix_cocycle(full3, 0, {(1,): big, (2,): tiny, (3,): big_t})
    assert estimate_distortion(near_singular, 1).mu_s == pytest.approx(25.0225, rel=1e-5)
    with pytest.raises(SingularMatrix) as err:
        estimate_distortion(near_singular, 2)
    assert str(err.value) == "adjoint: determinant 9.999999999999965e-17 too close to zero"


_SCAN_UNDER_O = r"""
assert False, "this script must run under python -O"
from livsic import AlgebraNotClosed, SftSpec, estimate_distortion, make_matrix_cocycle

diag = [[2.0, 0.0], [0.0, 0.5]]
so2 = [[[0.0, -1.0], [1.0, 0.0]]]
cocycle = make_matrix_cocycle(SftSpec.full_shift(2), 0, {(1,): diag, (2,): diag}, algebra=so2)
try:
    estimate_distortion(cocycle, 3)
    print("returned")
except AlgebraNotClosed as err:
    print("raised", err)
"""


def test_algebra_not_closed_under_python_O():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SCAN_UNDER_O], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised conjugation moves basis element 0"), proc.stdout


_FULL2_DEPTH18 = r"""
from livsic import SftSpec, estimate_distortion, make_matrix_cocycle

basis = [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
values = {(1,): [[2.0, 0.0], [0.0, 0.5]], (2,): [[0.5, 0.0], [0.0, 2.0]]}
report = estimate_distortion(
    make_matrix_cocycle(SftSpec.full_shift(2), 0, values, algebra=basis), 18
)
print(len(report.mu_s_by_n), max(abs(x - 4.0) for x in report.mu_s_by_n + report.mu_u_by_n))
"""


def test_full2_depth18_scan_in_little_memory(tmp_path):
    # 262 144 words at depth 18, 524 286 in all.  Stacking a whole depth
    # level at once peaks near 180 MB here; chunks stay near the 33 MB of
    # the interpreter and numpy.  Diagonal values: the rate at every depth
    # is exactly 4 (the all-1 and all-2 words).  The scan runs under the
    # capacity tests' launcher, so its peak is its own, whatever earlier
    # tests did to this process's.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    usage = launch(
        [sys.executable, "-c", _FULL2_DEPTH18], out, err,
        address_space=1 << 32, wall_s=60.0, env=env,
    )
    assert usage["code"] == 0, err.read_text()
    depths, worst = out.read_text().split()
    assert depths == "18" and float(worst) < 1e-12
    assert usage["rss_kib"] < 80 * 1024
