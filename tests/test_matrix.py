"""Matrix-valued cocycles: solver, witnesses, verification, distortion."""
from __future__ import annotations

import math

import numpy as np
import pytest

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
    adjoint_norm,
    birkhoff_sum,
    brute_matrix_solution_check,
    build_group,
    check_distortion_assumption,
    cyclic_product,
    estimate_distortion,
    generate_matrix_cocycle,
    make_matrix_cocycle,
    make_skew_system,
    psi_n_cyclic,
    solve_matrix_finite,
    verify_matrix_solution,
)
from corpus import rng_for, s3_group

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
    assert psi_n_cyclic(_c2_system(), witness.word) == C2.identity_index
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


def test_adjoint_norm_values():
    g = np.array(DIAG_2_HALF)
    assert adjoint_norm(g, None) == pytest.approx(4.0, rel=1e-12)
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert adjoint_norm(g, (e12,)) == pytest.approx(4.0, rel=1e-12)
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    theta = 0.77
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    assert adjoint_norm(rot, (j,)) == pytest.approx(1.0, abs=1e-12)
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    e21 = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(AlgebraNotClosed):
        adjoint_norm(shear, (e21,))


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
            via_orbit = birkhoff_sum(cocycle, PeriodicOrbit(word=word))
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
    with pytest.raises(RangeTooLarge):
        estimate_distortion(cocycle, 12)
    with pytest.raises(InvalidCocycle):
        estimate_distortion(cocycle, 0)
