"""Matrix cocycles over finite extensions: solver, verifier, distortion.

Values live in GL(m, R) as float64 arrays.  The solver runs on the same
spanning-tree kernel as the exact rational ones (skew.SpanningTree):
propagate a candidate transfer function along the tree of the product
graph, then measure how badly every edge closes up.
All comparisons are at an explicit tolerance and every reported witness
carries its measured deviation, so nothing silently rounds to success.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AlgebraNotClosed,
    AlphaNotConstant,
    CentralityImpossible,
    CocycleObstruction,
    DimensionMismatch,
    InfiniteGroup,
    InvalidCocycle,
    NotAHomomorphism,
    NotTransitiveError,
    RangeTooLarge,
    SingularMatrix,
    DEFAULT_MAX_WORK,
    check_invariant,
    max_states_cap,
)
from .sft import (
    PeriodicOrbit,
    SftSpec,
    Word,
    _admissible_words,
    _word_count_estimate,
    build_block_graph,
    cyclic_fold,
)
from .skew import SkewSystem, SpanningTree, build_product_graph, product_scc_witness


def _as_matrix(entry, dim: int | None) -> np.ndarray:
    rows = []
    for row in entry:
        rows.append([float(Fraction(x)) if isinstance(x, str) else float(x) for x in row])
    mat = np.array(rows, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidCocycle(f"matrix value must be square, got shape {mat.shape}")
    if dim is not None and mat.shape[0] != dim:
        raise DimensionMismatch(
            f"matrix dimension {mat.shape[0]} does not match {dim}"
        )
    return mat


def _checked_inverse(mat: np.ndarray, context: str) -> np.ndarray:
    det = np.linalg.det(mat)
    scale = max(1.0, float(np.abs(mat).max()) ** mat.shape[0])
    if not np.isfinite(det) or abs(det) < 1e-12 * scale:
        raise SingularMatrix(f"{context}: determinant {det} too close to zero")
    return np.linalg.inv(mat)


@dataclass(frozen=True)
class MatrixCocycle:
    """GL(m)-valued function of block_range + 1 consecutive symbols.

    An optional matching Lie algebra basis restricts adjoint norms in the
    distortion estimate to the declared subalgebra.
    """

    sft: SftSpec
    block_range: int
    dim: int
    values: dict[Word, np.ndarray]
    algebra: tuple[np.ndarray, ...] | None = None

    is_matrix_valued = True

    def window_value(self, word: Word) -> np.ndarray:
        return self.values[tuple(word)]

    @property
    def effective_block_length(self) -> int:
        return max(self.block_range, 1)


def make_matrix_cocycle(
    sft: SftSpec, block_range: int, values, *, algebra=None, tol: float = 1e-9
) -> MatrixCocycle:
    """Validate domain coverage, invertibility and any declared algebra."""
    if block_range < 0:
        raise InvalidCocycle("block range must be >= 0")
    table: dict[Word, np.ndarray] = {}
    dim = None
    for key, entry in values.items():
        word = tuple(int(s) for s in key)
        mat = _as_matrix(entry, dim)
        if dim is None:
            dim = mat.shape[0]
        _checked_inverse(mat, f"value at {word}")
        table[word] = mat
    expected = set(_admissible_words(sft, block_range + 1, max_states_cap()))
    if set(table) != expected:
        missing = sorted(expected - set(table))
        extra = sorted(set(table) - expected)
        raise InvalidCocycle(
            f"cocycle domain mismatch: missing {missing[:4]}, extra {extra[:4]}"
        )
    if dim is None:
        raise InvalidCocycle("cocycle has no values")
    basis = None
    if algebra is not None:
        basis = tuple(_as_matrix(entry, dim) for entry in algebra)
        _check_algebra_closed(basis, tol)
    return MatrixCocycle(
        sft=sft, block_range=block_range, dim=dim, values=table, algebra=basis
    )


def _basis_matrix(basis) -> np.ndarray:
    return np.stack([b.reshape(-1) for b in basis], axis=1)


def _check_algebra_closed(basis, tol: float) -> None:
    """Commutators of basis elements must stay in the span."""
    if not basis:
        raise AlgebraNotClosed("algebra basis is empty")
    b_mat = _basis_matrix(basis)
    if np.linalg.matrix_rank(b_mat, tol=1e-9) < len(basis):
        raise AlgebraNotClosed("algebra basis is linearly dependent")
    pinv = np.linalg.pinv(b_mat)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            comm = x @ y - y @ x
            vec = comm.reshape(-1)
            residual = float(np.linalg.norm(b_mat @ (pinv @ vec) - vec))
            if residual > tol * (1.0 + float(np.linalg.norm(vec))):
                raise AlgebraNotClosed(
                    f"commutator of basis elements {i} and {j} leaves the span "
                    f"(residual {residual:.3e})"
                )


def adjoint_norm(g: np.ndarray, basis, tol: float = 1e-9) -> float:
    """Operator 2-norm of conjugation by g, on the declared or ambient algebra."""
    if basis is None:
        return _adjoint_norm_with(g, None, None, None, tol)
    b_mat = _basis_matrix(basis)
    return _adjoint_norm_with(g, basis, b_mat, np.linalg.pinv(b_mat), tol)


def _adjoint_norm_with(g, basis, b_mat, pinv, tol) -> float:
    g_inv = _checked_inverse(g, "adjoint")
    if basis is None:
        return float(np.linalg.norm(np.kron(g, g_inv.T), 2))
    cols = []
    for j, x in enumerate(basis):
        vec = (g @ x @ g_inv).reshape(-1)
        coeffs = pinv @ vec
        residual = float(np.linalg.norm(b_mat @ coeffs - vec))
        if residual > tol * (1.0 + float(np.linalg.norm(vec))):
            raise AlgebraNotClosed(
                f"conjugation moves basis element {j} out of the declared span "
                f"(residual {residual:.3e})"
            )
        cols.append(coeffs)
    return float(np.linalg.norm(np.stack(cols, axis=1), 2))


@dataclass(frozen=True)
class MatrixViolationWitness:
    """Closed word of trivial weight whose matrix product misses identity."""

    orbit: PeriodicOrbit
    multiplicity: int
    deviation: float

    @property
    def word(self) -> Word:
        return self.orbit.word * self.multiplicity


@dataclass(frozen=True)
class MatrixVerificationReport:
    """Residuals for the three certified families: reconstruction of f on
    every edge, multiplicativity of alpha, and alpha commuting with every
    cocycle value."""

    certified: bool
    edges_checked: int
    max_residual: float
    hom_defect: float
    centrality_defect: float
    tol: float


@dataclass(frozen=True)
class MatrixSolution:
    block_length: int
    u: dict[Word, np.ndarray]
    alpha: dict[str, np.ndarray]
    alpha_constancy_defect: float
    max_residual: float
    tol: float
    certificate: MatrixVerificationReport | None = None


def cyclic_product(cocycle: MatrixCocycle, word) -> np.ndarray:
    """Ordered product of window values around a cyclic word, leftmost last."""
    word = tuple(word)
    if not cocycle.sft.is_admissible(word, cyclic=True):
        raise InvalidCocycle(f"word {word} is not cyclically admissible")
    return cyclic_fold(cocycle, word)


def _deviation(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat - np.eye(mat.shape[0])))


def solve_matrix_finite(
    system: SkewSystem, cocycle: MatrixCocycle, *, tol: float = 1e-9
) -> MatrixSolution:
    """Solve f = alpha(psi) . u(shift .) . u(.)^-1 over a finite group.

    The transfer candidate is propagated along a breadth-first tree of the
    product graph.  An edge whose closure defect exceeds tol is turned into
    a trivial-weight closed word with measured deviation and raised inside
    CocycleObstruction.  On success, alpha(gamma) is read off by comparing
    fibers; it must be the same matrix at every product vertex, otherwise
    no single deck correction exists and AlphaNotConstant reports the
    offending vertex.
    """
    group = system.group
    if not group.is_finite:
        raise InfiniteGroup("the matrix solver supports finite fiber groups")
    r = cocycle.effective_block_length
    pg = build_product_graph(system, r)
    n = pg.n_vertices
    disconnected = product_scc_witness(pg)
    if disconnected is not None:
        raise NotTransitiveError(disconnected)

    rf = cocycle.block_range
    order = pg.order

    def factor(e: int) -> np.ndarray:
        return cocycle.window_value(pg.base.edges[e // order][: rf + 1])

    tree = SpanningTree(pg)
    transfer = tree.potentials(np.eye(cocycle.dim), lambda e, t: factor(e) @ t)
    transfer_inv = [
        _checked_inverse(t, "transfer candidate") for t in transfer
    ]

    def excess(walk) -> float:
        """Deviation from identity of the walk's product, less tol."""
        prod = np.eye(cocycle.dim)
        for x in walk:
            prod = factor(x) @ prod
        return _deviation(prod) - tol

    max_residual = 0.0
    for e in range(len(pg.edge_tail)):
        t, h = pg.edge_tail[e], pg.edge_head[e]
        residual = float(np.linalg.norm(factor(e) - transfer[h] @ transfer_inv[t]))
        max_residual = max(max_residual, residual)
        if residual <= tol:
            continue
        _, word, mult = tree.witness(e, excess)
        deviation = _deviation(cyclic_product(cocycle, word * mult))
        raise CocycleObstruction(
            MatrixViolationWitness(
                orbit=PeriodicOrbit(word=word), multiplicity=mult, deviation=deviation
            )
        )

    e_idx = group.identity_index
    alpha_mats: list[np.ndarray] = []
    defect = 0.0
    worst = None
    for gi in range(order):
        # Reference fiber comparison sits over the first block at eta = identity.
        ref = transfer[group.mul(e_idx, gi)] @ transfer_inv[e_idx]
        alpha_mats.append(ref)
        for bi, block in enumerate(pg.base.vertices):
            for eta in range(order):
                vid = bi * order + group.mul(eta, gi)
                cand = transfer[vid] @ transfer_inv[bi * order + eta]
                dev = float(np.linalg.norm(cand - ref))
                if dev > defect:
                    defect = dev
                    worst = (block, group.name_of(eta), group.name_of(gi), dev)
    alpha_tol = tol * max(10, n)
    if defect > alpha_tol:
        raise AlphaNotConstant(worst)

    for a in range(order):
        for b in range(order):
            lhs = alpha_mats[group.mul(a, b)]
            rhs = alpha_mats[a] @ alpha_mats[b]
            if float(np.linalg.norm(lhs - rhs)) > alpha_tol:
                raise NotAHomomorphism(
                    f"alpha({group.name_of(a)}) and alpha({group.name_of(b)}) "
                    "do not compose multiplicatively"
                )

    u = {
        block: transfer[bi * order + e_idx]
        for bi, block in enumerate(pg.base.vertices)
    }
    alpha = {group.name_of(gi): alpha_mats[gi] for gi in range(order)}
    solution = MatrixSolution(
        block_length=r,
        u=u,
        alpha=alpha,
        alpha_constancy_defect=defect,
        max_residual=max_residual,
        tol=tol,
    )
    check_tol = certification_tolerance(tol, zip(transfer, transfer_inv), defect)
    report = verify_matrix_solution(system, cocycle, solution, tol=check_tol)
    # Centrality follows exactly from fiber constancy, so a failure here is
    # an internal inconsistency rather than a property of the input.
    check_invariant(report.certified, "solution fails its own certification")
    return MatrixSolution(
        block_length=r,
        u=u,
        alpha=alpha,
        alpha_constancy_defect=defect,
        max_residual=max_residual,
        tol=tol,
        certificate=report,
    )


def certification_tolerance(tol: float, pairs, defect: float = 0.0) -> float:
    """Residual bound for certifying a matrix solution.

    Residuals are absolute, so the requested tol plus the deck-factor
    defect is scaled by the worst condition number among the (matrix,
    inverse) pairs of transfer matrices.
    """
    cond = max(float(np.linalg.norm(m) * np.linalg.norm(mi)) for m, mi in pairs)
    return 10.0 * (tol + defect) * max(1.0, cond)


def verify_matrix_solution(
    system: SkewSystem,
    cocycle: MatrixCocycle,
    solution: MatrixSolution,
    *,
    tol: float = 1e-9,
) -> MatrixVerificationReport:
    """Recheck reconstruction, alpha multiplicativity and alpha centrality."""
    group = system.group
    if not group.is_finite:
        raise InfiniteGroup("the matrix solver supports finite fiber groups")
    r = solution.block_length
    if r != cocycle.effective_block_length:
        raise DimensionMismatch(
            f"solution blocks have length {r}, cocycle needs {cocycle.effective_block_length}"
        )
    bg = build_block_graph(system.sft, r)
    rf = cocycle.block_range
    u_inv = {block: _checked_inverse(m, f"u at {block}") for block, m in solution.u.items()}
    worst = 0.0
    for word in bg.edges:
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

    return MatrixVerificationReport(
        certified=worst <= tol and hom_defect <= tol and centrality_defect <= tol,
        edges_checked=len(bg.edges),
        max_residual=worst,
        hom_defect=hom_defect,
        centrality_defect=centrality_defect,
        tol=tol,
    )


@dataclass(frozen=True)
class DistortionReport:
    """Best adjoint growth rates seen along admissible words up to n_max.

    The per-n sequences are finite-depth observations, not limits: they
    often settle quickly but nothing here guarantees convergence.  The
    quoted mu values and the derived theta threshold are the depth-n_max
    entries.
    """

    n_max: int
    mu_s_by_n: tuple[float, ...]
    mu_u_by_n: tuple[float, ...]
    mu_s: float
    mu_u: float
    theta_threshold: float
    algebra_dim: int


def estimate_distortion(
    cocycle: MatrixCocycle, n_max: int, *, tol: float = 1e-6
) -> DistortionReport:
    """Exhaustive scan of words: mu_hat(n) = max ||Ad(product)||^(1/n).

    The forward rate uses products of n window values; the backward rate
    uses their inverses.  Both are reported per n together with the values
    at n_max, which are the estimates callers should quote.
    """
    if n_max < 1:
        raise InvalidCocycle("distortion estimation needs n_max >= 1")
    spec = cocycle.sft
    rf = cocycle.block_range
    if _word_count_estimate(spec, n_max + rf) > DEFAULT_MAX_WORK:
        raise RangeTooLarge(
            f"distortion scan to depth {n_max} exceeds the work budget"
        )
    inv_cache = {
        w: _checked_inverse(m, f"value at {w}") for w, m in cocycle.values.items()
    }
    basis = cocycle.algebra
    b_mat = _basis_matrix(basis) if basis is not None else None
    pinv = np.linalg.pinv(b_mat) if b_mat is not None else None
    best_s = [0.0] * (n_max + 1)
    best_u = [0.0] * (n_max + 1)
    identity = np.eye(cocycle.dim)

    def scan(word: tuple[int, ...], prod, inv_prod) -> None:
        n = len(word) - rf
        if n >= 1:
            rate = _adjoint_norm_with(prod, basis, b_mat, pinv, tol) ** (1.0 / n)
            best_s[n] = max(best_s[n], rate)
            rate = _adjoint_norm_with(inv_prod, basis, b_mat, pinv, tol) ** (1.0 / n)
            best_u[n] = max(best_u[n], rate)
            if n == n_max:
                return
        for b in spec.successors(word[-1]):
            nxt = word + (b,)
            if len(nxt) >= rf + 1:
                window = nxt[-(rf + 1) :]
                scan(
                    nxt,
                    cocycle.window_value(window) @ prod,
                    inv_prod @ inv_cache[window],
                )
            else:
                scan(nxt, prod, inv_prod)

    for a in range(1, spec.k + 1):
        word = (a,)
        if rf == 0:
            scan(word, cocycle.window_value(word), inv_cache[word])
        else:
            scan(word, identity, identity)

    mu_s_by_n = tuple(best_s[1:])
    mu_u_by_n = tuple(best_u[1:])
    mu_s = mu_s_by_n[-1]
    mu_u = mu_u_by_n[-1]
    threshold = max(abs(math.log(mu_s)), abs(math.log(mu_u))) / math.log(2)
    return DistortionReport(
        n_max=n_max,
        mu_s_by_n=mu_s_by_n,
        mu_u_by_n=mu_u_by_n,
        mu_s=mu_s,
        mu_u=mu_u,
        theta_threshold=threshold,
        algebra_dim=len(basis) if basis is not None else cocycle.dim**2,
    )


@dataclass(frozen=True)
class DistortionVerdict:
    status: str
    theta: float
    threshold: float
    mu_s: float
    mu_u: float
    n_max: int


def check_distortion_assumption(
    report: DistortionReport, theta: float, *, tol: float = 1e-6
) -> DistortionVerdict:
    """Compare theta against max(|log mu_s|, |log mu_u|) / log 2.

    The condition fails unless theta strictly exceeds the threshold;
    satisfied requires clearing it by more than tol, anything in between
    is marginal.
    """
    threshold = report.theta_threshold
    if theta <= threshold:
        status = "violated"
    elif theta > threshold + tol:
        status = "satisfied"
    else:
        status = "marginal"
    return DistortionVerdict(
        status=status,
        theta=theta,
        threshold=threshold,
        mu_s=report.mu_s,
        mu_u=report.mu_u,
        n_max=report.n_max,
    )


def _random_rotation(rng) -> np.ndarray:
    angle = 2.0 * math.pi * rng.random()
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _random_unipotent(rng) -> np.ndarray:
    mat = np.eye(3)
    mat[0, 1] = rng.randint(-3, 3)
    mat[0, 2] = rng.randint(-3, 3)
    mat[1, 2] = rng.randint(-3, 3)
    return mat


def generate_matrix_cocycle(
    system: SkewSystem,
    u,
    alpha,
    *,
    block_range: int,
    algebra=None,
    seed: int | None = None,
    family: str | None = None,
    tol: float = 1e-9,
) -> MatrixCocycle:
    """Build f = alpha(psi) . u(shift .) . u(.)^-1 from explicit data.

    alpha maps group element names to matrices; None means the trivial
    deck factor.  It must be a genuine homomorphism for the group table,
    and its values must commute with
    every u value and with each other; otherwise the construction would
    not be solvable in the stated form, so the request is rejected rather
    than producing a misleading instance.  With u omitted, a seeded
    generator draws one matrix per block from the named family
    ("rotation": SO(2); "unipotent": upper unitriangular 3x3).
    """
    group = system.group
    if not group.is_finite:
        raise InfiniteGroup("matrix generation supports finite fiber groups")
    if block_range < 1:
        raise InvalidCocycle("generation needs block range >= 1")
    bg = build_block_graph(system.sft, block_range)
    u_mats: dict[Word, np.ndarray] = {}
    dim = None
    if u is None:
        if seed is None or family is None:
            raise InvalidCocycle("random generation requires a seed and a family")
        draw = {"rotation": _random_rotation, "unipotent": _random_unipotent}.get(family)
        if draw is None:
            raise InvalidCocycle(f"unknown matrix family {family!r}")
        rng = random.Random(seed)
        for block in bg.vertices:
            u_mats[block] = draw(rng)
        dim = u_mats[bg.vertices[0]].shape[0]
    else:
        for key, entry in u.items():
            block = tuple(int(s) for s in key)
            mat = _as_matrix(entry, dim)
            if dim is None:
                dim = mat.shape[0]
            _checked_inverse(mat, f"u at {block}")
            u_mats[block] = mat
        if set(u_mats) != set(bg.vertices):
            raise InvalidCocycle("u must assign a matrix to every admissible block")

    if alpha is None:
        alpha = {group.name_of(i): np.eye(dim) for i in range(group.order)}
    alpha_mats: list[np.ndarray] = [None] * group.order  # type: ignore[list-item]
    for name, entry in alpha.items():
        idx = group.element_by_name(name)
        alpha_mats[idx] = _as_matrix(entry, dim)
    if any(m is None for m in alpha_mats):
        missing = [group.name_of(i) for i, m in enumerate(alpha_mats) if m is None]
        raise InvalidCocycle(f"alpha is missing values for {missing[:4]}")
    for a in range(group.order):
        for b in range(group.order):
            lhs = alpha_mats[group.mul(a, b)]
            rhs = alpha_mats[a] @ alpha_mats[b]
            scale = 1.0 + float(np.linalg.norm(rhs))
            if float(np.linalg.norm(lhs - rhs)) > tol * scale:
                raise NotAHomomorphism(
                    f"alpha({group.name_of(a)}) alpha({group.name_of(b)}) != "
                    f"alpha({group.name_of(group.mul(a, b))})"
                )

    def commute_or_raise(x, y, what):
        defect = float(np.linalg.norm(x @ y - y @ x))
        if defect > tol * (1.0 + float(np.linalg.norm(x) * np.linalg.norm(y))):
            raise CentralityImpossible(
                f"alpha does not commute with {what} (defect {defect:.3e})"
            )

    for gi in range(group.order):
        for gj in range(gi + 1, group.order):
            commute_or_raise(
                alpha_mats[gi], alpha_mats[gj], "another of its own values"
            )
        for block in bg.vertices:
            commute_or_raise(alpha_mats[gi], u_mats[block], f"u at {block}")

    u_inv = {block: _checked_inverse(m, f"u at {block}") for block, m in u_mats.items()}
    values = {}
    for word in bg.edges:
        step = alpha_mats[system.psi_of(word[0])]
        values[word] = step @ u_mats[word[1:]] @ u_inv[word[:-1]]
    return MatrixCocycle(
        sft=system.sft,
        block_range=block_range,
        dim=dim,
        values=values,
        algebra=tuple(_as_matrix(x, dim) for x in algebra) if algebra is not None else None,
    )
