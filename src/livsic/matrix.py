"""Matrix cocycles over finite extensions: solver, verifier, distortion.

Values live in GL(m, R) as float64 arrays.  The solver runs on the same
spanning-tree kernel as the exact rational ones (sft.SpanningTree):
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
from .record import record
from .sft import (
    PeriodicOrbit,
    SftSpec,
    SpanningTree,
    Word,
    _admissible_words,
    _solution_block_graph,
    _word_count_estimate,
    build_block_graph,
    cyclic_fold,
)
from .skew import SkewSystem, build_product_graph, product_scc_witness


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


def _checked_inverse(mat: np.ndarray, context: str, labels=None) -> np.ndarray:
    """Inverse of a matrix, or of each matrix in an (N, m, m) stack.

    SingularMatrix names the determinant of the first matrix whose
    determinant is not finite or is below 1e-12 times its largest entry
    to the power m (at least 1).  With one label per stacked matrix, the
    message also names that matrix's label after the context.
    """
    det = np.linalg.det(mat)
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)) ** mat.shape[-1])
    bad = ~np.isfinite(det) | (np.abs(det) < 1e-12 * scale)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        name = context if labels is None else f"{context} at {labels[i]}"
        raise SingularMatrix(f"{name}: determinant {np.ravel(det)[i]} too close to zero")
    return np.linalg.inv(mat)


def invert_blocks(u: dict[Word, np.ndarray]) -> dict[Word, np.ndarray]:
    """u[block]^-1 for every block, from one stacked inversion.

    SingularMatrix names the first singular block."""
    blocks = list(u)
    inverses = _checked_inverse(np.stack([u[b] for b in blocks]), "u", labels=blocks)
    return dict(zip(blocks, inverses))


@record
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
    return float(_adjoint_norms(g[None], basis, tol)[0])


def _adjoint_norms(g: np.ndarray, basis, tol: float) -> np.ndarray:
    """2-norm of Ad(g) for each matrix of an (N, m, m) stack.

    Every matrix must pass _checked_inverse (SingularMatrix otherwise).
    On the ambient algebra (basis None) Ad(g) is kron(g, g^-T).  On a
    declared algebra each conjugated basis element must stay in the span,
    to tol relative to its norm, or AlgebraNotClosed names the element;
    the norm is then that of the coefficient matrix, one column per basis
    element.
    """
    n, m = g.shape[0], g.shape[-1]
    g_inv = _checked_inverse(g, "adjoint")
    if basis is None:
        ad = g[:, :, None, :, None] * np.swapaxes(g_inv, 1, 2)[:, None, :, None, :]
        return np.linalg.norm(ad.reshape(n, m * m, m * m), 2, axis=(1, 2))
    b_mat = _basis_matrix(basis)
    vecs = (g[:, None] @ np.stack(basis) @ g_inv[:, None]).reshape(n, len(basis), m * m)
    coeffs = np.linalg.pinv(b_mat) @ vecs[..., None]
    residual = np.linalg.norm((b_mat @ coeffs)[..., 0] - vecs, axis=-1)
    leaks = residual > tol * (1.0 + np.linalg.norm(vecs, axis=-1))
    if leaks.any():
        row, j = np.argwhere(leaks)[0]
        raise AlgebraNotClosed(
            f"conjugation moves basis element {j} out of the declared span "
            f"(residual {residual[row, j]:.3e})"
        )
    return np.linalg.norm(np.swapaxes(coeffs[..., 0], 1, 2), 2, axis=(1, 2))


@record
class MatrixViolationWitness:
    """Closed word of trivial weight whose matrix product misses identity."""

    orbit: PeriodicOrbit
    multiplicity: int
    deviation: float

    @property
    def word(self) -> Word:
        return self.orbit.word * self.multiplicity


@record
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


# A dataclass, not a record, while the benchmark's checker tests derive
# tampered solutions with dataclasses.replace.
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
    tree = SpanningTree(pg)
    if not tree.strongly_connected:
        raise NotTransitiveError(product_scc_witness(tree))

    rf = cocycle.block_range
    order = pg.order

    def factor(e: int) -> np.ndarray:
        return cocycle.window_value(pg.base.edges[e // order][: rf + 1])

    transfer = tree.potentials(np.eye(cocycle.dim), lambda e, t: factor(e) @ t)
    transfer_inv = list(_checked_inverse(np.stack(transfer), "transfer candidate"))

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
    u_inv: dict[Word, np.ndarray] | None = None,
) -> MatrixVerificationReport:
    """Recheck reconstruction, alpha multiplicativity and alpha centrality.

    DimensionMismatch when the block length, the blocks u is defined on,
    the names alpha is keyed by or the size of a u or alpha matrix do not
    fit the system and cocycle.  u_inv, when given, is
    invert_blocks(solution.u) already computed by the caller (for instance
    to scale tol), so u is inverted only once."""
    group = system.group
    if not group.is_finite:
        raise InfiniteGroup("the matrix solver supports finite fiber groups")
    bg = _solution_block_graph(system.sft, cocycle, solution)
    if solution.alpha.keys() != set(group.names):
        raise DimensionMismatch("alpha must be keyed by exactly the group's element names")
    dim = cocycle.dim
    for name, mats in (("u", solution.u), ("alpha", solution.alpha)):
        if any(m.shape != (dim, dim) for m in mats.values()):
            raise DimensionMismatch(f"{name} matrices must be {dim}x{dim}, as the cocycle's are")
    rf = cocycle.block_range
    if u_inv is None:
        u_inv = invert_blocks(solution.u)
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


@record
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


# Words scored per batch.  The walk holds at most depth * k chunks, so
# memory stays bounded however wide a depth level grows.
_CHUNK = 512


def estimate_distortion(
    cocycle: MatrixCocycle, n_max: int, *, tol: float = 1e-6
) -> DistortionReport:
    """Exhaustive scan of words: mu_hat(n) = max ||Ad(product)||^(1/n).

    The forward rate uses products of n window values; the backward rate
    uses their inverses.  Both are reported per n together with the values
    at n_max, which are the estimates callers should quote.

    The admissible words of length n + block_range are walked depth first
    in chunks of at most _CHUNK words, each carrying its (chunk, m, m)
    stacks of forward and backward products.  A popped chunk is scored
    with one batched adjoint-norm call per direction, and its children,
    found through a table of window successors, get their products as
    value @ product and inverse-product @ inverse, the order of a
    word-by-word scan, before being split into chunks and pushed.  The
    largest norm at each n, over rows and chunks, gives the rate.
    """
    if n_max < 1:
        raise InvalidCocycle("distortion estimation needs n_max >= 1")
    spec = cocycle.sft
    rf = cocycle.block_range
    if _word_count_estimate(spec, n_max + rf) > DEFAULT_MAX_WORK:
        raise RangeTooLarge(
            f"distortion scan to depth {n_max} exceeds the work budget"
        )
    windows = sorted(cocycle.values)
    index = {w: i for i, w in enumerate(windows)}
    vals = np.stack([cocycle.values[w] for w in windows])
    invs = np.stack([_checked_inverse(cocycle.values[w], f"value at {w}") for w in windows])
    successor = np.full((len(windows), spec.k), -1, dtype=np.intp)
    for i, w in enumerate(windows):
        for b in spec.successors(w[-1]):
            successor[i, b - 1] = index[w[1:] + (b,)]
    basis = cocycle.algebra
    best_s = [0.0] * (n_max + 1)
    best_u = [0.0] * (n_max + 1)
    stack = []

    def push(n, words, prods, inv_prods):
        for lo in reversed(range(0, len(words), _CHUNK)):
            hi = lo + _CHUNK
            stack.append((n, words[lo:hi], prods[lo:hi], inv_prods[lo:hi]))

    # The depth-1 words are the windows themselves, in lexicographic order.
    push(1, np.arange(len(windows)), vals, invs)
    while stack:
        n, words, prods, inv_prods = stack.pop()
        best_s[n] = max(best_s[n], float(_adjoint_norms(prods, basis, tol).max()))
        best_u[n] = max(best_u[n], float(_adjoint_norms(inv_prods, basis, tol).max()))
        if n < n_max:
            succ = successor[words]
            parent, symbol = np.nonzero(succ >= 0)
            child = succ[parent, symbol]
            push(n + 1, child, vals[child] @ prods[parent], inv_prods[parent] @ invs[child])

    for n in range(1, n_max + 1):
        if best_s[n] == 0.0:
            raise InvalidCocycle(
                f"no admissible word of length {n + rf}, so no product at depth {n}"
            )
    mu_s_by_n = tuple(best_s[n] ** (1.0 / n) for n in range(1, n_max + 1))
    mu_u_by_n = tuple(best_u[n] ** (1.0 / n) for n in range(1, n_max + 1))
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


@record
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
    u_inv: dict[Word, np.ndarray] = {}
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
            u_inv[block] = np.linalg.inv(u_mats[block])  # determinant 1 by construction
        dim = u_mats[bg.vertices[0]].shape[0]
    else:
        for key, entry in u.items():
            block = tuple(int(s) for s in key)
            mat = _as_matrix(entry, dim)
            if dim is None:
                dim = mat.shape[0]
            u_inv[block] = _checked_inverse(mat, f"u at {block}")
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
