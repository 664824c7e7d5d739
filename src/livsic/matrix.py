"""Matrix cocycles over finite extensions: solver, verifier, distortion.

Values live in GL(m, R) as float64 arrays.  The solver works on the
block graph, as the exact rational ones do: the same transitivity gate,
a transfer propagated along one sft.SpanningTree, and the monodromy
group's closure with a matrix label per group element; then it measures
how badly every edge of the cover closes up.
All comparisons are at an explicit tolerance and every reported witness
carries its measured deviation, so nothing silently rounds to success.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

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
    SingularMatrix,
    check_invariant,
)
from .record import record
from .sft import (
    PeriodicOrbit,
    SftSpec,
    Word,
    _check_cocycle_shift,
    _check_window_domain,
    _solution_block_graph,
    _successor_table,
    _windows,
    build_block_graph,
    check_work,
)
from .skew import SkewSystem, closure_walks, lifted_cycle, transitive_cover

# Relative tolerance of the algebra checks: a declared basis closed under
# commutators, conjugation keeping it in its span, and the homomorphism
# and commutation checks of generate_matrix_cocycle.
_ALGEBRA_TOL = 1e-9
# A distortion scan compounds up to n_max values per product, so its span
# check is looser; it is also the margin check_distortion_assumption asks.
_DISTORTION_TOL = 1e-6
# The distortion scan's words per chunk, and the fewest it checks per
# batch: its walk holds at most depth * k chunks, and a batch fewer than
# 2 * _CHUNK words, so memory stays bounded however wide a depth level
# grows.  The group checks stack about _CHUNK pairs per batch.
_CHUNK = 512


def _as_matrix(entry, dim: int | None) -> np.ndarray:
    mat = np.array(entry, dtype=np.float64)
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
    determinant is not finite or is below 1e-15 times its largest entry
    to the power m (at least 1): working precision, so a determinant-1
    product with entries past 1e6 is still inverted.  With one label per
    stacked matrix, the message also names that matrix's label after the
    context.
    """
    det = np.linalg.det(mat)
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)) ** mat.shape[-1])
    bad = ~np.isfinite(det) | (np.abs(det) < 1e-15 * scale)
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

    kind = "matrix"

    def window_value(self, word: Word) -> np.ndarray:
        return self.values[tuple(word)]

    @property
    def effective_block_length(self) -> int:
        return max(self.block_range, 1)


def make_matrix_cocycle(
    sft: SftSpec, block_range: int, values, *, algebra=None
) -> MatrixCocycle:
    """Validate domain coverage, invertibility and any declared algebra."""
    if block_range < 0:
        raise InvalidCocycle("block range must be >= 0")
    table: dict[Word, np.ndarray] = {}
    dim = None
    for key, entry in values.items():
        mat = _as_matrix(entry, dim)
        dim = mat.shape[0]
        table[tuple(int(s) for s in key)] = mat
    if table:
        _checked_inverse(np.stack(list(table.values())), "value", labels=list(table))
    _check_window_domain(sft, block_range, table)
    if dim is None:
        raise InvalidCocycle("cocycle has no values")
    basis = None
    if algebra is not None:
        basis = tuple(_as_matrix(entry, dim) for entry in algebra)
        _check_algebra_closed(basis)
    return MatrixCocycle(
        sft=sft, block_range=block_range, dim=dim, values=table, algebra=basis
    )


def _check_algebra_closed(basis) -> None:
    """Commutators of basis elements must stay in the span.

    One stack of commutators [x_i, x_j] per basis element x_i, so memory
    stays that of the basis however large it is."""
    if not basis:
        raise AlgebraNotClosed("algebra basis is empty")
    frame = _algebra_frame(basis)
    stack, b_mat, _ = frame
    if np.linalg.matrix_rank(b_mat, tol=1e-9) < len(basis):
        raise AlgebraNotClosed("algebra basis is linearly dependent")
    for i, x in enumerate(stack):
        comms = (x @ stack - stack @ x).reshape(len(stack), -1)
        _project(comms, frame, _ALGEBRA_TOL,
                 lambda j: f"commutator of basis elements {i} and {j} leaves the span")


def _algebra_frame(basis):
    """(basis stack, basis matrix, its pseudo-inverse transposed), or None
    for the ambient algebra: what _adjoint_factors needs, computed once."""
    if basis is None:
        return None
    b_mat = np.stack([b.reshape(-1) for b in basis], axis=1)
    return np.stack(basis), b_mat, np.linalg.pinv(b_mat).T


def _spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of an (N, p, q) stack: one
    eigvalsh per matrix, so a row's value does not depend on the others."""
    gram = np.swapaxes(mats, 1, 2) @ mats
    return np.sqrt(np.linalg.eigvalsh(gram)[:, -1])


def _adjoint_factors(g: np.ndarray, frame, tol: float) -> tuple[np.ndarray, ...]:
    """Stacks whose rows' 2-norms multiply to ||Ad(g)|| for each matrix of
    an (N, m, m) stack: (g, g^-1) on the ambient algebra, (coefficient
    matrices,) on a declared one.

    Every matrix must pass _checked_inverse (SingularMatrix otherwise).
    On the ambient algebra (frame None) the norm is ||g|| ||g^-1||.  On a
    declared algebra (frame from _algebra_frame) each conjugated basis
    element must stay in the span, to tol relative to its norm, or
    AlgebraNotClosed names the element; the norm is then that of the
    coefficient matrix, one column per basis element.
    """
    g_inv = _checked_inverse(g, "adjoint")
    if frame is None:
        return g, g_inv
    stack = frame[0]
    n, m = g.shape[0], g.shape[-1]
    vecs = (g[:, None] @ stack @ g_inv[:, None]).reshape(n, len(stack), m * m)
    # Row j of coeffs[i] holds the coefficients of the j-th conjugated element.
    coeffs = _project(vecs, frame, tol,
                      lambda _, j: f"conjugation moves basis element {j} out of the declared span")
    return (coeffs,)


def _max_norms(factors, sizes, floors) -> list[float]:
    """max(floors[i], the largest M over group i) for each group i of
    sizes[i] consecutive rows, where M holds, row by row, the product of
    the 2-norms of the (N, p, q) stacks in factors: the values that
    scoring every row with _spectral_norms gives, bit for bit.  Every
    group must be nonempty.

    An exact norm costs an eigvalsh, so each row is first bracketed by
    its Frobenius norm F: F / sqrt(min(p, q)) <= 2-norm <= F.  In each
    group, a row whose upper bound falls short of max(floor, the group's
    largest lower bound), less a 1e-9 margin for rounding, cannot hold
    the maximum; only the other rows get an exact norm, and a group left
    with none keeps its floor.  When no row falls short (every row ties,
    as under a constant or a rotation cocycle), the stacks are scored as
    they stand, without a copy.
    """
    # Squared bounds, multiplied over the factors.
    upper = reduce(np.multiply, [np.einsum("nij,nij->n", f, f) for f in factors])
    rank = math.prod(min(f.shape[1:]) for f in factors)
    floors = np.array(floors, dtype=np.float64)
    group = np.repeat(np.arange(len(sizes)), sizes)
    starts = [0, *itertools.accumulate(sizes)][:-1]
    # fmax, like max(floor, x), takes the floor over a NaN.
    cuts = np.fmax(floors * floors, np.maximum.reduceat(upper, starts) / rank) * (1.0 - 1e-9)
    keep = upper >= cuts[group]
    if not keep.all():
        factors = [f[keep] for f in factors]
        group = group[keep]
    top = np.zeros(len(sizes))
    np.maximum.at(top, group, reduce(np.multiply, map(_spectral_norms, factors)))
    return np.where(top > floors, top, floors).tolist()


def _project(vecs: np.ndarray, frame, tol: float, leaves) -> np.ndarray:
    """Coefficients in the frame's basis of each flattened matrix of an
    (..., m*m) stack.  The first matrix, in index order, to leave the span
    by more than tol relative to its norm raises AlgebraNotClosed, named
    by leaves(*its index) and followed by its residual."""
    _, b_mat, pinv_t = frame
    coeffs = vecs @ pinv_t
    residual = np.linalg.norm(coeffs @ b_mat.T - vecs, axis=-1)
    leaks = np.argwhere(residual > tol * (1.0 + np.linalg.norm(vecs, axis=-1)))
    if leaks.size:
        at = tuple(leaks[0])
        raise AlgebraNotClosed(f"{leaves(*at)} (residual {residual[at]:.3e})")
    return coeffs


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
    values = map(cocycle.window_value, _windows(cocycle, word))
    return reduce(lambda prod, value: value @ prod, values)


def _frobenius(mats: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of an (..., m, m) stack."""
    return np.linalg.norm(mats, axis=(-2, -1))


def _hom_gaps(alpha: np.ndarray, table, size: int):
    """(lo, products, gaps) for each batch of size consecutive rows of the
    group table, from row lo: the (size, |F|, m, m) stacks alpha(a) alpha(b)
    and alpha(ab) - alpha(a) alpha(b) over the batch's rows a and every b."""
    for lo in range(0, len(table), size):
        products = alpha[lo : lo + size, None] @ alpha
        yield lo, products, alpha[np.array(table[lo : lo + size])] - products


def solve_matrix_finite(
    system: SkewSystem, cocycle: MatrixCocycle, *, tol: float = 1e-9
) -> MatrixSolution:
    """Solve f = alpha(psi) . u(shift .) . u(.)^-1 over a finite group.

    On the block graph, behind skew.transitive_cover.  T(b) runs along
    the tree, w_b is the F weight of b's tree path, and an edge e: t -> h
    has cycle weight g_e and holonomy H_e = T(h)^-1 f(e) T(t).  With
    labels A(y) = A(x) H_e along the monodromy closure ((x, e) = via[y],
    e the first edge with y = x g_e), the product graph (whose vertex
    (b, w_b delta) would carry T(b) A(delta)) closes iff
    A(g_e delta) = H_e A(delta) for all e and delta.  The largest gap is
    max_residual; the first over tol becomes a CocycleObstruction.  Then
    alpha = A and u(b) = T(b) A(w_b^-1).  The deck factor T(b, eta gamma)
    T(b, eta)^-1 is compared with alpha(gamma) over every block at eta =
    identity and over the first block at the cycle weights of via's
    edges, which bound the rest; past tol x max(10, blocks x |F|),
    AlphaNotConstant names the largest (block, eta, gamma, deviation),
    first in (gamma, block, eta) order.  The verifier's check recertifies
    the solution, on the stack of f's edge values made here.  The gate,
    wpot, the cycle weights and the closure's via are the Cover's, made
    once per (system, r); a solve builds only f's stacks.
    """
    _check_cocycle_shift(system.sft, cocycle)
    group = system.group
    if not group.is_finite:
        raise InfiniteGroup("the matrix solver supports finite fiber groups")
    cover = transitive_cover(system, cocycle.effective_block_length)
    tree, via, wpot, cyc = cover.tree, cover.via, cover.wpot, cover.cyc

    bg, table, order, eye = tree.graph, group.table, len(group.table), np.eye(cocycle.dim)
    factors = _edge_values(cocycle, bg)
    transfer = np.stack(tree.potentials(eye, lambda e, t: factors[e] @ t))
    transfer_inv = _checked_inverse(transfer, "transfer candidate")
    holonomy = transfer_inv[list(bg.edge_head)] @ factors @ transfer[list(bg.edge_tail)]
    labels = np.empty((order, *eye.shape))
    for y, step in via.items():
        labels[y] = eye if step is None else labels[step[0]] @ holonomy[step[1]]
    residuals = _frobenius(labels[[table[g] for g in cyc]] - holonomy[:, None] @ labels)
    over = np.flatnonzero(residuals > tol)
    if over.size:

        def excess(walk) -> float:  # deviation of the walk's product from I, less tol
            prod = reduce(lambda p, x: factors[x] @ p, walk, eye)
            return float(np.linalg.norm(prod - eye)) - tol

        walks = closure_walks(system, cover, *divmod(int(over[0]), order))
        _, word, mult = lifted_cycle(system, tree, walks, excess)
        deviation = float(np.linalg.norm(cyclic_product(cocycle, word * mult) - eye))
        raise CocycleObstruction(MatrixViolationWitness(PeriodicOrbit(word=word), mult, deviation))

    labels_inv = _checked_inverse(labels, "transfer candidate")
    back = [group.inverses[w] for w in wpot]
    u, u_inv = transfer @ labels[back], labels_inv[back] @ transfer_inv
    # (first block, identity and generators), then (other blocks, identity).
    blocks, e_idx = bg.vertices, group.identity_index
    etas = sorted({e_idx, *(cyc[step[1]] for step in via.values() if step)})
    cand = np.concatenate((labels[[table[eta] for eta in etas]] @ labels_inv[etas, None],
                           u[1:, None] @ labels @ u_inv[1:, None]))
    devs = _frobenius(cand - labels).T
    gi, i = divmod(int(np.argmax(devs)), devs.shape[1])
    defect = float(devs[gi, i])
    if defect > tol * max(10, len(blocks) * order):
        bi, eta = (0, etas[i]) if i < len(etas) else (i - len(etas) + 1, e_idx)
        raise AlphaNotConstant((blocks[bi], group.name_of(eta), group.name_of(gi), defect))

    check_tol = certification_tolerance(tol, u, u_inv, defect)
    report = _check_solution(system, cocycle, bg, factors, labels, u, u_inv, check_tol)
    # Closure and fiber constancy imply multiplicativity and centrality, so
    # a failure here is an internal inconsistency, not a property of the input.
    check_invariant(report.certified, "solution fails its own certification")
    return MatrixSolution(
        block_length=bg.r,
        u=dict(zip(blocks, u)),
        alpha={group.name_of(gi): mat for gi, mat in enumerate(labels)},
        alpha_constancy_defect=defect,
        max_residual=float(residuals.max()),
        tol=tol,
        certificate=report,
    )


def certification_tolerance(
    tol: float, mats: np.ndarray, invs: np.ndarray, defect: float = 0.0
) -> float:
    """Residual bound for certifying a matrix solution.

    Residuals are absolute, so the requested tol plus the deck-factor
    defect is scaled by the worst condition number over a stack of
    transfer matrices and the stack of their inverses.
    """
    cond = float((_frobenius(mats) * _frobenius(invs)).max())
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

    InvalidCocycle when the cocycle is over another shift than the system;
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
    if u_inv is None:
        u_inv = invert_blocks(solution.u)
    alpha = np.stack([solution.alpha[group.name_of(gi)] for gi in range(group.order)])
    u, inv = (np.stack([mats[b] for b in bg.vertices]) for mats in (solution.u, u_inv))
    return _check_solution(system, cocycle, bg, _edge_values(cocycle, bg), alpha, u, inv, tol)


def _edge_values(cocycle, bg) -> np.ndarray:
    """f on the leading window of every edge of bg, as one (E, m, m) stack."""
    width, dim = cocycle.block_range + 1, cocycle.dim
    return np.reshape([cocycle.window_value(w[:width]) for w in bg.edges], (-1, dim, dim))


def _edge_identity(system, bg, alpha, u, u_inv) -> np.ndarray:
    """alpha(psi(w[0])) u(w[1:]) u(w[:-1])^-1 for every edge w of bg, as one
    (E, m, m) stack: the value f(w) of the cocycle that u and the deck
    factor alpha make.  alpha is a stack in element order, u and u_inv
    stacks in block order.  An unvalidated spec whose symbols have no
    successor has no edges, and an empty stack."""
    steps = alpha[[system.psi_f[w[0] - 1] for w in bg.edges]]
    return steps @ u[list(bg.edge_head)] @ u_inv[list(bg.edge_tail)]


def _check_solution(system, cocycle, bg, values, alpha, u, u_inv, tol) -> MatrixVerificationReport:
    """Check the reconstruction on every edge of bg, and alpha's
    multiplicativity and centrality, for stacks alpha (in element order),
    u and u_inv (in block order) of the right shape; values is the
    cocycle's _edge_values on bg."""
    group = system.group
    expected = _edge_identity(system, bg, alpha, u, u_inv)
    worst = float(_frobenius(values - expected).max(initial=0.0))

    # A batch of group elements at a time against a stack of every element
    # (or of every cocycle value), at most _CHUNK pairs unless one element
    # alone makes more: memory stays linear in the order and windows.
    hom_defect = 0.0
    centrality_defect = 0.0
    cocycle_values = np.stack(list(cocycle.values.values()))
    size = max(1, _CHUNK // max(len(alpha), len(cocycle_values)))
    for lo, _, gaps in _hom_gaps(alpha, group.table, size):
        mats = alpha[lo : lo + size, None]
        hom_defect = max(hom_defect, float(_frobenius(gaps).max()))
        central = _frobenius(mats @ cocycle_values - cocycle_values @ mats)
        centrality_defect = max(centrality_defect, float(central.max()))

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


def estimate_distortion(cocycle: MatrixCocycle, n_max: int) -> DistortionReport:
    """Exhaustive scan of words: mu_hat(n) = max ||Ad(product)||^(1/n).

    The forward rate uses products of n window values; the backward rate
    uses their inverses.  Both are reported per n together with the values
    at n_max, which are the estimates callers should quote.

    The admissible words of length n + block_range are walked depth first
    in chunks of at most _CHUNK words, each carrying its (chunk, m, m)
    stacks of forward and backward products.  A popped chunk's children,
    found through a table of window successors, get their products as
    value @ product and inverse-product @ inverse, the order of a
    word-by-word scan, and are split into chunks and pushed.  Popped
    chunks are checked together once they hold at least _CHUNK words or
    the walk is done: one batched _adjoint_factors call over their
    forward stacks and then their backward stacks inverts every product
    (SingularMatrix) and, on a declared algebra, keeps every conjugated
    basis element in the span (AlgebraNotClosed).  On a refusal the
    batch's chunks are checked again one at a time, in pop order and
    forward stack first, so the refusal names the failure a word-by-word
    scan meets first.  Products formed past a refused one may overflow;
    the walk runs with numpy's floating-point warnings off, and the
    checks refuse what does not invert.

    Only each depth's maximum is kept, so the batch is then scored by
    one _max_norms call, one group per chunk and direction: each row's
    adjoint norm is bracketed by the Frobenius norms of its factors, and
    only the rows whose upper bound reaches max(the depth's best so far,
    the group's largest lower bound) get an exact norm.  Exact norms are
    per matrix, so the maxima are those that scoring every row gives,
    bit for bit, however the chunks are batched.  The largest norm at
    each n, over rows and chunks, gives the rate.
    """
    if n_max < 1:
        raise InvalidCocycle("distortion estimation needs n_max >= 1")
    spec = cocycle.sft
    rf = cocycle.block_range
    check_work(spec, n_max + rf, f"distortion scan to depth {n_max}", "depth", rf)
    windows = sorted(cocycle.values)
    index = {w: i for i, w in enumerate(windows)}
    vals = np.stack([cocycle.values[w] for w in windows])
    invs = _checked_inverse(vals, "value", labels=windows)
    successor = np.full((len(windows), spec.k), -1, dtype=np.intp)
    after = _successor_table(spec)
    for i, w in enumerate(windows):
        for b in after[w[-1]]:
            successor[i, b - 1] = index[w[1:] + (b,)]
    basis = cocycle.algebra
    frame = _algebra_frame(basis)
    best_s = [0.0] * (n_max + 1)
    best_u = [0.0] * (n_max + 1)
    stack = []

    def push(n, words, prods, inv_prods):
        for lo in reversed(range(0, len(words), _CHUNK)):
            hi = lo + _CHUNK
            stack.append((n, words[lo:hi], prods[lo:hi], inv_prods[lo:hi]))

    def score(batch):
        depths, words, prods, inv_prods = zip(*batch)
        try:
            factors = _adjoint_factors(np.concatenate(prods + inv_prods), frame, _DISTORTION_TOL)
        except (SingularMatrix, AlgebraNotClosed):
            # Name the failure a word-by-word scan meets first.
            for forward, backward in zip(prods, inv_prods):
                _adjoint_factors(forward, frame, _DISTORTION_TOL)
                _adjoint_factors(backward, frame, _DISTORTION_TOL)
            raise
        maxima = _max_norms(factors, [len(w) for w in words] * 2,
                            [best_s[n] for n in depths] + [best_u[n] for n in depths])
        for n, s, u in zip(depths, maxima, maxima[len(batch):]):
            best_s[n], best_u[n] = max(best_s[n], s), max(best_u[n], u)

    # The depth-1 words are the windows themselves, in lexicographic order.
    push(1, np.arange(len(windows)), vals, invs)
    batch, held = [], 0
    with np.errstate(all="ignore"):
        while stack:
            chunk = stack.pop()
            n, words, prods, inv_prods = chunk
            if n < n_max:
                succ = successor[words]
                parent, symbol = np.nonzero(succ >= 0)
                child = succ[parent, symbol]
                push(n + 1, child, vals[child] @ prods[parent], inv_prods[parent] @ invs[child])
            batch.append(chunk)
            held += len(words)
            if held >= _CHUNK or not stack:
                score(batch)
                batch, held = [], 0

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


def check_distortion_assumption(report: DistortionReport, theta: float) -> DistortionVerdict:
    """Compare theta against max(|log mu_s|, |log mu_u|) / log 2.

    The condition fails unless theta strictly exceeds the threshold;
    satisfied requires clearing it by more than _DISTORTION_TOL, anything
    in between is marginal.
    """
    threshold = report.theta_threshold
    if theta <= threshold:
        status = "violated"
    elif theta > threshold + _DISTORTION_TOL:
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


def generate_matrix_cocycle(
    system: SkewSystem, u, alpha, *, block_range: int
) -> MatrixCocycle:
    """Build f = alpha(psi) . u(shift .) . u(.)^-1 from explicit data.

    u maps every admissible block of length block_range to a matrix, and
    alpha maps group element names to matrices; None means the trivial
    deck factor.  It must be a genuine homomorphism for the group table,
    and its values must commute with
    every u value and with each other; otherwise the construction would
    not be solvable in the stated form, so the request is rejected rather
    than producing a misleading instance.  The values are checked by
    make_matrix_cocycle, as a parsed cocycle's are: SingularMatrix for a
    singular alpha value.  A cocycle with a declared algebra basis is
    make_matrix_cocycle's, given these values and the basis.
    """
    group = system.group
    if not group.is_finite:
        raise InfiniteGroup("matrix generation supports finite fiber groups")
    if block_range < 1:
        raise InvalidCocycle("generation needs block range >= 1")
    bg = build_block_graph(system.sft, block_range)
    if not bg.vertices:
        raise InvalidCocycle(
            f"no block of length {block_range} is admissible, so the cocycle has no values"
        )
    u_mats: dict[Word, np.ndarray] = {}
    dim = None
    for key, entry in u.items():
        mat = _as_matrix(entry, dim)
        dim = mat.shape[0]
        u_mats[tuple(int(s) for s in key)] = mat
    u_inv = invert_blocks(u_mats) if u_mats else {}
    if set(u_mats) != set(bg.vertices):
        raise InvalidCocycle("u must assign a matrix to every admissible block")
    dim = u_mats[bg.vertices[0]].shape[0]

    if alpha is None:
        alpha = {group.name_of(i): np.eye(dim) for i in range(group.order)}
    alpha_mats = {
        group.element_by_name(name): _as_matrix(entry, dim) for name, entry in alpha.items()
    }
    missing = [group.name_of(i) for i in range(group.order) if i not in alpha_mats]
    if missing:
        raise InvalidCocycle(f"alpha is missing values for {missing[:4]}")
    alpha_stack = np.stack([alpha_mats[i] for i in range(group.order)])
    size = max(1, _CHUNK // group.order)
    for lo, products, gaps in _hom_gaps(alpha_stack, group.table, size):
        over = np.argwhere(_frobenius(gaps) > _ALGEBRA_TOL * (1.0 + _frobenius(products)))
        if over.size:
            a, b = lo + int(over[0, 0]), int(over[0, 1])
            raise NotAHomomorphism(
                f"alpha({group.name_of(a)}) alpha({group.name_of(b)}) != "
                f"alpha({group.name_of(group.mul(a, b))})"
            )

    # alpha(g) against the later alpha values, then against u block by block.
    u_stack = np.stack([u_mats[block] for block in bg.vertices])
    for gi, x in enumerate(alpha_stack):
        others = np.concatenate((alpha_stack[gi + 1 :], u_stack))
        defects = _frobenius(x @ others - others @ x)
        over = np.flatnonzero(defects > _ALGEBRA_TOL * (1.0 + _frobenius(x) * _frobenius(others)))
        if over.size:
            j = int(over[0]) - (group.order - gi - 1)
            what = "another of its own values" if j < 0 else f"u at {bg.vertices[j]}"
            raise CentralityImpossible(
                f"alpha does not commute with {what} (defect {defects[over[0]]:.3e})"
            )

    u_inv_stack = np.stack([u_inv[block] for block in bg.vertices])
    values = _edge_identity(system, bg, alpha_stack, u_stack, u_inv_stack)
    return make_matrix_cocycle(system.sft, block_range, dict(zip(bg.edges, values)))
