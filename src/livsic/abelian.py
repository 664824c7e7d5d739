"""Exact rational cohomology solver for abelian extension data.

Given a locally constant rational function f on the shift, decide whether
f(x) = u(shift x) - u(x) + alpha(psi(x0)) for some potential u on blocks
and homomorphism alpha.

One kernel, _solve_cover, solves for a deck group Z^d x F: it works on
the product graph over the finite factor F and carries Z^d potentials of
width d.  solve_finite_gamma names its d = 0 corner (alpha vanishes by
torsion) and solve_free_abelian its |F| = 1 corner (the product graph is
the block graph).  The kernel scales f by the lcm of its denominators,
propagates integer potentials and eliminates in ints; Fraction appears
only for u, alpha, certification and witness totals, so a returned
solution is a certificate and a returned obstruction is a counterexample.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from operator import add, mul, sub

from .errors import (
    CocycleObstruction,
    DimensionMismatch,
    InvalidCocycle,
    NotStronglyConnected,
    NotTransitiveError,
    TorsionAlpha,
    check_invariant,
    max_states_cap,
)
from .groups import gauss_jordan, smith_diagonal
from .record import record
from .sft import (
    LocallyConstantCocycle,
    PeriodicOrbit,
    SpanningTree,
    Word,
    _as_fraction,
    _solution_block_graph,
    birkhoff_sum,
    build_block_graph,
    canonical_rotation,
    make_cocycle,
    primitive_root,
)
from .skew import (
    SkewSystem,
    build_product_graph,
    enumerate_trivial_class_orbits,
    product_scc_witness,
)


# ViolationWitness, EqualWeightPair and CohomologySolution are dataclasses,
# not records, while the benchmark's checker tests derive tampered answers
# from them with dataclasses.replace.
@dataclass(frozen=True)
class ViolationWitness:
    """A closed word with identity weight and nonzero sum.

    The word is orbit.word repeated multiplicity times; a multiplicity
    above 1 occurs when the primitive orbit carries a torsion weight whose
    power closes up in the group.
    """

    orbit: PeriodicOrbit
    multiplicity: int
    total: Fraction

    @property
    def word(self) -> Word:
        return self.orbit.word * self.multiplicity


@dataclass(frozen=True)
class EqualWeightPair:
    """Two closed words with the same weight but different sums.

    This is the degenerate form of an inconsistency: no alpha can match
    both words, yet no single identity-weight word witnesses the clash
    (the system drifts, so the weight cannot be cancelled).
    """

    word_a: Word
    word_b: Word
    weight: tuple[int, ...]
    sum_a: Fraction
    sum_b: Fraction


@record
class DegenerateReport:
    """Cycle weights span a proper sublattice; alpha is pinned on the rest."""

    lattice_rank: int
    lattice_diagonal: tuple[int, ...]
    pinned_coordinates: tuple[int, ...]


@record
class VerificationReport:
    certified: bool
    edges_checked: int
    failures: tuple[tuple[Word, Fraction], ...]


@dataclass(frozen=True)
class CohomologySolution:
    block_length: int
    u: dict[Word, Fraction]
    alpha: tuple[Fraction, ...] | None
    degenerate: DegenerateReport | None = None
    certificate: VerificationReport | None = None

    @property
    def alpha_is_zero(self) -> bool:
        return self.alpha is None or not any(self.alpha)


def verify_vanishing(
    system: SkewSystem, cocycle: LocallyConstantCocycle, max_period: int
) -> ViolationWitness | None:
    """First identity-class primitive orbit with nonzero sum, if any.

    Orbits are scanned in (period, word) order, so the returned witness is
    deterministic.
    """
    for orbit, _ in enumerate_trivial_class_orbits(system, max_period):
        total = birkhoff_sum(cocycle, orbit)
        if total != 0:
            return ViolationWitness(orbit=orbit, multiplicity=1, total=total)
    return None


def solve_finite_gamma(
    system: SkewSystem, cocycle: LocallyConstantCocycle
) -> CohomologySolution:
    """Solve over a finite group by propagating a potential on the product graph.

    A breadth-first spanning tree fixes the potential; every non-tree edge
    must then close up exactly.  A nonzero closure defect is converted into
    a concrete identity-weight closed word with nonzero sum and raised as
    CocycleObstruction.  On success alpha is forced to vanish because the
    group is torsion and the reals are torsion-free.  NotTransitiveError,
    with an unreachable pair, when the product graph is not strongly
    connected.
    """
    return _solve_cover(system, cocycle)


def solve_free_abelian(
    system: SkewSystem, cocycle: LocallyConstantCocycle
) -> CohomologySolution:
    """Exact solver for Z^d fibers via fundamental-cycle elimination.

    A spanning tree on the block graph defines rational and lattice
    potentials; each non-tree edge contributes one linear condition on
    alpha.  The reduced system either determines alpha (possibly pinning
    coordinates that no cycle weight sees, reported as degenerate), or is
    inconsistent, in which case the tracked row combination is reassembled
    into explicit closed words certifying the obstruction.
    NotStronglyConnected when the block graph is not strongly connected.
    """
    return _solve_cover(system, cocycle)


def _solve_cover(
    system: SkewSystem, cocycle: LocallyConstantCocycle
) -> CohomologySolution:
    """The one solver behind both public names, for a deck group Z^d x F.

    Works on the product graph over the finite factor F (F is trivial over
    Z^d, and d = 0 over a finite group).  The spanning tree carries integer
    f-potentials, scaled by the lcm of f's denominators, and Z^d
    potentials of width d; each edge's closure defect is scale * f minus
    the potential's rise.  With d = 0 the first nonzero defect is the
    obstruction; with d > 0 each non-tree edge gives an integer row
    (rho_psi, defect), and gauss_jordan's pivot rows give
    alpha = rhs / (pivot * scale).
    """
    group = system.group
    d = 0 if group.is_finite else group.rank
    r = cocycle.effective_block_length
    pg = build_product_graph(system, r)
    tree = SpanningTree(pg)
    if not tree.strongly_connected:
        if d:
            raise NotStronglyConnected("block graph is not strongly connected")
        raise NotTransitiveError(product_scc_witness(tree))

    order = pg.order
    base_weights, scale = _scaled_weights(cocycle, pg.base.edges)
    # Product edge ids run base edge by base edge, order ids each.
    weights = [x for x in base_weights for _ in range(order)]
    pot = tree.potentials(0, lambda e, p: p + weights[e])
    at = pot.__getitem__
    tails, heads = pg.edge_tail, pg.edge_head
    # scale * f minus the potential's rise, edge by edge, read once.
    defects = map(sub, map(add, weights, map(at, tails)), map(at, heads))

    def walk_sum(walk) -> Fraction:
        return Fraction(sum(map(weights.__getitem__, walk)), scale)

    alpha, degenerate = [], None
    if not d:
        e = next(compress(count(), defects), None)
        if e is not None:
            # Trimming to a simple cycle keeps its weight the identity only
            # over a finite group, so the witness is found here.
            cycle, word, mult = tree.witness(e, lambda w: 1 if walk_sum(w) else 0)
            total = walk_sum(cycle)
            check_invariant(total != 0, "closure defect without a violating cycle")
            witness = ViolationWitness(
                orbit=PeriodicOrbit(word=word), multiplicity=mult, total=total
            )
            raise CocycleObstruction(witness)
    else:
        steps = [system.psi_of(word[0]) for word in pg.base.edges for _ in range(order)]
        pot_psi = tree.potentials((0,) * d, lambda e, p: tuple(map(add, p, steps[e])))
        # One row alpha . rho_psi = defect per non-tree edge, rhs as the last entry.
        edges, rows = [], []
        for e, (t, h, defect) in enumerate(zip(tails, heads, defects)):
            if tree.parent[h] != e:
                edges.append(e)
                rho_psi = map(sub, map(add, steps[e], pot_psi[t]), pot_psi[h])
                rows.append((*rho_psi, defect))
        reduced, provenance, pivots = gauss_jordan(rows, d)
        for i in range(len(pivots), len(rows)):
            if reduced[i][d]:
                raise CocycleObstruction(_inconsistency_certificate(
                    system, tree, edges, provenance[i], steps, walk_sum
                ))
        alpha = [Fraction(0)] * d
        for row_i, col in enumerate(pivots):
            alpha[col] = Fraction(reduced[row_i][d], reduced[row_i][col] * scale)
        free_cols = tuple(c for c in range(d) if c not in pivots)
        if free_cols:
            diag = smith_diagonal([row[:d] for row in rows], d)
            degenerate = DegenerateReport(
                lattice_rank=len(diag),
                lattice_diagonal=diag,
                pinned_coordinates=free_cols,
            )

    u: dict[Word, Fraction] = {}
    for bi, block in enumerate(pg.base.vertices):
        v = bi * order + group.identity_index
        fiber = pot[bi * order : (bi + 1) * order]
        # Fiber constancy is forced: deck shifts are constants killed by torsion.
        check_invariant(fiber.count(pot[v]) == order, "potential varies along a fiber")
        u[block] = Fraction(pot[v], scale)
        if d:
            u[block] -= _alpha_dot(alpha, pot_psi[v])
    alpha_out = tuple(alpha) if d else None
    solution = CohomologySolution(r, u, alpha_out, degenerate)
    report = _check_edges(system, cocycle, solution, pg.base)
    check_invariant(report.certified, "solution fails its own certification")
    return CohomologySolution(r, u, alpha_out, degenerate, certificate=report)


def _scaled_weights(cocycle, edges) -> tuple[list[int], int]:
    """(scale * f on the leading window of each edge word, scale).

    scale is the lcm of the denominators of f, so every weight is an int
    and integer potentials divided by scale are the rational ones.
    """
    values = cocycle.values
    scale = lcm(*{x.denominator for x in values.values()})
    scaled = {w: x.numerator * (scale // x.denominator) for w, x in values.items()}
    width = cocycle.block_range + 1
    return [scaled[w[:width]] for w in edges], scale


def _alpha_dot(alpha, vec) -> Fraction:
    return sum((a * x for a, x in zip(alpha, vec)), Fraction(0))


def _drift_table(system: SkewSystem, alpha) -> list[Fraction] | None:
    """alpha . psi(a) for each symbol a (index a - 1); None without alpha.

    Edge identities add alpha . psi of the edge's first symbol, so k dot
    products serve every edge.
    """
    if alpha is None:
        return None
    return [_alpha_dot(alpha, system.psi_of(a)) for a in range(1, system.sft.k + 1)]


def _inconsistency_certificate(system, tree, edges, combo, steps, walk_sum):
    """Turn a vanishing row combination into closed-word evidence.

    combo maps row positions (indices into edges) to integer coefficients;
    steps[e] is the lattice step of edge e and walk_sum(walk) the exact sum
    of f along a walk.
    """
    pg = tree.graph
    content = gcd(*combo.values())

    plus: list[int] = []
    minus: list[int] = []
    for i, c in sorted(combo.items()):
        nmul = c // content
        if nmul:
            walk, shadow = tree.walks(edges[i])
            if nmul < 0:
                walk, shadow, nmul = shadow, walk, -nmul
            plus.extend(walk * nmul)
            minus.extend(shadow * nmul)

    def walk_psi(walk):
        return tuple(sum(steps[e][j] for e in walk) for j in range(system.group.rank))

    v = walk_psi(plus)
    check_invariant(walk_psi(minus) == v, "certificate walks differ in weight")
    sum_plus = walk_sum(plus)
    sum_minus = walk_sum(minus)
    check_invariant(sum_plus != sum_minus, "certificate walks agree in sum")

    correction = _closing_walk(system, pg.base, tuple(-x for x in v))
    if correction is not None:
        plus_closed = plus + correction
        minus_closed = minus + correction
        chosen = plus_closed if walk_sum(plus_closed) != 0 else minus_closed
        core, mult = primitive_root(pg.project_cycle(chosen))
        return ViolationWitness(
            orbit=PeriodicOrbit(word=canonical_rotation(core)),
            multiplicity=1,
            total=walk_sum(chosen) / mult,
        )
    return EqualWeightPair(
        word_a=pg.project_cycle(plus),
        word_b=pg.project_cycle(minus),
        weight=v,
        sum_a=sum_plus,
        sum_b=sum_minus,
    )


def _closing_walk(system, bg, target):
    """Closed walk at block 0 whose weight is target, by bounded lattice BFS.

    Offsets stay in the box [-bound, bound]^d, so a state (block, offset)
    is coded as the int block * side**d + the offset's base-side digits.
    Every out-edge of a block starts with the block's first symbol, so the
    lattice step and the box check are made once per state.
    """
    if not any(target):
        return []
    d = system.group.rank
    cap = max_states_cap()
    bound = max(8, 2 * max(map(abs, target)))
    side = 2 * bound + 1
    digits = [side**i for i in range(d)]
    width = side**d
    steps = [system.psi_of(block[0]) for block in bg.vertices]
    lifts = [sum(map(mul, step, digits)) for step in steps]
    start = bound * sum(digits)
    goal = start + sum(map(mul, target, digits))
    prev: dict = {start: None}
    queue = deque([(start, 0, (0,) * d)])
    out_edges, edge_head = bg.out_edges, bg.edge_head
    while queue:
        state, v, off = queue.popleft()
        noff = tuple(map(add, off, steps[v]))
        if max(noff) > bound or min(noff) < -bound:
            continue
        ncode = state - v * width + lifts[v]
        for e in out_edges[v]:
            h = edge_head[e]
            nstate = h * width + ncode
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
            if len(prev) > cap:
                return None
            queue.append((nstate, h, noff))
    return None


def verify_solution(
    system: SkewSystem, cocycle: LocallyConstantCocycle, solution: CohomologySolution
) -> VerificationReport:
    """Re-check every edge identity exactly; list residuals that fail.

    DimensionMismatch when the block length, the blocks u is defined on or
    the length of alpha do not fit the system; TorsionAlpha for a nonzero
    alpha over a finite group.
    """
    bg = _solution_block_graph(system.sft, cocycle, solution)
    return _check_edges(system, cocycle, solution, bg)


def _check_edges(system, cocycle, solution, bg) -> VerificationReport:
    """Check f(w) = u(w[1:]) - u(w[:-1]) + alpha . psi(w[0]) on every edge w of bg."""
    rf = cocycle.block_range
    u = solution.u
    drift = _drift_table(system, _alpha_vector(system.group, solution.alpha))
    failures = []
    for word in bg.edges:
        expected = u[word[1:]] - u[word[:-1]]
        if drift is not None:
            expected += drift[word[0] - 1]
        residual = cocycle.window_value(word[: rf + 1]) - expected
        if residual != 0:
            failures.append((word, residual))
    return VerificationReport(
        certified=not failures,
        edges_checked=len(bg.edges),
        failures=tuple(failures),
    )


def _alpha_vector(group, alpha) -> tuple[Fraction, ...] | None:
    """alpha as a rank-length vector over Z^d (None reads as zero), and
    None over a finite group, where torsion forces alpha = 0."""
    if group.is_finite:
        if alpha is not None and any(Fraction(a) for a in alpha):
            raise TorsionAlpha("finite fiber groups admit only alpha = 0")
        return None
    if alpha is None:
        return (Fraction(0),) * group.rank
    vec = tuple(_as_fraction(a) for a in alpha)
    if len(vec) != group.rank:
        raise DimensionMismatch("alpha length does not match the group rank")
    return vec


def generate_cocycle(
    system: SkewSystem,
    u=None,
    alpha=None,
    *,
    block_range: int,
    seed: int | None = None,
    numerator_bound: int = 9,
    denominator_bound: int = 9,
) -> LocallyConstantCocycle:
    """Build f = u(shift .) - u + alpha(psi) over (block_range+1)-windows.

    With u omitted, a seeded generator draws bounded random rationals per
    block.  A nonzero alpha over a finite group is rejected: torsion forces
    alpha = 0, so no such cocycle exists.
    """
    if block_range < 1:
        raise InvalidCocycle("generation needs block range >= 1")
    alpha_vec = _alpha_vector(system.group, alpha)
    bg = build_block_graph(system.sft, block_range)
    if u is None:
        if seed is None:
            raise InvalidCocycle("random generation requires a seed")
        rng = random.Random(seed)
        u = {
            block: Fraction(
                rng.randint(-numerator_bound, numerator_bound),
                rng.randint(1, denominator_bound),
            )
            for block in bg.vertices
        }
    else:
        u = {tuple(k): _as_fraction(v) for k, v in u.items()}
        if set(u) != set(bg.vertices):
            raise InvalidCocycle("u must assign a value to every admissible block")
    drift = _drift_table(system, alpha_vec)
    values = {}
    for word in bg.edges:
        val = u[word[1:]] - u[word[:-1]]
        if drift is not None:
            val += drift[word[0] - 1]
        values[word] = val
    return make_cocycle(system.sft, block_range, values)
