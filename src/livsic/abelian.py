"""Exact rational cohomology solver for abelian extension data.

Given a locally constant rational function f on the shift, decide whether
f(x) = u(shift x) - u(x) + alpha(psi(x0)) for some potential u on blocks
and homomorphism alpha.  Everything runs over Fraction, so a returned
solution is a certificate and a returned obstruction is a counterexample.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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
from .groups import smith_diagonal
from .sft import (
    PeriodicOrbit,
    SftSpec,
    Word,
    _admissible_words,
    _tarjan_scc,
    birkhoff_sum,
    build_block_graph,
    canonical_rotation,
    primitive_root,
)
from .skew import (
    SkewSystem,
    bfs_arborescence,
    build_product_graph,
    enumerate_trivial_class_orbits,
    find_violating_cycle,
    path_from_root,
    path_to_root,
    product_scc_witness,
    shortest_return_edges,
)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InvalidCocycle(f"expected a rational value, got {x!r}")


@dataclass(frozen=True)
class LocallyConstantCocycle:
    """Rational function of block_range + 1 consecutive symbols."""

    sft: SftSpec
    block_range: int
    values: dict[Word, Fraction]

    is_matrix_valued = False

    def window_value(self, word: Word) -> Fraction:
        return self.values[tuple(word)]

    @property
    def effective_block_length(self) -> int:
        return max(self.block_range, 1)


def make_cocycle(sft: SftSpec, block_range: int, values) -> LocallyConstantCocycle:
    """Validate that values cover exactly the admissible windows."""
    if block_range < 0:
        raise InvalidCocycle("block range must be >= 0")
    table = {tuple(int(s) for s in k): _as_fraction(v) for k, v in values.items()}
    expected = set(_admissible_words(sft, block_range + 1, max_states_cap()))
    got = set(table)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise InvalidCocycle(
            f"cocycle domain mismatch: missing {missing[:4]}, extra {extra[:4]}"
        )
    return LocallyConstantCocycle(sft=sft, block_range=block_range, values=table)


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


@dataclass(frozen=True)
class DegenerateReport:
    """Cycle weights span a proper sublattice; alpha is pinned on the rest."""

    lattice_rank: int
    lattice_diagonal: tuple[int, ...]
    pinned_coordinates: tuple[int, ...]


@dataclass(frozen=True)
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
    group is torsion and the reals are torsion-free.
    """
    group = system.group
    r = cocycle.effective_block_length
    pg = build_product_graph(system, r)
    n = pg.n_vertices
    comps = _tarjan_scc(n, lambda v: [pg.edge_head[e] for e in pg.out_edges[v]])
    if len(comps) > 1:
        raise NotTransitiveError(product_scc_witness(pg))

    rf = cocycle.block_range
    order = pg.order

    def weight(e: int) -> Fraction:
        return cocycle.window_value(pg.base.edges[e // order][: rf + 1])

    root = 0
    parent, visit = bfs_arborescence(n, pg.out_edges, pg.edge_head, root)
    pot: list[Fraction | None] = [None] * n
    pot[root] = Fraction(0)
    for v in visit[1:]:
        e = parent[v]
        pot[v] = pot[pg.edge_tail[e]] + weight(e)
    next_edge = shortest_return_edges(n, pg.edge_tail, pg.edge_head, root)

    for e in range(len(pg.edge_tail)):
        t, h = pg.edge_tail[e], pg.edge_head[e]
        rho = weight(e) - (pot[h] - pot[t])
        if rho == 0:
            continue
        walk_a = path_from_root(parent, pg.edge_tail, t) + [e] + path_to_root(
            next_edge, pg.edge_head, h
        )
        walk_b = path_from_root(parent, pg.edge_tail, h) + path_to_root(
            next_edge, pg.edge_head, h
        )
        walk = walk_a if sum(weight(x) for x in walk_a) != 0 else walk_b
        cycle = find_violating_cycle(
            walk,
            pg.edge_head,
            root,
            lambda seg: 1 if sum(weight(x) for x in seg) != 0 else 0,
        )
        check_invariant(cycle is not None, "closure defect without a violating cycle")
        total = sum(weight(x) for x in cycle)
        core, mult = primitive_root(pg.project_cycle(cycle))
        witness = ViolationWitness(
            orbit=PeriodicOrbit(word=canonical_rotation(core)),
            multiplicity=mult,
            total=total,
        )
        raise CocycleObstruction(witness)

    e_idx = group.identity_index
    u: dict[Word, Fraction] = {}
    for bi, block in enumerate(pg.base.vertices):
        fiber = pot[bi * order : (bi + 1) * order]
        val = fiber[e_idx]
        # Fiber constancy is forced: deck shifts are constants killed by torsion.
        check_invariant(fiber.count(val) == order, "potential varies along a fiber")
        u[block] = val
    solution = CohomologySolution(block_length=r, u=u, alpha=None)
    report = verify_solution(system, cocycle, solution)
    check_invariant(report.certified, "solution fails its own certification")
    return CohomologySolution(
        block_length=r, u=u, alpha=None, certificate=report
    )


def _alpha_dot(alpha, vec) -> Fraction:
    return sum((a * x for a, x in zip(alpha, vec)), Fraction(0))


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
    """
    group = system.group
    d = group.rank
    r = cocycle.effective_block_length
    bg = build_block_graph(system.sft, r)
    n = len(bg.vertices)
    comps = _tarjan_scc(n, bg.successors)
    if len(comps) > 1:
        raise NotStronglyConnected("block graph is not strongly connected")

    rf = cocycle.block_range

    def f_weight(e: int) -> Fraction:
        return cocycle.window_value(bg.edges[e][: rf + 1])

    def psi_weight(e: int):
        return system.psi_of(bg.edges[e][0])

    root = 0
    parent, visit = bfs_arborescence(n, bg.out_edges, bg.edge_head, root)
    pot_f: list[Fraction | None] = [None] * n
    pot_psi: list[tuple[int, ...] | None] = [None] * n
    pot_f[root] = Fraction(0)
    pot_psi[root] = (0,) * d
    for v in visit[1:]:
        e = parent[v]
        t = bg.edge_tail[e]
        pot_f[v] = pot_f[t] + f_weight(e)
        pot_psi[v] = tuple(a + b for a, b in zip(pot_psi[t], psi_weight(e)))
    next_edge = shortest_return_edges(n, bg.edge_tail, bg.edge_head, root)

    rows: list[tuple[int, tuple[int, ...], Fraction]] = []
    for e in range(len(bg.edge_tail)):
        t, h = bg.edge_tail[e], bg.edge_head[e]
        if parent[h] == e:
            continue
        rho_psi = tuple(
            w + a - b for w, a, b in zip(psi_weight(e), pot_psi[t], pot_psi[h])
        )
        rho_f = f_weight(e) + pot_f[t] - pot_f[h]
        rows.append((e, rho_psi, rho_f))

    alpha, bad_combo, pivots = _solve_alpha(rows, d)
    if bad_combo is not None:
        raise CocycleObstruction(
            _inconsistency_certificate(
                system, bg, rows, bad_combo, parent, next_edge, root, f_weight
            )
        )

    degenerate = None
    free_cols = tuple(c for c in range(d) if c not in pivots)
    if free_cols:
        diag = smith_diagonal([list(row[1]) for row in rows], d)
        degenerate = DegenerateReport(
            lattice_rank=len(diag),
            lattice_diagonal=diag,
            pinned_coordinates=free_cols,
        )

    u: dict[Word, Fraction] = {}
    for v, block in enumerate(bg.vertices):
        u[block] = pot_f[v] - _alpha_dot(alpha, pot_psi[v])
    solution = CohomologySolution(
        block_length=r, u=u, alpha=tuple(alpha), degenerate=degenerate
    )
    report = verify_solution(system, cocycle, solution)
    check_invariant(report.certified, "solution fails its own certification")
    return CohomologySolution(
        block_length=r,
        u=u,
        alpha=tuple(alpha),
        degenerate=degenerate,
        certificate=report,
    )


def _solve_alpha(rows, d):
    """Row-reduce alpha . rho_psi = rho_f with provenance tracking.

    Returns (alpha, None, pivots) when consistent, or (None, combo, ())
    where combo maps row positions to rational coefficients of a vanishing
    combination with nonzero right-hand side.
    """
    m = len(rows)
    lhs = [[Fraction(x) for x in rows[i][1]] for i in range(m)]
    rhs = [Fraction(rows[i][2]) for i in range(m)]
    prov = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    pivots: list[int] = []
    rank = 0
    for col in range(d):
        pivot = None
        for i in range(rank, m):
            if lhs[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        lhs[rank], lhs[pivot] = lhs[pivot], lhs[rank]
        rhs[rank], rhs[pivot] = rhs[pivot], rhs[rank]
        prov[rank], prov[pivot] = prov[pivot], prov[rank]
        inv = 1 / lhs[rank][col]
        lhs[rank] = [x * inv for x in lhs[rank]]
        rhs[rank] *= inv
        prov[rank] = [x * inv for x in prov[rank]]
        for i in range(m):
            if i != rank and lhs[i][col]:
                factor = lhs[i][col]
                lhs[i] = [a - factor * b for a, b in zip(lhs[i], lhs[rank])]
                rhs[i] -= factor * rhs[rank]
                prov[i] = [a - factor * b for a, b in zip(prov[i], prov[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, m):
        if rhs[i]:
            return None, prov[i], ()
    alpha = [Fraction(0)] * d
    for row_i, col in enumerate(pivots):
        alpha[col] = rhs[row_i]
    return alpha, None, tuple(pivots)


def _inconsistency_certificate(
    system, bg, rows, combo, parent, next_edge, root, f_weight
):
    """Turn a vanishing row combination into closed-word evidence."""
    denom_lcm = 1
    for c in combo:
        if c:
            g = gcd(denom_lcm, c.denominator)
            denom_lcm = denom_lcm * c.denominator // g
    coeffs = [int(c * denom_lcm) for c in combo]

    plus: list[int] = []
    minus: list[int] = []
    for (e, _, _), nmul in zip(rows, coeffs):
        if not nmul:
            continue
        t, h = bg.edge_tail[e], bg.edge_head[e]
        cycle_walk = (
            path_from_root(parent, bg.edge_tail, t)
            + [e]
            + path_to_root(next_edge, bg.edge_head, h)
        )
        shadow_walk = path_from_root(parent, bg.edge_tail, h) + path_to_root(
            next_edge, bg.edge_head, h
        )
        if nmul > 0:
            plus.extend(cycle_walk * nmul)
            minus.extend(shadow_walk * nmul)
        else:
            plus.extend(shadow_walk * -nmul)
            minus.extend(cycle_walk * -nmul)

    def walk_word(walk):
        return tuple(bg.edges[e][0] for e in walk)

    def walk_psi(walk):
        d = system.group.rank
        acc = [0] * d
        for e in walk:
            for j, x in enumerate(system.psi_of(bg.edges[e][0])):
                acc[j] += x
        return tuple(acc)

    def walk_sum(walk) -> Fraction:
        return sum((f_weight(e) for e in walk), Fraction(0))

    v = walk_psi(plus)
    check_invariant(walk_psi(minus) == v, "certificate walks differ in weight")
    sum_plus = walk_sum(plus)
    sum_minus = walk_sum(minus)
    check_invariant(sum_plus != sum_minus, "certificate walks agree in sum")

    correction: list[int] | None = [] if not any(v) else _closing_walk(
        system, bg, root, tuple(-x for x in v)
    )
    if correction is not None:
        plus_closed = plus + correction
        minus_closed = minus + correction
        chosen = plus_closed if walk_sum(plus_closed) != 0 else minus_closed
        word = walk_word(chosen)
        core, mult = primitive_root(word)
        total = walk_sum(chosen)
        return ViolationWitness(
            orbit=PeriodicOrbit(word=canonical_rotation(core)),
            multiplicity=1,
            total=total / mult,
        )
    return EqualWeightPair(
        word_a=walk_word(plus),
        word_b=walk_word(minus),
        weight=v,
        sum_a=sum_plus,
        sum_b=sum_minus,
    )


def _closing_walk(system, bg, root, target, *, max_states: int = 50_000):
    """Closed walk at root whose weight is target, by bounded lattice BFS."""
    d = system.group.rank
    bound = max(8, 2 * max(abs(x) for x in target) if any(target) else 8)
    start = (root, (0,) * d)
    goal = (root, tuple(target))
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
            if len(prev) > max_states:
                return None
            queue.append(nstate)
    return None


def verify_solution(
    system: SkewSystem, cocycle: LocallyConstantCocycle, solution: CohomologySolution
) -> VerificationReport:
    """Re-check every edge identity exactly; list residuals that fail."""
    group = system.group
    r = solution.block_length
    if r != cocycle.effective_block_length:
        raise DimensionMismatch(
            f"solution blocks have length {r}, cocycle needs {cocycle.effective_block_length}"
        )
    if group.is_finite:
        if solution.alpha is not None and any(solution.alpha):
            raise TorsionAlpha("finite fiber groups admit only alpha = 0")
        alpha = None
    else:
        alpha = solution.alpha
        if alpha is None:
            alpha = (Fraction(0),) * group.rank
        if len(alpha) != group.rank:
            raise DimensionMismatch("alpha length does not match the group rank")
    bg = build_block_graph(system.sft, r)
    rf = cocycle.block_range
    failures = []
    for e, word in enumerate(bg.edges):
        prefix = word[:-1]
        suffix = word[1:]
        expected = solution.u[suffix] - solution.u[prefix]
        if alpha is not None:
            expected += _alpha_dot(alpha, system.psi_of(word[0]))
        residual = cocycle.window_value(word[: rf + 1]) - expected
        if residual != 0:
            failures.append((word, residual))
    return VerificationReport(
        certified=not failures,
        edges_checked=len(bg.edges),
        failures=tuple(failures),
    )


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
    group = system.group
    if block_range < 1:
        raise InvalidCocycle("generation needs block range >= 1")
    if group.is_finite:
        if alpha is not None and any(Fraction(a) for a in alpha):
            raise TorsionAlpha("finite fiber groups admit only alpha = 0")
        alpha_vec = None
    else:
        if alpha is None:
            alpha_vec = (Fraction(0),) * group.rank
        else:
            alpha_vec = tuple(_as_fraction(a) for a in alpha)
            if len(alpha_vec) != group.rank:
                raise DimensionMismatch("alpha length does not match the group rank")
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
    values = {}
    for word in bg.edges:
        val = u[word[1:]] - u[word[:-1]]
        if alpha_vec is not None:
            val += _alpha_dot(alpha_vec, system.psi_of(word[0]))
        values[word] = val
    return LocallyConstantCocycle(
        sft=system.sft, block_range=block_range, values=values
    )
