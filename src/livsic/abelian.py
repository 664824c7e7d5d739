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
    DEFAULT_MAX_STATES,
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
from .sft import (
    PeriodicOrbit,
    SftSpec,
    Word,
    _admissible_words,
    birkhoff_sum,
    build_block_graph,
    canonical_rotation,
    primitive_root,
)
from .skew import (
    SkewSystem,
    SpanningTree,
    build_product_graph,
    enumerate_trivial_class_orbits,
    product_scc_witness,
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
    disconnected = product_scc_witness(pg)
    if disconnected is not None:
        raise NotTransitiveError(disconnected)

    rf = cocycle.block_range
    order = pg.order

    def weight(e: int) -> Fraction:
        return cocycle.window_value(pg.base.edges[e // order][: rf + 1])

    def violates(walk) -> int:
        return 1 if sum(weight(x) for x in walk) != 0 else 0

    tree = SpanningTree(pg)
    pot = tree.potentials(Fraction(0), lambda e, p: p + weight(e))
    for e in range(len(pg.edge_tail)):
        if weight(e) == pot[pg.edge_head[e]] - pot[pg.edge_tail[e]]:
            continue
        cycle, word, mult = tree.witness(e, violates)
        total = sum(weight(x) for x in cycle)
        check_invariant(total != 0, "closure defect without a violating cycle")
        witness = ViolationWitness(
            orbit=PeriodicOrbit(word=word), multiplicity=mult, total=total
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


def _drift_table(system: SkewSystem, alpha) -> list[Fraction] | None:
    """alpha . psi(a) for each symbol a (index a - 1); None without alpha.

    Edge identities add alpha . psi of the edge's first symbol, so k dot
    products serve every edge.
    """
    if alpha is None:
        return None
    return [_alpha_dot(alpha, system.psi_of(a)) for a in range(1, system.sft.k + 1)]


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
    if not bg.is_strongly_connected():
        raise NotStronglyConnected("block graph is not strongly connected")

    rf = cocycle.block_range

    def f_weight(e: int) -> Fraction:
        return cocycle.window_value(bg.edges[e][: rf + 1])

    def psi_weight(e: int):
        return system.psi_of(bg.edges[e][0])

    tree = SpanningTree(bg)
    pot_f = tree.potentials(Fraction(0), lambda e, p: p + f_weight(e))
    pot_psi = tree.potentials(
        (0,) * d, lambda e, p: tuple(a + b for a, b in zip(p, psi_weight(e)))
    )

    # One row alpha . rho_psi = rho_f per non-tree edge, rhs as the last entry.
    edges: list[int] = []
    rows: list[tuple] = []
    for e in range(len(bg.edge_tail)):
        t, h = bg.edge_tail[e], bg.edge_head[e]
        if tree.parent[h] == e:
            continue
        rho_psi = (
            w + a - b for w, a, b in zip(psi_weight(e), pot_psi[t], pot_psi[h])
        )
        edges.append(e)
        rows.append((*rho_psi, f_weight(e) + pot_f[t] - pot_f[h]))

    reduced, provenance, pivots = gauss_jordan(rows, d)
    for i in range(len(pivots), len(rows)):
        if reduced[i][d]:
            raise CocycleObstruction(
                _inconsistency_certificate(system, tree, edges, provenance[i], f_weight)
            )
    alpha = [Fraction(0)] * d
    for row_i, col in enumerate(pivots):
        alpha[col] = reduced[row_i][d]

    degenerate = None
    free_cols = tuple(c for c in range(d) if c not in pivots)
    if free_cols:
        diag = smith_diagonal([row[:d] for row in rows], d)
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


def _inconsistency_certificate(system, tree, edges, combo, f_weight):
    """Turn a vanishing row combination into closed-word evidence.

    combo maps row positions (indices into edges) to rational coefficients.
    """
    bg = tree.graph
    denom_lcm = 1
    for c in combo.values():
        if c:
            g = gcd(denom_lcm, c.denominator)
            denom_lcm = denom_lcm * c.denominator // g

    plus: list[int] = []
    minus: list[int] = []
    for i, c in sorted(combo.items()):
        nmul = int(c * denom_lcm)
        if not nmul:
            continue
        cycle_walk, shadow_walk = tree.walks(edges[i])
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
        system, bg, tuple(-x for x in v)
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


def _closing_walk(system, bg, target):
    """Closed walk at block 0 whose weight is target, by bounded lattice BFS."""
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
            if len(prev) > DEFAULT_MAX_STATES:
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
    drift = _drift_table(system, alpha)
    failures = []
    for word in bg.edges:
        expected = solution.u[word[1:]] - solution.u[word[:-1]]
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
    drift = _drift_table(system, alpha_vec)
    values = {}
    for word in bg.edges:
        val = u[word[1:]] - u[word[:-1]]
        if drift is not None:
            val += drift[word[0] - 1]
        values[word] = val
    return LocallyConstantCocycle(
        sft=system.sft, block_range=block_range, values=values
    )
