"""Group extensions of a subshift driven by a one-symbol weight function.

The extension acts by (x, g) -> (shift x, psi(x0) g).  Weights of later
symbols multiply on the left, so the weight of a word w of length n is
psi(w[n-1]) ... psi(w[1]) psi(w[0]).
"""
from __future__ import annotations

from itertools import combinations
from math import comb, gcd
from operator import add, mul

from .errors import (
    DEFAULT_MAX_WORK,
    DimensionMismatch,
    InadmissibleWord,
    RangeTooLarge,
    max_states_cap,
)
from .groups import Group, GroupElement, gauss_jordan, subgroup_rank_and_index
from .record import record
from .sft import (
    BlockGraph,
    PeriodicOrbit,
    SftSpec,
    SpanningTree,
    Word,
    build_block_graph,
    walk_primitive_orbits,
)


@record
class SkewSystem:
    sft: SftSpec
    group: Group
    psi: tuple[GroupElement, ...]

    def psi_of(self, symbol: int) -> GroupElement:
        return self.psi[symbol - 1]


def make_skew_system(sft: SftSpec, group: Group, psi) -> SkewSystem:
    psi = tuple(psi)
    if len(psi) != sft.k:
        raise DimensionMismatch(f"psi needs one value per symbol, got {len(psi)}")
    checked = []
    for value in psi:
        if group.is_finite:
            value = int(value)
            if not 0 <= value < group.order:
                raise DimensionMismatch(f"element index {value} out of range")
        else:
            value = tuple(int(x) for x in value)
            if len(value) != group.rank:
                raise DimensionMismatch(
                    f"expected vectors of length {group.rank}, got {value}"
                )
        checked.append(value)
    return SkewSystem(sft=sft, group=group, psi=tuple(checked))


def psi_n(system: SkewSystem, word) -> GroupElement:
    """Accumulated weight of an admissible word, later symbols on the left."""
    word = tuple(word)
    if not system.sft.is_admissible(word):
        raise InadmissibleWord(word)
    acc = system.group.identity
    for s in word:
        acc = system.group.mul(system.psi_of(s), acc)
    return acc


@record
class FrobeniusClassTag:
    """Conjugacy class (finite groups) or lattice vector (Z^d) of an orbit weight."""

    trivial: bool
    members: tuple[int, ...] | None = None
    vector: tuple[int, ...] | None = None


def class_tag(group: Group, weight: GroupElement) -> FrobeniusClassTag:
    """Conjugacy class (finite groups) or the vector itself (Z^d) of a weight."""
    if group.is_finite:
        members = sorted(
            {group.mul(group.mul(g, weight), group.inv(g)) for g in group.elements()}
        )
        return FrobeniusClassTag(
            trivial=weight == group.identity, members=tuple(members)
        )
    return FrobeniusClassTag(trivial=not any(weight), vector=weight)


def frobenius_class(system: SkewSystem, orbit: PeriodicOrbit) -> FrobeniusClassTag:
    if not system.sft.is_admissible(orbit.word, cyclic=True):
        raise InadmissibleWord(orbit.word)
    return class_tag(system.group, psi_n(system, orbit.word))


def orbit_weights(system: SkewSystem, max_period: int):
    """(word, psi_n(word)) for every primitive orbit of period <= max_period.

    An iterator over the lists of walk_primitive_orbits, so it comes in
    (period, word) order; the period cap and work budget are checked, and
    the walk made, when this is called.
    """
    group = system.group
    if group.is_finite:
        act = [group.table[g].__getitem__ for g in system.psi]
    else:
        act = [lambda w, g=g: tuple(map(add, g, w)) for g in system.psi]
    return zip(*walk_primitive_orbits(system.sft, max_period, act, group.identity))


def enumerate_trivial_class_orbits(
    system: SkewSystem, max_period: int
) -> list[tuple[PeriodicOrbit, FrobeniusClassTag]]:
    """Primitive orbits of period <= max_period whose weight is the identity.

    Orbits come sorted by (period, word); every one shares the identity's tag.
    """
    identity = system.group.identity
    tag = class_tag(system.group, identity)
    return [
        (PeriodicOrbit(word=w), tag)
        for w, weight in orbit_weights(system, max_period)
        if weight == identity
    ]


@record
class ProductGraph:
    """Block graph crossed with the finite factor of the fiber group.

    A Z^d group contributes the trivial factor, so its product graph has
    the block graph's vertex and edge ids.

    Vertex ids are block-major: vid = block_index * order + element_index.
    Edge ids follow base edge order, then element order, so every traversal
    here is deterministic.
    """

    system: SkewSystem
    base: BlockGraph
    order: int
    edge_tail: tuple[int, ...]
    edge_head: tuple[int, ...]
    out_edges: tuple[tuple[int, ...], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.base.vertices) * self.order

    def vertex_label(self, vid: int) -> tuple[Word, str]:
        block = self.base.vertices[vid // self.order]
        return block, self.system.group.name_of(vid % self.order)

    def edge_symbol(self, eid: int) -> int:
        return self.base.edges[eid // self.order][0]

    def project_cycle(self, edge_ids) -> Word:
        return tuple(self.edge_symbol(e) for e in edge_ids)


def build_product_graph(system: SkewSystem, r: int) -> ProductGraph:
    group = system.group
    # Z^d contributes the trivial factor; its weights live in the potentials.
    finite = group.is_finite
    table = group.table if finite else ((0,),)
    psi = system.psi if finite else (0,) * system.sft.k
    base = build_block_graph(system.sft, r)
    order = len(table)
    n = len(base.vertices) * order
    if n > max_states_cap():
        raise RangeTooLarge(f"product graph would have {n} vertices")
    if order == 1:  # the block graph's own edges, not a copy
        tails, heads, out = base.edge_tail, base.edge_head, base.out_edges
    else:
        tails, heads, out = [], [], [[] for _ in range(n)]
        for be, word in enumerate(base.edges):
            # Left multiplication by psi of the edge's first symbol.
            row = table[psi[word[0] - 1]]
            tb = base.edge_tail[be] * order
            hb = base.edge_head[be] * order
            for g, x in enumerate(row):
                out[tb + g].append(len(tails))
                tails.append(tb + g)
                heads.append(hb + x)
        tails, heads, out = tuple(tails), tuple(heads), tuple(map(tuple, out))
    return ProductGraph(
        system=system,
        base=base,
        order=order,
        edge_tail=tails,
        edge_head=heads,
        out_edges=out,
    )


# ---------------------------------------------------------------------------
# Strong connectivity of product graphs, read from sft.SpanningTree, the
# one graph search of validate_sft, check_transitivity and the solvers.


def product_scc_witness(tree: SpanningTree):
    """None if the tree's graph is strongly connected, otherwise the first
    ordered pair of product vertices (as labels) with no connecting path."""
    gap = tree.unreachable_pair()
    return None if gap is None else tuple(map(tree.graph.vertex_label, gap))


# ---------------------------------------------------------------------------
# Transitivity.


@record
class NonTransitivityCertificate:
    kind: str
    functional: tuple[int, ...] | None = None
    lattice_rank: int | None = None
    lattice_diagonal: tuple[int, ...] | None = None


@record
class TransitivityEvidence:
    probe_depth: int
    probe_covers_simple_cycles: bool
    orbit_count: int
    distinct_classes: tuple[tuple[int, ...], ...]
    lattice_rank: int
    lattice_diagonal: tuple[int, ...]
    lattice_full: bool
    zero_in_interior: bool
    heuristic_transitive: bool


@record
class TransitivityVerdict:
    status: str
    witness: tuple[tuple[Word, str], tuple[Word, str]] | None = None
    certificate: NonTransitivityCertificate | None = None
    evidence: TransitivityEvidence | None = None


def _normal(rows, d) -> tuple[int, ...]:
    """Primitive integer vector orthogonal to d-1 integer rows, of either
    sign, or zero if the rows are dependent.  The free column of their
    reduction takes the pivot value (1 with no pivot), and each pivot
    column minus its row's entry in the free column."""
    reduced, _, pivots = gauss_jordan(rows, d)
    if len(pivots) < d - 1:
        return (0,) * d
    free = next(c for c in range(d) if c not in pivots)
    lam = [reduced[0][pivots[0]] if pivots else 1] * d
    for row, col in zip(reduced, pivots):
        lam[col] = -row[free]
    g = gcd(*lam)
    return tuple(x // g for x in lam)


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _dual_rays(vectors, d) -> set[tuple[int, ...]]:
    """Primitive extreme rays of the dual cone {lam : lam.v >= 0 for all v}
    of a family of integer vectors spanning Q^d.

    Each ray vanishes on d-1 independent vectors, so it is the normal of a
    (d-1)-subset, with one of its two signs.  The set is empty exactly when
    0 is interior to the convex hull of the vectors; when some functional
    is > 0 on every vector, so is the sum of the set, a positive
    combination of every extreme ray.

    The search costs one dot product per subset and vector; RangeTooLarge
    is raised before it starts when that exceeds the work budget.
    """
    n = len(vectors)
    subsets = comb(n, d - 1)
    if subsets * n > DEFAULT_MAX_WORK:
        raise RangeTooLarge(
            f"dual-cone ray search over {subsets} subsets of {d - 1} among "
            f"{n} simple-cycle classes exceeds the work budget"
        )
    rays = set()
    for rows in combinations(vectors, d - 1):
        lam = _normal(rows, d)
        for ray in (lam, tuple(-x for x in lam)) if any(lam) else ():
            if all(_dot(ray, v) >= 0 for v in vectors):
                rays.add(ray)
    return rays


def check_transitivity(system: SkewSystem) -> TransitivityVerdict:
    """Decide transitivity exactly for finite groups; for Z^d return a
    three-valued verdict backed by the weights of the orbits of period <= k.

    Finite groups: the extension is transitive iff the product graph over
    1-blocks is strongly connected.  Z^d: psi depends on one symbol, so the
    orbits of period <= k (the alphabet size) include every simple cycle of
    the symbol graph, and every closed walk's weight is a sum of their
    weights.  A functional strictly positive on every class (one_sided) or
    a proper weight lattice (proper_subgroup) therefore refutes
    transitivity; transitivity itself is never certified, the best positive
    answer is "unknown" with evidence.  RangeTooLarge is raised when k
    exceeds LIVSIC_MAX_PERIOD, when the orbit walk exceeds the work budget,
    or when the dual-cone ray search over (rank - 1)-subsets of the
    simple-cycle classes (times their number) would.
    """
    group = system.group
    if group.is_finite:
        witness = product_scc_witness(SpanningTree(build_product_graph(system, 1)))
        if witness is None:
            return TransitivityVerdict(status="transitive")
        return TransitivityVerdict(status="not_transitive", witness=witness)

    d = group.rank
    k = system.sft.k
    orbit_count = 0
    classes = set()
    cycle_classes = set()
    for word, weight in orbit_weights(system, k):
        orbit_count += 1
        classes.add(weight)
        if len(set(word)) == len(word):
            cycle_classes.add(weight)
    distinct = tuple(sorted(classes))
    report = subgroup_rank_and_index(list(distinct), d)
    # Classes inside a hyperplane: its normal is >= 0 (indeed 0) on all of
    # them, so zero is not interior to their hull and no ray is needed.
    # Otherwise the simple cycles (words with no repeated symbol) generate
    # the same cone as every class, with far fewer (d-1)-subsets.
    spans = report.rank == d
    rays = _dual_rays(tuple(sorted(cycle_classes)), d) if spans else set()
    interior = spans and not rays
    evidence = TransitivityEvidence(
        probe_depth=k,
        probe_covers_simple_cycles=True,
        orbit_count=orbit_count,
        distinct_classes=distinct,
        lattice_rank=report.rank,
        lattice_diagonal=report.diagonal,
        lattice_full=report.full,
        zero_in_interior=interior,
        heuristic_transitive=report.full and interior,
    )
    lam = tuple(map(sum, zip(*rays)))
    if rays and all(_dot(lam, v) > 0 for v in distinct):
        return TransitivityVerdict(
            status="not_transitive",
            certificate=NonTransitivityCertificate(kind="one_sided", functional=lam),
            evidence=evidence,
        )
    if distinct and not report.full:
        return TransitivityVerdict(
            status="not_transitive",
            certificate=NonTransitivityCertificate(
                kind="proper_subgroup",
                lattice_rank=report.rank,
                lattice_diagonal=report.diagonal,
            ),
            evidence=evidence,
        )
    return TransitivityVerdict(status="unknown", evidence=evidence)


def psi_n_cyclic(system: SkewSystem, word) -> GroupElement:
    """Weight of a cyclic word, checking the wrap edge too."""
    if not system.sft.is_admissible(word, cyclic=True):
        raise InadmissibleWord(word)
    return psi_n(system, word)

