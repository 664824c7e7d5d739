"""Group extensions of a subshift driven by a one-symbol weight function.

The extension acts by (x, g) -> (shift x, psi(x0) g).  Weights of later
symbols multiply on the left, so the weight of a word w of length n is
psi(w[n-1]) ... psi(w[1]) psi(w[0]).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from operator import add, mul

from .errors import (
    DEFAULT_MAX_WORK,
    DimensionMismatch,
    InadmissibleWord,
    InfiniteGroup,
    RangeTooLarge,
    max_states_cap,
)
from .groups import Group, GroupElement, subgroup_rank_and_index
from .sft import (
    BlockGraph,
    PeriodicOrbit,
    SftSpec,
    Word,
    _unreachable_pair,
    build_block_graph,
    by_period,
    canonical_rotation,
    primitive_root,
    walk_primitive_orbits,
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    Words come in lexicographic order, as from walk_primitive_orbits; the
    period cap and work budget are checked when this is called.
    """
    group = system.group
    if group.is_finite:
        act = [group.table[g].__getitem__ for g in system.psi]
    else:
        act = [lambda w, g=g: tuple(map(add, g, w)) for g in system.psi]
    return walk_primitive_orbits(system.sft, max_period, act, group.identity)


def enumerate_trivial_class_orbits(
    system: SkewSystem, max_period: int
) -> list[tuple[PeriodicOrbit, FrobeniusClassTag]]:
    """Primitive orbits of period <= max_period whose weight is the identity.

    Orbits come sorted by (period, word); every one shares the identity's tag.
    """
    identity = system.group.identity
    words = [w for w, weight in orbit_weights(system, max_period) if weight == identity]
    tag = class_tag(system.group, identity)
    return [(PeriodicOrbit(word=w), tag) for w in by_period(words, max_period)]


@dataclass(frozen=True)
class ProductGraph:
    """Block graph crossed with a finite group.

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
    if not group.is_finite:
        raise InfiniteGroup("product graphs require a finite group")
    base = build_block_graph(system.sft, r)
    order = group.order
    n = len(base.vertices) * order
    if n > max_states_cap():
        raise RangeTooLarge(f"product graph would have {n} vertices")
    tails = []
    heads = []
    out: list[list[int]] = [[] for _ in range(n)]
    for be, word in enumerate(base.edges):
        # Left multiplication by psi of the edge's first symbol.
        row = group.table[system.psi_of(word[0])]
        tb = base.edge_tail[be] * order
        hb = base.edge_head[be] * order
        for g, x in enumerate(row):
            out[tb + g].append(len(tails))
            tails.append(tb + g)
            heads.append(hb + x)
    return ProductGraph(
        system=system,
        base=base,
        order=order,
        edge_tail=tuple(tails),
        edge_head=tuple(heads),
        out_edges=tuple(map(tuple, out)),
    )


# ---------------------------------------------------------------------------
# Deterministic graph plumbing shared by the cohomology solvers: one
# strong-connectivity check for product graphs and one spanning-tree kernel
# that gives solve_finite_gamma, solve_free_abelian and solve_matrix_finite
# their potentials and their closed witness walks.


def product_scc_witness(pg: ProductGraph):
    """None if the product graph is strongly connected, otherwise the first
    ordered pair of product vertices (as labels) with no connecting path."""
    gap = _unreachable_pair([[pg.edge_head[e] for e in out] for out in pg.out_edges])
    return None if gap is None else tuple(map(pg.vertex_label, gap))


class SpanningTree:
    """Breadth-first arborescence from vertex 0 and shortest returns to it.

    Works on any graph with out_edges, edge_tail and edge_head (block and
    product graphs).  parent[v] is the tree edge into v, visit the BFS
    order, and next_edge[v] the first edge of a shortest path from v back
    to vertex 0.  Edge and vertex orders fix every choice, so potentials
    and walks are deterministic.  strongly_connected is True when both
    searches reach every vertex; potentials and walks need it.
    """

    def __init__(self, graph):
        self.graph = graph
        n = len(graph.out_edges)
        self.parent, self.visit = _bfs_edges(n, graph.out_edges, graph.edge_head)
        in_edges: list[list[int]] = [[] for _ in range(n)]
        for e, h in enumerate(graph.edge_head):
            in_edges[h].append(e)
        self.next_edge, back = _bfs_edges(n, in_edges, graph.edge_tail)
        self.strongly_connected = len(self.visit) == n == len(back)

    def potentials(self, start, step) -> list:
        """pot[0] = start and pot[head e] = step(e, pot[tail e]) on tree edges.

        Covers Q and Z^d under + and GL(m) under left multiplication.
        """
        pot = [None] * len(self.parent)
        pot[0] = start
        tail = self.graph.edge_tail
        for v in self.visit[1:]:
            e = self.parent[v]
            pot[v] = step(e, pot[tail[e]])
        return pot

    def walks(self, e: int) -> tuple[list[int], list[int]]:
        """The closed walks root->tail.e.head->root and root->head->root.

        Their weights differ by exactly the closure defect of edge e.
        """
        tail, head = self.graph.edge_tail, self.graph.edge_head
        back = []
        v = head[e]
        while self.next_edge[v] is not None:
            back.append(self.next_edge[v])
            v = head[back[-1]]
        return self._from_root(tail[e]) + [e] + back, self._from_root(head[e]) + back

    def _from_root(self, v: int) -> list[int]:
        path = []
        while self.parent[v] is not None:
            path.append(self.parent[v])
            v = self.graph.edge_tail[path[-1]]
        path.reverse()
        return path

    def witness(self, e: int, score) -> tuple[list[int], Word, int]:
        """Short closed word through a closure defect at edge e.

        Takes the higher-scoring of walks(e), trims it to its first simple
        cycle with positive score (keeping the whole walk when there is
        none), and returns (cycle, least rotation of the primitive core of
        its projected word, multiplicity of that core).  Needs a graph with
        project_cycle, i.e. a product graph.
        """
        walk = max(self.walks(e), key=score)
        cycle = find_violating_cycle(walk, self.graph.edge_head, 0, score)
        if cycle is None or score(cycle) <= 0:
            cycle = walk
        core, mult = primitive_root(self.graph.project_cycle(cycle))
        return cycle, canonical_rotation(core), mult


def _bfs_edges(n: int, edges_at, far_end):
    """BFS from vertex 0, where edges_at[v] lists the edges to follow from v
    and far_end[e] is the vertex edge e leads to.

    Returns (the edge each vertex was first reached by, None at vertex 0;
    the visit order).
    """
    via: list[int | None] = [None] * n
    seen = [False] * n
    seen[0] = True
    order = [0]
    for v in order:
        for e in edges_at[v]:
            w = far_end[e]
            if not seen[w]:
                seen[w] = True
                via[w] = e
                order.append(w)
    return via, order


def find_violating_cycle(walk_edges, edge_head, start: int, score):
    """Extract a simple cycle with positive score from a closed walk.

    The walk is scanned left to right; whenever a vertex repeats, the
    enclosed simple cycle is scored.  A positively scored cycle is returned
    at once; zero or negative cycles are spliced out and the scan continues.
    Returns the best-scoring cycle seen if none is positive, or None for an
    empty walk.  ``score`` maps an edge-id list to a number; exact callers
    use 1 for violating and 0 for clean cycles.
    """
    pos = {start: 0}
    stack_vertices = [start]
    stack_edges: list[int] = []
    best = None
    best_score = None
    for e in walk_edges:
        stack_edges.append(e)
        v = edge_head[e]
        if v in pos:
            i = pos[v]
            seg = stack_edges[i:]
            s = score(seg)
            if s > 0:
                return seg
            if best_score is None or s > best_score:
                best_score = s
                best = seg
            for u in stack_vertices[i + 1 :]:
                del pos[u]
            del stack_vertices[i + 1 :]
            del stack_edges[i:]
        else:
            pos[v] = len(stack_vertices)
            stack_vertices.append(v)
    return best


# ---------------------------------------------------------------------------
# Transitivity.


@dataclass(frozen=True)
class NonTransitivityCertificate:
    kind: str
    functional: tuple[int, ...] | None = None
    lattice_rank: int | None = None
    lattice_diagonal: tuple[int, ...] | None = None


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TransitivityVerdict:
    status: str
    witness: tuple[tuple[Word, str], tuple[Word, str]] | None = None
    certificate: NonTransitivityCertificate | None = None
    evidence: TransitivityEvidence | None = None


def _det(rows) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination."""
    m = [list(r) for r in rows]
    sign = prev = 1
    for i in range(len(m)):
        p = next((r for r in range(i, len(m)) if m[r][i]), None)
        if p is None:
            return 0
        if p != i:
            m[i], m[p] = m[p], m[i]
            sign = -sign
        for r in range(i + 1, len(m)):
            for c in range(i + 1, len(m)):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * prev


def _normal(rows, d) -> tuple[int, ...]:
    """Primitive integer vector orthogonal to d-1 integer rows (their
    generalised cross product), or zero if the rows are dependent."""
    lam = [(-1) ** i * _det([r[:i] + r[i + 1 :] for r in rows]) for i in range(d)]
    g = gcd(*lam)
    return tuple(x // g for x in lam) if g else tuple(lam)


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
        witness = product_scc_witness(build_product_graph(system, 1))
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

