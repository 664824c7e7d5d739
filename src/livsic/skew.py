"""Group extensions of a subshift driven by a one-symbol weight function.

The extension acts by (x, g) -> (shift x, psi(x0) g).  Weights of later
symbols multiply on the left, so the weight of a word w of length n is
psi(w[n-1]) ... psi(w[1]) psi(w[0]).

make_skew_system splits psi once, through Group.split, into its F indices
and Z^d vectors; the cover code here reads those factors, and branches on
the rank d where the two covers differ, never on the element encoding.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import gcd
from operator import add, eq, mul

from .errors import (
    DEFAULT_MAX_WORK,
    DimensionMismatch,
    InadmissibleWord,
    NotStronglyConnected,
    NotTransitiveError,
    RangeTooLarge,
    check_invariant,
    max_states_cap,
)
from .groups import Group, GroupElement, bareiss_pivot, subgroup_rank_and_index
from .record import record
from .sft import (
    BlockGraph,
    OrbitList,
    PeriodicOrbit,
    SftSpec,
    SpanningTree,
    Word,
    block_tree,
    build_block_graph,
    canonical_rotation,
    find_violating_cycle,
    primitive_root,
    walk_primitive_orbits,
)


@record
class SkewSystem:
    """psi in the group's element encoding, and split once into its
    factors: psi_f, the F index of each symbol's weight (all 0 over Z^d),
    and psi_z, its Z^d vector (() over a finite group)."""

    sft: SftSpec
    group: Group
    psi: tuple[GroupElement, ...]
    psi_f: tuple[int, ...]
    psi_z: tuple[tuple[int, ...], ...]

    def psi_of(self, symbol: int) -> GroupElement:
        return self.psi[symbol - 1]


def make_skew_system(sft: SftSpec, group: Group, psi) -> SkewSystem:
    psi = tuple(psi)
    if len(psi) != sft.k:
        raise DimensionMismatch(f"psi needs one value per symbol, got {len(psi)}")
    order, d = len(group.table), group.rank
    psi_f, psi_z = [], []
    for f, z in map(group.split, psi):
        f, z = int(f), tuple(int(x) for x in z)
        if not 0 <= f < order:
            raise DimensionMismatch(f"element index {f} out of range")
        if len(z) != d:
            raise DimensionMismatch(f"expected vectors of length {d}, got {z}")
        psi_f.append(f)
        psi_z.append(z)
    psi = tuple(map(group.join, psi_f, psi_z))
    return SkewSystem(sft=sft, group=group, psi=psi, psi_f=tuple(psi_f), psi_z=tuple(psi_z))


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
    f, z = group.split(weight)
    if group.rank:
        return FrobeniusClassTag(trivial=not any(z), vector=z)
    table, inverses = group.table, group.inverses
    members = sorted({table[table[g][f]][inverses[g]] for g in range(len(table))})
    return FrobeniusClassTag(trivial=f == group.identity_index, members=tuple(members))


def frobenius_class(system: SkewSystem, orbit: PeriodicOrbit) -> FrobeniusClassTag:
    if not system.sft.is_admissible(orbit.word, cyclic=True):
        raise InadmissibleWord(orbit.word)
    return class_tag(system.group, psi_n(system, orbit.word))


def _weighted_walk(system: SkewSystem, max_period: int):
    """walk_primitive_orbits on the system's shift with psi_n as the weight:
    (PackedWords of the orbit words, list of their weights), in (period,
    word) order.  The period cap and work budget are checked, and the walk
    made, when this is called."""
    group = system.group
    if group.rank:
        act = [lambda w, z=z: tuple(map(add, z, w)) for z in system.psi_z]
    else:
        act = [group.table[f].__getitem__ for f in system.psi_f]
    return walk_primitive_orbits(system.sft, max_period, act, group.identity)


def orbit_weights(system: SkewSystem, max_period: int):
    """(word, psi_n(word)) for every primitive orbit of period <= max_period.

    An iterator of pairs, each word an int tuple, in (period, word) order;
    the period cap and work budget are checked, and the walk made, when
    this is called.
    """
    return zip(*_weighted_walk(system, max_period))


def enumerate_trivial_class_orbits(
    system: SkewSystem, max_period: int
) -> list[tuple[PeriodicOrbit, FrobeniusClassTag]]:
    """Primitive orbits of period <= max_period whose weight is the identity.

    Orbits come sorted by (period, word); every one shares the identity's tag.
    """
    identity = system.group.identity
    words, weights = _weighted_walk(system, max_period)
    trivial = list(compress(words, map(eq, weights, repeat(identity))))
    tag = class_tag(system.group, identity)
    return list(zip(OrbitList(trivial), repeat(tag)))


@record
class ProductGraph:
    """Block graph crossed with the finite factor F of the fiber group.

    Over Z^d, F is trivial, so the product graph has the block graph's
    vertex and edge ids.

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
        group = self.system.group
        return block, group.name_of(group.join(vid % self.order))


def build_product_graph(system: SkewSystem, r: int) -> ProductGraph:
    # The Z^d weights live in the potentials; only F is crossed in.
    table, psi = system.group.table, system.psi_f
    base = build_block_graph(system.sft, r)
    order = len(table)
    n = _check_states(base, order)
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


def _check_states(base: BlockGraph, order: int) -> int:
    """The vertex count of the product graph over base with a fiber of
    order elements; RangeTooLarge when it passes the state cap."""
    n = len(base.vertices) * order
    if n > max_states_cap():
        raise RangeTooLarge(f"product graph would have {n} vertices")
    return n


# ---------------------------------------------------------------------------
# Strong connectivity of covers, read from sft.SpanningTree, the one graph
# search of validate_sft, check_transitivity and the solvers.


def product_scc_witness(tree: SpanningTree):
    """None if the tree's graph is strongly connected, otherwise the first
    ordered pair of product vertices (as labels) with no connecting path."""
    gap = tree.unreachable_pair()
    return None if gap is None else tuple(map(tree.graph.vertex_label, gap))


def cover_tree(system: SkewSystem, r: int) -> SpanningTree:
    """Spanning tree of the r-block graph, which carries every cover computation.

    The tree is sft.block_tree's, built once per (shift, r) and shared.
    The product graph is not built, but its size is capped all the same:
    RangeTooLarge, with build_product_graph's message, when blocks x |F|
    passes the state cap.
    """
    tree = block_tree(system.sft, r)
    _check_states(tree.graph, len(system.group.table))
    return tree


def cycle_weights(system: SkewSystem, tree: SpanningTree) -> tuple[list[int], list[int]]:
    """(wpot, cyc) as F indices: wpot[v] is the F weight of the tree path
    from block 0 to block v, and cyc[e] = wpot[h]^-1 psi_f(e) wpot[t] that
    of the fundamental cycle of edge e: t -> h (the identity on tree edges).
    Over a trivial F (Z^d among them) every weight is the identity, and no
    table is read."""
    table, inverses, bg = system.group.table, system.group.inverses, tree.graph
    identity = system.group.identity_index
    if len(table) == 1:
        return [identity] * len(bg.vertices), [identity] * len(bg.edges)
    steps = [system.psi_f[word[0] - 1] for word in bg.edges]
    wpot = tree.potentials(identity, lambda e, p: table[steps[e]][p])
    ends = zip(steps, bg.edge_tail, bg.edge_head)
    return wpot, [table[inverses[wpot[h]]][table[s][wpot[t]]] for s, t, h in ends]


def monodromy_group(system: SkewSystem, tree: SpanningTree) -> dict:
    """The monodromy group H of a strongly connected block graph, the F
    weights of its closed walks at block 0: the breadth-first closure of
    the cycle weights, which generate it.  Each y in H maps to the x it
    was first reached from, y = x . g for a cycle weight g (the identity
    to None), in breadth-first order.  Over a trivial F (Z^d among them),
    H = {identity}, and cycle_weights reads no table."""
    return _closure(system.group, cycle_weights(system, tree)[1])


def _closure(group: Group, cyc) -> dict:
    """monodromy_group from the cycle weights cyc."""
    table, identity = group.table, group.identity_index
    gens = [g for g in dict.fromkeys(cyc) if g != identity]
    via, closure = {identity: None}, [identity]
    for x in closure:
        row = table[x]
        for g in gens:
            y = row[g]
            if y not in via:
                via[y] = x
                closure.append(y)
    return via


def closure_walks(system: SkewSystem, tree: SpanningTree, via, steps, cyc, e: int, delta: int):
    """Closed walks at block 0, one of which lifts to a violation when the
    labels A(y) = A(x) H_f along via (x = via[y], f = steps[y] the first
    edge of cycle weight x^-1 y, H_f = H(D_f)^-1 H(C_f) for (C_f, D_f) =
    walks(f)) fail A(cyc[e] delta) = H_e A(delta).  C_f D_f^(n-1), n the
    order of D_f's weight, realises H_f unless D_f^n is a violation.  So
    with W the labels spelt along via, m the order of gamma = cyc[e] delta,
    W1 = W(delta) C_e D_e^(n-1) and W2 = W(gamma), returns W1 W2^(m-1),
    W2, then the D_f."""
    group = system.group
    table, identity = group.table, group.identity_index
    returns = {}

    def order(g: int) -> int:
        m, x = 1, g
        while x != identity:
            m, x = m + 1, table[g][x]
        return m

    def label(x: int) -> list[int]:
        through, back = tree.walks(x)
        returns[x] = back
        weight = psi_n(system, tree.graph.project_cycle(back)) if back else identity
        return through + back * (order(weight) - 1)

    def spell(y: int) -> list[int]:
        walk = []
        while via[y] is not None:
            walk += label(steps[y])
            y = via[y]
        return walk

    gamma = table[cyc[e]][delta]
    second = spell(gamma)
    first = spell(delta) + label(e) + second * (order(gamma) - 1)
    return [w for w in (first, second, *returns.values()) if w]


def lifted_cycle(system: SkewSystem, tree: SpanningTree, walks, score):
    """(edges, least rotation of the primitive core, its multiplicity) of a
    closed word of identity weight, from closed walks at block 0 of zero Z^d
    weight.  Each walk repeats until its lift to (block, F element, Z^d
    vector) states closes, m times for m the order of its F weight
    (states[i] is where its i-th edge leads).  The first simple cycle
    scoring positive in the first lift that has one is taken, else the last
    lift whole."""
    group = system.group
    table, identity = group.table, group.identity_index
    bg = tree.graph
    start = (0, identity, (0,) * group.rank)

    for walk in walks:
        edges, states, (_, g, z) = [], [], start
        while not edges or g != identity:
            for x in walk:
                s = bg.edges[x][0] - 1
                g, z = table[system.psi_f[s]][g], tuple(map(add, z, system.psi_z[s]))
                edges.append(x)
                states.append((bg.edge_head[x], g, z))
        cycle = find_violating_cycle(
            range(len(edges)), states, start, lambda seg: score([edges[i] for i in seg])
        )
        if cycle is not None:
            break
    cycle = edges if cycle is None else [edges[i] for i in cycle]
    core, mult = primitive_root(bg.project_cycle(cycle))
    return cycle, canonical_rotation(core), mult


def transitivity_gap(system: SkewSystem, tree: SpanningTree):
    """None if the cover of the tree's block graph by the finite factor F
    is strongly connected, otherwise the pair product_scc_witness names on
    its product graph.

    Over a strongly connected block graph every vertex of the product graph
    returns to where it came from (a closed walk's F weight has finite
    order), so the graph is strongly connected iff (block 0, element 0)
    reaches its whole fiber, i.e. iff the monodromy group H is F.
    Otherwise the first vertex it misses is (block 0, least j outside
    {h . element 0 : h in H}).  Only a block graph that is not strongly
    connected builds the product graph, to name its pair.
    """
    if not tree.strongly_connected:
        return product_scc_witness(SpanningTree(build_product_graph(system, tree.graph.r)))
    reached = monodromy_group(system, tree)
    group, table = system.group, system.group.table
    if len(reached) == len(table):
        return None
    orbit = {table[h][0] for h in reached}
    j = next(j for j in range(len(table)) if j not in orbit)
    block = tree.graph.vertices[0]
    return (block, group.name_of(group.join(0))), (block, group.name_of(group.join(j)))


def transitive_cover(system: SkewSystem, r: int):
    """The cover solvers' one gate over r-blocks: (tree, via, wpot, cyc),
    the cover_tree, the monodromy_group closure and the cycle_weights it
    was closed from.  NotStronglyConnected over Z^d, and
    NotTransitiveError over F with transitivity_gap's pair."""
    tree = cover_tree(system, r)
    if not tree.strongly_connected:
        if system.group.rank:
            raise NotStronglyConnected("block graph is not strongly connected")
        raise NotTransitiveError(transitivity_gap(system, tree))
    wpot, cyc = cycle_weights(system, tree)
    via = _closure(system.group, cyc)
    if len(via) < len(system.group.table):
        raise NotTransitiveError(transitivity_gap(system, tree))
    return tree, via, wpot, cyc


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


def _one_sided(bg: BlockGraph, psi) -> tuple[int, ...] | None:
    """None when some circulation x >= 1 on every edge of the strongly
    connected graph bg has zero psi weight, otherwise a primitive
    lam that is >= 0 on every closed walk's weight.

    One phase-1 simplex decides {y >= 0 : A y = -A 1}, x = y + 1, where A
    stacks the incidence rows (+1 at an edge's tail, -1 at its head) over
    the d rows of psi: in ints, each pivot a bareiss_pivot (the tableau is
    the last pivot times the rational one), by Bland's rule, so it ends.
    At an optimum above zero, the artificial columns' reduced costs give
    the Farkas vector (phi, lam) with lam . psi(e) + phi(t) - phi(h) >= 0
    on every edge t -> h, strictly on one; around a closed walk the phi
    terms cancel, and strong connectivity makes lam nonzero.  The tableau
    has V + d + 1 rows and E + V + d + 1 columns.
    """
    tails, heads = bg.edge_tail, bg.edge_head
    n_edges, d = len(psi), len(psi[0])
    m = len(bg.vertices) + d
    rows = [[0] * n_edges for _ in bg.vertices]
    for e, (t, h) in enumerate(zip(tails, heads)):
        rows[t][e] += 1
        rows[h][e] -= 1
    rows += map(list, zip(*psi))
    signs = [-1 if sum(row) > 0 else 1 for row in rows]  # rhs -sum(row) >= 0
    mat = [
        [s * a for a in row] + [int(i == j) for j in range(m)] + [-s * sum(row)]
        for i, (s, row) in enumerate(zip(signs, rows))
    ]
    # Minimise the artificials' sum: reduced costs 0 on them, -(column sum) elsewhere.
    mat.append([-sum(col) for col in zip(*mat)])
    mat[m][n_edges:-1] = [0] * m
    basis, objective, prev = list(range(n_edges, n_edges + m)), mat[m], 1
    while True:
        col = next((j for j, x in enumerate(objective[:-1]) if x < 0), None)
        if col is None:
            break
        r = min(
            (i for i in range(m) if mat[i][col] > 0),
            key=lambda i: (Fraction(mat[i][-1], mat[i][col]), basis[i]),
        )
        prev = bareiss_pivot(mat, r, col, prev)
        objective = mat[m]
        basis[r] = col
    if not objective[-1]:
        return None
    farkas = [s * (x - prev) for s, x in zip(signs, objective[n_edges:-1])]
    phi, lam = farkas[: m - d], farkas[m - d :]
    slack = [sum(map(mul, lam, w)) + phi[t] - phi[h] for w, t, h in zip(psi, tails, heads)]
    check_invariant(any(lam) and min(slack) >= 0, "one-sided functional fails on an edge")
    g = gcd(*lam)
    return tuple(x // g for x in lam)


def check_transitivity(system: SkewSystem) -> TransitivityVerdict:
    """Decide transitivity exactly for finite groups; for Z^d return a
    three-valued verdict read from the symbol graph.

    Finite groups: the extension is transitive iff the product graph over
    1-blocks is strongly connected, i.e. iff the monodromy group (the
    weights of closed walks at one symbol) is all of G; transitivity_gap
    decides it on the symbol graph and names the first unreachable pair of
    product vertices.  Z^d: NotStronglyConnected when the symbol graph is
    not strongly connected.  Otherwise the closed-walk weights generate
    the lattice of the fundamental-cycle weights psi(e) + pot(t) - pot(h)
    along the spanning tree, which Smith's form measures; when they span
    R^d, their cone is R^d unless _one_sided finds a functional.  A
    nonzero lam >= 0 on every closed walk (one_sided) or a proper lattice
    (proper_subgroup) refutes transitivity: no closed walk reaches a
    weight where lam is negative, or one outside the lattice.
    Transitivity itself is never certified; the best positive answer is
    "unknown" with evidence.  RangeTooLarge, before any graph is built,
    when _one_sided's pivots would pass the work budget.
    """
    d = system.group.rank
    # The work of _one_sided: as many pivots as its tableau has rows, each
    # rewriting the whole tableau.  Sparse shifts took about that many.
    rows = system.sft.k + d + 1
    width = rows + sum(map(sum, system.sft.transitions))
    if d and rows * rows * width > DEFAULT_MAX_WORK:
        raise RangeTooLarge(
            f"the cone test's simplex, {rows} pivots on a {rows} x {width} tableau, "
            "exceeds the work budget"
        )
    tree = cover_tree(system, 1)
    if not d:
        witness = transitivity_gap(system, tree)
        if witness is None:
            return TransitivityVerdict(status="transitive")
        return TransitivityVerdict(status="not_transitive", witness=witness)
    if not tree.strongly_connected:
        raise NotStronglyConnected("block graph is not strongly connected")

    bg = tree.graph
    psi = [system.psi_z[word[0] - 1] for word in bg.edges]
    pot = tree.potentials((0,) * d, lambda e, p: tuple(map(add, p, psi[e])))
    ends = zip(psi, bg.edge_tail, bg.edge_head)
    report = subgroup_rank_and_index(
        [tuple(w + a - b for w, a, b in zip(z, pot[t], pot[h])) for z, t, h in ends], d
    )
    lam = _one_sided(bg, psi) if report.rank == d else None
    interior = report.rank == d and lam is None
    evidence = TransitivityEvidence(
        lattice_rank=report.rank,
        lattice_diagonal=report.diagonal,
        lattice_full=report.full,
        zero_in_interior=interior,
        heuristic_transitive=report.full and interior,
    )
    certificate = None
    if lam is not None:
        certificate = NonTransitivityCertificate(kind="one_sided", functional=lam)
    elif not report.full:
        certificate = NonTransitivityCertificate(
            kind="proper_subgroup", lattice_rank=report.rank, lattice_diagonal=report.diagonal
        )
    status = "unknown" if certificate is None else "not_transitive"
    return TransitivityVerdict(status=status, certificate=certificate, evidence=evidence)
