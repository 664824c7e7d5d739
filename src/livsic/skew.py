"""Group extensions of a subshift driven by a one-symbol weight function.

The extension acts by (x, g) -> (shift x, psi(x0) g).  Weights of later
symbols multiply on the left, so the weight of a word w of length n is
psi(w[n-1]) ... psi(w[1]) psi(w[0]).

make_skew_system splits psi once, through Group.split, into its F indices
and Z^d vectors; the cover code here reads those factors, and branches on
the rank d where the two covers differ, never on the element encoding.
Every cover question, check_transitivity's and the solvers', passes one
gate, transitive_cover, which decides strong connectivity and the
monodromy closure once per (system, r).
"""
from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import add, index, mul

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
from .groups import (
    Group,
    GroupElement,
    SubgroupReport,
    bareiss_pivot,
    pivot_rows,
    subgroup_rank_and_index,
)
from .record import record
from .sft import (
    BlockGraph,
    PeriodicOrbit,
    SftSpec,
    SpanningTree,
    StateMemo,
    Word,
    _block_tree,
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
    """DimensionMismatch, naming the symbol, unless psi gives each symbol
    an element: an F index, or over Z^d a sequence of d integers.  An
    integer is what operator.index admits (numpy ints too), bar bool."""
    psi = tuple(psi)
    if len(psi) != sft.k:
        raise DimensionMismatch(f"psi needs one value per symbol, got {len(psi)}")
    order, d = len(group.table), group.rank
    psi_f, psi_z = [], []
    for symbol, value in enumerate(psi, 1):
        f, z = group.split(value)
        try:
            f, z = _integer(f), tuple(map(_integer, z))
            valid = 0 <= f < order and len(z) == d
        except TypeError:
            valid = False
        if not valid:
            want = f"a vector of {d} integers" if d else f"an element index below {order}"
            raise DimensionMismatch(f"psi of symbol {symbol} is {value!r}, not {want}")
        psi_f.append(f)
        psi_z.append(z)
    psi = tuple(map(group.join, psi_f, psi_z))
    return SkewSystem(sft=sft, group=group, psi=psi, psi_f=tuple(psi_f), psi_z=tuple(psi_z))


def _integer(x) -> int:
    if isinstance(x, bool):
        raise TypeError("a bool is not an integer here")
    return index(x)


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


@record
class ProductGraph:
    """Block graph crossed with the finite factor F of the fiber group:
    the tests' reference for the block-graph gate, transitive_cover, which
    never builds it.

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
    """The ProductGraph over r-blocks; RangeTooLarge past the state cap.
    The tests search it for the paths the gate's answers claim or deny."""
    # The Z^d weights live in the potentials; only F is crossed in.
    table, psi = system.group.table, system.psi_f
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
# Strong connectivity of covers, read from sft.SpanningTree, the one graph
# search of validate_sft, check_transitivity and the solvers.


def cycle_weights(system: SkewSystem, tree: SpanningTree) -> tuple[list[int], list[int]]:
    """(wpot, cyc) as F indices: wpot[v] is the F weight of the tree path
    from block 0 to block v, and cyc[e] = wpot[h]^-1 psi_f(e) wpot[t] that
    of the fundamental cycle of edge e: t -> h (the identity on tree edges)."""
    table, inverses, bg = system.group.table, system.group.inverses, tree.graph
    identity = system.group.identity_index
    steps = [system.psi_f[word[0] - 1] for word in bg.edges]
    wpot = tree.potentials(identity, lambda e, p: table[steps[e]][p])
    ends = zip(steps, bg.edge_tail, bg.edge_head)
    return wpot, [table[inverses[wpot[h]]][table[s][wpot[t]]] for s, t, h in ends]


def _closure(group: Group, cyc) -> dict:
    """The monodromy group H of a strongly connected block graph, the F
    weights of its closed walks at block 0: the breadth-first closure of
    the cycle weights cyc, which generate it, taken in their first
    occurrence order.  Each y in H maps to (x, e): x the element it was
    first reached from and e the first edge whose cycle weight g gives
    y = x . g (the identity to None), in breadth-first order."""
    table, identity = group.table, group.identity_index
    gens = {g: cyc.index(g) for g in dict.fromkeys(cyc) if g != identity}
    via, closure = {identity: None}, [identity]
    for x in closure:
        row = table[x]
        for g, e in gens.items():
            y = row[g]
            if y not in via:
                via[y] = x, e
                closure.append(y)
    return via


def closure_walks(system: SkewSystem, cover, e: int, delta: int):
    """Closed walks at block 0 of the cover, one of which lifts to a
    violation when the labels A(y) = A(x) H_f along its via ((x, f) =
    via[y], H_f = H(D_f)^-1 H(C_f) for (C_f, D_f) = walks(f)) fail
    A(cyc[e] delta) = H_e A(delta).  C_f D_f^(n-1), n the order of D_f's
    weight, realises H_f unless D_f^n is a violation.  So with W the
    labels spelt along via, m the order of gamma = cyc[e] delta,
    W1 = W(delta) C_e D_e^(n-1) and W2 = W(gamma), returns W1 W2^(m-1),
    W2, then the D_f."""
    group, tree, via = system.group, cover.tree, cover.via
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
            y, f = via[y]
            walk += label(f)
        return walk

    gamma = table[cover.cyc[e]][delta]
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


class Cover:
    """A transitive cover over r-blocks, as transitive_cover hands it to
    check_transitivity and every cover solver: block_tree's spanning tree,
    the _closure via of the monodromy group, with each element's step
    edge, and the cycle_weights (wpot, cyc) it was closed from.  The rest
    is built on first use:

    - psi: for each coordinate j < d of psi_z its per-edge column, that
      column's potentials and its chord rises, as tree.rises makes them
      (check_transitivity reads only the columns and the rises, so the
      potentials are left as rises' lists and never copied);
    - pivot_rows: groups.pivot_rows on psi's rises, the cover's half of
      the cover solver's elimination, so a solve pivots on no row;
    - lattice and one_sided: check_transitivity's Smith report of the
      rises and _one_sided's functional on the columns (the solver reads
      the report's diagonal for a degenerate alpha).

    A cover holds its group only weakly, through group, so a memo of
    covers keeps no Cayley table alive; only transitive_cover's hit check
    reads it.  A cover is shared by every call over its system, so
    nothing in it may be changed.
    """

    def __init__(self, system: SkewSystem, tree: SpanningTree, via, wpot, cyc):
        group = system.group
        self.group, self.psi_z, self.rank = weakref.ref(group), system.psi_z, group.rank
        self.tree, self.via, self.wpot, self.cyc = tree, via, tuple(wpot), tuple(cyc)

    @cached_property
    def psi(self):
        if not self.rank:
            return (), (), ()
        tree, psi_z = self.tree, self.psi_z
        columns = tuple(zip(*[psi_z[w[0] - 1] for w in tree.graph.edges]))
        pots, rises = zip(*map(tree.rises, columns))
        return columns, pots, tuple(map(tuple, rises))

    @cached_property
    def pivot_rows(self):
        return pivot_rows(self.psi[2], len(self.tree.chords))

    @cached_property
    def lattice(self) -> SubgroupReport:
        return subgroup_rank_and_index(zip(*self.psi[2]), self.rank)

    @cached_property
    def one_sided(self) -> tuple[int, ...] | None:
        return _one_sided(self.tree.graph, self.psi[0])


def transitive_cover(system: SkewSystem, r: int) -> Cover:
    """The one gate over r-blocks of check_transitivity and the cover
    solvers, as a Cover, built once per (system, r).

    Over a strongly connected block graph every vertex of the product
    graph returns to where it came from (a closed walk's F weight has
    finite order), so the cover is transitive iff (block 0, element 0)
    reaches its whole fiber, i.e. iff the monodromy group H is F.
    Otherwise NotTransitiveError names (block 0, element 0) and (block 0,
    the least j outside {h . element 0 : h in H}).  Over a trivial F (Z^d
    among them) every weight is the identity, so neither cycle_weights
    nor _closure runs.  A block graph that is not strongly connected
    raises NotStronglyConnected over Z^d, or when it has no block; over F
    NotTransitiveError names the tree's unreachable_pair (i, j) at the
    identity, (block i, e) and (block j, e), since no (block i, g) reaches
    any (block j, h) when block i has no path to block j.  RangeTooLarge
    when blocks x |F| passes the state cap, though no product graph is
    built.

    A refusal is made afresh on every call.  A transitive cover is kept
    in a memo keyed by (shift, r, psi_f, psi_z) that holds at most
    LIVSIC_MAX_STATES product states (blocks x |F|) in all, least
    recently used out first.  The key leaves the group out, as hashing
    it hashes its Cayley table; a hit compares the group instead, by
    identity and then by value, and a cover whose group is gone is
    decided afresh.  The cap is read once per call, and every call runs
    block_tree's memo under it and the cap check, so a hit refuses what a
    fresh build would, and leaves its tree the newest in block_tree's
    memo; a cover whose tree that memo has since dropped is decided
    afresh on the tree it holds now.  With the Z^d solver's memo of
    closing-walk searches (abelian._BOXES), the three memos hold at most
    3 x LIVSIC_MAX_STATES states in all.
    """
    key = (system.sft, r, system.psi_f, system.psi_z)
    cap, group = max_states_cap(), system.group
    cover = _COVERS.take(key, cap)
    tree = _block_tree(system.sft, r, cap)
    table = group.table
    n = len(tree.parent) * len(table)
    if n > cap:
        raise RangeTooLarge(f"product graph would have {n} vertices")
    # The cover's group; None, which is never group, when there is no
    # cover on this tree or its group has been collected.
    held = None if cover is None or cover.tree is not tree else cover.group()
    if held is not group and held != group:
        if not tree.strongly_connected:
            if group.rank or not tree.parent:
                raise NotStronglyConnected("block graph is not strongly connected")
            one, blocks = group.name_of(group.identity), tree.graph.vertices
            raise NotTransitiveError(tuple((blocks[v], one) for v in tree.unreachable_pair()))
        if len(table) == 1:
            one, graph = group.identity_index, tree.graph
            wpot, cyc, via = (one,) * len(graph.vertices), (one,) * len(graph.edges), {one: None}
        else:
            wpot, cyc = cycle_weights(system, tree)
            via = _closure(group, cyc)
        if len(via) < len(table):
            orbit = {table[h][0] for h in via}
            j = next(j for j in range(len(table)) if j not in orbit)
            block = tree.graph.vertices[0]
            labels = (block, group.name_of(group.join(0))), (block, group.name_of(group.join(j)))
            raise NotTransitiveError(labels)
        cover = Cover(system, tree, via, wpot, cyc)
    _COVERS.put(key, cover, cap)
    return cover


# A transitive cover's via lists all of F.
_COVERS = StateMemo(lambda cover: len(cover.tree.parent) * len(cover.via))


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
    lam that is >= 0 on every closed walk's weight; psi is d per-edge
    columns, Cover.psi's.

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
    n_edges, d = len(tails), len(psi)
    m = len(bg.vertices) + d
    rows = [[0] * n_edges for _ in bg.vertices]
    for e, (t, h) in enumerate(zip(tails, heads)):
        rows[t][e] += 1
        rows[h][e] -= 1
    rows += map(list, psi)
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
    slack = [sum(map(mul, lam, w)) + phi[t] - phi[h] for w, t, h in zip(zip(*psi), tails, heads)]
    check_invariant(any(lam) and min(slack) >= 0, "one-sided functional fails on an edge")
    g = gcd(*lam)
    return tuple(x // g for x in lam)


def check_transitivity(system: SkewSystem) -> TransitivityVerdict:
    """Decide transitivity exactly for finite groups; for Z^d return a
    three-valued verdict read from the symbol graph.

    Either way the verdict is read from transitive_cover(system, 1), the
    cover solvers' gate, so a check and a solve over one system decide
    its cover once.  Finite groups: the extension is transitive iff the
    product graph over 1-blocks is strongly connected, i.e. iff the
    monodromy group (the weights of closed walks at one symbol) is all
    of G; the gate's NotTransitiveError names an unreachable pair of
    product states.  Z^d: NotStronglyConnected when the symbol graph
    is not strongly connected.  Otherwise the closed-walk weights
    generate the lattice of the fundamental-cycle weights, the rises of
    psi's d columns on the spanning tree's chords (Cover.psi; tree edges
    rise by 0, and zero rows leave the elementary divisors as they are),
    which Smith's form measures; when they span R^d, their cone is R^d
    unless _one_sided finds a functional.  A nonzero lam >= 0 on every
    closed walk (one_sided) or a proper lattice (proper_subgroup) refutes
    transitivity: no closed walk reaches a weight where lam is negative,
    or one outside the lattice.  Transitivity itself is never certified;
    the best positive answer is "unknown" with evidence.  The Smith report
    and the functional are the cover's (Cover.lattice and
    Cover.one_sided), so a second check over one system recomputes
    neither.  RangeTooLarge, on every call and before any graph is built
    or cover read, when _one_sided's pivots would pass the work budget.
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
    try:
        cover = transitive_cover(system, 1)
    except NotTransitiveError as refused:
        return TransitivityVerdict(status="not_transitive", witness=refused.witness)
    if not d:
        return TransitivityVerdict(status="transitive")

    report = cover.lattice
    lam = cover.one_sided if report.rank == d else None
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
