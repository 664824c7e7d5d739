"""Subshifts of finite type as finite combinatorics.

A shift space on symbols 1..k with a 0/1 transition matrix is handled
entirely through admissible finite words: block graphs, primitive cyclic
words and sums along them.  No infinite sequences are materialized, so
every operation here is exact.
"""
from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, count, groupby, repeat
from math import gcd, lcm
from operator import eq, floordiv, itemgetter, mul

from .errors import (
    BadShape,
    DeadSymbol,
    DimensionMismatch,
    InvalidCocycle,
    NotIrreducible,
    RangeTooLarge,
    DEFAULT_MAX_WORK,
    max_period_cap,
    max_states_cap,
)
from .record import record

Word = tuple[int, ...]


@record
class SftSpec:
    """Alphabet size and 0/1 transition matrix over symbols 1..k.

    ``transitions[a-1][b-1] == 1`` means the two-letter word ``ab`` is
    admissible.
    """

    k: int
    transitions: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "SftSpec":
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        return cls(k=len(rows), transitions=rows)

    @classmethod
    def full_shift(cls, k: int) -> "SftSpec":
        return cls(k=k, transitions=tuple(tuple(1 for _ in range(k)) for _ in range(k)))

    def allows(self, a: int, b: int) -> bool:
        return self.transitions[a - 1][b - 1] == 1

    def successors(self, a: int) -> tuple[int, ...]:
        row = self.transitions[a - 1]
        return tuple(b for b in range(1, self.k + 1) if row[b - 1] == 1)

    def is_admissible(self, word, *, cyclic: bool = False) -> bool:
        word = tuple(word)
        if not word:
            return False
        if any(not 1 <= s <= self.k for s in word):
            return False
        for a, b in zip(word, word[1:]):
            if not self.allows(a, b):
                return False
        if cyclic and not self.allows(word[-1], word[0]):
            return False
        return True


@record
class ValidationReport:
    irreducible: bool
    aperiodic: bool
    period: int


def validate_sft(spec: SftSpec) -> ValidationReport:
    """Check shape, absence of dead symbols and irreducibility.

    Raises BadShape, DeadSymbol or NotIrreducible, and RangeTooLarge when
    the symbols outnumber the state cap.  The report records the cyclic
    period of the transition graph; irreducibility is required, so a
    returned report always has ``irreducible=True``.
    """
    if spec.k < 1:
        raise BadShape("alphabet must contain at least one symbol")
    if len(spec.transitions) != spec.k:
        raise BadShape(f"expected {spec.k} rows, got {len(spec.transitions)}")
    for row in spec.transitions:
        if len(row) != spec.k:
            raise BadShape(f"expected {spec.k} columns, got {len(row)}")
        for x in row:
            if x not in (0, 1):
                raise BadShape(f"transition entries must be 0 or 1, got {x!r}")
    for a in range(1, spec.k + 1):
        if not any(spec.transitions[a - 1]):
            raise DeadSymbol(a, "successor")
        if not any(spec.transitions[b - 1][a - 1] for b in range(1, spec.k + 1)):
            raise DeadSymbol(a, "predecessor")

    tree = block_tree(spec, 1)
    gap = tree.unreachable_pair()
    if gap is not None:
        raise NotIrreducible((gap[0] + 1, gap[1] + 1))
    # Cyclic period: gcd of the cycle lengths, the rises of all-ones (one is > 0).
    period = gcd(*tree.rises([1] * len(tree.graph.edges))[1])
    return ValidationReport(irreducible=True, aperiodic=period == 1, period=period)


@record
class BlockGraph:
    """Presentation of the shift on admissible r-blocks.

    Vertices are the admissible words of length r in lexicographic order;
    each admissible word of length r+1 is an edge from its prefix block to
    its suffix block.
    """

    spec: SftSpec
    r: int
    vertices: tuple[Word, ...]
    edges: tuple[Word, ...]
    edge_tail: tuple[int, ...]
    edge_head: tuple[int, ...]
    out_edges: tuple[tuple[int, ...], ...]

    def project_cycle(self, edge_ids) -> Word:
        """The word a walk reads: the first symbol of each edge word."""
        edges = self.edges
        return tuple(edges[e][0] for e in edge_ids)


def _successor_table(spec: SftSpec) -> list[tuple[int, ...]]:
    """spec.successors(a) at index a for every symbol, () at index 0."""
    symbols = tuple(range(1, spec.k + 1))
    rows = (compress(symbols, map(eq, row, repeat(1))) for row in spec.transitions)
    return [(), *map(tuple, rows)]


def _admissible_words(spec: SftSpec, length: int, cap: int) -> list[Word]:
    # Depth first, successors pushed in reverse: words come out sorted.
    words: list[Word] = []
    stack: list[Word] = [(a,) for a in range(spec.k, 0, -1)]
    backwards = [after[::-1] for after in _successor_table(spec)]
    while stack:
        w = stack.pop()
        if len(w) == length:
            words.append(w)
            if len(words) > cap:
                raise RangeTooLarge(
                    f"more than {cap} admissible words of length {length}"
                )
            continue
        for b in backwards[w[-1]]:
            stack.append(w + (b,))
    return words


def build_block_graph(spec: SftSpec, r: int) -> BlockGraph:
    """The r-block presentation, from the memo of block_tree.

    RangeTooLarge beyond the state cap, cached or not.
    """
    return block_tree(spec, r).graph


def block_tree(spec: SftSpec, r: int) -> "SpanningTree":
    """The SpanningTree of the r-block graph, built once per (spec, r).

    The memo holds at most LIVSIC_MAX_STATES blocks in all and evicts the
    least recently used tree first.  The cap is read on every call, so a
    cached graph that passes a lowered cap is refused with the message of
    a fresh build.  A tree and its graph hold only tuples, so every caller
    may share them.
    """
    return _block_tree(spec, r, max_states_cap())


def _block_tree(spec: SftSpec, r: int, cap: int) -> "SpanningTree":
    """block_tree under the state cap its caller has read, so that a
    gate over the tree reads the environment once."""
    if r < 1:
        raise BadShape("block length must be at least 1")
    tree = _TREES.take((spec, r), cap)
    if tree is None:
        tree = SpanningTree(_block_graph(spec, r, cap))
    elif len(tree.parent) > cap:
        raise RangeTooLarge(f"more than {cap} admissible words of length {r}")
    _TREES.put((spec, r), tree, cap)
    return tree


def _block_graph(spec: SftSpec, r: int, cap: int) -> BlockGraph:
    vertices = tuple(_admissible_words(spec, r, cap))
    index = {w: i for i, w in enumerate(vertices)}
    successors = _successor_table(spec)
    edges: list[Word] = []
    tails: list[int] = []
    heads: list[int] = []
    out: list[list[int]] = [[] for _ in vertices]
    for i, w in enumerate(vertices):
        for b in successors[w[-1]]:
            e = w + (b,)
            j = index[e[1:]]
            out[i].append(len(edges))
            edges.append(e)
            tails.append(i)
            heads.append(j)
    return BlockGraph(
        spec=spec,
        r=r,
        vertices=vertices,
        edges=tuple(edges),
        edge_tail=tuple(tails),
        edge_head=tuple(heads),
        out_edges=tuple(tuple(x) for x in out),
    )


class StateMemo:
    """key -> a value over one block graph, least recently used first,
    holding ``states`` states in all, where a value counts cost(value)
    against the state cap (a block tree its blocks).

    A lookup is take, then put once the value passes its checks: take
    trims the memo to the cap, and a value refused in between is dropped.
    """

    __slots__ = ("held", "states", "cost")

    def __init__(self, cost):
        self.held: dict = {}
        self.states = 0
        self.cost = cost

    def take(self, key, cap: int):
        """The value held at key, now out of the memo, or None; the rest
        trimmed to cap states."""
        value = self._pop(key)
        self._evict(cap)
        return value

    def put(self, key, value, cap: int) -> None:
        """Hold value at key as the newest, in place of any value held
        there, dropping the oldest for room; a value that alone costs more
        than cap is not held, and drops nothing else."""
        self._pop(key)
        n = self.cost(value)
        if n > cap:
            return
        self._evict(cap - n)
        self.held[key] = value
        self.states += n

    def _pop(self, key):
        """The value held at key, now out of the memo, or None."""
        value = self.held.pop(key, None)
        if value is not None:
            self.states -= self.cost(value)
        return value

    def _evict(self, room: int) -> None:
        """Drop the least recently used values until at most room states are held."""
        while self.states > room:
            self.states -= self.cost(self.held.pop(next(iter(self.held))))

    def clear(self) -> None:
        self.held.clear()
        self.states = 0


_TREES = StateMemo(lambda tree: len(tree.parent))


def _solution_block_graph(spec: SftSpec, cocycle, solution) -> BlockGraph:
    """The block graph a solution's u lives on, for a verifier.

    InvalidCocycle when the cocycle is over another shift; DimensionMismatch
    when the solution's block length is not the one the cocycle needs or u
    is not keyed by exactly the admissible blocks.
    """
    _check_cocycle_shift(spec, cocycle)
    r = solution.block_length
    if r != cocycle.effective_block_length:
        raise DimensionMismatch(
            f"solution blocks have length {r}, cocycle needs {cocycle.effective_block_length}"
        )
    bg = build_block_graph(spec, r)
    if solution.u.keys() != set(bg.vertices):
        raise DimensionMismatch(
            f"u must be defined on exactly the {len(bg.vertices)} admissible blocks"
        )
    return bg


class SpanningTree:
    """Breadth-first arborescence from vertex 0 and shortest returns to it.

    Works on any graph with out_edges, edge_tail and edge_head (block and
    product graphs).  parent[v] is the tree edge into v, visit the BFS
    order, and next_edge[v] the first edge of a shortest path from v back
    to vertex 0.  Two more tuples are built on first read, as many trees
    never read them: chords, the (edge, tail, head) of each non-tree edge in
    edge order, and order, the (vertex, parent edge, its tail) of each
    vertex after the root in visit order, over which potentials and rises
    loop.  Edge and vertex orders fix every choice.  potentials, rises
    and walks need strongly_connected: a vertex, and both searches reach
    every one.  The arrays are tuples, so a tree can be shared.
    """

    def __init__(self, graph):
        self.graph = graph
        n = len(graph.out_edges)
        parent, visit = _bfs_edges(graph.out_edges, graph.edge_head, 0)
        in_edges: list[list[int]] = [[] for _ in range(n)]
        for e, h in enumerate(graph.edge_head):
            in_edges[h].append(e)
        next_edge, back = _bfs_edges(in_edges, graph.edge_tail, 0)
        self.parent, self.visit, self.next_edge = tuple(parent), tuple(visit), tuple(next_edge)
        self.strongly_connected = 0 < len(visit) == n == len(back)

    @cached_property
    def chords(self) -> tuple[tuple[int, int, int], ...]:
        parent = self.parent
        ends = zip(count(), self.graph.edge_tail, self.graph.edge_head)
        return tuple((e, t, h) for e, t, h in ends if parent[h] != e)

    @cached_property
    def order(self) -> tuple[tuple[int, int, int], ...]:
        parent, tail = self.parent, self.graph.edge_tail
        return tuple((v, parent[v], tail[parent[v]]) for v in self.visit[1:])

    def unreachable_pair(self) -> tuple[int, int] | None:
        """None when the graph is strongly connected, otherwise the first
        ordered pair (i, j) with no path i -> j.

        When vertex 0 misses some vertex, i = 0.  Otherwise the vertices
        that reach everything are those that reach 0, so i is the least
        vertex with no return to 0, and one more search from i finds j.
        """
        if self.strongly_connected:
            return None
        i, reached = 0, self.parent
        if len(self.visit) == len(self.parent):
            i = self.next_edge.index(None, 1)
            reached, _ = _bfs_edges(self.graph.out_edges, self.graph.edge_head, i)
        j = next(j for j, e in enumerate(reached) if e is None and j != i)
        return i, j

    def potentials(self, start, step) -> list:
        """pot[0] = start and pot[head e] = step(e, pot[tail e]) on tree edges.

        Covers Q and Z^d under + and GL(m) under left multiplication.
        """
        pot = [None] * len(self.parent)
        pot[0] = start
        for v, e, t in self.order:
            pot[v] = step(e, pot[t])
        return pot

    def rises(self, column) -> tuple[list, list]:
        """(pot, rises): a per-edge column's potentials from 0, and its sum
        column[e] + pot[t] - pot[h] around each chord's fundamental cycle.
        potentials(0, +), with no call per vertex."""
        pot = [0] * len(self.parent)
        for v, e, t in self.order:
            pot[v] = pot[t] + column[e]
        return pot, [column[e] + pot[t] - pot[h] for e, t, h in self.chords]

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


def _bfs_edges(edges_at, far_end, start: int):
    """BFS from vertex start, where edges_at[v] lists the edges to follow
    from v and far_end[e] is the vertex edge e leads to.

    Returns (the edge each vertex was first reached by, None at start and
    at every vertex not reached; the visit order).
    """
    n = len(edges_at)
    if not n:
        return [], []
    via: list[int | None] = [None] * n
    seen = [False] * n
    seen[start] = True
    order = [start]
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
    Returns None if no cycle scores above 0.  ``score`` maps an edge-id
    list to a number; exact callers use 1 for violating and 0 for clean
    cycles.
    """
    pos = {start: 0}
    stack_vertices = [start]
    stack_edges: list[int] = []
    for e in walk_edges:
        stack_edges.append(e)
        v = edge_head[e]
        if v in pos:
            i = pos[v]
            seg = stack_edges[i:]
            if score(seg) > 0:
                return seg
            for u in stack_vertices[i + 1 :]:
                del pos[u]
            del stack_vertices[i + 1 :]
            del stack_edges[i:]
        else:
            pos[v] = len(stack_vertices)
            stack_vertices.append(v)
    return None


@record
class PeriodicOrbit:
    """A primitive periodic orbit, stored as the least rotation of its word."""

    word: Word

    @property
    def period(self) -> int:
        return len(self.word)

    @classmethod
    def from_word(cls, word) -> "PeriodicOrbit":
        word = tuple(int(s) for s in word)
        if not word:
            raise BadShape("orbit word must be nonempty")
        if not is_primitive(word):
            raise BadShape(f"word {word} is a power of a shorter word")
        return cls(word=canonical_rotation(word))


def canonical_rotation(word: Word) -> Word:
    """Lexicographically least rotation of a cyclic word."""
    n = len(word)
    doubled = word + word
    best = word
    lo = min(word)
    for i in range(1, n):
        if word[i] != lo:
            continue
        cand = doubled[i : i + n]
        if cand < best:
            best = cand
    return best


def is_primitive(word: Word) -> bool:
    """True when the cyclic word is not a repetition of a shorter word."""
    return primitive_root(word)[1] == 1


def primitive_root(word: Word) -> tuple[Word, int]:
    """Split a cyclic word into (primitive core, multiplicity)."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d:
            continue
        if word == word[:d] * (n // d):
            return word[:d], n // d
    raise AssertionError("unreachable")


def check_work(spec: SftSpec, max_len: int, subject: str, what: str, offset: int = 0) -> None:
    """RangeTooLarge unless the admissible words of every length up to
    max_len fit the work budget.

    The words are counted by last symbol, one vector step per length, up
    to the first length past the budget, so a refusal costs no more than
    an admission.  Two cases end the count early.  When no word of some
    length is admissible, none longer is, so the budget holds.  When the
    counts at two consecutive lengths are equal, every later length adds
    the same number of words, so the first length past the budget is
    computed in one step (every irreducible shift of zero entropy).  The
    message names the subject and the largest <what> (a word length less
    offset) whose words fit, or that none does.
    """
    columns = tuple(zip(*spec.transitions))
    ends = [1] * spec.k
    total = 0
    for length in range(1, max_len + 1):
        if length > 1:
            before, ends = ends, [sum(map(mul, ends, col)) for col in columns]
            if not any(ends):
                return
            if ends == before:
                # Every length from here on adds sum(ends) words: go to the
                # first one past the budget.
                length += (DEFAULT_MAX_WORK - total) // sum(ends)
                if length > max_len:
                    return
                total = DEFAULT_MAX_WORK
        total += sum(ends)
        if total > DEFAULT_MAX_WORK:
            fits = length - 1 - offset
            largest = f"the largest {what} within it is {fits}"
            raise RangeTooLarge(
                f"{subject} exceeds the work budget; "
                + (largest if fits > 0 else f"no {what} is within it")
            )


def walk_primitive_orbits(spec: SftSpec, max_period: int, act=None, identity=None):
    """Every primitive periodic orbit of period <= max_period, with its weight.

    Returns (words, weights) of equal length: words[i] is an orbit's least
    rotation (a Lyndon word) as an int tuple and weights[i] its weight.
    words is a read-only PackedWords sequence, not a list; weights is a
    list.  The walk builds them one length at a time, each in
    lexicographic order, so they come in (period, word) order and no
    caller sorts them.  The period cap and the work budget are checked
    before the walk starts.

    ``act[b-1]`` maps the weight of a word to the weight of that word
    followed by symbol b, i.e. left multiplication by the weight of b;
    ``identity`` is the weight of the empty word.  Without ``act`` the walk
    makes no weight step and every weight is ``identity``.
    """
    cap = max_period_cap()
    if max_period > cap:
        raise RangeTooLarge(f"period {max_period} exceeds cap {cap}")
    if max_period < 1:
        return PackedWords(), []
    check_work(spec, max_period, f"orbit enumeration up to period {max_period}", "period")
    return _lyndon_walk(spec, max_period, act, identity)


class _Table(dict):
    """A dict that fills a missing key with make(key) on its first lookup."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _lyndon_walk(spec: SftSpec, max_period: int, act, identity):
    """Breadth-first walk over admissible prenecklaces (Fredricksen-Kessler-Maiorana).

    A prenecklace is a prefix of some necklace.  Let p be the length of the
    longest Lyndon prefix of a word of length t.  An extension by b is a
    prenecklace iff b >= word[t-p]: b == word[t-p] keeps p, b > word[t-p]
    makes p = t+1.  A word is a Lyndon word iff p equals its length, and it
    is an orbit iff the wrap transition back to its first symbol is allowed.
    Every admissible Lyndon word has only admissible prenecklaces as
    prefixes, so the walk misses none (Ruskey-Savage-Wang, 1992).

    A word is a str with one code point chr(b) per symbol b, so a node is
    an object the cyclic collector does not track, and str order is the
    symbols' lexicographic order.  Symbols are characters here too:
    ``after[a]`` and ``before[a]`` spell, in order, the symbols a may be
    followed and preceded by.  The walk goes one length at a time.  A
    level is parallel lists: the admissible prenecklaces of length t in
    lexicographic order, their p and, with ``act``, their weights.
    ``children[a][c]`` lists each b >= c with a -> b, so extending every
    node in order by the entry for its last symbol and c = word[t-p] makes
    the next level, again in order.  The orbits of a level are its nodes
    with p == t and an allowed wrap, found as the level is built (a child
    b > c is Lyndon, so an orbit if b -> word[0]); they become one run of
    the result.

    The levels stop at length M-2 (M = max_period; at length 1 if M <= 2)
    and the orbits of lengths M-1 and M are spelt from there, one table
    entry per node.  A node w of length t has a = w[-1], c = w[t-p],
    c2 = w[t-p+1] (c when p == 1) and f = w[0]; its children are w + b1
    for b1 in ``children[a][c]``.  A child with b1 > c is Lyndon: an orbit
    if b1 -> f, and its orbit children are w + b1 + b2 for the b2 > f with
    b1 -> b2 -> f that ``closing[b1 + f]`` lists.  The child b1 == c keeps
    p, so it is no orbit, and its orbit children have b2 > c2.  So a
    node's orbits of both lengths depend on (a, c, c2, f) only, and
    ``finish`` is keyed by the one str a + w[t-p:t-p+2] + f (three symbols
    when p == 1).  An entry spells each length as ("", suffix, ...), so
    that ``w.join(entry)`` spells the node's orbits of that length back to
    back.  With ``act`` it also lists each child b1 that is an orbit or
    has orbit children: act[b1], whether w + b1 is an orbit, and the
    act[b2] of its orbit children.  So a child's weight is computed once,
    and each orbit's weight is one step from it.

    A table entry is made when a node first asks for it, so the tables
    grow with the walk and not as k**4.  With ``act`` each node built costs
    one weight step, and so does each child of a last-level node that is
    an orbit or has orbit children; without ``act`` there is none.
    """
    k = spec.k
    alphabet = "".join(map(chr, range(1, k + 1)))

    def spell(rows):
        return dict(zip(alphabet, map("".join, map(compress, repeat(alphabet), rows))))

    after, before = spell(spec.transitions), spell(zip(*spec.transitions))
    # One entry per symbol b, shared by every table row: b, whether b keeps
    # p and, with act, act[b].
    steps = () if act is None else (act,)
    keeps = dict(zip(alphabet, zip(alphabet, repeat(True), *steps)))
    grows = dict(zip(alphabet, zip(alphabet, repeat(False), *steps)))

    def children_of(row):
        def make(c):
            i = bisect_left(row, c)
            if row[i : i + 1] == c:
                return (keeps[c], *map(grows.__getitem__, row[i + 1 :]))
            return tuple(map(grows.__getitem__, row[i:]))

        return _Table(make)

    children = dict(zip(alphabet, map(children_of, after.values())))
    acts = None if act is None else dict(zip(alphabet, act))
    level = list(alphabet)
    periods = [1] * k
    carried = None if act is None else [f(identity) for f in act]
    # The orbits of length 1 are the symbols that may follow themselves.
    found = [w for w in level if w in after[w]]
    weights = [] if act is None else [g for w, g in zip(level, carried) if w in after[w]]
    lengths = []
    blobs = []
    t = 1
    while True:
        if found:
            lengths.append(t)
            blobs.append("".join(found))
        if t >= max_period - 2 or not level:
            break
        found, grown, grown_periods, grown_carried = [], [], [], []
        t1 = t + 1
        if act is None:
            for w, p in zip(level, periods):
                first = w[0]
                for b, same in children[w[-1]][w[t - p]]:
                    u = w + b
                    grown.append(u)
                    if same:
                        grown_periods.append(p)
                    else:
                        grown_periods.append(t1)
                        if first in after[b]:
                            found.append(u)
        else:
            for w, p, g in zip(level, periods, carried):
                first = w[0]
                for b, same, f in children[w[-1]][w[t - p]]:
                    u = w + b
                    h = f(g)
                    grown.append(u)
                    grown_carried.append(h)
                    if same:
                        grown_periods.append(p)
                    else:
                        grown_periods.append(t1)
                        if first in after[b]:
                            found.append(u)
                            weights.append(h)
        level, periods, carried = grown, grown_periods, grown_carried
        t += 1
    # At M == 2 the last level has length 1 and only length 2 is spelt.
    deep = max_period > t + 1

    def endings(b1, x, wraps):
        # b1 + b2 for each b2 > x with b1 -> b2 and wraps(b2), and, with
        # act, their act[b2].
        row = after[b1]
        ends = "".join(filter(wraps, row[bisect_right(row, x) :]))
        return tuple(map(b1.__add__, ends)), tuple(map(acts.__getitem__, ends)) if act else ()

    def closing_of(key):
        b1, f = key
        return endings(b1, f, before[f].__contains__)

    closing = _Table(closing_of)

    def finish_entry(key):
        # A key of three symbols is a node with p == 1, so c2 == c.
        a, c, c2, f = key[0], key[1], key[-2], key[-1]
        wraps = before[f].__contains__
        one, two, weigh = [""], [""], []
        for child in children[a][c]:
            b1, same = child[0], child[1]
            pairs = steps2 = ()
            if same:
                # w + c keeps p: no orbit, and its orbit children exceed c2.
                orbit = False
                if deep:
                    pairs, steps2 = endings(b1, c2, wraps)
            else:
                # w + b1 is Lyndon: an orbit if it wraps, and its orbit
                # children exceed f.
                orbit = wraps(b1)
                if orbit:
                    one.append(b1)
                if deep:
                    pairs, steps2 = closing[b1 + f]
            two += pairs
            if act is not None and (orbit or pairs):
                weigh.append((child[2], orbit, steps2))
        if act is None:
            return tuple(one), tuple(two)
        return tuple(one), tuple(two), tuple(weigh)

    if max_period > t:
        finish = _Table(finish_entry)
        entries = [finish[w[-1] + w[t - p : t - p + 2] + w[0]] for w, p in zip(level, periods)]
        if act is not None:
            last = []
            for g, entry in zip(carried, entries):
                for f1, orbit, f2s in entry[2]:
                    g1 = f1(g)
                    if orbit:
                        weights.append(g1)
                    for f2 in f2s:
                        last.append(f2(g1))
            weights += last
        for n in (1, 2):
            blob = "".join(map(str.join, level, map(itemgetter(n - 1), entries)))
            if blob:
                lengths.append(t + n)
                blobs.append(blob)
    words = PackedWords(lengths, blobs)
    if act is None:
        weights = [identity] * len(words)
    return words, weights


_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"


def _codes(spelled: str):
    """The symbols of a str word or run as an array of ints, made in C."""
    return array("I", spelled.encode(_UTF32, "surrogatepass"))


def _decode_run(n: int, blob: str):
    """The int tuples of a run of words of length n, decoded in C."""
    return zip(*[iter(_codes(blob))] * n)


class PackedWords(Sequence):
    """A read-only sequence of words, stored as str with one code point per symbol.

    The words sit in runs of equal length, each run one str of its words
    back to back: ``blobs[i]`` holds words of length ``lengths[i]``.  So
    the cyclic collector tracks no object per word, and a word over fewer
    than 256 symbols takes one byte per symbol.  Reading gives int tuples:
    an index bisects the run starts, and iteration decodes one run at a
    time in C.  A slice is another PackedWords; ``==`` compares word by
    word with any sequence.  Runs are nonempty and no two neighbours share a length (``pack`` and
    the walk build them so), so equal sequences have equal runs.
    """

    __slots__ = ("lengths", "blobs", "starts")

    def __init__(self, lengths=(), blobs=()):
        self.lengths = tuple(lengths)
        self.blobs = tuple(blobs)
        self.starts = [0, *accumulate(map(floordiv, map(len, self.blobs), self.lengths))]

    @classmethod
    def pack(cls, words) -> "PackedWords":
        """The PackedWords of an iterable of nonempty str words."""
        runs = [(n, "".join(run)) for n, run in groupby(words, len)]
        return cls(*zip(*runs))

    def _str(self, index: int) -> str:
        run = bisect_right(self.starts, index) - 1
        n = self.lengths[run]
        at = (index - self.starts[run]) * n
        return self.blobs[run][at : at + n]

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, index):
        at = range(len(self))[index]
        if isinstance(at, range):
            return PackedWords.pack(map(self._str, at))
        return tuple(_codes(self._str(at)))

    def __iter__(self):
        return chain.from_iterable(map(_decode_run, self.lengths, self.blobs))

    def __eq__(self, other):
        if isinstance(other, PackedWords):
            return self.lengths == other.lengths and self.blobs == other.blobs
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __reduce__(self):
        return (PackedWords, (self.lengths, self.blobs))

    def __repr__(self) -> str:
        return f"PackedWords({self.lengths!r}, {self.blobs!r})"


def _orbit(word: Word, new=object.__new__, set_word=PeriodicOrbit.word.__set__) -> PeriodicOrbit:
    """The PeriodicOrbit of one walk word, without a call to ``__init__``.

    ``object.__new__`` makes the instance and the slot's own descriptor
    sets its word.  That is sound because the walk's words are already
    least rotations of primitive words, which is all ``from_word`` would
    enforce, and PeriodicOrbit has no ``__post_init__``.
    """
    orbit = new(PeriodicOrbit)
    set_word(orbit, word)
    return orbit


class OrbitList(Sequence):
    """A read-only sequence of the PeriodicOrbits of a sequence of walk words.

    Each orbit is built when it is read, so a caller that iterates once
    holds at most one orbit at a time, and over a PackedWords the cyclic
    garbage collector sees no tracked object per orbit.  A slice is
    another OrbitList; ``==`` compares orbit by orbit with any sequence.
    ``list(...)`` gives a mutable copy.
    """

    __slots__ = ("words",)

    def __init__(self, words: Sequence[Word]):
        self.words = words

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return OrbitList(self.words[index])
        return _orbit(self.words[index])

    def __iter__(self):
        return map(_orbit, self.words)

    def __eq__(self, other):
        if isinstance(other, OrbitList):
            return self.words == other.words
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __reduce__(self):
        return (OrbitList, (self.words,))

    def __repr__(self) -> str:
        return f"OrbitList({list(self.words)!r})"


def enumerate_periodic_orbits(spec: SftSpec, max_period: int) -> OrbitList:
    """All primitive periodic orbits of period <= max_period, sorted by (period, word).

    The result is a read-only sequence over the walk's PackedWords that
    builds each PeriodicOrbit when it is read; ``list(...)`` gives a
    mutable copy.
    """
    words, _ = walk_primitive_orbits(spec, max_period)
    return OrbitList(words)


def _int_mat_mult(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(n):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(n):
                    oi[j] += x * bt[j]
    return out


def count_periodic_points(spec: SftSpec, n: int) -> int:
    """Exact number of points of (not necessarily least) period n: trace of A^n."""
    if n < 1:
        raise BadShape("period must be positive")
    result = None
    base = [list(row) for row in spec.transitions]
    e = n
    while e:
        if e & 1:
            result = base if result is None else _int_mat_mult(result, base)
        e >>= 1
        if e:
            base = _int_mat_mult(base, base)
    return sum(result[i][i] for i in range(spec.k))


def _as_fraction(x) -> Fraction:
    """x, a Fraction, int (not bool) or rational string; else InvalidCocycle."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise InvalidCocycle(f"not a rational: {x!r}") from None
    raise InvalidCocycle(f"expected a rational value, got {x!r}")


class WindowNumerators(dict):
    """A cocycle's numerators as make_cocycle lists them: keyed by exactly
    the admissible windows, in lexicographic order.  The type is the
    promise, so a solver reads such a table by position; any other dict
    is read by window."""

    __slots__ = ()


@record
class LocallyConstantCocycle:
    """Rational function of block_range + 1 consecutive symbols.

    values maps each window to its Fraction.  Two fields are derived from
    it by make_cocycle: denominator, the lcm of its denominators, and
    numerators, each window's value times denominator as an int, so exact
    sums and solves run in ints over that one denominator.  make_cocycle
    lists numerators in lexicographic window order, the edge order of
    the block graph over block_range-blocks (at block range 0, the order
    of the symbols), as a WindowNumerators, which a solver reads on every
    edge by position.  A record built directly with a plain dict, or
    unpickled from an older build, may hold them in any order, and is
    read by window.
    """

    sft: SftSpec
    block_range: int
    values: dict[Word, Fraction]
    denominator: int
    numerators: dict[Word, int]

    kind = "rational"

    def window_value(self, word: Word) -> Fraction:
        return self.values[tuple(word)]

    @property
    def effective_block_length(self) -> int:
        return max(self.block_range, 1)


def make_cocycle(sft: SftSpec, block_range: int, values) -> LocallyConstantCocycle:
    """Validate that values cover exactly the admissible windows.

    values keeps the order it came in, but numerators lists the windows in
    lexicographic order, whatever that order: the edge order of the block
    graph the solvers read f on.
    """
    if block_range < 0:
        raise InvalidCocycle("block range must be >= 0")
    table = {tuple(int(s) for s in k): _as_fraction(v) for k, v in values.items()}
    _check_window_domain(sft, block_range, table)
    den = lcm(*{x.denominator for x in table.values()})
    return LocallyConstantCocycle(
        sft=sft,
        block_range=block_range,
        values=table,
        denominator=den,
        numerators=WindowNumerators(
            (w, x.numerator * (den // x.denominator)) for w, x in sorted(table.items())
        ),
    )


def _check_window_domain(sft: SftSpec, block_range: int, windows) -> None:
    """InvalidCocycle unless the windows are exactly the admissible words
    of length block_range + 1, as every cocycle table must be."""
    expected = set(_admissible_words(sft, block_range + 1, max_states_cap()))
    got = set(windows)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise InvalidCocycle(
            f"cocycle domain mismatch: missing {missing[:4]}, extra {extra[:4]}"
        )


def _check_cocycle_shift(spec: SftSpec, cocycle) -> None:
    """InvalidCocycle, naming both alphabets or both transition matrices,
    unless the cocycle is over the system's shift spec."""
    own = cocycle.sft
    if own.k != spec.k:
        raise InvalidCocycle(
            f"cocycle is over {own.k} symbols but the system is over {spec.k}"
        )
    if own.transitions != spec.transitions:
        raise InvalidCocycle(
            f"cocycle transition matrix {own.transitions} differs from "
            f"the system's {spec.transitions}"
        )


def cyclic_numerator(cocycle: LocallyConstantCocycle, word: Word) -> int:
    """The sum of a rational cocycle around a cyclic word, times its
    denominator: an int, with no Fraction made."""
    return sum(map(cocycle.numerators.__getitem__, _windows(cocycle, word)))


def _windows(cocycle, word: Word):
    """The cocycle's windows of a cyclic word, position 0 first."""
    n = len(word)
    width = cocycle.block_range + 1
    ext = word * (1 + (width + n - 2) // n)
    return map(ext.__getitem__, map(slice, range(n), range(width, width + n)))
