"""Subshifts of finite type as finite combinatorics.

A shift space on symbols 1..k with a 0/1 transition matrix is handled
entirely through admissible finite words: block graphs, primitive cyclic
words and sums along them.  No infinite sequences are materialized, so
every operation here is exact.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import chain, repeat
from math import gcd
from operator import add

from .errors import (
    BadShape,
    DeadSymbol,
    DimensionMismatch,
    InadmissibleWord,
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

    tree = SpanningTree(build_block_graph(spec, 1))
    gap = tree.unreachable_pair()
    if gap is not None:
        raise NotIrreducible((gap[0] + 1, gap[1] + 1))
    # Cyclic period: gcd of (depth[t] + 1 - depth[h]) over edges t -> h.
    # Every cycle has positive length, so some term is nonzero.
    depth = tree.potentials(0, lambda e, p: p + 1)
    edges = zip(tree.graph.edge_tail, tree.graph.edge_head)
    period = gcd(*(depth[t] + 1 - depth[h] for t, h in edges))
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

    def is_strongly_connected(self) -> bool:
        return bool(self.vertices) and SpanningTree(self).strongly_connected


def _admissible_words(spec: SftSpec, length: int, cap: int) -> list[Word]:
    words: list[Word] = []
    stack: list[Word] = [(a,) for a in range(spec.k, 0, -1)]
    while stack:
        w = stack.pop()
        if len(w) == length:
            words.append(w)
            if len(words) > cap:
                raise RangeTooLarge(
                    f"more than {cap} admissible words of length {length}"
                )
            continue
        for b in reversed(spec.successors(w[-1])):
            stack.append(w + (b,))
    words.sort()
    return words


def build_block_graph(spec: SftSpec, r: int) -> BlockGraph:
    """Build the r-block presentation.  Raises RangeTooLarge beyond the cap."""
    if r < 1:
        raise BadShape("block length must be at least 1")
    vertices = tuple(_admissible_words(spec, r, max_states_cap()))
    index = {w: i for i, w in enumerate(vertices)}
    edges: list[Word] = []
    tails: list[int] = []
    heads: list[int] = []
    out: list[list[int]] = [[] for _ in vertices]
    for i, w in enumerate(vertices):
        for b in spec.successors(w[-1]):
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


def _solution_block_graph(spec: SftSpec, cocycle, solution) -> BlockGraph:
    """The block graph a solution's u lives on, for a verifier.

    DimensionMismatch when the solution's block length is not the one the
    cocycle needs or u is not keyed by exactly the admissible blocks.
    """
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
    to vertex 0.  Edge and vertex orders fix every choice, so potentials
    and walks are deterministic.  strongly_connected is True when both
    searches reach every vertex; potentials and walks need it.
    """

    def __init__(self, graph):
        self.graph = graph
        n = len(graph.out_edges)
        self.parent, self.visit = _bfs_edges(graph.out_edges, graph.edge_head, 0)
        in_edges: list[list[int]] = [[] for _ in range(n)]
        for e, h in enumerate(graph.edge_head):
            in_edges[h].append(e)
        self.next_edge, back = _bfs_edges(in_edges, graph.edge_tail, 0)
        self.strongly_connected = len(self.visit) == n == len(back)

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


def _bfs_edges(edges_at, far_end, start: int):
    """BFS from vertex start, where edges_at[v] lists the edges to follow
    from v and far_end[e] is the vertex edge e leads to.

    Returns (the edge each vertex was first reached by, None at start and
    at every vertex not reached; the visit order).
    """
    n = len(edges_at)
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


@record(order=True)
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
    n = len(word)
    for d in range(1, n):
        if n % d:
            continue
        if word == word[:d] * (n // d):
            return False
    return True


def primitive_root(word: Word) -> tuple[Word, int]:
    """Split a cyclic word into (primitive core, multiplicity)."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d:
            continue
        if word == word[:d] * (n // d):
            return word[:d], n // d
    raise AssertionError("unreachable")


def _word_count_estimate(spec: SftSpec, max_len: int) -> int:
    """Number of admissible words of every length up to max_len."""
    total = 0
    power = [[1 if i == j else 0 for j in range(spec.k)] for i in range(spec.k)]
    for length in range(1, max_len + 1):
        if length == 1:
            total += spec.k
        else:
            power = _int_mat_mult(power, [list(r) for r in spec.transitions])
            total += sum(sum(row) for row in power)
        if total > 10 * DEFAULT_MAX_WORK:
            break
    return total


def walk_primitive_orbits(spec: SftSpec, max_period: int, act=None, identity=None):
    """Every primitive periodic orbit of period <= max_period, with its weight.

    Returns two lists of equal length, (words, weights): words[i] is an
    orbit's least rotation (a Lyndon word) and weights[i] its weight.  The
    lists come in (period, word) order, so no caller sorts them.  The period
    cap and the work budget are checked before the walk starts.

    ``act[b-1]`` maps the weight of a word to the weight of that word
    followed by symbol b, i.e. left multiplication by the weight of b;
    ``identity`` is the weight of the empty word.  Without ``act`` the walk
    makes no weight step and every weight is ``identity``.
    """
    cap = max_period_cap()
    if max_period > cap:
        raise RangeTooLarge(f"period {max_period} exceeds cap {cap}")
    if max_period < 1:
        return [], []
    if _word_count_estimate(spec, max_period) > DEFAULT_MAX_WORK:
        raise RangeTooLarge(
            f"orbit enumeration up to period {max_period} exceeds the work budget"
        )
    return _lyndon_walk(spec, max_period, act, identity)


def _lyndon_walk(spec: SftSpec, max_period: int, act, identity):
    """Depth-first walk over admissible prenecklaces (Fredricksen-Kessler-Maiorana).

    A prenecklace is a prefix of some necklace.  Let p be the length of the
    longest Lyndon prefix of a word of length t.  An extension by b is a
    prenecklace iff b >= word[t-p]: b == word[t-p] keeps p, b > word[t-p]
    makes p = t+1.  A word is a Lyndon word iff p equals its length, and it
    is an orbit iff the wrap transition back to its first symbol is allowed.
    Every admissible Lyndon word has only admissible prenecklaces as
    prefixes, so the walk misses none (Ruskey-Savage-Wang, 1992).

    The walk visits words in lexicographic order and appends each orbit to
    the lists of its period, so the flattened lists (words, weights) are in
    (period, word) order.  With ``act`` None the weight step is skipped.
    """
    k = spec.k
    allowed = ((0,) * (k + 1),) + tuple((0, *row) for row in spec.transitions)
    successors = [()] + [spec.successors(a) for a in range(1, k + 1)]
    if act is not None:
        act = (None, *act)
    words: list[list[Word]] = [[] for _ in range(max_period + 1)]
    weights: list[list] = [[] for _ in range(max_period + 1)]
    word = [0] * max_period
    period = [0] * max_period
    weight = [identity] * (max_period + 1)
    frames = [iter(range(1, k + 1))]
    while frames:
        t = len(frames)  # length of the word once b is placed
        for b in frames[-1]:
            word[t - 1] = b
            # b >= word[t-1-p] by this frame's bisection; equality keeps p.
            if t > 1 and b == word[t - 1 - period[t - 2]]:
                p = period[t - 2]
            else:
                p = t
            period[t - 1] = p
            if act is not None:
                weight[t] = act[b](weight[t - 1])
            if p == t and allowed[b][word[0]]:
                words[t].append(tuple(word[:t]))
                weights[t].append(weight[t])
            if t < max_period:
                after = successors[b]
                frames.append(iter(after[bisect_left(after, word[t - p]) :]))
                break
        else:
            frames.pop()
    return list(chain.from_iterable(words)), list(chain.from_iterable(weights))


def enumerate_periodic_orbits(spec: SftSpec, max_period: int) -> list[PeriodicOrbit]:
    """All primitive periodic orbits of period <= max_period, sorted by (period, word).

    The orbits are built in bulk, without a call to ``__init__`` each:
    ``object.__new__`` makes every instance and the slot's own descriptor
    sets its word, both driven by ``map``.  That is sound because the walk's
    words are already least rotations of primitive words, which is all
    ``from_word`` would enforce, and PeriodicOrbit has no ``__post_init__``.
    """
    words, _ = walk_primitive_orbits(spec, max_period)
    orbits = list(map(object.__new__, repeat(PeriodicOrbit, len(words))))
    deque(map(PeriodicOrbit.word.__set__, orbits, words), maxlen=0)
    return orbits


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
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InvalidCocycle(f"expected a rational value, got {x!r}")


@record
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


def birkhoff_sum(cocycle, orbit: PeriodicOrbit):
    """Sum (or ordered product) of a cocycle around one period of an orbit.

    For rational cocycles this is the exact sum of window values.  For
    matrix cocycles it is the ordered product with the step at index n-1
    applied last, i.e. leftmost.
    """
    if not cocycle.sft.is_admissible(orbit.word, cyclic=True):
        raise InadmissibleWord(orbit.word)
    return cyclic_fold(cocycle, orbit.word)


def cyclic_fold(cocycle, word: Word):
    """Combine a cocycle's window values around a cyclic word, position 0 first.

    Rational values are added; matrix values are multiplied with each later
    step on the left.  The caller checks that the word is cyclically
    admissible.
    """
    n = len(word)
    width = cocycle.block_range + 1
    ext = word * (1 + (width + n - 2) // n)
    values = (cocycle.window_value(ext[i : i + width]) for i in range(n))
    if cocycle.is_matrix_valued:
        return reduce(lambda prod, value: value @ prod, values)
    return reduce(add, values)
