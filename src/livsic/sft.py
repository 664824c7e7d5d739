"""Subshifts of finite type as finite combinatorics.

A shift space on symbols 1..k with a 0/1 transition matrix is handled
entirely through admissible finite words: block graphs, primitive cyclic
words and sums along them.  No infinite sequences are materialized, so
every operation here is exact.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import add

from .errors import (
    BadShape,
    DeadSymbol,
    InadmissibleWord,
    NotIrreducible,
    RangeTooLarge,
    DEFAULT_MAX_WORK,
    max_period_cap,
    max_states_cap,
)

Word = tuple[int, ...]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ValidationReport:
    irreducible: bool
    aperiodic: bool
    period: int


def validate_sft(spec: SftSpec) -> ValidationReport:
    """Check shape, absence of dead symbols and irreducibility.

    Raises BadShape, DeadSymbol or NotIrreducible.  The report records the
    cyclic period of the transition graph; irreducibility is required, so a
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

    succ = [tuple(b - 1 for b in spec.successors(a)) for a in range(1, spec.k + 1)]
    gap = _unreachable_pair(succ)
    if gap is not None:
        raise NotIrreducible((gap[0] + 1, gap[1] + 1))

    # Cyclic period: gcd of (dist[u] + 1 - dist[v]) over edges u -> v.
    dist = [None] * spec.k
    dist[0] = 0
    queue = [0]
    while queue:
        v = queue.pop(0)
        for w in succ[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    period = 0
    for v in range(spec.k):
        for w in succ[v]:
            period = gcd(period, dist[v] + 1 - dist[w])
    period = abs(period)
    if period == 0:
        period = 1
    return ValidationReport(irreducible=True, aperiodic=period == 1, period=period)


def _reachable_from(succ, start: int) -> set[int]:
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _unreachable_pair(succ) -> tuple[int, int] | None:
    """None when the nonempty graph with successor lists succ is strongly
    connected, otherwise the first ordered pair (i, j) with no path i -> j.

    The graph is strongly connected exactly when vertex 0 reaches every
    vertex and every vertex reaches 0.  When 0 reaches every vertex, the
    vertices that reach everything are those that reach 0, so the first
    i is the least vertex outside the reverse search from 0.
    """
    n = len(succ)
    i, reach = 0, _reachable_from(succ, 0)
    if len(reach) == n:
        pred: list[list[int]] = [[] for _ in range(n)]
        for v, ws in enumerate(succ):
            for w in ws:
                pred[w].append(v)
        back = _reachable_from(pred, 0)
        if len(back) == n:
            return None
        i = next(v for v in range(n) if v not in back)
        reach = _reachable_from(succ, i)
    return i, next(j for j in range(n) if j not in reach)


@dataclass(frozen=True)
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

    def successors(self, v: int) -> list[int]:
        return [self.edge_head[e] for e in self.out_edges[v]]

    def is_strongly_connected(self) -> bool:
        succ = [self.successors(v) for v in range(len(self.vertices))]
        return bool(succ) and _unreachable_pair(succ) is None


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


@dataclass(frozen=True, order=True, slots=True)
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

    Returns an iterator of (word, weight) pairs, one per orbit, where word
    is the orbit's least rotation (a Lyndon word).  Words come in
    lexicographic order, so a prefix precedes its extensions; by_period
    turns that into (period, word) order.  The period cap and the work
    budget are checked here, when the iterator is made, not when it is
    first advanced.

    ``act[b-1]`` maps the weight of a word to the weight of that word
    followed by symbol b, i.e. left multiplication by the weight of b;
    ``identity`` is the weight of the empty word.  Without ``act`` every
    weight is ``identity``.
    """
    cap = max_period_cap()
    if max_period > cap:
        raise RangeTooLarge(f"period {max_period} exceeds cap {cap}")
    if max_period < 1:
        return iter(())
    if _word_count_estimate(spec, max_period) > DEFAULT_MAX_WORK:
        raise RangeTooLarge(
            f"orbit enumeration up to period {max_period} exceeds the work budget"
        )
    if act is None:
        act = (lambda w: w,) * spec.k
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
    """
    k = spec.k
    allowed = ((0,) * (k + 1),) + tuple((0, *row) for row in spec.transitions)
    successors = [()] + [spec.successors(a) for a in range(1, k + 1)]
    act = (None, *act)
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
            w = weight[t] = act[b](weight[t - 1])
            if p == t and allowed[b][word[0]]:
                yield tuple(word[:t]), w
            if t < max_period:
                after = successors[b]
                frames.append(iter(after[bisect_left(after, word[t - p]) :]))
                break
        else:
            frames.pop()


def enumerate_periodic_orbits(spec: SftSpec, max_period: int) -> list[PeriodicOrbit]:
    """All primitive periodic orbits of period <= max_period.

    Orbits are returned sorted by (period, word).  Each orbit is the Lyndon
    word of walk_primitive_orbits, which produces every orbit exactly once,
    so sorting reduces to bucketing by period.
    """
    walk = walk_primitive_orbits(spec, max_period)
    orbits = (PeriodicOrbit(word=word) for word, _ in walk)
    return by_period(orbits, max_period, lambda orbit: len(orbit.word))


def by_period(items, max_period: int, period=len) -> list:
    """Reorder items listed in lexicographic word order into (period, word) order."""
    buckets: list[list] = [[] for _ in range(max_period + 1)]
    for item in items:
        buckets[period(item)].append(item)
    return [item for bucket in buckets for item in bucket]


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
    assert result is not None
    return sum(result[i][i] for i in range(spec.k))


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
