"""Exact rational cohomology solver for abelian extension data.

Given a locally constant rational function f on the shift, decide whether
f(x) = u(shift x) - u(x) + alpha(psi(x0)) for some potential u on blocks
and homomorphism alpha.

One kernel, _solve_cover, solves for a deck group F x Z^d (groups.Group:
F a finite table, d its rank) on the block graph.  F enters only through
transitivity, decided by the monodromy group, and Z^d through alpha, by
a fraction-free elimination of the fundamental cycles' rises
(SpanningTree.rises); solve_finite_gamma names the corner d = 0 (alpha
vanishes by torsion) and solve_free_abelian the corner F = 1.  What
depends only on the cover comes from skew.transitive_cover's
per-(system, r) memo: the transitivity gate, psi's columns with their
rises, and psi's half of the elimination (groups.pivot_rows), so a solve
pays only for f.  The kernel reads f as the cocycle holds it, int
numerators over the lcm of its denominators in the block graph's edge
order, propagates their integer potentials once, takes each pivot row's
right-hand side and the defect scan from f's rises
(groups.eliminate_rhs), certifies in the same ints and writes u and
alpha over one denominator; Fraction appears only for u, alpha and
witness totals.  One lift, skew.lifted_cycle (shared with the matrix
solver), turns an inconsistency into a closed word of identity weight in
both corners; over Z^d its correction walk comes from a box search that
_BOXES keeps and resumes for the next target.  So a returned
solution is a certificate and a returned obstruction is a
counterexample.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, eq, mul

from .errors import (
    DEFAULT_MAX_WORK,
    CocycleObstruction,
    DimensionMismatch,
    InvalidCocycle,
    RangeTooLarge,
    TorsionAlpha,
    check_invariant,
    max_states_cap,
)
from .groups import eliminate_rhs
from .record import record
from .sft import (
    LocallyConstantCocycle,
    PeriodicOrbit,
    StateMemo,
    WindowNumerators,
    Word,
    _as_fraction,
    _check_cocycle_shift,
    _solution_block_graph,
    _successor_table,
    _window_words,
    build_block_graph,
    cyclic_numerator,
    make_cocycle,
)
from .skew import SkewSystem, _weighted_walk, lifted_cycle, transitive_cover


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
    deterministic.  The walk's words are cyclically admissible least
    rotations, so they are folded as they come: the packed words are
    decoded a period at a time and the identity-weight ones picked by
    compress, both in C, and each is summed in ints over the cocycle's
    denominator.  Only the witness becomes a PeriodicOrbit and a Fraction.
    """
    _check_cocycle_shift(system.sft, cocycle)
    words, weights = _weighted_walk(system, max_period)
    for word in compress(words, map(eq, weights, repeat(system.group.identity))):
        total = cyclic_numerator(cocycle, word)
        if total:
            return ViolationWitness(
                orbit=PeriodicOrbit(word=word),
                multiplicity=1,
                total=Fraction(total, cocycle.denominator),
            )
    return None


def solve_finite_gamma(
    system: SkewSystem, cocycle: LocallyConstantCocycle
) -> CohomologySolution:
    """Solve over a finite group: _solve_cover with d = 0.

    NotTransitiveError, with transitive_cover's unreachable pair of
    product states, when the cover is not transitive.  A nonzero closure
    defect is lifted to an identity-weight closed word with nonzero sum
    and raised as CocycleObstruction.  On success alpha is None: torsion
    forces it to vanish, since the reals are torsion-free.
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
    inconsistent, in which case the inconsistent row's combination is
    reassembled into explicit closed words certifying the obstruction.
    NotStronglyConnected when the block graph is not strongly connected.
    """
    return _solve_cover(system, cocycle)


def _solve_cover(
    system: SkewSystem, cocycle: LocallyConstantCocycle
) -> CohomologySolution:
    """The one solver behind both public names, for a deck group F x Z^d.

    Works on the block graph alone.  F enters only through transitivity,
    which transitive_cover decides from the monodromy group: real sums
    kill torsion, so a closed walk whose F weight has order m has m times
    its sum on a closed walk of the F-cover, and f is a coboundary on
    that cover iff it is one on the block graph.  Z^d enters through
    alpha: NotStronglyConnected when d > 0 and the block graph is not
    strongly connected.  scale * f (scale the lcm of f's denominators)
    and each coordinate of psi_z are per-edge int columns; tree.rises
    gives their potentials, and each chord (non-tree edge) the row
    (rho_psi, defect) of their rises.  psi's columns and rises, and the
    <= d pivot rows groups.pivot_rows reduces them to, are the cover's
    (Cover.psi and Cover.pivot_rows, built on the first solve over the
    system), so only f's column is propagated here and no row is pivoted
    on.  groups.eliminate_rhs gives each pivot row its right-hand side,
    the combination of f's rises its coefficients name, and scans the
    defects (with d = 0 the first nonzero defect is the inconsistent
    row); the input rows it combines into an inconsistent row become a
    witness.  Otherwise alpha and u share the one Bareiss denominator
    pivot * scale, and are certified in its ints, with f's numerators
    handed to _check_edges.  A degenerate alpha reads the cover's Smith
    report (Cover.lattice).
    """
    _check_cocycle_shift(system.sft, cocycle)
    d = system.group.rank
    r = cocycle.effective_block_length
    cover = transitive_cover(system, r)
    tree = cover.tree

    bg = tree.graph
    weights, scale = _edge_numerators(cocycle, bg), cocycle.denominator
    psi_columns, psi_pots, psi_rises = cover.psi
    pot_f, rise_f = tree.rises(weights)
    # One row alpha . rho_psi = defect per chord: the cover's pivot rows, f's rises as rhs.
    reduced, pivots, combo = eliminate_rhs(cover.pivot_rows, psi_rises, rise_f)
    if combo is not None:
        columns = [*psi_columns, weights]
        witness = _inconsistency_certificate(system, tree, combo, columns, scale)
        raise CocycleObstruction(witness)
    # Every pivot row holds the same pivot, so alpha = rhs / (pivot * scale).
    pivot = reduced[0][pivots[0]] if pivots else 1
    den = pivot * scale
    tops = [0] * d
    for row, col in zip(reduced, pivots):
        tops[col] = row[d]
    # u = pot_f / scale - alpha . pot_psi, over the same denominator.
    top = [pivot * p for p in pot_f]
    for a, pot in zip(tops, psi_pots):
        if a:
            top = [x - a * q for x, q in zip(top, pot)]
    u = {block: Fraction(x, den) for block, x in zip(bg.vertices, top)}
    alpha, degenerate = None, None
    if d:
        alpha = tuple(Fraction(a, den) for a in tops)
        free_cols = tuple(c for c in range(d) if c not in pivots)
        if free_cols:
            diag = cover.lattice.diagonal
            degenerate = DegenerateReport(
                lattice_rank=len(diag),
                lattice_diagonal=diag,
                pinned_coordinates=free_cols,
            )
    solution = CohomologySolution(r, u, alpha, degenerate)
    report = _check_edges(system, cocycle, solution, bg, (top, tops, den, weights))
    check_invariant(report.certified, "solution fails its own certification")
    return CohomologySolution(r, u, alpha, degenerate, certificate=report)


def _edge_numerators(cocycle, bg) -> list[int]:
    """scale * f on the leading window of each edge of bg, the cocycle's
    block graph over the system's shift, for scale the cocycle's
    denominator (the lcm of f's), in edge order.  The windows
    (sft._window_words) are the edge words themselves at block range >= 1,
    and the 1-blocks at 0, so an edge reads the window of its tail.
    make_cocycle's numerators are a WindowNumerators, listed by walking
    those windows, so they are read by position with no word hashed; any
    other table (a record built directly, or unpickled from an older
    build) is read by window."""
    numerators = cocycle.numerators
    if type(numerators) is WindowNumerators:
        values = list(numerators.values())
    else:
        values = list(map(numerators.__getitem__, _window_words(bg.spec, cocycle.block_range)))
    if cocycle.block_range:
        return values
    return list(map(values.__getitem__, bg.edge_tail))


def _drift_table(system: SkewSystem, alpha) -> list:
    """alpha . psi_z(a) for each symbol a (index a - 1).

    Edge identities add alpha . psi_z of the edge's first symbol, so k dot
    products serve every edge.  Each sum starts at the int 0, so an alpha
    of ints (as scaled by _check_edges) gives ints.
    """
    return [sum(map(mul, alpha, z)) for z in system.psi_z]


def _inconsistency_certificate(system, tree, combo, columns, scale):
    """Turn an inconsistent row combination into closed-word evidence.

    combo maps row positions (indices into tree.chords) to integer coefficients.
    columns[j][e] is coordinate j of the Z^d step of edge e, and the last
    column scale * f on edge e.  The combination's walks close up, with
    one shared correction walk, to two closed walks of zero Z^d weight and
    different sums, and skew.lifted_cycle finds an identity-weight cycle
    with a nonzero sum in their lifts; without a correction walk they are
    an EqualWeightPair.
    """
    bg = tree.graph
    content = gcd(*combo.values())
    terms = []
    for i, c in sorted(combo.items()):  # eliminate_rhs leaves zeros out
        walk, shadow = tree.walks(tree.chords[i][0])
        terms.append((walk, shadow, c // content) if c > 0 else (shadow, walk, -c // content))
    # The walks are repeated by elimination coefficients, which grow with psi.
    edges = sum(n * (len(walk) + len(shadow)) for walk, shadow, n in terms)
    if edges > DEFAULT_MAX_WORK:
        raise RangeTooLarge(f"the inconsistency's witness walks, {edges} edges, "
                            f"exceed the work budget of {DEFAULT_MAX_WORK}")
    plus = list(chain.from_iterable(walk * n for walk, _, n in terms))
    minus = list(chain.from_iterable(shadow * n for _, shadow, n in terms))

    def column_sums(walk):
        return [sum(map(col.__getitem__, walk)) for col in columns]

    *v, sum_plus = column_sums(plus)
    *w, sum_minus = column_sums(minus)
    check_invariant(w == v, "certificate walks differ in weight")
    check_invariant(sum_plus != sum_minus, "certificate walks agree in sum")

    correction = _closing_walk(system, bg, tuple(-x for x in v))
    if correction is not None:
        walks, weights = (plus + correction, minus + correction), columns[-1].__getitem__
        cycle, word, mult = lifted_cycle(system, tree, walks, lambda w: abs(sum(map(weights, w))))
        total = Fraction(sum(map(weights, cycle)), scale)
        return ViolationWitness(orbit=PeriodicOrbit(word=word), multiplicity=mult, total=total)
    return EqualWeightPair(
        word_a=bg.project_cycle(plus),
        word_b=bg.project_cycle(minus),
        weight=tuple(v),
        sum_a=Fraction(sum_plus, scale),
        sum_b=Fraction(sum_minus, scale),
    )


def _closing_walk(system, bg, target):
    """Closed walk at block 0 whose weight is target, by bounded lattice BFS.

    A closed walk at b0 = bg.vertices[0] of length L >= r reads the word
    b0 + z + b0, and its offsets are the prefix sums of psi over b0 + z.
    So the search runs over (last symbol, prefix sum) states from
    (b0[-1], psi(b0)), expands successor symbols in order and stops at the
    first state whose sum is target and whose symbol may precede b0[0]:
    the lexicographically least shortest walk in the box, the one a
    search over (block, offset) states finds.  A walk with L < r exists
    only when b0 is L-periodic, and is tried first.  Offsets stay in the
    box [-bound, bound]^d.  The target only picks which discovered state
    ends the walk, so the search is a _Box kept per (shift, r, psi_z,
    bound) in _BOXES and resumed where it stopped; the answer is the one
    a fresh search finds, None when more than LIVSIC_MAX_STATES states
    are discovered before the goal, as the cap is counted in (symbol,
    offset) states, or when the box holds no goal.
    """
    target = tuple(target)
    if not any(target):
        return []
    spec = bg.spec
    cap = max_states_cap()
    bound = max(8, 2 * max(map(abs, target)))
    b0 = bg.vertices[0]
    r = len(b0)
    off = (0,) * len(target)
    for n, a in enumerate(b0, 1):
        off = tuple(map(add, off, system.psi_of(a)))
        if max(off) > bound or min(off) < -bound:
            return None
        if n < r and off == target and b0[n:] == b0[:-n]:
            return _edge_walk(bg, b0[r - n :])
    if off == target and spec.allows(b0[-1], b0[0]):
        return _edge_walk(bg, b0)
    key = (spec, r, system.psi_z, bound)
    box = _BOXES.take(key, cap) or _Box(system, b0, off, bound)
    goal = box.search(target, cap)
    _BOXES.put(key, box, cap)
    if goal is None:
        return None
    z, prev, width = [], box.prev, box.width
    while goal != box.start:
        z.append(goal // width + 1)
        goal = prev[goal]
    z.reverse()
    return _edge_walk(bg, z + list(b0))


class _Box:
    """_closing_walk's breadth-first search in one box, kept to be resumed.

    A state is coded as the int (symbol - 1) * side**d + the offset's
    base-side digits, offsets shifted by bound.  prev maps each discovered
    state to the one it was reached from, in discovery order, and queue
    holds the states not yet expanded; found maps an offset code to the
    first discovered state there whose symbol may precede b0[0], with the
    number of states discovered before it.
    """

    __slots__ = ("side", "digits", "width", "bound", "start", "successors",
                 "jumps", "moves", "closes", "prev", "queue", "found")

    def __init__(self, system, b0, off, bound):
        spec, d = system.sft, system.group.rank
        side = 2 * bound + 1
        digits = [side**i for i in range(d)]
        width = side**d
        symbols = range(1, spec.k + 1)
        psi = [None, *map(system.psi_of, symbols)]
        self.side, self.digits, self.width, self.bound = side, digits, width, bound
        self.successors = _successor_table(spec)
        self.start = (b0[-1] - 1) * width + sum(map(mul, off, digits)) + bound * sum(digits)
        # From offset code c, psi(b) steps to state c + jumps[b], inside the box if each digit
        # it moves by s, c // side**i % side, is in [-s, side - s); closes[b] when b may end it.
        self.jumps = [None, *((b - 1) * width + sum(map(mul, psi[b], digits)) for b in symbols)]
        self.moves = [None, *([(p, -s, side - s) for p, s in zip(digits, psi[b]) if s] for b in symbols)]
        self.closes = [False, *(spec.allows(b, b0[0]) for b in symbols)]
        self.prev: dict = {self.start: None}
        self.queue = deque([self.start])
        self.found: dict = {}

    def search(self, target, cap: int):
        """The first discovered state at offset target whose symbol may
        precede b0[0], or None: expands whole states until it is found,
        the queue is empty or more than cap states are discovered."""
        goal = sum(map(mul, target, self.digits)) + self.bound * sum(self.digits)
        prev, queue, found, width, side = self.prev, self.queue, self.found, self.width, self.side
        successors, jumps, moves, closes = self.successors, self.jumps, self.moves, self.closes
        while goal not in found and queue and len(prev) <= cap:
            state = queue.popleft()
            a, code = divmod(state, width)
            for b in successors[a + 1]:
                for p, lo, hi in moves[b]:
                    if not lo <= code // p % side < hi:
                        break
                else:
                    nstate = code + jumps[b]
                    if nstate in prev:
                        continue
                    prev[nstate] = state
                    queue.append(nstate)
                    if closes[b]:
                        found.setdefault(nstate % width, (nstate, len(prev) - 1))
        # A fresh search stops at the first other state past the cap, so
        # the goal counts only if at most cap states came before it.
        hit, before = found.get(goal, (None, 0))
        return hit if before <= cap else None


# Closing-walk searches by (shift, r, psi_z, bound), charged their discovered states.
_BOXES = StateMemo(lambda box: len(box.prev))


def _edge_walk(bg, symbols) -> list[int]:
    """Edge ids of the walk from block 0 that appends symbols in turn."""
    walk, v = [], 0
    edges, out_edges, edge_head = bg.edges, bg.out_edges, bg.edge_head
    for b in symbols:
        e = next(e for e in out_edges[v] if edges[e][-1] == b)
        walk.append(e)
        v = edge_head[e]
    return walk


def verify_solution(
    system: SkewSystem, cocycle: LocallyConstantCocycle, solution: CohomologySolution
) -> VerificationReport:
    """Re-check every edge identity exactly; list residuals that fail.

    InvalidCocycle when the cocycle is over another shift than the system;
    DimensionMismatch when the block length, the blocks u is defined on or
    the length of alpha do not fit the system; TorsionAlpha for a nonzero
    alpha over a finite group.
    """
    bg = _solution_block_graph(system.sft, cocycle, solution)
    return _check_edges(system, cocycle, solution, bg)


def _check_edges(system, cocycle, solution, bg, ints=None) -> VerificationReport:
    """Check f(w) = u(w[1:]) - u(w[:-1]) + alpha . psi_z(w[0]) on every edge w of bg.

    u, alpha and f are scaled by the lcm D of their denominators, so every
    identity is checked exactly in ints; a failing residual is reported as
    Fraction(residual, D).  f is read from its int numerators over the
    cocycle's denominator, which divides D.  The solver passes its own
    ints = (D * u at each vertex of bg, D * alpha, D, the numerators of
    f on bg's edges), with D its common denominator, and nothing is
    rescaled or read again.
    """
    if ints is None:
        u = solution.u
        alpha = _alpha_vector(system.group, solution.alpha)
        scale = lcm(cocycle.denominator, *{x.denominator for x in chain(u.values(), alpha)})

        def scaled(x) -> int:
            return x.numerator * (scale // x.denominator)

        pot = [scaled(u[block]) for block in bg.vertices]
        ints = pot, list(map(scaled, alpha)), scale, _edge_numerators(cocycle, bg)
    pot, alpha, scale, f = ints
    drift = _drift_table(system, alpha)
    lift = scale // cocycle.denominator
    residuals = [
        lift * x - drift[w[0] - 1] - pot[h] + pot[t]
        for x, w, t, h in zip(f, bg.edges, bg.edge_tail, bg.edge_head)
    ]
    bad = compress(zip(bg.edges, residuals), residuals)
    failures = tuple((w, Fraction(x, scale)) for w, x in bad)
    return VerificationReport(
        certified=not failures,
        edges_checked=len(bg.edges),
        failures=failures,
    )


def _alpha_vector(group, alpha) -> tuple[Fraction, ...]:
    """alpha as a vector of length d, the group's rank; None reads as zero.

    Over a finite group (d = 0) torsion forces alpha = 0: an alpha of
    zeros reads as () and any other raises TorsionAlpha.
    """
    d = group.rank
    if alpha is None:
        return (Fraction(0),) * d
    if not d:
        if any(map(_as_fraction, alpha)):
            raise TorsionAlpha("finite fiber groups admit only alpha = 0")
        return ()
    vec = tuple(_as_fraction(a) for a in alpha)
    if len(vec) != d:
        raise DimensionMismatch("alpha length does not match the group rank")
    return vec


def generate_cocycle(
    system: SkewSystem,
    u=None,
    alpha=None,
    *,
    block_range: int,
    seed: int | None = None,
) -> LocallyConstantCocycle:
    """Build f = u(shift .) - u + alpha(psi) over (block_range+1)-windows.

    With u omitted, a seeded generator draws a random rational p/q per
    block, with |p| <= 9 and 1 <= q <= 9.  A nonzero alpha over a finite
    group is rejected: torsion forces alpha = 0, so no such cocycle exists.
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
            block: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for block in bg.vertices
        }
    else:
        u = {tuple(k): _as_fraction(v) for k, v in u.items()}
        if set(u) != set(bg.vertices):
            raise InvalidCocycle("u must assign a value to every admissible block")
    drift = _drift_table(system, alpha_vec)
    values = {word: u[word[1:]] - u[word[:-1]] + drift[word[0] - 1] for word in bg.edges}
    return make_cocycle(system.sft, block_range, values)
