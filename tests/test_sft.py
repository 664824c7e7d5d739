"""Symbolic dynamics core: validation, block graphs, orbits, censuses."""
from __future__ import annotations

import gc
import pickle
import random
import time
import tracemalloc
from bisect import bisect_left
from itertools import chain, product

import pytest

from livsic import (
    BadShape,
    DeadSymbol,
    GroupSpec,
    NotIrreducible,
    PeriodicOrbit,
    RangeTooLarge,
    SftSpec,
    build_block_graph,
    build_group,
    canonical_rotation,
    count_periodic_points,
    enumerate_periodic_orbits,
    make_cocycle,
    make_skew_system,
    orbit_weights,
    primitive_root,
    validate_sft,
    verify_vanishing,
    walk_primitive_orbits,
)
from livsic import sft
from livsic.serialization import parse_cocycle
from livsic.record import FrozenInstanceError
from corpus import is_primitive, orbit_sum, random_irreducible_sft, rng_for, s3_group

GOLDEN_MEAN = SftSpec.from_rows([[1, 1], [1, 0]])
FULL_2 = SftSpec.full_shift(2)


def test_validate_full_shift():
    report = validate_sft(FULL_2)
    assert report.irreducible and report.aperiodic and report.period == 1


def test_validate_golden_mean():
    report = validate_sft(GOLDEN_MEAN)
    assert report.irreducible and report.period == 1


def test_validate_bipartite_period():
    report = validate_sft(SftSpec.from_rows([[0, 1], [1, 0]]))
    assert report.irreducible
    assert not report.aperiodic
    assert report.period == 2


def test_validate_refuses_more_symbols_than_the_state_cap(monkeypatch):
    monkeypatch.setenv("LIVSIC_MAX_STATES", "2")
    assert validate_sft(FULL_2).period == 1
    with pytest.raises(RangeTooLarge):
        validate_sft(SftSpec.full_shift(3))


def test_validate_rejects_bad_shapes():
    with pytest.raises(BadShape):
        validate_sft(SftSpec(k=2, transitions=((1, 1),)))
    with pytest.raises(BadShape):
        validate_sft(SftSpec.from_rows([[1, 2], [1, 1]]))


def test_validate_rejects_dead_symbols():
    with pytest.raises(DeadSymbol):
        validate_sft(SftSpec.from_rows([[1, 0], [1, 0]]))


def test_validate_rejects_reducible_with_witness():
    with pytest.raises(NotIrreducible) as err:
        validate_sft(SftSpec.from_rows([[1, 1], [0, 1]]))
    assert err.value.witness == (2, 1)


def test_admissible_words():
    assert GOLDEN_MEAN.is_admissible((1, 1, 2, 1))
    assert not GOLDEN_MEAN.is_admissible((2, 2))
    assert GOLDEN_MEAN.is_admissible((2, 1), cyclic=True)
    assert not GOLDEN_MEAN.is_admissible((2,), cyclic=True)


def test_block_graph_golden_mean_two_blocks():
    bg = build_block_graph(GOLDEN_MEAN, 2)
    assert bg.vertices == ((1, 1), (1, 2), (2, 1))
    assert bg.edges == ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2))
    assert sft.SpanningTree(bg).strongly_connected


def test_block_graph_edges_connect_overlapping_blocks():
    bg = build_block_graph(FULL_2, 3)
    for e, word in enumerate(bg.edges):
        assert bg.vertices[bg.edge_tail[e]] == word[:-1]
        assert bg.vertices[bg.edge_head[e]] == word[1:]


def test_canonical_rotation_is_the_least_rotation_in_linear_time():
    # Every word of length up to 8 over two symbols and seeded words over
    # three, against the least of all rotations.
    words = [w for n in range(1, 9) for w in product((1, 2), repeat=n)]
    rng = random.Random(143)
    words += [tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 30))) for _ in range(2_000)]
    for word in words:
        assert canonical_rotation(word) == min(word[i:] + word[:i] for i in range(len(word)))
    # A witness orbit of the 2-shift over Z with psi = (1, -10^6) has this
    # shape; comparing every rotation that starts at a 1 took time
    # quadratic in its length.
    ones = (1,) * 999_999
    start = time.process_time()
    assert canonical_rotation((2, *ones, 2)) == (*ones, 2, 2)
    assert time.process_time() - start < 1.0


def test_canonical_rotation_and_primitivity():
    assert canonical_rotation((2, 1, 1)) == (1, 1, 2)
    assert canonical_rotation((1,)) == (1,)
    assert is_primitive((1, 1, 2))
    assert not is_primitive((1, 2, 1, 2))
    assert primitive_root((1, 2, 1, 2)) == ((1, 2), 2)
    assert primitive_root((1, 1, 2)) == ((1, 1, 2), 1)


def test_orbit_enumeration_golden_mean():
    orbits = enumerate_periodic_orbits(GOLDEN_MEAN, 3)
    assert [o.word for o in orbits] == [(1,), (1, 2), (1, 1, 2)]


def test_orbit_enumeration_full_shift():
    orbits = enumerate_periodic_orbits(FULL_2, 3)
    assert [o.word for o in orbits] == [
        (1,),
        (2,),
        (1, 2),
        (1, 1, 2),
        (1, 2, 2),
    ]


def test_enumerated_orbits_are_a_read_only_sequence():
    orbits = enumerate_periodic_orbits(FULL_2, 3)
    built = [PeriodicOrbit(word=w) for w in ((1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2))]
    assert len(orbits) == 5 and orbits
    assert not enumerate_periodic_orbits(SftSpec.from_rows([[0]]), 9)
    assert orbits[0] == built[0] and orbits[-1] == built[-1] and orbits[-5] == built[0]
    for index in (5, -6):
        with pytest.raises(IndexError):
            orbits[index]
    assert type(orbits[1:3]) is type(orbits) and orbits[1:3] == built[1:3]
    assert orbits[::-2] == built[::-2] and orbits[9:] == []
    # Each pass builds the orbits afresh, equal to the first pass's.
    assert list(orbits) == list(orbits) == built
    assert orbits == built and built == orbits and orbits == tuple(built)
    assert orbits != built[:-1] and built[1:] != orbits and orbits != built[::-1]
    assert orbits != [o.word for o in built] and orbits != 5
    again = enumerate_periodic_orbits(FULL_2, 3)
    assert orbits == again and again == orbits and orbits != again[1:]
    assert orbits.index(built[2]) == 2 and built[3] in orbits
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(orbits, protocol))
        assert type(copy) is type(orbits) and copy == orbits
        assert [o.word for o in copy] == [o.word for o in orbits]
    assert repr(orbits[:2]) == "OrbitList([(1,), (2,)])"
    with pytest.raises(TypeError):
        hash(orbits)
    for mutate in (lambda: orbits.append(built[0]), lambda: orbits.__setitem__(0, built[0])):
        with pytest.raises((AttributeError, TypeError)):
            mutate()


def test_enumerated_orbits_are_not_tracked_objects():
    # Orbits are built on access, so holding the result adds no tracked
    # object per orbit for the cyclic garbage collector to rescan.
    gc.collect()
    before = len(gc.get_objects())
    orbits = enumerate_periodic_orbits(SftSpec.full_shift(4), 10)
    gc.collect()
    after = len(gc.get_objects())
    assert len(orbits) == 145_338
    assert after - before < 100


def test_orbit_words_are_canonical_and_primitive():
    for orbit in enumerate_periodic_orbits(GOLDEN_MEAN, 7):
        assert orbit.word == canonical_rotation(orbit.word)
        assert is_primitive(orbit.word)
        assert GOLDEN_MEAN.is_admissible(orbit.word, cyclic=True)


def test_periodic_point_counts_golden_mean():
    assert [count_periodic_points(GOLDEN_MEAN, n) for n in (1, 2, 3, 4)] == [1, 3, 4, 7]


def test_periodic_point_counts_full_shift():
    assert [count_periodic_points(FULL_2, n) for n in (1, 2, 3)] == [2, 4, 8]


def test_census_matches_orbit_counts():
    for seed in range(5):
        spec = random_irreducible_sft(rng_for(401, seed), 4)
        orbits = enumerate_periodic_orbits(spec, 8)
        for n in range(1, 9):
            total = sum(o.period for o in orbits if n % o.period == 0)
            assert total == count_periodic_points(spec, n)
        # The depth-first word walk emits blocks in lexicographic order.
        for r in range(1, 6):
            vertices = build_block_graph(spec, r).vertices
            assert list(vertices) == sorted(vertices), (seed, r)


def test_the_walk_counts_every_periodic_point_at_the_benchmark_sizes():
    # The walk spells its last two lengths from the level two below
    # max_period; the reference comparison only reaches small walks, so
    # check the trace formula sum_{d | n} d * #(orbits of period d) on the
    # benchmark's full shifts, two seeded sparse ones, short walks whose
    # last level is single symbols (p == 1, so the child that keeps p
    # reads c2 == c), and a shift with no cycle, whose levels run out.
    cases = [
        (SftSpec.full_shift(4), 10),
        (SftSpec.full_shift(3), 12),
        (FULL_2, 16),
        (random_irreducible_sft(rng_for(411, 35), 5), 16),
        (random_irreducible_sft(rng_for(411, 27), 7), 16),
        (SftSpec.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), 3),
        (GOLDEN_MEAN, 2),
        (SftSpec.full_shift(5), 1),
        (SftSpec.from_rows([[0, 1, 1], [0, 0, 1], [0, 0, 0]]), 6),
    ]
    for spec, max_period in cases:
        words, _ = walk_primitive_orbits(spec, max_period)
        periods = [0] * (max_period + 1)
        for word in words:
            periods[len(word)] += 1
        for n in range(1, max_period + 1):
            points = sum(d * periods[d] for d in range(1, n + 1) if n % d == 0)
            assert points == count_periodic_points(spec, n), (spec, max_period, n)
        if max_period <= 12:
            # The weighted finish spells the same words, each weight one
            # step per symbol.
            counted, lengths = walk_primitive_orbits(spec, max_period, [lambda m: m + 1] * spec.k, 0)
            assert counted == words and lengths == list(map(len, words))


def _orbit_consumers(spec: SftSpec):
    """Each orbit consumer on spec, as a function of the period bound."""
    z1 = build_group(GroupSpec.free_abelian(1))
    system = make_skew_system(spec, z1, [(s % 3 - 1,) for s in range(spec.k)])
    cocycle = make_cocycle(spec, 0, {(s,): 0 for s in range(1, spec.k + 1)})
    return [
        lambda p: walk_primitive_orbits(spec, p),
        lambda p: orbit_weights(system, p),
        lambda p: enumerate_periodic_orbits(spec, p),
        lambda p: verify_vanishing(system, cocycle, p),
    ]


def test_enumeration_cap(monkeypatch):
    # Every consumer refuses before any walk starts.
    monkeypatch.setenv("LIVSIC_MAX_PERIOD", "4")
    for call in _orbit_consumers(FULL_2):
        with pytest.raises(RangeTooLarge, match="exceeds cap"):
            call(5)
    monkeypatch.delenv("LIVSIC_MAX_PERIOD")
    # 597 870 words up to length 6 on nine symbols, 5 380 839 up to 7.
    for call in _orbit_consumers(SftSpec.full_shift(9)):
        with pytest.raises(RangeTooLarge, match="work budget; the largest period within it is 6$"):
            call(9)


def test_an_orbit_budget_refusal_does_not_scale_with_the_period(monkeypatch):
    monkeypatch.setenv("LIVSIC_MAX_PERIOD", str(10**9))
    for max_period in (10**3, 10**9):
        with pytest.raises(RangeTooLarge, match="the largest period within it is 19$"):
            walk_primitive_orbits(FULL_2, max_period)


def test_walk_returns_two_lists_in_period_order():
    for spec in (GOLDEN_MEAN, FULL_2, SftSpec.full_shift(3)):
        for max_period in (0, 1, 6):
            words, weights = walk_primitive_orbits(spec, max_period)
            assert type(words) is sft.PackedWords and type(weights) is list
            assert words == (_reference_walk(spec, max_period, None, None)[0] if max_period else [])
            assert len(words) == len(weights)
            assert words == sorted(words, key=lambda w: (len(w), w))
            # Without act the weight step is skipped: every weight is identity.
            assert weights == [None] * len(words)
            # A symbol count as weight: the walk's weights are the word lengths.
            act = [lambda n: n + 1] * spec.k
            counted, lengths = walk_primitive_orbits(spec, max_period, act, 0)
            assert counted == words
            assert lengths == list(map(len, words))


def _reference_walk(spec: SftSpec, max_period: int, act, identity):
    """The depth-first prenecklace walk the breadth-first one replaced.

    One frame per prenecklace; each Lyndon word with an allowed wrap goes
    to the lists of its period, flattened at the end.
    """
    k = spec.k
    allowed = ((0,) * (k + 1),) + tuple((0, *row) for row in spec.transitions)
    successors = [()] + [spec.successors(a) for a in range(1, k + 1)]
    if act is not None:
        act = (None, *act)
    words = [[] for _ in range(max_period + 1)]
    weights = [[] for _ in range(max_period + 1)]
    word = [0] * max_period
    period = [0] * max_period
    weight = [identity] * (max_period + 1)
    frames = [iter(range(1, k + 1))]
    while frames:
        t = len(frames)
        for b in frames[-1]:
            word[t - 1] = b
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


def _walk_corpus():
    """Seeded transition rows on 1..5 symbols: full, sparse, mostly
    reducible (upper triangular plus a few edges back) and nilpotent
    (strictly upper triangular, so no orbit at all)."""
    rng = rng_for(409, 0)
    for k in range(1, 6):

        def rows(entry):
            return SftSpec.from_rows([[int(entry(a, b)) for b in range(k)] for a in range(k)])

        yield SftSpec.full_shift(k)
        yield rows(lambda a, b: rng.random() < 0.45)
        yield rows(lambda a, b: rng.random() < 0.45)
        yield rows(lambda a, b: a <= b or rng.random() < 0.2)
        yield rows(lambda a, b: a < b and rng.random() < 0.7)


def test_breadth_first_walk_matches_the_depth_first_reference(monkeypatch):
    c2 = build_group(GroupSpec.cyclic(2))
    z2 = build_group(GroupSpec.free_abelian(2))
    rng = rng_for(409, 1)
    for spec in _walk_corpus():
        vectors = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(spec.k)]
        systems = [
            make_skew_system(spec, c2, [rng.randrange(2) for _ in range(spec.k)]),
            make_skew_system(spec, s3_group(), [rng.randrange(6) for _ in range(spec.k)]),
            make_skew_system(spec, z2, vectors),
        ]
        for max_period in range(10):
            # The reference takes a frame per prenecklace: keep its run short.
            if spec.k ** max_period > 20_000:
                continue
            walks = []
            for walk in (sft._lyndon_walk, _reference_walk):
                monkeypatch.setattr(sft, "_lyndon_walk", walk)
                walks.append(
                    [walk_primitive_orbits(spec, max_period)]
                    + [list(orbit_weights(system, max_period)) for system in systems]
                )
            monkeypatch.undo()
            assert walks[0] == walks[1], (spec, max_period)


def test_the_walk_spells_symbols_above_255(monkeypatch):
    # A 300-cycle with chords back: cycles of period 6, 11 and 7 that use
    # symbols above 255, the last one wrapping through symbols 1..5.
    k = 300
    rows = [[int(b == a % k + 1) for b in range(1, k + 1)] for a in range(1, k + 1)]
    for a, b in ((260, 255), (300, 290), (5, 299), (150, 140)):
        rows[a - 1][b - 1] = 1
    spec = SftSpec.from_rows(rows)
    z2 = build_group(GroupSpec.free_abelian(2))
    system = make_skew_system(spec, z2, [(s % 5 - 2, s % 3 - 1) for s in range(1, k + 1)])
    walks = []
    for walk in (sft._lyndon_walk, _reference_walk):
        monkeypatch.setattr(sft, "_lyndon_walk", walk)
        walks.append([walk_primitive_orbits(spec, 12), list(orbit_weights(system, 12))])
    monkeypatch.undo()
    assert walks[0] == walks[1]
    words = walks[0][0][0]
    assert (255, 256, 257, 258, 259, 260) in words and max(map(max, words)) == 300
    assert tuple(range(1, 6)) + (299, 300) in words


def test_packed_words_behave_as_the_list_of_tuples():
    for spec in _walk_corpus():
        for max_period in (0, 1, 4, 7):
            if spec.k ** max_period > 20_000:
                continue
            words = walk_primitive_orbits(spec, max_period)[0]
            expected = _reference_walk(spec, max_period, None, None)[0] if max_period else []
            n = len(expected)
            assert len(words) == n and bool(words) == bool(expected)
            assert [words[i] for i in range(-n, n)] == expected[-n:] + expected
            for index in (n, -n - 1):
                with pytest.raises(IndexError):
                    words[index]
            for cut in (slice(1, None), slice(None, -2), slice(None, None, -1),
                        slice(1, n - 1, 3), slice(n, None), slice(-3, None, -2)):
                part = words[cut]
                assert type(part) is sft.PackedWords and part == expected[cut]
                assert list(part) == expected[cut] and len(part) == len(expected[cut])
            assert list(words) == list(words) == expected
            spelled = list(map(words._str, range(n)))
            assert spelled == ["".join(map(chr, w)) for w in expected]
            assert words == expected and expected == words and words == tuple(expected)
            assert words == sft.PackedWords.pack(spelled)
            if expected:
                assert words != expected[:-1] and words != expected[1:]
                assert words != [w + (1,) for w in expected] and words != n
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copy = pickle.loads(pickle.dumps(words, protocol))
                assert type(copy) is sft.PackedWords and copy == words
                assert list(copy) == expected


def test_the_walk_makes_one_weight_step_per_node_it_builds():
    # Every prenecklace shorter than 7 is a node; at length 7 only the
    # ones that are orbits or have an orbit child are, and at length 8
    # only the orbits.  On three symbols the prenecklaces of length t
    # number L(1) + ... + L(t), L(t) the Lyndon words: 3, 3, 8, 18, 48,
    # 116, 312 and 810 for t = 1..8.  So 3+6+14+32+80+196 = 331 short
    # nodes and 810 leaves.  Of the 508 prenecklaces of length 7, a
    # Lyndon one is an orbit (the shift is full); one with p < 7 has an
    # orbit child unless word[7-p] is 3, when it extends only by 3 and
    # keeps p.  Such a word is l^q followed by a prefix of l, l Lyndon of
    # length p, with l[7 mod p] == 3: for p = 1..6 there are 1, 2, 3, 11,
    # 18 and 23 of them, 58 in all.  So 508 - 58 = 450 middle nodes.
    calls = []

    def step(weight):
        calls.append(weight)
        return weight

    words, _ = walk_primitive_orbits(SftSpec.full_shift(3), 8, [step] * 3, 0)
    assert sum(len(w) == 8 for w in words) == 810
    assert len(calls) == 331 + 450 + 810


def test_the_walk_peaks_near_the_memory_of_its_result():
    # The result is one byte per symbol plus a weight per orbit (about
    # 2.6 MB here), and only the last full level and the last run's parts
    # live beside it.  A walk that held every prenecklace, every level at
    # once, or one tuple per orbit (19.8 MB) does not fit these bounds.
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = walk_primitive_orbits(SftSpec.full_shift(4), 10)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result[0]) == 145_338
    assert held - start <= 8 * 10**6
    assert peak - start <= 16 * 10**6


def test_the_work_gate_answers_at_once_when_counts_stop_growing(monkeypatch):
    monkeypatch.setenv("LIVSIC_MAX_PERIOD", str(10**12))
    nilpotent = SftSpec.from_rows([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    # No admissible word is longer than 3 symbols: admitted, and no orbit.
    sft.check_work(nilpotent, 10**12, "scan", "depth")
    assert walk_primitive_orbits(nilpotent, 10**12) == ([], [])
    # One cycle on m symbols adds m words per length: the first length past
    # 2 000 000 words is 2 000 000 // m + 1.
    for rows, fits in (
        ([[1]], 2_000_000),
        ([[0, 1], [1, 0]], 1_000_000),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 666_666),
    ):
        cycle = SftSpec.from_rows(rows)
        with pytest.raises(RangeTooLarge, match=f"the largest depth within it is {fits}$"):
            sft.check_work(cycle, 10**12, "scan", "depth")
        with pytest.raises(RangeTooLarge, match=f"the largest depth within it is {fits - 2}$"):
            sft.check_work(cycle, 10**12, "scan", "depth", 2)
        with pytest.raises(RangeTooLarge, match=f"the largest period within it is {fits}$"):
            walk_primitive_orbits(cycle, 10**12)
        # Just below the first length past the budget, the budget holds.
        sft.check_work(cycle, fits, "scan", "depth")


def test_a_block_walk_is_counted_before_a_word_is_spelt(monkeypatch):
    # The words are counted a length at a time first, and the walk to the
    # r-block graph spells every word of lengths 1 to r + 1: past the work
    # budget in symbols it is refused at once, however large r is, naming
    # the largest r within it.  A cocycle's windows are read off that graph.
    cycle = SftSpec.from_rows([[0, 1], [1, 0]])
    for spec, r, fits in ((GOLDEN_MEAN, 10**30, 20), (FULL_2, 10**30, 15), (cycle, 200_000, 1412)):
        message = f"^the {r}-block graph exceeds the work budget; the largest block length within it is {fits}$"
        with pytest.raises(RangeTooLarge, match=message):
            build_block_graph(spec, r)
        with pytest.raises(RangeTooLarge, match=message):
            make_cocycle(spec, r, {})
        sft._check_walk(spec, fits, 10**6, fits)
        with pytest.raises(RangeTooLarge, match=f"the largest block length within it is {fits}$"):
            sft._check_walk(spec, fits + 1, 10**6, fits + 1)
    # A cocycle's windows, of length r + 1, are capped by their own count.
    monkeypatch.setenv("LIVSIC_MAX_STATES", "8")
    with pytest.raises(RangeTooLarge, match="^more than 8 admissible words of length 4$"):
        make_cocycle(FULL_2, 3, {})
    assert len(build_block_graph(FULL_2, 3).vertices) == 8


def test_birkhoff_sum_rotation_invariant():
    cocycle = make_cocycle(
        GOLDEN_MEAN,
        1,
        {(1, 1): "1/2", (1, 2): "-1/3", (2, 1): "2"},
    )
    for word in [(1, 1, 2), (1, 2, 1, 1, 2)]:
        base = orbit_sum(cocycle, word)
        for i in range(1, len(word)):
            assert orbit_sum(cocycle, word[i:] + word[:i]) == base


def test_periodic_orbit_pickles_compares_and_orders():
    # The enumerator builds its orbits in bulk, without __init__; they must
    # behave exactly like the constructor's.
    enumerated = enumerate_periodic_orbits(FULL_2, 3)[-1]
    for orbit in (PeriodicOrbit(word=canonical_rotation((2, 1, 2))), enumerated):
        assert orbit == PeriodicOrbit(word=(1, 2, 2))
        assert hash(orbit) == hash(PeriodicOrbit(word=(1, 2, 2)))
        assert orbit.period == 3
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(orbit, protocol))
            assert copy == orbit and type(copy) is PeriodicOrbit
        shorter = PeriodicOrbit(word=(1, 2))
        assert shorter != orbit
        # Orbit lists go by (period, word); an orbit has no order of its own.
        with pytest.raises(TypeError):
            shorter < orbit  # noqa: B015
        assert not hasattr(orbit, "__dict__")
        with pytest.raises(FrozenInstanceError):
            orbit.word = (1,)


def test_numerators_come_in_window_order():
    # make_cocycle lists the numerators in the lexicographic order of the
    # admissible windows, as a WindowNumerators that pickles as one,
    # whatever order the values come in, and keeps the values' own order;
    # for block range >= 1 that is the block graph's edge order, which the
    # solvers read f in.
    rng = rng_for(71, 0)
    specs = [FULL_2, SftSpec.full_shift(3), GOLDEN_MEAN, random_irreducible_sft(rng, 4)]
    for spec, rf in product(specs, range(4)):
        words = product(range(1, spec.k + 1), repeat=rf + 1)
        windows = [w for w in words if spec.is_admissible(w)]
        shuffled = windows[::-1] if rf % 2 else rng.sample(windows, len(windows))
        values = {w: rng.randint(-9, 9) for w in shuffled}
        cocycle = make_cocycle(spec, rf, values)
        assert list(cocycle.numerators) == windows, (spec, rf)
        assert list(cocycle.values) == shuffled
        copy = pickle.loads(pickle.dumps(cocycle))
        assert type(copy.numerators) is sft.WindowNumerators and copy == cocycle
        if rf:
            assert list(build_block_graph(spec, rf).edges) == windows
    # A document whose keys come in no canonical order.
    doc = {"kind": "rational", "range": 1,
           "values": {"22": "-1/2", "12": "3/2", "21": "-3/2", "11": "1/2"}}
    parsed = parse_cocycle(doc, FULL_2, "/cocycle")
    assert list(parsed.numerators) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert list(parsed.numerators.values()) == [1, 3, -3, -1]
    assert list(parsed.values) == [(2, 2), (1, 2), (2, 1), (1, 1)]
