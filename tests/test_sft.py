"""Symbolic dynamics core: validation, block graphs, orbits, censuses."""
from __future__ import annotations

import pickle

import pytest

from livsic import (
    BadShape,
    DeadSymbol,
    GroupSpec,
    NotIrreducible,
    PeriodicOrbit,
    RangeTooLarge,
    SftSpec,
    birkhoff_sum,
    build_block_graph,
    build_group,
    canonical_rotation,
    check_transitivity,
    count_periodic_points,
    enumerate_periodic_orbits,
    is_primitive,
    make_cocycle,
    make_skew_system,
    orbit_weights,
    primitive_root,
    validate_sft,
    verify_vanishing,
    walk_primitive_orbits,
)
from livsic.record import FrozenInstanceError
from corpus import random_irreducible_sft, rng_for

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
    assert bg.is_strongly_connected()


def test_block_graph_edges_connect_overlapping_blocks():
    bg = build_block_graph(FULL_2, 3)
    for e, word in enumerate(bg.edges):
        assert bg.vertices[bg.edge_tail[e]] == word[:-1]
        assert bg.vertices[bg.edge_head[e]] == word[1:]


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


def _orbit_consumers(spec: SftSpec):
    """Each orbit consumer on spec, as a function of the period bound."""
    z1 = build_group(GroupSpec.free_abelian(1))
    system = make_skew_system(spec, z1, [(s % 3 - 1,) for s in range(spec.k)])
    cocycle = make_cocycle(spec, 0, {(s,): 0 for s in range(1, spec.k + 1)})
    return [
        lambda p: walk_primitive_orbits(spec, p),
        lambda p: orbit_weights(system, p),
        lambda p: enumerate_periodic_orbits(spec, p),
        # check_transitivity probes to depth k, so the full p-shift stands in.
        lambda p: check_transitivity(
            make_skew_system(SftSpec.full_shift(p), z1, [(s % 3 - 1,) for s in range(p)])
        ),
        lambda p: verify_vanishing(system, cocycle, p),
    ]


def test_enumeration_cap(monkeypatch):
    # Every consumer refuses before any walk starts.
    monkeypatch.setenv("LIVSIC_MAX_PERIOD", "4")
    for call in _orbit_consumers(FULL_2):
        with pytest.raises(RangeTooLarge, match="exceeds cap"):
            call(5)
    monkeypatch.delenv("LIVSIC_MAX_PERIOD")
    for call in _orbit_consumers(SftSpec.full_shift(9)):
        with pytest.raises(RangeTooLarge, match="work budget"):
            call(9)


def test_walk_returns_two_lists_in_period_order():
    for spec in (GOLDEN_MEAN, FULL_2, SftSpec.full_shift(3)):
        for max_period in (0, 1, 6):
            words, weights = walk_primitive_orbits(spec, max_period)
            assert type(words) is list and type(weights) is list
            assert len(words) == len(weights)
            assert words == sorted(words, key=lambda w: (len(w), w))
            # Without act the weight step is skipped: every weight is identity.
            assert weights == [None] * len(words)
            # A symbol count as weight: the walk's weights are the word lengths.
            act = [lambda n: n + 1] * spec.k
            counted, lengths = walk_primitive_orbits(spec, max_period, act, 0)
            assert counted == words
            assert lengths == list(map(len, words))


def test_birkhoff_sum_rotation_invariant():
    cocycle = make_cocycle(
        GOLDEN_MEAN,
        1,
        {(1, 1): "1/2", (1, 2): "-1/3", (2, 1): "2"},
    )
    for word in [(1, 1, 2), (1, 2, 1, 1, 2)]:
        base = birkhoff_sum(cocycle, PeriodicOrbit(word=word))
        for i in range(1, len(word)):
            rotated = PeriodicOrbit(word=word[i:] + word[:i])
            assert birkhoff_sum(cocycle, rotated) == base


def test_periodic_orbit_pickles_compares_and_orders():
    # The enumerator builds its orbits in bulk, without __init__; they must
    # behave exactly like the constructor's.
    enumerated = enumerate_periodic_orbits(FULL_2, 3)[-1]
    for orbit in (PeriodicOrbit.from_word((2, 1, 2)), enumerated):
        assert orbit == PeriodicOrbit(word=(1, 2, 2))
        assert hash(orbit) == hash(PeriodicOrbit(word=(1, 2, 2)))
        assert orbit.period == 3
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(orbit, protocol))
            assert copy == orbit and type(copy) is PeriodicOrbit
        shorter, other = PeriodicOrbit(word=(1, 2)), PeriodicOrbit(word=(1, 3))
        assert sorted([other, orbit, shorter]) == [shorter, orbit, other]
        assert shorter < orbit < other
        assert not hasattr(orbit, "__dict__")
        with pytest.raises(FrozenInstanceError):
            orbit.word = (1,)
    with pytest.raises(BadShape):
        PeriodicOrbit.from_word(())
    with pytest.raises(BadShape):
        PeriodicOrbit.from_word((1, 2, 1, 2))
