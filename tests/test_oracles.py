"""The brute-force oracles themselves: caps, and agreement with the fast paths."""
from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from livsic import (
    GroupSpec,
    InfiniteGroup,
    OracleConfig,
    PeriodicOrbit,
    SftSpec,
    StateSpaceTooLarge,
    brute_orbit_list,
    brute_periodic_census,
    brute_transitivity,
    brute_vanishing,
    build_group,
    count_periodic_points,
    enumerate_periodic_orbits,
    generate_cocycle,
    is_primitive,
    make_cocycle,
    make_skew_system,
    orbit_weights,
    psi_n_cyclic,
    verify_vanishing,
)
from corpus import random_irreducible_sft, rng_for, s3_group

FULL_2 = SftSpec.full_shift(2)


def test_oracle_caps():
    c8 = build_group(GroupSpec.cyclic(8))
    system = make_skew_system(FULL_2, c8, (1, 0))
    with pytest.raises(StateSpaceTooLarge):
        brute_transitivity(system, OracleConfig(max_state_count=10))
    cocycle = make_cocycle(FULL_2, 0, {(1,): 0, (2,): 0})
    with pytest.raises(StateSpaceTooLarge):
        brute_vanishing(system, cocycle, 20, OracleConfig(max_period=8))


def test_oracle_rejects_infinite_groups():
    z1 = build_group(GroupSpec.free_abelian(1))
    system = make_skew_system(FULL_2, z1, ((1,), (-1,)))
    with pytest.raises(InfiniteGroup):
        brute_transitivity(system)


def _random_sft(rng, k: int) -> SftSpec:
    """Any 0/1 matrix, so reducible systems and dead symbols occur too."""
    density = rng.choice((0.3, 0.6, 1.0))
    return SftSpec.from_rows(
        [[int(rng.random() < density) for _ in range(k)] for _ in range(k)]
    )


# (k, largest period) pairs that keep the brute-force lists small.
_ORBIT_SHAPES = ((1, 9), (2, 9), (3, 9), (4, 7), (5, 6))


def _assert_orbits_match_brute(spec: SftSpec, max_period: int) -> None:
    """The bulk-built orbits are the constructor-built ones, object for object."""
    fast = enumerate_periodic_orbits(spec, max_period)
    built = [PeriodicOrbit(word=w) for w in brute_orbit_list(spec, max_period)]
    assert fast == built
    assert all(type(o) is PeriodicOrbit and type(o.word) is tuple for o in fast)
    assert list(map(hash, fast)) == list(map(hash, built))
    assert pickle.dumps(list(fast)) == pickle.dumps(built)
    assert pickle.loads(pickle.dumps(fast)) == built


def test_orbit_list_agrees_with_enumeration():
    for seed in range(8):
        _assert_orbits_match_brute(random_irreducible_sft(rng_for(47, seed), 3), 7)
    for seed, (k, p) in enumerate(_ORBIT_SHAPES * 4):
        rng = rng_for(59, seed)
        spec = _random_sft(rng, k)
        for max_period in (0, rng.randint(1, p), p):
            _assert_orbits_match_brute(spec, max_period)
    assert [o.word for o in enumerate_periodic_orbits(SftSpec.full_shift(1), 9)] == [(1,)]
    assert enumerate_periodic_orbits(SftSpec.from_rows([[0]]), 9) == []


def _weighted_systems():
    fibers = (
        build_group(GroupSpec.cyclic(2)),
        s3_group(),
        build_group(GroupSpec.free_abelian(1)),
        build_group(GroupSpec.free_abelian(2)),
    )
    for seed in range(24):
        rng = rng_for(61, seed)
        group = fibers[seed % len(fibers)]
        spec = _random_sft(rng, rng.randint(1, 3)) if seed % 2 else random_irreducible_sft(rng, 3)
        if group.is_finite:
            psi = [rng.randrange(group.order) for _ in range(spec.k)]
        else:
            psi = [tuple(rng.randint(-1, 1) for _ in range(group.rank)) for _ in range(spec.k)]
        yield rng, make_skew_system(spec, group, psi)


def test_walk_weights_match_cyclic_products():
    for _, system in _weighted_systems():
        pairs = list(orbit_weights(system, 7))
        words = [word for word, _ in pairs]
        assert words == sorted(words, key=lambda w: (len(w), w))
        assert words == [o.word for o in enumerate_periodic_orbits(system.sft, 7)]
        for word, weight in pairs:
            assert weight == psi_n_cyclic(system, word)


def test_vanishing_witness_matches_brute_scan():
    compared = 0
    for rng, system in _weighted_systems():
        solvable = generate_cocycle(system, block_range=1, seed=rng.randrange(1000))
        if not solvable.values:
            continue
        values = {w: v + rng.randint(-1, 1) for w, v in solvable.values.items()}
        cocycle = make_cocycle(system.sft, 1, values)
        witness = verify_vanishing(system, cocycle, 6)
        brute = brute_vanishing(system, cocycle, 6)
        if brute is None:
            assert witness is None
        elif is_primitive(brute[0]):
            # An imprimitive first hit is a torsion weight closing up in a
            # power, which the primitive-orbit scan does not see.
            compared += 1
            assert (witness.word, witness.total) == brute
    assert compared >= 8


def test_census_agrees_with_trace():
    for seed in range(8):
        spec = random_irreducible_sft(rng_for(53, seed), 3)
        for n in range(1, 8):
            assert brute_periodic_census(spec, n) == count_periodic_points(spec, n)


def test_vanishing_scan_returns_least_word():
    c2 = build_group(GroupSpec.cyclic(2))
    system = make_skew_system(FULL_2, c2, (1, 0))
    values = {(1, 1): "1/3", (1, 2): "0", (2, 1): "0", (2, 2): "-1/3"}
    cocycle = make_cocycle(FULL_2, 1, values)
    # (2,) is identity-weight with sum -1/3 and precedes every later word.
    word, total = brute_vanishing(system, cocycle, 4)
    assert word == (2,)
    assert total == Fraction(-1, 3)
