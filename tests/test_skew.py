"""Skew products: weights, orbit classes, product graphs, transitivity."""
from __future__ import annotations

import random
import time
from itertools import product

import pytest

import livsic.skew as skew
from livsic import (
    GroupSpec,
    InadmissibleWord,
    NotIrreducible,
    NotStronglyConnected,
    NotTransitiveError,
    PeriodicOrbit,
    RangeTooLarge,
    SftSpec,
    build_block_graph,
    build_group,
    build_product_graph,
    check_transitivity,
    enumerate_trivial_class_orbits,
    frobenius_class,
    generate_cocycle,
    make_skew_system,
    psi_n,
    psi_n_cyclic,
    solve_finite_gamma,
    solve_free_abelian,
    subgroup_rank_and_index,
    validate_sft,
)
from livsic.oracles import brute_transitivity
from livsic.skew import (
    _dual_rays,
    find_violating_cycle,
    orbit_weights,
    product_scc_witness,
)
from corpus import (
    random_finite_group,
    random_irreducible_sft,
    random_lattice_system,
    rng_for,
    s3_group,
)

GOLDEN_MEAN = SftSpec.from_rows([[1, 1], [1, 0]])
FULL_2 = SftSpec.full_shift(2)
C2 = build_group(GroupSpec.cyclic(2))


def _full2_c2(psi=(1, 0)):
    return make_skew_system(FULL_2, C2, psi)


def test_psi_multiplies_later_symbols_on_the_left():
    g = s3_group()
    system = make_skew_system(SftSpec.full_shift(2), g, (g.element_by_name("s"), g.element_by_name("r")))
    s = g.element_by_name("s")
    r = g.element_by_name("r")
    assert psi_n(system, (1, 2)) == g.mul(r, s)
    assert psi_n(system, (2, 1)) == g.mul(s, r)


def test_psi_concatenation_rule():
    g = s3_group()
    system = make_skew_system(
        SftSpec.full_shift(3), g, (0, g.element_by_name("s"), g.element_by_name("r"))
    )
    rng = rng_for(17, 0)
    for _ in range(50):
        u = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6)))
        v = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6)))
        assert psi_n(system, u + v) == g.mul(psi_n(system, v), psi_n(system, u))


def test_psi_rejects_inadmissible_words():
    system = make_skew_system(GOLDEN_MEAN, C2, (1, 0))
    with pytest.raises(InadmissibleWord):
        psi_n(system, (2, 2))
    with pytest.raises(InadmissibleWord):
        psi_n_cyclic(system, (2,))


def test_frobenius_class_is_rotation_invariant():
    g = s3_group()
    system = make_skew_system(
        SftSpec.full_shift(3), g, (0, g.element_by_name("s"), g.element_by_name("r"))
    )
    for word in [(1, 2, 3), (2, 2, 3), (1, 3, 3, 2)]:
        tags = []
        for i in range(len(word)):
            rotated = word[i:] + word[:i]
            tags.append(frobenius_class(system, PeriodicOrbit(word=rotated)))
        assert len({t.members for t in tags}) == 1
        assert len({t.trivial for t in tags}) == 1


def test_frobenius_class_lattice_vector():
    z2 = build_group(GroupSpec.free_abelian(2))
    system = make_skew_system(FULL_2, z2, ((1, 0), (0, -1)))
    tag = frobenius_class(system, PeriodicOrbit(word=(1, 2)))
    assert tag.vector == (1, -1)
    assert not tag.trivial
    tag0 = frobenius_class(system, PeriodicOrbit(word=(1, 1, 2)))
    assert tag0.vector == (2, -1)


def test_product_graph_shapes():
    pg = build_product_graph(_full2_c2(), 1)
    assert pg.n_vertices == 4
    assert len(pg.edge_tail) == 8

    gm = make_skew_system(GOLDEN_MEAN, C2, (1, 0))
    pg2 = build_product_graph(gm, 1)
    assert pg2.n_vertices == 4
    assert len(pg2.edge_tail) == 6


def test_product_graph_fiber_bijection():
    """Each base edge lifts to one edge per fiber element, hitting each fiber once."""
    g = s3_group()
    system = make_skew_system(
        SftSpec.full_shift(2), g, (g.element_by_name("s"), g.element_by_name("r"))
    )
    pg = build_product_graph(system, 1)
    order = pg.order
    n_base_edges = len(pg.base.edges)
    for be in range(n_base_edges):
        heads = {pg.edge_head[be * order + g_i] % order for g_i in range(order)}
        tails = {pg.edge_tail[be * order + g_i] % order for g_i in range(order)}
        assert heads == set(range(order))
        assert tails == set(range(order))


def test_transitive_and_not():
    assert check_transitivity(_full2_c2((1, 0))).status == "transitive"
    verdict = check_transitivity(_full2_c2((0, 0)))
    assert verdict.status == "not_transitive"
    assert verdict.witness is not None
    (block_a, name_a), (block_b, name_b) = verdict.witness
    assert name_a != name_b


def test_transitivity_matches_oracle():
    for seed in range(30):
        rng = rng_for(23, seed)
        spec = random_irreducible_sft(rng, rng.randint(2, 4))
        group = random_finite_group(rng)
        psi = tuple(rng.randrange(group.order) for _ in range(spec.k))
        system = make_skew_system(spec, group, psi)
        verdict = check_transitivity(system)
        assert (verdict.status == "transitive") == brute_transitivity(system)


def test_lattice_one_sided_refutation():
    z1 = build_group(GroupSpec.free_abelian(1))
    system = make_skew_system(FULL_2, z1, ((1,), (1,)))
    verdict = check_transitivity(system)
    assert verdict.status == "not_transitive"
    assert verdict.certificate.kind == "one_sided"
    lam = verdict.certificate.functional
    # The functional must be strictly positive on every observed class.
    for vec in verdict.evidence.distinct_classes:
        assert sum(l * x for l, x in zip(lam, vec)) > 0


def test_lattice_proper_subgroup_refutation():
    z1 = build_group(GroupSpec.free_abelian(1))
    system = make_skew_system(FULL_2, z1, ((2,), (-2,)))
    verdict = check_transitivity(system)
    assert verdict.status == "not_transitive"
    assert verdict.certificate.kind == "proper_subgroup"
    assert verdict.certificate.lattice_diagonal == (2,)


def test_lattice_unknown_with_evidence():
    z1 = build_group(GroupSpec.free_abelian(1))
    system = make_skew_system(FULL_2, z1, ((1,), (-1,)))
    verdict = check_transitivity(system)
    assert verdict.status == "unknown"
    ev = verdict.evidence
    assert ev.lattice_full
    assert ev.zero_in_interior
    assert ev.heuristic_transitive
    assert ev.probe_covers_simple_cycles
    assert ev.probe_depth == FULL_2.k


def test_lattice_two_dimensional_one_sided():
    z2 = build_group(GroupSpec.free_abelian(2))
    system = make_skew_system(FULL_2, z2, ((1, 0), (0, 1)))
    verdict = check_transitivity(system)
    assert verdict.status == "not_transitive"
    assert verdict.certificate.kind == "one_sided"
    lam = verdict.certificate.functional
    for vec in verdict.evidence.distinct_classes:
        assert sum(l * x for l, x in zip(lam, vec)) > 0


def test_lattice_refutations_agree_with_weights():
    """Every refutation must hold against all probed orbit weights."""
    for seed in range(40):
        rng = rng_for(29, seed)
        system = random_lattice_system(rng, rng.randint(1, 3))
        verdict = check_transitivity(system)
        if verdict.status != "not_transitive":
            continue
        cert = verdict.certificate
        vecs = verdict.evidence.distinct_classes
        if cert.kind == "one_sided":
            assert all(
                sum(l * x for l, x in zip(cert.functional, v)) > 0 for v in vecs
            )
        else:
            assert not verdict.evidence.lattice_full


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _box_functionals(vectors, d):
    """(some nonzero lam is >= 0 on every vector, some lam is > 0 on every
    vector), searched over integer lam with entries in [-6, 6]."""
    weak = strict = False
    for lam in product(range(-6, 7), repeat=d):
        low = min(_dot(lam, v) for v in vectors)
        weak |= any(lam) and low >= 0
        strict |= low > 0
    return weak, strict


def test_dual_rays_match_box_search():
    # Entries in {-1, 0, 1} keep every minor of order <= 2 within 2, so each
    # primitive ray has entries within 2 and d independent rays sum to a
    # strict functional (when one exists) with entries within 6.
    seen = {"interior": 0, "weak": 0, "strict": 0, "flat": 0}
    for seed in range(400):
        rng = rng_for(31, seed)
        d = rng.randint(1, 3)
        vectors = sorted(
            {tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(rng.randint(1, 6))}
        )
        weak, strict = _box_functionals(vectors, d)
        if subgroup_rank_and_index(vectors, d).rank < d:
            # check_transitivity skips the rays here: a normal is >= 0.
            assert weak
            seen["flat"] += 1
            continue
        rays = _dual_rays(vectors, d)
        assert all(_dot(ray, v) >= 0 for ray in rays for v in vectors)
        assert bool(rays) == weak
        total = tuple(map(sum, zip(*rays)))
        assert strict == (bool(rays) and all(_dot(total, v) > 0 for v in vectors))
        seen["strict" if strict else "weak" if weak else "interior"] += 1
    assert min(seen.values()) > 0, seen


def test_simple_cycles_give_the_rays_of_every_class():
    # check_transitivity enumerates rays over the simple-cycle classes only.
    for seed in range(60):
        rng = rng_for(37, seed)
        d = rng.randint(1, 3)
        system = random_lattice_system(rng, d)
        weights = list(orbit_weights(system, system.sft.k))
        every = sorted({w for _, w in weights})
        cycles = sorted({w for word, w in weights if len(set(word)) == len(word)})
        assert _dual_rays(cycles, d) == _dual_rays(every, d)


def test_lattice_full5_shift_gets_a_verdict():
    # Orbits up to period 12 over five symbols are past the work budget;
    # the probe now stops at period k = 5.
    full5 = SftSpec.full_shift(5)
    cases = [
        (1, [(1,), (-1,), (2,), (0,), (-2,)], "unknown"),
        (2, [(1, 0), (0, 1), (-1, -1), (0, 0), (1, 1)], "unknown"),
        (2, [(1, 0), (1, 1), (1, -1), (2, 0), (1, 2)], "not_transitive"),
    ]
    for d, psi, status in cases:
        system = make_skew_system(full5, build_group(GroupSpec.free_abelian(d)), psi)
        verdict = check_transitivity(system)
        assert verdict.status == status
        assert verdict.evidence.probe_depth == 5
        if verdict.certificate is not None:
            lam = verdict.certificate.functional
            assert all(_dot(lam, v) > 0 for v in verdict.evidence.distinct_classes)



def test_lattice_ray_search_past_the_work_budget_is_refused(monkeypatch):
    # 63 simple-cycle classes over Z^5 need C(63, 4) = 595 665 subsets,
    # each tried on every class: refused before the first normal.
    def enumerated(*args):
        raise AssertionError("the ray search started")

    monkeypatch.setattr(skew, "_normal", enumerated)
    rng = random.Random(5)
    psi = [tuple(rng.randint(-2, 2) for _ in range(5)) for _ in range(6)]
    system = make_skew_system(
        SftSpec.full_shift(6), build_group(GroupSpec.free_abelian(5)), psi
    )
    start = time.perf_counter()
    with pytest.raises(RangeTooLarge) as err:
        check_transitivity(system)
    assert time.perf_counter() - start < 2.0
    assert "595665 subsets" in str(err.value)
    assert "work budget" in str(err.value)


def test_trivial_class_orbits_golden_mean():
    system = make_skew_system(GOLDEN_MEAN, C2, (1, 0))
    pairs = enumerate_trivial_class_orbits(system, 3)
    assert [o.word for o, _ in pairs] == [(1, 1, 2)]


def test_trivial_class_orbits_full_shift():
    pairs = enumerate_trivial_class_orbits(_full2_c2(), 4)
    assert [o.word for o, _ in pairs] == [(2,), (1, 1, 2), (1, 1, 2, 2)]


def test_find_violating_cycle_positive_segment():
    # Walk 0 -> 1 -> 0 -> 0 with edge ids 1, 2, 3; heads indexed by edge id.
    heads = [0, 1, 0, 0]
    walk = [1, 2, 3]
    cycle = find_violating_cycle(walk, heads, 0, lambda seg: 1 if 3 in seg else 0)
    assert cycle == [3]
    # With no positive cycle the best-scoring simple cycle is still returned.
    fallback = find_violating_cycle(walk, heads, 0, lambda seg: 0)
    assert fallback == [1, 2]
    assert find_violating_cycle([], heads, 0, lambda seg: 1) is None


def _reach_closure(succ):
    """reach[i][j]: j is reachable from i (every vertex reaches itself)."""
    n = len(succ)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for v, ws in enumerate(succ):
        for w in ws:
            reach[v][w] = True
    for m in range(n):
        for i in range(n):
            if reach[i][m]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[m])]
    return reach


def _first_gap(succ):
    """First ordered pair (i, j) with no path from i to j, or None."""
    reach = _reach_closure(succ)
    return next(
        ((i, j) for i, row in enumerate(reach) for j, ok in enumerate(row) if not ok),
        None,
    )


def _random_sft_without_dead_symbols(rng, k):
    rows = [[int(rng.random() < 0.3) for _ in range(k)] for _ in range(k)]
    for a in range(k):
        if not any(rows[a]):
            rows[a][rng.randrange(k)] = 1
    for a in range(k):
        if not any(row[a] for row in rows):
            rows[rng.randrange(k)][a] = 1
    return SftSpec.from_rows(rows)


def test_strong_connectivity_matches_brute_closure():
    z1 = build_group(GroupSpec.free_abelian(1))
    reducible = not_transitive = 0
    for seed in range(40):
        rng = rng_for(59, seed)
        k = rng.randint(2, 5)
        spec = _random_sft_without_dead_symbols(rng, k)
        gap = _first_gap([[b - 1 for b in spec.successors(a)] for a in range(1, k + 1)])
        if gap is None:
            assert validate_sft(spec).irreducible
        else:
            reducible += 1
            with pytest.raises(NotIrreducible) as err:
                validate_sft(spec)
            assert err.value.witness == (gap[0] + 1, gap[1] + 1)
        for r in (1, 2):
            bg = build_block_graph(spec, r)
            succ = [bg.successors(v) for v in range(len(bg.vertices))]
            assert bg.is_strongly_connected() == (_first_gap(succ) is None)

        group = random_finite_group(rng)
        system = make_skew_system(
            spec, group, [rng.randrange(group.order) for _ in range(k)]
        )
        pg = build_product_graph(system, 1)
        pg_gap = _first_gap([[pg.edge_head[e] for e in out] for out in pg.out_edges])
        expected = None if pg_gap is None else tuple(map(pg.vertex_label, pg_gap))
        assert product_scc_witness(pg) == expected
        assert check_transitivity(system).witness == expected
        cocycle = generate_cocycle(system, block_range=1, seed=seed)
        if expected is None:
            assert solve_finite_gamma(system, cocycle).certificate.certified
        else:
            not_transitive += 1
            with pytest.raises(NotTransitiveError) as err:
                solve_finite_gamma(system, cocycle)
            assert err.value.witness == expected

        lattice = make_skew_system(spec, z1, [(rng.randint(-2, 2),) for _ in range(k)])
        cocycle = generate_cocycle(lattice, block_range=1, seed=seed)
        if gap is None:
            assert solve_free_abelian(lattice, cocycle).certificate.certified
        else:
            with pytest.raises(NotStronglyConnected):
                solve_free_abelian(lattice, cocycle)
    assert 10 <= reducible < 40
    assert 10 <= not_transitive < 40
