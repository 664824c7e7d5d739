"""Skew products: weights, orbit classes, product graphs, transitivity."""
from __future__ import annotations

import importlib.util
from itertools import product
from math import gcd
from pathlib import Path

import numpy as np
import pytest

import livsic.sft as sft
import livsic.skew as skew
from livsic import (
    CocycleObstruction,
    DimensionMismatch,
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
    frobenius_class,
    generate_cocycle,
    generate_matrix_cocycle,
    make_cocycle,
    make_matrix_cocycle,
    make_skew_system,
    psi_n,
    solve_finite_gamma,
    solve_free_abelian,
    solve_matrix_finite,
    subgroup_rank_and_index,
    validate_sft,
)
from livsic.oracles import brute_periodic_census, brute_transitivity
from livsic.sft import SpanningTree, find_violating_cycle
from livsic.skew import orbit_weights, transitive_cover
from corpus import (
    closed_walks_nonnegative,
    cover_corpus,
    product_scc_witness,
    random_finite_group,
    random_irreducible_sft,
    random_lattice_system,
    random_u,
    rng_for,
    s3_group,
    s5_group,
    trivial_orbit_words,
    vertex_label,
)

GOLDEN_MEAN = SftSpec.from_rows([[1, 1], [1, 0]])
FULL_2 = SftSpec.full_shift(2)
C2 = build_group(GroupSpec.cyclic(2))


def _full2_c2(psi=(1, 0)):
    return make_skew_system(FULL_2, C2, psi)


def test_a_skew_system_splits_psi_into_its_finite_and_lattice_factors():
    # Group is F x Z^d: a finite group has d = 0, Z^d the one-element F.
    full3 = SftSpec.full_shift(3)
    s3 = s3_group()
    z1, z2 = build_group(GroupSpec.free_abelian(1)), build_group(GroupSpec.free_abelian(2))
    cases = [
        (C2, (1, 0, 1)),
        (s3, (s3.element_by_name("s"), s3.element_by_name("r"), s3.identity)),
        (z1, ((1,), (-2,), (0,))),
        (z2, ((1, 0), (0, 2), (-1, 1))),
    ]
    for group, psi in cases:
        system = make_skew_system(full3, group, psi)
        assert system.psi == psi and system.psi_of(2) == psi[1]
        if group.is_finite:
            assert group.rank == 0 and len(group.table) == group.order
            assert system.psi_f == psi and system.psi_z == ((),) * 3
        else:
            assert group.order is None and group.identity == (0,) * group.rank
            assert (group.table, group.inverses, group.identity_index) == (((0,),), (0,), 0)
            assert system.psi_f == (0, 0, 0) and system.psi_z == psi
        # The weight of a word is its F product and its Z^d sum.
        for word in product((1, 2, 3), repeat=3):
            f, z = group.identity_index, (0,) * group.rank
            for a in word:
                f = group.table[system.psi_f[a - 1]][f]
                z = tuple(x + y for x, y in zip(z, system.psi_z[a - 1]))
            assert psi_n(system, word) == (f if group.is_finite else z)
        # The cover code reads only F: over Z^d it is the block graph's.
        cover = transitive_cover(system, 2)
        assert cover.via.keys() == set(range(len(group.table)))
        assert cover.tree is sft.block_tree(system.sft, 2)
        assert build_product_graph(system, 2).order == len(group.table)


def test_a_skew_system_refuses_what_is_not_a_group_element():
    z1, z2 = build_group(GroupSpec.free_abelian(1)), build_group(GroupSpec.free_abelian(2))
    cases = [
        (z1, (1, -1), 1, "a vector of 1 integers"),
        (z1, ((1,), (0.5,)), 2, "a vector of 1 integers"),
        (z1, ((1,), (True,)), 2, "a vector of 1 integers"),
        (z1, ((1,), "1"), 2, "a vector of 1 integers"),
        (z2, ((1, 0), (1,)), 2, "a vector of 2 integers"),
        (C2, ("g", 0), 1, "an element index below 2"),
        (C2, ((1,), 0), 1, "an element index below 2"),
        (C2, (1.5, 0), 1, "an element index below 2"),
        (C2, (True, 0), 1, "an element index below 2"),
        (C2, (0, 2), 2, "an element index below 2"),
        (C2, (0, -1), 2, "an element index below 2"),
    ]
    for group, psi, symbol, want in cases:
        with pytest.raises(DimensionMismatch) as err:
            make_skew_system(FULL_2, group, psi)
        assert str(err.value) == f"psi of symbol {symbol} is {psi[symbol - 1]!r}, not {want}"
    # numpy integers are integers, and come back as ints.
    assert make_skew_system(FULL_2, C2, np.array([1, 0])).psi == (1, 0)
    lattice = make_skew_system(FULL_2, z2, np.array([[1, -2], [0, 3]]))
    assert lattice.psi == lattice.psi_z == ((1, -2), (0, 3))
    assert all(type(x) is int for z in lattice.psi for x in z)


def _split_as_before(group, psi):
    """(psi_f, psi_z) as make_skew_system read a valid psi before it
    checked its entries: int() of each factor."""
    split = [group.split(x) for x in psi]
    return tuple(int(f) for f, _ in split), tuple(tuple(int(x) for x in z) for _, z in split)


def test_every_valid_psi_of_the_corpus_is_read_as_before():
    systems = [system for _, system in cover_corpus(83, instances=2)]
    systems += [random_lattice_system(rng_for(67, i), 1 + i % 3) for i in range(12)]
    for system in systems:
        group, raw = system.group, system.psi
        numpy_ints = [np.array(x) if group.rank else np.int64(x) for x in raw]
        for psi in (raw, list(raw), numpy_ints):
            again = make_skew_system(system.sft, group, psi)
            assert again == system
            assert (again.psi_f, again.psi_z) == _split_as_before(group, psi)


def test_a_refused_finite_solve_closes_the_monodromy_group_once(monkeypatch):
    # psi = (e, e) over C2: the monodromy group is {e}, so (block, g) is
    # out of reach.  The refusal names that pair from the one closure made,
    # and check_transitivity, on the same gate, names it the same way.
    system = make_skew_system(SftSpec.full_shift(2), build_group(GroupSpec.cyclic(2)), (0, 0))
    cocycle = make_cocycle(system.sft, 1, {w: 0 for w in product((1, 2), repeat=2)})
    counts = {"_closure": 0, "cycle_weights": 0}
    for name in counts:
        def spy(*args, real=getattr(skew, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(skew, name, spy)
    skew._COVERS.clear()
    with pytest.raises(NotTransitiveError) as refused:
        solve_finite_gamma(system, cocycle)
    assert counts == {"_closure": 1, "cycle_weights": 1}
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        verdict = check_transitivity(system)
        assert counts == {"_closure": 1, "cycle_weights": 1}
        assert verdict.status == "not_transitive" and verdict.witness == refused.value.witness
        assert not skew._COVERS.held and skew._COVERS.states == 0
    monkeypatch.undo()
    assert refused.value.witness == (((1,), "e"), ((1,), "g"))
    reference = product_scc_witness(SpanningTree(build_product_graph(system, 1)))
    assert refused.value.witness == reference


def test_a_lattice_cover_names_its_unreachable_pair():
    # The reducible shift 1 -> 2 with loops at both symbols: no path from
    # block (2,) back to (1,).  Over Z^d the product vertex's F index is 0,
    # named through Group.join as the zero vector.
    spec = SftSpec.from_rows([[1, 1], [0, 1]])
    system = make_skew_system(spec, build_group(GroupSpec.free_abelian(1)), ((1,), (-1,)))
    expected = (((2,), "(0)"), ((1,), "(0)"))
    assert product_scc_witness(SpanningTree(build_product_graph(system, 1))) == expected
    # No caller names it over Z^d: the gate refuses the base graph itself.
    with pytest.raises(NotStronglyConnected):
        check_transitivity(system)


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
        frobenius_class(system, PeriodicOrbit(word=(2,)))


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

    # Over Z^d the fiber factor is trivial: the block graph's own tuples.
    for rank in (1, 2):
        lattice = build_group(GroupSpec.free_abelian(rank))
        system = make_skew_system(GOLDEN_MEAN, lattice, [(1,) * rank, (0,) * rank])
        pg3 = build_product_graph(system, 2)
        assert pg3.order == 1
        assert pg3.edge_tail is pg3.base.edge_tail
        assert pg3.edge_head is pg3.base.edge_head
        assert pg3.out_edges is pg3.base.out_edges


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


def _orbit_classes(system):
    """The reference classes: the weights of every orbit of period <= k,
    among them every simple cycle of the symbol graph."""
    return sorted({w for _, w in orbit_weights(system, system.sft.k)})


def test_lattice_one_sided_refutation():
    z1 = build_group(GroupSpec.free_abelian(1))
    system = make_skew_system(FULL_2, z1, ((1,), (1,)))
    verdict = check_transitivity(system)
    assert verdict.status == "not_transitive"
    assert verdict.certificate.kind == "one_sided"
    assert verdict.certificate.functional == (1,)
    assert closed_walks_nonnegative(system, (1,))


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


def test_a_lattice_cover_of_a_reducible_shift_is_refused():
    # No cover of a base that is not transitive is transitive; the solvers
    # refuse the same base with the same error.
    z1 = build_group(GroupSpec.free_abelian(1))
    system = make_skew_system(SftSpec.from_rows([[1, 1], [0, 1]]), z1, ((1,), (-1,)))
    with pytest.raises(NotStronglyConnected):
        check_transitivity(system)


def test_lattice_two_dimensional_one_sided():
    z2 = build_group(GroupSpec.free_abelian(2))
    system = make_skew_system(FULL_2, z2, ((1, 0), (0, 1)))
    verdict = check_transitivity(system)
    assert verdict.status == "not_transitive"
    assert verdict.certificate.kind == "one_sided"
    lam = verdict.certificate.functional
    assert any(lam) and gcd(*lam) == 1
    assert closed_walks_nonnegative(system, lam)


def test_lattice_refutations_agree_with_weights():
    """Every refutation must hold against all orbit weights up to period k."""
    for seed in range(40):
        rng = rng_for(29, seed)
        system = random_lattice_system(rng, rng.randint(1, 3))
        verdict = check_transitivity(system)
        if verdict.status != "not_transitive":
            continue
        cert = verdict.certificate
        vecs = _orbit_classes(system)
        if cert.kind == "one_sided":
            # A weak functional suffices: no closed walk reaches lam < 0.
            assert any(cert.functional)
            assert all(_dot(cert.functional, v) >= 0 for v in vecs)
        else:
            assert not subgroup_rank_and_index(vecs, system.group.rank).full


def test_one_sided_exactly_when_a_weak_functional_exists():
    seen = {"strict": 0, "weak": 0, "none": 0}
    for seed in range(40):
        rng = rng_for(29, seed)
        system = random_lattice_system(rng, rng.randint(1, 3))
        d = system.group.rank
        verdict = check_transitivity(system)
        if verdict.evidence.lattice_rank < d:
            continue
        weak, strict = _box_functionals(_orbit_classes(system), d)
        one_sided = verdict.certificate is not None and verdict.certificate.kind == "one_sided"
        assert one_sided == weak
        seen["strict" if strict else "weak" if weak else "none"] += 1
    assert min(seen.values()) > 0, seen


def test_weak_one_sided_refutations():
    # Some functional is >= 0 on every class vector and none is > 0 on all
    # of them, yet no closed walk reaches a weight where it is negative.
    cases = [
        (2, [(1,), (0,)]),
        (3, [(1, 0), (0, 1), (0, 0)]),
        (3, [(1, 0), (-1, 0), (0, 1)]),
    ]
    for k, psi in cases:
        d = len(psi[0])
        group = build_group(GroupSpec.free_abelian(d))
        system = make_skew_system(SftSpec.full_shift(k), group, psi)
        verdict = check_transitivity(system)
        assert verdict.status == "not_transitive"
        assert verdict.certificate.kind == "one_sided"
        lam = verdict.certificate.functional
        assert any(lam) and gcd(*lam) == 1
        assert closed_walks_nonnegative(system, lam)
        assert _box_functionals(_orbit_classes(system), d) == (True, False)
        if d == 1:  # the sign of the classes
            assert lam == (1,)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _box_functionals(vectors, d):
    """(some nonzero lam is >= 0 on every vector, some lam is > 0 on every
    vector), searched over integer lam with entries in [-6, 6]."""
    lams = np.array(list(product(range(-6, 7), repeat=d)))
    low = (lams @ np.array(vectors).T).min(axis=1)
    return bool((lams.any(axis=1) & (low >= 0)).any()), bool((low > 0).any())


def _perfbench_checks():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_symbol_graph_verdicts_match_the_orbit_class_reference():
    # The reference reads the classes of every orbit of period <= k: Smith's
    # form on them for the lattice, a box search for a weak functional for
    # the cone.  300 systems: random irreducible shifts and full shifts,
    # over Z, Z^2 and Z^3.
    checks = _perfbench_checks()
    seen = {}  # certificate kind: systems
    for seed in range(300):
        rng = rng_for(41, seed)
        d = 1 + seed % 3
        system = random_lattice_system(rng, d)
        if seed % 2:
            psi = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(system.sft.k)]
            system = make_skew_system(SftSpec.full_shift(system.sft.k), system.group, psi)
        classes = _orbit_classes(system)
        report = subgroup_rank_and_index(classes, d)
        weak = _box_functionals(classes, d)[0]
        interior = report.rank == d and not weak
        kind = "one_sided" if report.rank == d and weak else None
        kind = kind or (None if report.full else "proper_subgroup")

        verdict = check_transitivity(system)
        ev = verdict.evidence
        assert (ev.lattice_rank, ev.lattice_diagonal, ev.lattice_full) == (
            report.rank, report.diagonal, report.full
        ), seed
        assert ev.zero_in_interior == interior, seed
        assert ev.heuristic_transitive == (report.full and interior), seed
        assert verdict.status == ("unknown" if kind is None else "not_transitive"), seed
        assert (verdict.certificate and verdict.certificate.kind) == kind, seed
        if kind == "one_sided":
            lam = verdict.certificate.functional
            assert any(lam) and gcd(*lam) == 1, seed
            assert closed_walks_nonnegative(system, lam), seed
            if d == 1:  # the sign of the classes, as the sum of the dual rays was
                assert lam == ((1,) if min(classes) >= (0,) else (-1,)), seed
        assert checks.check_lattice_verdict(system, verdict) is None, seed
        seen[kind] = seen.get(kind, 0) + 1
    assert len(seen) == 3 and min(seen.values()) >= 20, seen


def test_lattice_full5_shift_gets_a_verdict():
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
        if verdict.certificate is not None:
            lam = verdict.certificate.functional
            assert any(lam) and closed_walks_nonnegative(system, lam)


def test_the_cone_test_past_the_work_budget_is_refused_before_any_graph(monkeypatch):
    # On the full 36-shift over Z^3, 40 pivots on a 40 x 1 336 tableau pass
    # the work budget of 2 000 000; the 35-shift's 39 on 39 x 1 264 do not.
    def refuse(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(skew, "_block_tree", refuse)
    z3 = build_group(GroupSpec.free_abelian(3))
    system = make_skew_system(SftSpec.full_shift(36), z3, [(1, 0, -1)] * 36)
    with pytest.raises(RangeTooLarge) as err:
        check_transitivity(system)
    assert str(err.value) == (
        "the cone test's simplex, 40 pivots on a 40 x 1336 tableau, exceeds the work budget"
    )
    system = make_skew_system(SftSpec.full_shift(35), z3, [(1, 0, -1)] * 35)
    with pytest.raises(AssertionError, match="a graph was built"):
        check_transitivity(system)


def test_trivial_class_orbits_golden_mean():
    system = make_skew_system(GOLDEN_MEAN, C2, (1, 0))
    assert trivial_orbit_words(system, 3) == [(1, 1, 2)]


def test_trivial_class_orbits_full_shift():
    assert trivial_orbit_words(_full2_c2(), 4) == [(2,), (1, 1, 2), (1, 1, 2, 2)]


def test_find_violating_cycle_positive_segment():
    # Walk 0 -> 1 -> 0 -> 0 with edge ids 1, 2, 3; heads indexed by edge id.
    heads = [0, 1, 0, 0]
    walk = [1, 2, 3]
    cycle = find_violating_cycle(walk, heads, 0, lambda seg: 1 if 3 in seg else 0)
    assert cycle == [3]
    # With no positive cycle there is nothing to return.
    assert find_violating_cycle(walk, heads, 0, lambda seg: 0) is None
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
            report = validate_sft(spec)
            assert report.irreducible
            # Simple cycles have length <= k, and their lengths fix the period.
            lengths = [n for n in range(1, k + 1) if brute_periodic_census(spec, n)]
            assert report.period == gcd(*lengths)
        else:
            reducible += 1
            with pytest.raises(NotIrreducible) as err:
                validate_sft(spec)
            assert err.value.witness == (gap[0] + 1, gap[1] + 1)
        for r in (1, 2):
            bg = build_block_graph(spec, r)
            succ = [[bg.edge_head[e] for e in out] for out in bg.out_edges]
            bg_gap = _first_gap(succ)
            assert SpanningTree(bg).strongly_connected == (bg_gap is None)
            assert SpanningTree(bg).unreachable_pair() == bg_gap

        group = random_finite_group(rng)
        system = make_skew_system(
            spec, group, [rng.randrange(group.order) for _ in range(k)]
        )
        pg = build_product_graph(system, 1)
        pg_reach = _reach_closure([[pg.edge_head[e] for e in out] for out in pg.out_edges])
        pg_gap = _first_gap([[pg.edge_head[e] for e in out] for out in pg.out_edges])
        expected = None if pg_gap is None else tuple(vertex_label(pg, v) for v in pg_gap)
        assert product_scc_witness(SpanningTree(pg)) == expected
        if gap is not None:
            # A reducible base is named by its own pair at the identity,
            # which the product graph confirms out of reach.
            one = group.identity_index
            i, j = (v * group.order + one for v in gap)
            assert not pg_reach[i][j]
            expected = vertex_label(pg, i), vertex_label(pg, j)
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


def test_a_refused_finite_cover_builds_one_spanning_tree(monkeypatch):
    # The unreachable pair is read from the tree the caller already holds,
    # and that tree is built once per (shift, r) in a process: after the
    # memo is cleared, every refusal over the 1-block graph shares one.
    system = make_skew_system(FULL_2, C2, (0, 0))
    identity = [[1.0, 0.0], [0.0, 1.0]]
    cocycles = {
        solve_finite_gamma: generate_cocycle(system, block_range=1, seed=1),
        solve_matrix_finite: make_matrix_cocycle(
            FULL_2, 0, {(1,): identity, (2,): identity}
        ),
    }
    built = []
    init = SpanningTree.__init__

    def counting(self, graph):
        built.append(graph)
        init(self, graph)

    monkeypatch.setattr(SpanningTree, "__init__", counting)
    sft._TREES.clear()
    for _ in range(2):
        for solve, cocycle in cocycles.items():
            with pytest.raises(NotTransitiveError):
                solve(system, cocycle)
        assert check_transitivity(system).status == "not_transitive"
    assert len(built) == 1
    assert built[0] is build_block_graph(FULL_2, 1)


# ---------------------------------------------------------------------------
# Finite transitivity from the monodromy group; the product graph, built
# here, is the reference.

_BRUTE_STATES = 400  # (symbol, element) states brute_transitivity may search


def _monodromy(system, r):
    """The closure of the r-block graph's cycle weights, as the gate makes it."""
    tree = sft.block_tree(system.sft, r)
    return skew._closure(system.group, skew.cycle_weights(system, tree)[1])


def _gate_witness(system, r):
    """None if transitive_cover(system, r) passes, else its refusal's pair."""
    try:
        transitive_cover(system, r)
    except NotTransitiveError as refused:
        return refused.witness
    return None


def test_finite_transitivity_is_read_from_the_monodromy_group():
    verdicts = {"transitive": 0, "not_transitive": 0}
    for label, system in cover_corpus(83):
        group = system.group
        expected = product_scc_witness(SpanningTree(build_product_graph(system, 1)))
        verdict = check_transitivity(system)
        verdicts[verdict.status] += 1
        assert verdict.witness == expected, label
        assert (verdict.status == "transitive") == (expected is None), label
        monodromy = _monodromy(system, 1).keys()
        assert monodromy <= set(group.elements())
        assert all(group.mul(a, b) in monodromy for a in monodromy for b in monodromy)
        if system.sft.k * group.order <= _BRUTE_STATES:
            assert (len(monodromy) == group.order) == brute_transitivity(system), label
        for r in range(2, 5):
            if len(build_block_graph(system.sft, r).vertices) * group.order > 4_000:
                break
            pg_tree = SpanningTree(build_product_graph(system, r))
            assert _gate_witness(system, r) == product_scc_witness(pg_tree), (label, r)
            # Monodromy groups at different blocks are conjugate.
            assert len(_monodromy(system, r)) == len(monodromy), (label, r)
    assert min(verdicts.values()) >= 25, verdicts


def _breadth_first_closure(table, identity, cyc) -> list:
    """The elements of the closure of cyc in breadth-first order, each
    element's products taken by the distinct cycle weights in their first
    occurrence order."""
    gens = [g for g in dict.fromkeys(cyc) if g != identity]
    closure = [identity]
    for x in closure:
        closure += [y for y in dict.fromkeys(table[x][g] for g in gens) if y not in closure]
    return closure


def test_the_closure_records_each_element_and_its_first_step_edge():
    checked = 0
    for label, system in cover_corpus(83):
        group = system.group
        table, identity = group.table, group.identity_index
        for r in (1, 2, 3) if group.order in (6, 120) else (1,):
            cyc = skew.cycle_weights(system, sft.block_tree(system.sft, r))[1]
            via = skew._closure(group, cyc)
            assert list(via) == _breadth_first_closure(table, identity, cyc), (label, r)
            assert via[identity] is None
            for y, (x, e) in ((y, step) for y, step in via.items() if step is not None):
                assert table[x][cyc[e]] == y and cyc.index(cyc[e]) == e, (label, r, y)
                assert list(via).index(x) < list(via).index(y), (label, r, y)
            if len(via) == group.order:
                cover = transitive_cover(system, r)
                assert list(cover.via.items()) == list(via.items()), (label, r)
                checked += 1
    assert checked >= 40, checked


def _reducible_shifts():
    """The reducible shifts these tests build: 1 -> 2 with loops at both
    symbols, and the seeded shifts of
    test_strong_connectivity_matches_brute_closure whose symbol graph is
    not strongly connected."""
    shifts = [SftSpec.from_rows([[1, 1], [0, 1]])]
    for seed in range(40):
        rng = rng_for(59, seed)
        spec = _random_sft_without_dead_symbols(rng, rng.randint(2, 5))
        if not SpanningTree(build_block_graph(spec, 1)).strongly_connected:
            shifts.append(spec)
    return shifts


def _reducible_systems():
    """(label, system) over every reducible shift and C2, S3 and S5, with
    seeded psi."""
    groups = {"C2": C2, "S3": s3_group(), "S5": s5_group()}
    for i, spec in enumerate(_reducible_shifts()):
        rng = rng_for(61, i)
        for gname, group in groups.items():
            psi = [rng.randrange(group.order) for _ in range(spec.k)]
            yield f"{gname} reducible #{i}", make_skew_system(spec, group, psi)


def _block_pair(system, r):
    """The r-block tree's unreachable_pair, each block at the identity."""
    tree = sft.block_tree(system.sft, r)
    one = system.group.name_of(system.group.identity)
    return tuple((tree.graph.vertices[v], one) for v in tree.unreachable_pair())


def test_a_reducible_base_is_named_by_its_blocks_at_the_identity():
    checked = 0
    for label, system in _reducible_systems():
        identity = system.group.identity_index
        for r in (1, 2, 3):
            pair = _block_pair(system, r)
            with pytest.raises(NotTransitiveError) as err:
                transitive_cover(system, r)
            assert err.value.witness == pair, (label, r)
            if r == 1:
                assert check_transitivity(system).witness == pair, label
            # The product graph, the reference, has no path between the two.
            pg = build_product_graph(system, r)
            source, target = (pg.base.vertices.index(b) * pg.order + identity for b, _ in pair)
            assert (vertex_label(pg, source), vertex_label(pg, target)) == pair
            _, reached = sft._bfs_edges(pg.out_edges, pg.edge_head, source)
            assert target not in reached, (label, r)
            checked += 1
    assert checked >= 90, checked


def test_a_block_graph_with_no_blocks_is_not_strongly_connected():
    # The one symbol of [[0]] has no successor, so no 2-block is admissible.
    spec = SftSpec.from_rows([[0]])
    z1 = build_group(GroupSpec.free_abelian(1))
    cocycle = make_cocycle(spec, 2, {})
    for system, solve in (
        (make_skew_system(spec, C2, (1,)), solve_finite_gamma),
        (make_skew_system(spec, z1, ((1,),)), solve_free_abelian),
    ):
        with pytest.raises(NotStronglyConnected):
            transitive_cover(system, 2)
        with pytest.raises(NotStronglyConnected):
            solve(system, cocycle)


def test_irreducible_finite_covers_never_build_the_product_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("product graph built")

    systems = list(cover_corpus(83, instances=2))
    # The pair a matrix solve must name on a cover that is not transitive,
    # from the product graph at its block length, before the builder goes.
    pairs = [product_scc_witness(SpanningTree(build_product_graph(s, 2))) for _, s in systems]
    # ProductGraph too, so a caller holding its own binding of the builder
    # cannot build one unseen.
    monkeypatch.setattr(skew, "build_product_graph", refuse)
    monkeypatch.setattr(skew, "ProductGraph", refuse)
    for label, system in systems:
        verdict = check_transitivity(system)
        cocycle = generate_cocycle(system, block_range=2, seed=3)
        if verdict.status == "transitive":
            assert solve_finite_gamma(system, cocycle).certificate.certified, label
            values = dict(cocycle.values)
            values[min(values)] += 1
            with pytest.raises(CocycleObstruction):
                solve_finite_gamma(system, make_cocycle(system.sft, 2, values))
        else:
            with pytest.raises(NotTransitiveError):
                solve_finite_gamma(system, cocycle)
    # Matrix covers take the same gate: generated rotation and unipotent
    # cocycles certify and a sheared window is an obstruction, or the cover
    # is not transitive and the solver names the product graph's pair.
    matrix_solves = {"certified": 0, "obstructed": 0, "not transitive": 0}
    for (label, system), pair in zip(systems, pairs):
        for seed, family in enumerate(("rotation", "unipotent")):
            u = random_u(system, 2, seed, family)
            cocycle = generate_matrix_cocycle(system, u, None, block_range=2)
            if pair is not None:
                with pytest.raises(NotTransitiveError) as err:
                    solve_matrix_finite(system, cocycle)
                assert err.value.witness == pair, label
                matrix_solves["not transitive"] += 1
                continue
            assert solve_matrix_finite(system, cocycle).certificate.certified, label
            matrix_solves["certified"] += 1
            values = dict(cocycle.values)
            shear = np.eye(cocycle.dim)
            shear[0, -1] = 0.5
            values[min(values)] = values[min(values)] @ shear
            with pytest.raises(CocycleObstruction):
                solve_matrix_finite(system, make_matrix_cocycle(system.sft, 2, values))
            matrix_solves["obstructed"] += 1
    assert min(matrix_solves.values()) >= 10, matrix_solves
    # Z^d covers pass the same gate, skew.transitive_cover, over the trivial F.
    # On a full shift the bump at the fixed point 1^oo is never a coboundary.
    for i in range(8):
        rng = rng_for(83, 1_000 + i)
        d, k = 1 + i % 2, 2 + i // 4
        z = build_group(GroupSpec.free_abelian(d))
        psi = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        lattice = make_skew_system(SftSpec.full_shift(k), z, psi)
        cocycle = generate_cocycle(
            lattice, alpha=(1,) * lattice.group.rank, block_range=2, seed=i
        )
        assert solve_free_abelian(lattice, cocycle).certificate.certified
        values = dict(cocycle.values)
        values[min(values)] += 1
        with pytest.raises(CocycleObstruction):
            solve_free_abelian(lattice, make_cocycle(lattice.sft, 2, values))
    # Nor do covers of a reducible base: the gate, both finite solvers and
    # the check name the block graph's own pair at the identity.
    for label, system in _reducible_systems():
        assert check_transitivity(system).witness == _block_pair(system, 1), label
        for r in (1, 2, 3):
            pair = _block_pair(system, r)
            cocycle = generate_cocycle(system, block_range=r, seed=r)
            u = random_u(system, r, r, "rotation")
            matrix = generate_matrix_cocycle(system, u, None, block_range=r)
            for attempt in (
                lambda: transitive_cover(system, r),
                lambda: solve_finite_gamma(system, cocycle),
                lambda: solve_matrix_finite(system, matrix),
            ):
                with pytest.raises(NotTransitiveError) as err:
                    attempt()
                assert err.value.witness == pair, (label, r)
