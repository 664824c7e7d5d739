"""The block-tree and cover memos: one SpanningTree per (shift, r) and
one transitive Cover per (system, r) in a process.

`sft.block_tree` builds the r-block graph and its tree once, and
`build_block_graph`, `validate_sft` and `skew.transitive_cover` all read it.
The memo holds at most LIVSIC_MAX_STATES blocks in all, evicts the least
recently used tree first, re-reads the cap on a hit, and hands out trees
whose arrays are tuples.  `skew.transitive_cover` keeps the transitivity
gate and psi's rises the same way, so a second solve on one cover pays
only for its cocycle, and check_transitivity reads the same gate.
"""
from __future__ import annotations

import gc
import weakref
from math import gcd

import numpy as np
import pytest

import livsic.skew as skew
from livsic import (
    CocycleObstruction,
    GroupSpec,
    NotTransitiveError,
    RangeTooLarge,
    SftSpec,
    build_block_graph,
    build_group,
    check_transitivity,
    generate_cocycle,
    make_cocycle,
    make_skew_system,
    smith_diagonal,
    solve_finite_gamma,
    solve_free_abelian,
    validate_sft,
)
from livsic import generate_matrix_cocycle, solve_matrix_finite, sft
from livsic.groups import Group
from livsic.sft import SpanningTree, block_tree
from livsic.skew import transitive_cover
from corpus import (
    cover_corpus,
    random_irreducible_sft,
    random_u,
    relabelled_group,
    rng_for,
    s3_group,
)

FULL_2 = SftSpec.full_shift(2)


@pytest.fixture(autouse=True)
def empty_memo():
    sft._TREES.clear()
    skew._COVERS.clear()
    yield
    sft._TREES.clear()
    skew._COVERS.clear()


def _held():
    """(the memo's (spec, r) keys, least recently used first; the blocks
    its trees hold, as counted and as its own tally)."""
    trees = sft._TREES.held
    return list(trees), sum(len(t.graph.vertices) for t in trees.values()), sft._TREES.states


def test_every_reader_shares_one_tree():
    tree = block_tree(FULL_2, 3)
    assert block_tree(FULL_2, 3) is tree
    assert build_block_graph(FULL_2, 3) is tree.graph
    system = make_skew_system(FULL_2, build_group(GroupSpec.cyclic(2)), (1, 0))
    assert transitive_cover(system, 3).tree is tree
    assert validate_sft(FULL_2).period == 1
    assert _held()[0] == [(FULL_2, 3), (FULL_2, 1)]
    # An equal spec is the same key.
    assert block_tree(SftSpec.from_rows([[1, 1], [1, 1]]), 3) is tree


def test_a_lowered_cap_refuses_a_cached_graph_as_a_fresh_build(monkeypatch):
    spec = SftSpec.full_shift(3)
    tree = block_tree(spec, 3)  # 27 blocks
    monkeypatch.setenv("LIVSIC_MAX_STATES", "20")
    with pytest.raises(RangeTooLarge) as cached:
        build_block_graph(spec, 3)
    sft._TREES.clear()
    with pytest.raises(RangeTooLarge) as fresh:
        build_block_graph(spec, 3)
    assert str(cached.value) == str(fresh.value) == "more than 20 admissible words of length 3"
    system = make_skew_system(spec, build_group(GroupSpec.cyclic(2)), (1, 0, 0))
    block_tree(spec, 2)
    with pytest.raises(RangeTooLarge, match="more than 20 admissible words of length 3"):
        transitive_cover(system, 3)
    # The refused tree is dropped, and the cap read back admits it again.
    assert _held()[0] == [(spec, 2)]
    monkeypatch.delenv("LIVSIC_MAX_STATES")
    assert block_tree(spec, 3).graph == tree.graph


def test_the_memo_holds_at_most_the_cap_and_evicts_the_oldest_first(monkeypatch):
    full3, golden = SftSpec.full_shift(3), SftSpec.from_rows([[1, 1], [1, 0]])
    monkeypatch.setenv("LIVSIC_MAX_STATES", "40")
    for spec, r in ((FULL_2, 3), (FULL_2, 4), (FULL_2, 2), (full3, 2), (FULL_2, 1)):
        block_tree(spec, r)  # 8, 16, 4, 9 and 2 blocks
    assert _held() == ([(FULL_2, 3), (FULL_2, 4), (FULL_2, 2), (full3, 2), (FULL_2, 1)], 39, 39)
    block_tree(golden, 3)  # 5 more blocks: only the oldest tree goes
    assert _held() == ([(FULL_2, 4), (FULL_2, 2), (full3, 2), (FULL_2, 1), (golden, 3)], 36, 36)
    # A hit makes its tree the newest, so the next eviction passes it by.
    block_tree(FULL_2, 4)
    block_tree(golden, 4)  # 8 blocks
    assert _held() == ([(full3, 2), (FULL_2, 1), (golden, 3), (FULL_2, 4), (golden, 4)], 40, 40)
    # A lowered cap is read on the next call, which first trims the memo.
    monkeypatch.setenv("LIVSIC_MAX_STATES", "20")
    block_tree(FULL_2, 1)
    assert _held() == ([(golden, 4), (FULL_2, 1)], 10, 10)

    # A seeded walk over shifts, block lengths and caps.  After every call,
    # refused or not, the memo holds at most the cap it was called under,
    # its tally is the blocks it holds, and only its oldest trees went.
    rng = rng_for(28, 9_000)
    specs = [FULL_2, full3, golden, *(random_irreducible_sft(rng, 3) for _ in range(3))]
    refused = 0
    for _ in range(400):
        cap = rng.randint(1, 120)
        monkeypatch.setenv("LIVSIC_MAX_STATES", str(cap))
        spec, r = rng.choice(specs), rng.randint(1, 5)
        rest = [key for key in _held()[0] if key != (spec, r)]
        try:
            tree = block_tree(spec, r)
        except RangeTooLarge:
            refused += 1
            kept = _held()[0]
        else:
            assert len(tree.graph.vertices) <= cap
            assert _held()[0][-1] == (spec, r)
            kept = _held()[0][:-1]
        assert kept == rest[len(rest) - len(kept):]
        _, counted, tally = _held()
        assert counted == tally <= cap
    assert 20 <= refused <= 300, refused


def test_a_value_past_the_cap_is_not_held_and_drops_nothing():
    memo = sft.StateMemo(len)
    memo.put("k", [1] * 5, 3)
    assert (memo.held, memo.states) == ({}, 0)
    memo.put("a", [1, 2], 3)
    memo.put("k", [1] * 5, 3)
    assert (memo.held, memo.states) == ({"a": [1, 2]}, 2)
    # A value that alone fills the cap is held, and drops the oldest.
    memo.put("b", [1, 2, 3], 3)
    assert (memo.held, memo.states) == ({"b": [1, 2, 3]}, 3)


def test_a_put_on_a_held_key_replaces_its_value_as_the_newest():
    memo = sft.StateMemo(len)
    memo.put("a", [1, 2], 10)
    memo.put("a", [1, 2], 10)
    assert (memo.held, memo.states) == ({"a": [1, 2]}, 2)
    memo.put("b", [1, 2, 3], 10)
    memo.put("a", [1, 2, 3, 4], 10)
    assert (list(memo.held), memo.states) == (["b", "a"], 7)
    # Room for 5 more states: the oldest, now b, goes first.
    memo.put("c", [1] * 5, 10)
    assert (memo.held, memo.states) == ({"a": [1, 2, 3, 4], "c": [1] * 5}, 9)


def test_a_cached_tree_cannot_be_changed():
    tree = block_tree(FULL_2, 2)
    for name in ("parent", "visit", "next_edge", "chords"):
        assert type(getattr(tree, name)) is tuple, name
    with pytest.raises(TypeError):
        tree.parent[1] = None
    graph = tree.graph
    with pytest.raises(AttributeError):
        graph.r = 3
    assert all(type(getattr(graph, name)) is tuple
               for name in ("vertices", "edges", "edge_tail", "edge_head", "out_edges"))
    assert all(type(out) is tuple for out in graph.out_edges)


def test_solves_on_cached_trees_build_neither_a_tree_nor_the_product_graph(monkeypatch):
    systems = list(cover_corpus(83, instances=1))
    cases = []
    for label, system in systems:
        cocycle = generate_cocycle(system, block_range=2, seed=5)
        try:
            assert solve_finite_gamma(system, cocycle).certificate.certified
        except NotTransitiveError:  # refused the same way below
            cases.append((label, system, cocycle, NotTransitiveError))
            continue
        values = dict(cocycle.values)
        values[min(values)] += 1
        cases.append((label, system, cocycle, None))
        cases.append((label, system, make_cocycle(system.sft, 2, values), CocycleObstruction))
    z = build_group(GroupSpec.free_abelian(2))
    lattice = make_skew_system(SftSpec.full_shift(3), z, ((1, 0), (0, 1), (-1, -1)))
    cocycle = generate_cocycle(lattice, alpha=(1, 2), block_range=2, seed=1)
    cases.append(("Z2", lattice, cocycle, None))

    def refuse(*args, **kwargs):
        raise RuntimeError("built")

    built = []
    init = SpanningTree.__init__

    def counting(self, graph):
        built.append(graph)
        init(self, graph)

    monkeypatch.setattr(skew, "build_product_graph", refuse)
    monkeypatch.setattr(skew, "ProductGraph", refuse)
    monkeypatch.setattr(SpanningTree, "__init__", counting)
    refusals = 0
    for label, system, cocycle, raised in cases:
        solve = solve_free_abelian if system.group.rank else solve_finite_gamma
        if raised is None:
            assert solve(system, cocycle).certificate.certified, label
        else:
            refusals += 1
            with pytest.raises(raised):
                solve(system, cocycle)
    assert refusals >= 10
    assert built == []


def test_chords_and_rises_read_the_fundamental_cycles():
    # Full, sparse and periodic shifts at r = 1 to 3.  Tree edges rise by 0,
    # so the period and the lattice of the cycle weights read over every
    # edge equal the chord-only values that validate_sft and
    # check_transitivity compute.
    specs = [FULL_2, SftSpec.full_shift(3), SftSpec.from_rows([[0, 1, 1], [1, 0, 0], [1, 0, 0]])]
    specs += [random_irreducible_sft(rng_for(89, i), 3 + i % 4) for i in range(6)]
    periods = set()
    for i, spec in enumerate(specs):
        for r in (1, 2, 3):
            tree = block_tree(spec, r)
            bg = tree.graph
            ends = list(zip(bg.edge_tail, bg.edge_head))
            in_tree = {e for e in tree.parent if e is not None}
            assert len(in_tree) == len(bg.vertices) - 1
            assert [e for e, _, _ in tree.chords] == [e for e in range(len(ends)) if e not in in_tree]
            assert all((t, h) == ends[e] for e, t, h in tree.chords)
            rng = rng_for(97, 3 * i + r)
            d = rng.randint(1, 3)
            psi = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(spec.k)]
            columns = [[psi[w[0] - 1][j] for w in bg.edges] for j in range(d)]
            columns.append([1] * len(ends))
            every, chords = [], []
            for column in columns:
                pot, rises = tree.rises(column)
                assert pot == tree.potentials(0, lambda e, p: p + column[e])
                rise = [column[e] + pot[t] - pot[h] for e, (t, h) in enumerate(ends)]
                assert rises == [rise[e] for e, _, _ in tree.chords]
                assert not any(rise[e] for e in in_tree)
                every.append(rise)
                chords.append(rises)
            period = gcd(*every[-1])
            assert period == gcd(*chords[-1]) == validate_sft(spec).period
            periods.add(period)
            diagonal = smith_diagonal(list(zip(*every[:-1])), d)
            assert diagonal == smith_diagonal(list(zip(*chords[:-1])), d)
            if r == 1:
                system = make_skew_system(spec, build_group(GroupSpec.free_abelian(d)), psi)
                assert check_transitivity(system).evidence.lattice_diagonal == diagonal
    assert {1, 2} <= periods


def test_potentials_and_rises_loop_over_the_flat_order():
    # Full and sparse shifts at r = 1 to 3, against a loop over the visit
    # order that reads parent and edge_tail itself: int columns through
    # rises, and GL(2) steps (unimodular int matrices, so products are
    # exact) through potentials.
    specs = [FULL_2, SftSpec.full_shift(3), SftSpec.from_rows([[0, 1, 1], [1, 0, 0], [1, 0, 0]])]
    specs += [random_irreducible_sft(rng_for(101, i), 3 + i % 4) for i in range(6)]
    shears = [np.array(m) for m in ([[1, 1], [0, 1]], [[1, 0], [1, 1]], [[0, -1], [1, 0]])]
    for i, spec in enumerate(specs):
        for r in (1, 2, 3):
            tree = block_tree(spec, r)
            tail = tree.graph.edge_tail
            n_edges = len(tail)
            assert tree.order == tuple(
                (v, tree.parent[v], tail[tree.parent[v]]) for v in tree.visit[1:]
            )
            rng = rng_for(103, 3 * i + r)

            def reference(start, step):
                pot = [None] * len(tree.parent)
                pot[0] = start
                for v in tree.visit[1:]:
                    e = tree.parent[v]
                    pot[v] = step(e, pot[tail[e]])
                return pot

            column = [rng.randint(-5, 5) for _ in range(n_edges)]
            assert tree.rises(column)[0] == reference(0, lambda e, p: p + column[e])
            mats = [shears[rng.randrange(3)] for _ in range(n_edges)]
            eye = np.eye(2, dtype=int)
            got = tree.potentials(eye, lambda e, t: mats[e] @ t)
            want = reference(eye, lambda e, t: mats[e] @ t)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_strong_connectivity_check_builds_neither_chords_nor_the_order(monkeypatch):
    trees = []
    init = SpanningTree.__init__

    def keeping(self, graph):
        init(self, graph)
        trees.append(self)

    monkeypatch.setattr(SpanningTree, "__init__", keeping)
    for spec in (FULL_2, SftSpec.from_rows([[1, 1], [0, 1]])):
        SpanningTree(block_tree(spec, 2).graph).strongly_connected
    assert len(trees) == 4
    assert all(vars(tree).keys().isdisjoint({"chords", "order"}) for tree in trees)
    # Read once, each is built and then kept.
    tree = trees[0]
    assert tree.chords is tree.chords and tree.order is tree.order


def _count_gate(monkeypatch):
    """Count calls of the gate's two steps and of SpanningTree.rises."""
    counts = {"cycle_weights": 0, "_closure": 0, "rises": 0}
    for name in ("cycle_weights", "_closure"):
        def spy(*args, real=getattr(skew, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(skew, name, spy)
    rises = SpanningTree.rises

    def counting(self, column):
        counts["rises"] += 1
        return rises(self, column)

    monkeypatch.setattr(SpanningTree, "rises", counting)
    return counts


def _no_group_hash(monkeypatch):
    def refuse(self):
        raise AssertionError("a Group was hashed")

    monkeypatch.setattr(Group, "__hash__", refuse)


def test_a_second_solve_on_one_cover_pays_only_for_the_cocycle(monkeypatch):
    z2 = make_skew_system(SftSpec.full_shift(3), build_group(GroupSpec.free_abelian(2)),
                          ((1, 0), (0, 1), (-1, -1)))
    s3 = make_skew_system(FULL_2, s3_group(), (1, 2))
    cases = []
    for system, solve in ((z2, solve_free_abelian), (s3, solve_finite_gamma)):
        good = [generate_cocycle(system, block_range=2, seed=seed) for seed in (1, 2)]
        values = dict(good[1].values)
        values[min(values)] += 1
        cases.append((system, solve, [*good, make_cocycle(system.sft, 2, values)]))

    def answer(solve, system, cocycle):
        try:
            return solve(system, cocycle)
        except CocycleObstruction as exc:
            return exc.witness

    def fresh_answer(solve, system, cocycle):
        skew._COVERS.clear()
        return answer(solve, system, cocycle)

    fresh = [[fresh_answer(solve, system, c) for c in cocycles] for system, solve, cocycles in cases]
    skew._COVERS.clear()
    counts = _count_gate(monkeypatch)
    _no_group_hash(monkeypatch)
    for (system, solve, cocycles), expected in zip(cases, fresh):
        d = system.group.rank
        for i, (cocycle, want) in enumerate(zip(cocycles, expected)):
            counts.update(dict.fromkeys(counts, 0))
            assert answer(solve, system, cocycle) == want
            gate = 0 if i else 1
            # The first solve decides the cover and rises psi's d columns;
            # over a trivial F it runs neither cycle_weights nor _closure.
            closed = gate if len(system.group.table) > 1 else 0
            assert counts == {"cycle_weights": closed, "_closure": closed, "rises": 1 + d * gate}
    # The matrix solver reads the same cover, and its closure's step edges.
    u = random_u(s3, 2, 3, "rotation")
    cocycle = generate_matrix_cocycle(s3, u, None, block_range=2)
    cover = transitive_cover(s3, 2)
    via = cover.via
    counts.update(dict.fromkeys(counts, 0))
    for _ in range(2):
        assert solve_matrix_finite(s3, cocycle).certificate.certified
    assert counts == {"cycle_weights": 0, "_closure": 0, "rises": 0}
    assert transitive_cover(s3, 2) is cover and cover.via is via


def test_a_transitivity_check_and_a_solve_share_one_gate(monkeypatch):
    # check_transitivity decides the 1-block cover through transitive_cover,
    # so a solve with block range <= 1 afterwards finds it decided, and a
    # second check over Z^d rises none of psi's columns again.
    c2 = make_skew_system(FULL_2, build_group(GroupSpec.cyclic(2)), (1, 0))
    s3 = make_skew_system(SftSpec.full_shift(3), s3_group(), (1, 2, 0))
    z2 = make_skew_system(SftSpec.full_shift(3), build_group(GroupSpec.free_abelian(2)),
                          ((1, 0), (0, 1), (-1, -1)))
    counts = _count_gate(monkeypatch)
    for system in (c2, s3):
        assert check_transitivity(system).status == "transitive"
        cover = list(skew._COVERS.held.values())[-1]
        zero = make_cocycle(system.sft, 0, {(a,): 0 for a in range(1, system.sft.k + 1)})
        for cocycle in (zero, generate_cocycle(system, block_range=1, seed=5)):
            counts.update(dict.fromkeys(counts, 0))
            assert solve_finite_gamma(system, cocycle).certificate.certified
            assert (counts["cycle_weights"], counts["_closure"]) == (0, 0)
        assert transitive_cover(system, 1) is cover
    first = check_transitivity(z2)
    counts.update(dict.fromkeys(counts, 0))
    assert check_transitivity(z2) == first
    assert counts == {"cycle_weights": 0, "_closure": 0, "rises": 0}


def test_a_lattice_check_reads_its_report_and_functional_from_the_cover(monkeypatch):
    # Over Z^d, Smith's report of the rises and _one_sided's functional are
    # the cover's, made on first use: a second check recomputes neither,
    # a check on a fresh cover makes both again, and a degenerate solve on
    # the check's cover reads the check's report.
    counts = {"subgroup_rank_and_index": 0, "_one_sided": 0}
    for name in counts:
        def spy(*args, real=getattr(skew, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(skew, name, spy)
    z2 = build_group(GroupSpec.free_abelian(2))
    spread = make_skew_system(SftSpec.full_shift(3), z2, ((1, 0), (0, 1), (-1, -1)))
    first = check_transitivity(spread)
    assert counts == {"subgroup_rank_and_index": 1, "_one_sided": 1}
    assert check_transitivity(spread) == first
    assert counts == {"subgroup_rank_and_index": 1, "_one_sided": 1}
    skew._COVERS.clear()
    assert check_transitivity(spread) == first
    assert counts == {"subgroup_rank_and_index": 2, "_one_sided": 2}
    # psi's second coordinate is 0: a proper lattice, and a pinned alpha.
    flat = make_skew_system(FULL_2, z2, ((1, 0), (-1, 0)))
    verdict = check_transitivity(flat)
    assert verdict.certificate.kind == "proper_subgroup"
    assert counts == {"subgroup_rank_and_index": 3, "_one_sided": 2}
    solution = solve_free_abelian(flat, generate_cocycle(flat, alpha=(1, 0), block_range=1, seed=4))
    assert solution.degenerate.pinned_coordinates == (1,)
    assert solution.degenerate.lattice_diagonal == verdict.evidence.lattice_diagonal == (1,)
    assert counts == {"subgroup_rank_and_index": 3, "_one_sided": 2}


def test_an_equal_system_hits_the_memo_and_another_group_does_not(monkeypatch):
    spec = SftSpec.full_shift(2)
    first = make_skew_system(spec, s3_group(), (1, 2))
    cover = transitive_cover(first, 2)
    counts = _count_gate(monkeypatch)
    _no_group_hash(monkeypatch)
    # Rebuilt from equal parts, the group a new but equal object.
    again = make_skew_system(SftSpec.full_shift(2), s3_group(), (1, 2))
    assert again.group is not first.group
    assert transitive_cover(again, 2) is cover
    assert counts["cycle_weights"] == 0
    # The same psi_f over another group of order 6 is decided afresh.
    other = make_skew_system(spec, relabelled_group(s3_group(), (4, 2, 5, 0, 1, 3)), (1, 2))
    assert other.psi_f == first.psi_f and other.psi_z == first.psi_z
    relabelled = transitive_cover(other, 2)
    assert relabelled is not cover and relabelled.group() is other.group
    assert counts["cycle_weights"] == 1
    assert list(skew._COVERS.held) == [(spec, 2, (1, 2), ((), ()))]
    # A refusal is made afresh each time, and kept out of the memo.
    stuck = make_skew_system(spec, s3_group(), (0, 0))
    for _ in range(2):
        with pytest.raises(NotTransitiveError):
            transitive_cover(stuck, 2)
    assert counts["cycle_weights"] == 3
    assert len(skew._COVERS.held) == 1


def test_a_lowered_cap_refuses_a_cached_cover_as_a_fresh_build(monkeypatch):
    system = make_skew_system(SftSpec.full_shift(3), s3_group(), (1, 2, 0))
    refusals = []
    for cap in ("20", "100"):  # 27 blocks, and 27 x 6 product states
        transitive_cover(system, 3)
        monkeypatch.setenv("LIVSIC_MAX_STATES", cap)
        messages = []
        for _ in range(2):
            with pytest.raises(RangeTooLarge) as refused:
                transitive_cover(system, 3)
            messages.append(str(refused.value))
            sft._TREES.clear()
            skew._COVERS.clear()
        assert messages[0] == messages[1]
        refusals.append(messages[0])
        monkeypatch.delenv("LIVSIC_MAX_STATES")
    assert refusals == ["more than 20 admissible words of length 3",
                        "product graph would have 162 vertices"]


def test_the_cover_memo_holds_at_most_the_cap(monkeypatch):
    # A seeded walk over systems, block lengths and caps.  After every
    # call, refused or not, the memo holds at most the cap it was called
    # under, its tally is the product states (blocks x |F|) of its covers,
    # and a call that returned left its cover the newest.
    rng = rng_for(107, 9_000)
    z = build_group(GroupSpec.free_abelian(1))
    systems = [make_skew_system(FULL_2, s3_group(), (1, 2)),
               make_skew_system(FULL_2, s3_group(), (0, 0)),
               make_skew_system(SftSpec.full_shift(3), build_group(GroupSpec.cyclic(2)), (1, 0, 0)),
               make_skew_system(SftSpec.full_shift(3), z, ((1,), (-1,), (0,))),
               make_skew_system(SftSpec.from_rows([[1, 1], [1, 0]]), z, ((1,), (-2,)))]
    returned = 0
    for _ in range(300):
        cap = rng.randint(1, 150)
        monkeypatch.setenv("LIVSIC_MAX_STATES", str(cap))
        system, r = rng.choice(systems), rng.randint(1, 5)
        try:
            cover = transitive_cover(system, r)
        except (RangeTooLarge, NotTransitiveError):
            pass
        else:
            returned += 1
            assert list(skew._COVERS.held.values())[-1] is cover
        held = skew._COVERS.held.values()
        states = sum(len(c.tree.graph.vertices) * (c.group().order or 1) for c in held)
        assert skew._COVERS.states == states <= cap
    assert 50 <= returned <= 250, returned


def test_the_cover_memo_keeps_no_group_alive(monkeypatch):
    # Covers over large cyclic groups hold their groups weakly: once the
    # systems are dropped the tables go, though the covers stay charged
    # their product states, and an equal group built afterwards is
    # decided afresh.
    monkeypatch.setenv("LIVSIC_MAX_STATES", "5000")
    orders = (500, 600, 700)
    systems = [make_skew_system(FULL_2, build_group(GroupSpec.cyclic(n)), (1, i))
               for i, n in enumerate(orders)]
    groups = [weakref.ref(system.group) for system in systems]
    for system in systems:
        transitive_cover(system, 1)
    assert skew._COVERS.states == 2 * (500 + 600 + 700) <= 5000
    del system, systems
    gc.collect()
    assert [group() for group in groups] == [None] * 3
    assert skew._COVERS.states == 2 * (500 + 600 + 700)
    counts = _count_gate(monkeypatch)
    again = make_skew_system(FULL_2, build_group(GroupSpec.cyclic(700)), (1, 2))
    assert transitive_cover(again, 1).group() is again.group
    assert counts["cycle_weights"] == 1


def test_a_cover_hit_keeps_its_tree_in_the_tree_memo(monkeypatch):
    system = make_skew_system(FULL_2, s3_group(), (1, 2))
    cover = transitive_cover(system, 3)
    block_tree(SftSpec.full_shift(3), 2)
    assert transitive_cover(system, 3) is cover
    assert list(sft._TREES.held)[-1] == (FULL_2, 3)
    # Once the tree memo has dropped the cover's tree, the cover is
    # decided afresh on the tree block_tree holds now, so one tree per
    # (shift, r) is in use.
    sft._TREES.clear()
    counts = _count_gate(monkeypatch)
    rebuilt = transitive_cover(system, 3)
    assert rebuilt is not cover and rebuilt.tree is block_tree(FULL_2, 3) is not cover.tree
    assert counts["cycle_weights"] == 1
    assert transitive_cover(system, 3) is rebuilt
