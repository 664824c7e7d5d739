"""The block-tree memo: one SpanningTree per (shift, r) in a process.

`sft.block_tree` builds the r-block graph and its tree once, and
`build_block_graph`, `validate_sft` and `skew.cover_tree` all read it.
The memo holds at most LIVSIC_MAX_STATES blocks in all, evicts the least
recently used tree first, re-reads the cap on a hit, and hands out trees
whose arrays are tuples.
"""
from __future__ import annotations

from math import gcd

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
from livsic import sft
from livsic.sft import SpanningTree, block_tree
from livsic.skew import cover_tree
from corpus import cover_corpus, random_irreducible_sft, rng_for

FULL_2 = SftSpec.full_shift(2)


@pytest.fixture(autouse=True)
def empty_memo():
    sft._TREES.clear()
    yield
    sft._TREES.clear()


def _held():
    """(the memo's (spec, r) keys, least recently used first; the blocks
    its trees hold, as counted and as its own tally)."""
    trees = sft._TREES.trees
    return list(trees), sum(len(t.graph.vertices) for t in trees.values()), sft._TREES.blocks


def test_every_reader_shares_one_tree():
    tree = block_tree(FULL_2, 3)
    assert block_tree(FULL_2, 3) is tree
    assert build_block_graph(FULL_2, 3) is tree.graph
    system = make_skew_system(FULL_2, build_group(GroupSpec.cyclic(2)), (1, 0))
    assert cover_tree(system, 3) is tree
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
        cover_tree(system, 3)
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
