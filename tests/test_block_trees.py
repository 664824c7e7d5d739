"""Held block trees and covers: a shift holds one SpanningTree per r,
and a skew system one transitive Cover per r.

`sft.block_tree` builds the r-block graph and its tree once per shift
object, and `build_block_graph`, `validate_sft` and
`skew.transitive_cover` all read it.  The cap is read again on every
call, a refusal is never held, and the trees' arrays are tuples.
`skew.transitive_cover` keeps the transitivity gate and psi's rises on
the system the same way, so a second solve on one cover pays only for
its cocycle, and check_transitivity reads the same gate.  Equal but
distinct shifts and systems each build their own.
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
from livsic import abelian, generate_matrix_cocycle, solve_matrix_finite
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


def test_every_reader_shares_one_tree():
    spec = SftSpec.full_shift(2)
    tree = block_tree(spec, 3)
    assert block_tree(spec, 3) is tree
    assert build_block_graph(spec, 3) is tree.graph
    system = make_skew_system(spec, build_group(GroupSpec.cyclic(2)), (1, 0))
    assert transitive_cover(system, 3).tree is tree
    assert validate_sft(spec).period == 1
    assert list(spec._trees) == [3, 1]
    # An equal but distinct spec holds a tree of its own.
    equal = SftSpec.from_rows([[1, 1], [1, 1]])
    assert equal == spec and block_tree(equal, 3) is not tree
    assert block_tree(equal, 3).graph == tree.graph


def test_a_lowered_cap_refuses_a_cached_graph_as_a_fresh_build(monkeypatch):
    spec, fresh_spec = SftSpec.full_shift(3), SftSpec.full_shift(3)
    tree = block_tree(spec, 3)  # 27 blocks
    monkeypatch.setenv("LIVSIC_MAX_STATES", "20")
    with pytest.raises(RangeTooLarge) as held:
        build_block_graph(spec, 3)
    with pytest.raises(RangeTooLarge) as fresh:
        build_block_graph(fresh_spec, 3)
    assert str(held.value) == str(fresh.value) == "more than 20 admissible words of length 3"
    system = make_skew_system(spec, build_group(GroupSpec.cyclic(2)), (1, 0, 0))
    block_tree(spec, 2)
    with pytest.raises(RangeTooLarge, match="more than 20 admissible words of length 3"):
        transitive_cover(system, 3)
    # The fresh refusal is not held, and the cap read back admits the held tree again.
    assert list(spec._trees) == [3, 2] and list(fresh_spec._trees) == []
    monkeypatch.delenv("LIVSIC_MAX_STATES")
    assert block_tree(spec, 3) is tree


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


def test_a_cocycle_builds_the_tree_its_solver_reads(monkeypatch):
    # The domain check reads a cocycle's windows off its shift's block
    # graph, the edges over r-blocks (at range 0 the 1-blocks), so a
    # parsed cocycle builds the one tree the solver's gate then reads.
    z = build_group(GroupSpec.free_abelian(1))
    built = []
    init = SpanningTree.__init__

    def counting(self, graph):
        built.append(graph.r)
        init(self, graph)

    monkeypatch.setattr(SpanningTree, "__init__", counting)
    for rf in (0, 1, 3):
        tree = block_tree(FULL_2, max(rf, 1))
        windows = tree.graph.edges if rf else tree.graph.vertices
        spec = SftSpec.full_shift(2)
        system = make_skew_system(spec, z, ((1,), (-1,)))
        cocycle = make_cocycle(spec, rf, dict.fromkeys(reversed(windows), 0))
        assert list(cocycle.numerators) == list(windows)
        assert list(spec._trees) == [max(rf, 1)]
        built.clear()
        assert solve_free_abelian(system, cocycle).certificate.certified
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
    for spec in (SftSpec.full_shift(2), SftSpec.from_rows([[1, 1], [0, 1]])):
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
        # An equal but distinct system decides its own cover.
        spec = SftSpec.from_rows(system.sft.transitions)
        return answer(solve, make_skew_system(spec, system.group, system.psi), cocycle)

    fresh = [[fresh_answer(solve, system, c) for c in cocycles] for system, solve, cocycles in cases]
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
        cover = system._covers[1]
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
    # a check on an equal system's cover makes both again, and a
    # degenerate solve on the check's cover reads the check's report.
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
    again = make_skew_system(SftSpec.full_shift(3), z2, spread.psi)
    assert check_transitivity(again) == first
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


def test_an_equal_but_distinct_system_decides_its_own_cover(monkeypatch):
    spec = SftSpec.full_shift(2)
    first = make_skew_system(spec, s3_group(), (1, 2))
    cover = transitive_cover(first, 2)
    counts = _count_gate(monkeypatch)
    _no_group_hash(monkeypatch)
    # Rebuilt from equal parts: an equal system, and its own cover.
    again = make_skew_system(SftSpec.full_shift(2), s3_group(), (1, 2))
    assert again == first and again.group is not first.group
    held = transitive_cover(again, 2)
    assert held is not cover and held.tree is not cover.tree
    assert (held.via, held.wpot, held.cyc) == (cover.via, cover.wpot, cover.cyc)
    assert counts["cycle_weights"] == 1
    assert transitive_cover(again, 2) is held and transitive_cover(first, 2) is cover
    assert counts["cycle_weights"] == 1
    # The same psi_f over another group of order 6, on the same shift
    # object: its own cover on the shift's one tree.
    other = make_skew_system(spec, relabelled_group(s3_group(), (4, 2, 5, 0, 1, 3)), (1, 2))
    assert other.psi_f == first.psi_f and other.psi_z == first.psi_z
    relabelled = transitive_cover(other, 2)
    assert relabelled is not cover and relabelled.tree is cover.tree
    assert counts["cycle_weights"] == 2
    assert list(first._covers) == list(other._covers) == [2]
    # A refusal is made afresh each time, and never held.
    stuck = make_skew_system(spec, s3_group(), (0, 0))
    for _ in range(2):
        with pytest.raises(NotTransitiveError):
            transitive_cover(stuck, 2)
    assert counts["cycle_weights"] == 4
    assert stuck._covers == {}


def test_a_lowered_cap_refuses_a_cached_cover_as_a_fresh_build(monkeypatch):
    refusals = []
    for cap in ("20", "100"):  # 27 blocks, and 27 x 6 product states
        system = make_skew_system(SftSpec.full_shift(3), s3_group(), (1, 2, 0))
        cover = transitive_cover(system, 3)
        monkeypatch.setenv("LIVSIC_MAX_STATES", cap)
        fresh = make_skew_system(SftSpec.full_shift(3), s3_group(), (1, 2, 0))
        messages = []
        for candidate in (system, fresh):
            with pytest.raises(RangeTooLarge) as refused:
                transitive_cover(candidate, 3)
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
        assert fresh._covers == {}
        refusals.append(messages[0])
        monkeypatch.delenv("LIVSIC_MAX_STATES")
        # The cap read back admits the held cover again.
        assert transitive_cover(system, 3) is cover
    assert refusals == ["more than 20 admissible words of length 3",
                        "product graph would have 162 vertices"]


def test_held_trees_and_covers_answer_as_fresh_builds_under_every_cap(monkeypatch):
    # A seeded walk over systems, block lengths and caps, through one set
    # of systems that hold what they build.  Every answer or refusal is the
    # one an equal system built afresh gives under the same cap, a shift
    # holds a tree for exactly the block lengths some call built, and a
    # system a cover for exactly those some call returned.
    rng = rng_for(107, 9_000)
    z = build_group(GroupSpec.free_abelian(1))
    parts = [(FULL_2.transitions, s3_group(), (1, 2)),
             (FULL_2.transitions, s3_group(), (0, 0)),
             (SftSpec.full_shift(3).transitions, build_group(GroupSpec.cyclic(2)), (1, 0, 0)),
             (SftSpec.full_shift(3).transitions, z, ((1,), (-1,), (0,))),
             (((1, 1), (1, 0)), z, ((1,), (-2,)))]

    def system_of(rows, group, psi):
        return make_skew_system(SftSpec.from_rows(rows), group, psi)

    def outcome(system, r):
        try:
            cover = transitive_cover(system, r)
        except (RangeTooLarge, NotTransitiveError) as refused:
            return type(refused).__name__, str(refused), getattr(refused, "witness", None)
        return cover.via, cover.wpot, cover.cyc, cover.tree.graph

    systems = [system_of(*part) for part in parts]
    trees, covers = [set() for _ in parts], [set() for _ in parts]
    returned = 0
    for _ in range(300):
        cap = rng.randint(1, 150)
        monkeypatch.setenv("LIVSIC_MAX_STATES", str(cap))
        i, r = rng.randrange(len(parts)), rng.randint(1, 5)
        system, fresh = systems[i], system_of(*parts[i])
        held = system._covers.get(r)
        got = outcome(system, r)
        assert got == outcome(fresh, r), (i, r, cap)
        trees[i].update(fresh.sft._trees)
        if isinstance(got[0], dict):
            returned += 1
            assert held is None or system._covers[r] is held
            assert len(system._covers[r].tree.parent) * len(system._covers[r].via) <= cap
            covers[i].add(r)
        assert set(system.sft._trees) == trees[i] and set(system._covers) == covers[i]
    assert 50 <= returned <= 250, returned


def test_dropping_a_spec_and_its_system_frees_their_trees_and_covers():
    # A tree holds no reference back to its spec, nor a cover to its
    # system, so reference counting frees both with no collection.
    enabled = gc.isenabled()
    gc.disable()
    try:
        spec = SftSpec.full_shift(3)
        system = make_skew_system(spec, build_group(GroupSpec.free_abelian(1)),
                                  ((1,), (-1,), (0,)))
        cocycle = generate_cocycle(system, alpha=(1,), block_range=2, seed=3)
        assert solve_free_abelian(system, cocycle).certificate.certified
        cover = transitive_cover(system, 2)
        assert abelian._closing_walk(system, cover, (3,)) is not None
        assert cover.boxes and cover.tree is block_tree(spec, 2)
        refs = [weakref.ref(cover.tree), weakref.ref(cover)]
        del spec, system, cocycle, cover
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_a_repeated_op_mix_builds_nothing_in_its_second_pass(monkeypatch):
    # Solves, checks, verifications and a refused Z^d solve, whose witness
    # reads a closing-walk box, over the same objects twice: the second
    # pass builds no tree, no cover and no box.
    z2 = make_skew_system(SftSpec.full_shift(3), build_group(GroupSpec.free_abelian(2)),
                          ((1, 0), (0, 1), (-1, -1)))
    s3 = make_skew_system(SftSpec.full_shift(2), s3_group(), (1, 2))
    stuck = make_skew_system(SftSpec.full_shift(2), s3_group(), (0, 0))
    ops = []
    for system, solve in ((z2, solve_free_abelian), (s3, solve_finite_gamma)):
        good = generate_cocycle(system, block_range=2, seed=7)
        values = dict(good.values)
        values[min(values)] += 1
        bad = make_cocycle(system.sft, 2, values)
        ops += [(solve, system, good), (solve, system, bad), (check_transitivity, system)]
    u = random_u(s3, 2, 3, "rotation")
    ops.append((solve_matrix_finite, s3, generate_matrix_cocycle(s3, u, None, block_range=2)))
    ops += [(check_transitivity, stuck), (transitive_cover, stuck, 2)]
    built = {"SpanningTree": 0, "Cover": 0, "_Box": 0}
    for cls in (SpanningTree, skew.Cover, abelian._Box):
        def counting(self, *args, init=cls.__init__, name=cls.__name__):
            built[name] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)

    def run_pass():
        answers = []
        for op, *args in ops:
            try:
                answers.append(repr(op(*args)))
            except (CocycleObstruction, NotTransitiveError) as refused:
                answers.append(repr(refused.witness))
        return answers

    first = run_pass()
    assert all(built.values()), built
    built.update(dict.fromkeys(built, 0))
    assert run_pass() == first
    assert built == {"SpanningTree": 0, "Cover": 0, "_Box": 0}


def test_a_cover_hit_keeps_its_tree_in_the_tree_memo():
    # A cover reads the tree its system's shift holds for r, so one tree
    # per (shift object, r) is in use, whichever system or reader asks.
    system = make_skew_system(SftSpec.full_shift(2), s3_group(), (1, 2))
    cover = transitive_cover(system, 3)
    block_tree(SftSpec.full_shift(3), 2)
    assert transitive_cover(system, 3) is cover
    assert cover.tree is block_tree(system.sft, 3)
    other = make_skew_system(system.sft, build_group(GroupSpec.cyclic(2)), (1, 0))
    assert transitive_cover(other, 3).tree is cover.tree
    assert build_block_graph(system.sft, 3) is cover.tree.graph
