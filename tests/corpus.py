"""Seeded builders for the randomized test corpus.

Every builder is a pure function of its random source, so a failing seed
reproduces exactly.  Instance seeds are spread with a large prime to keep
them independent across indices.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from livsic import (
    GroupSpec,
    SftSpec,
    build_group,
    build_product_graph,
    check_transitivity,
    make_cocycle,
    make_skew_system,
    orbit_weights,
    psi_n,
)
from livsic.groups import eliminate_rhs, pivot_rows
from livsic.matrix import cyclic_product
from livsic.sft import SpanningTree, build_block_graph, cyclic_numerator

SEED_STRIDE = 100_003


def rng_for(base_seed: int, index: int) -> random.Random:
    return random.Random(base_seed * SEED_STRIDE + index)


def random_irreducible_sft(rng: random.Random, k: int) -> SftSpec:
    """A sparse irreducible transition matrix: a random cycle plus extras.

    The cycle guarantees irreducibility; the extra edges keep the orbit
    counts interesting without blowing up the entropy.
    """
    perm = list(range(1, k + 1))
    rng.shuffle(perm)
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[perm[i] - 1][perm[(i + 1) % k] - 1] = 1
    for _ in range(rng.randint(1, k)):
        rows[rng.randrange(k)][rng.randrange(k)] = 1
    return SftSpec.from_rows(rows)


def s3_group():
    return build_group(
        GroupSpec.permutation(3, [(2, 1, 3), (2, 3, 1)], names=["s", "r"])
    )


def s5_group():
    return build_group(GroupSpec.permutation(5, [(2, 1, 3, 4, 5), (2, 3, 4, 5, 1)]))


def relabelled_group(group, order):
    """The same group as a Cayley table that lists its elements in `order`
    (old indices), so its identity can sit at any index."""
    position = {old: new for new, old in enumerate(order)}
    names = [group.names[old] for old in order]
    table = [[position[group.table[a][b]] for b in order] for a in order]
    return build_group(GroupSpec.finite_table(names, table))


def cover_groups():
    """C2, C4, S3, S5 and S3 relabelled so that its identity is element 3."""
    s3 = s3_group()
    return {
        "C2": build_group(GroupSpec.cyclic(2)),
        "C4": build_group(GroupSpec.cyclic(4)),
        "S3": s3,
        "S5": s5_group(),
        "S3 relabelled": relabelled_group(s3, (4, 2, 5, 0, 1, 3)),
    }


def cover_corpus(base_seed: int, instances: int = 4):
    """(label, system) pairs over every group of cover_groups and the full
    2-shift, the full 3-shift and sparse shifts, alternately transitive and
    not.

    Transitivity is read from the strong connectivity of the product graph
    over 1-blocks; a sparse shift is redrawn with psi when psi alone cannot
    give the wanted answer.
    """
    index = 0
    for gname, group in cover_groups().items():
        for shape in ("full2", "full3", "sparse"):
            for i in range(instances):
                rng = rng_for(base_seed, index)
                index += 1
                transitive = i % 2 == 0
                for _ in range(500):
                    if shape == "sparse":
                        spec = random_irreducible_sft(rng, rng.randint(3, 4))
                    else:
                        spec = SftSpec.full_shift(int(shape[-1]))
                    psi = [rng.randrange(group.order) for _ in range(spec.k)]
                    system = make_skew_system(spec, group, psi)
                    tree = SpanningTree(build_product_graph(system, 1))
                    if tree.strongly_connected == transitive:
                        break
                else:
                    raise AssertionError(f"no {gname} {shape} system found")
                yield f"{gname} {shape} #{i}", system


def q8_group():
    """Quaternion units as an explicit Cayley table."""
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul(a: str, b: str) -> str:
        sign = -1 if (a.startswith("-") != b.startswith("-")) else 1
        x, y = a.lstrip("-"), b.lstrip("-")
        basic = {
            ("1", "1"): (1, "1"),
            ("i", "i"): (-1, "1"),
            ("j", "j"): (-1, "1"),
            ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"),
            ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"),
            ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"),
            ("i", "k"): (-1, "j"),
        }
        if x == "1":
            s, z = 1, y
        elif y == "1":
            s, z = 1, x
        else:
            s, z = basic[(x, y)]
        sign *= s
        return z if sign > 0 else "-" + z

    table = [[units.index(mul(a, b)) for b in units] for a in units]
    return build_group(GroupSpec.finite_table(units, table))


def random_finite_group(rng: random.Random):
    kind = rng.choice(["cyclic", "s3", "q8"])
    if kind == "cyclic":
        return build_group(GroupSpec.cyclic(rng.randint(2, 8)))
    if kind == "s3":
        return s3_group()
    return q8_group()


def random_transitive_system(rng: random.Random, k_range=(2, 5), group=None):
    """Finite-group skew product, resampled until the extension is transitive.

    A fixed group can be supplied; otherwise one is drawn per attempt.
    """
    for _ in range(500):
        k = rng.randint(*k_range)
        spec = random_irreducible_sft(rng, k)
        chosen = random_finite_group(rng) if group is None else group
        psi = [rng.randrange(chosen.order) for _ in range(k)]
        system = make_skew_system(spec, chosen, psi)
        if check_transitivity(system).status == "transitive":
            return system
    raise AssertionError("could not draw a transitive system")


def random_lattice_system(rng: random.Random, d: int, k_range=(2, 5)):
    k = rng.randint(*k_range)
    spec = random_irreducible_sft(rng, k)
    group = build_group(GroupSpec.free_abelian(d))
    psi = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
    return make_skew_system(spec, group, psi)


def cyclic_weight(system, word):
    """psi_n of a word, which must be cyclically admissible."""
    assert system.sft.is_admissible(word, cyclic=True), word
    return psi_n(system, word)


def orbit_sum(cocycle, word):
    """A cocycle around a word, which must be cyclically admissible: the
    sum (or ordered product) over one period."""
    assert cocycle.sft.is_admissible(word, cyclic=True), word
    if cocycle.kind == "matrix":
        return cyclic_product(cocycle, word)
    return Fraction(cyclic_numerator(cocycle, word), cocycle.denominator)


def product_scc_witness(tree: SpanningTree):
    """None if the tree's graph, a product graph, is strongly connected,
    otherwise the first ordered pair of product vertices (as labels) with
    no connecting path."""
    gap = tree.unreachable_pair()
    return None if gap is None else tuple(map(tree.graph.vertex_label, gap))


def random_rotation(rng) -> np.ndarray:
    angle = 2.0 * math.pi * rng.random()
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def random_unipotent(rng) -> np.ndarray:
    mat = np.eye(3)
    mat[0, 1] = rng.randint(-3, 3)
    mat[0, 2] = rng.randint(-3, 3)
    mat[1, 2] = rng.randint(-3, 3)
    return mat


def random_u(system, block_range: int, seed: int, family: str) -> dict:
    """One matrix per block of length block_range, in block order, drawn
    from random.Random(seed) in the named family ("rotation": SO(2);
    "unipotent": upper unitriangular 3x3): the u of
    generate_matrix_cocycle for a seeded matrix cocycle."""
    draw = {"rotation": random_rotation, "unipotent": random_unipotent}[family]
    rng = random.Random(seed)
    return {block: draw(rng) for block in build_block_graph(system.sft, block_range).vertices}


def trivial_orbit_words(system, max_period: int) -> list:
    """The words of the primitive orbits of period <= max_period whose
    weight is the identity, in (period, word) order."""
    identity = system.group.identity
    return [word for word, weight in orbit_weights(system, max_period) if weight == identity]


def closed_walks_nonnegative(system, lam) -> bool:
    """Whether lam . psi is >= 0 around every closed walk of the symbol
    graph: Bellman-Ford from every symbol at once, edge a -> b weighted
    lam . psi(a), settles within k rounds iff no cycle is negative."""
    spec = system.sft
    cost = [sum(l * x for l, x in zip(lam, z)) for z in system.psi_z]
    dist = [0] * spec.k
    for _ in range(spec.k):
        changed = False
        for a in range(1, spec.k + 1):
            for b in spec.successors(a):
                if dist[a - 1] + cost[a - 1] < dist[b - 1]:
                    dist[b - 1] = dist[a - 1] + cost[a - 1]
                    changed = True
        if not changed:
            return True
    return False


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_alpha(rng: random.Random, d: int) -> tuple[Fraction, ...]:
    return tuple(random_rational(rng) for _ in range(d))


def perturb_one_value(cocycle, rng: random.Random):
    """Shift a single cocycle value by a nonzero rational.

    Returns (perturbed cocycle, word, delta); the word is drawn at random
    but deterministically from rng.
    """
    word = rng.choice(sorted(cocycle.values))
    delta = Fraction(0)
    while delta == 0:
        delta = random_rational(rng)
    values = dict(cocycle.values)
    values[word] += delta
    return make_cocycle(cocycle.sft, cocycle.block_range, values), word, delta


def dense_solve(rows, d):
    """Rational Gauss-Jordan on d columns with a dense identity provenance,
    the reference for check_elimination: (rows, provenances, pivot columns,
    order), rows and provenances in the swapped order, order[i] the input
    index of row i."""
    m = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    prov = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    order = list(range(m))
    pivots = []
    for col in range(d):
        rank = len(pivots)
        pivot = next((i for i in range(rank, m) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prov[rank], prov[pivot] = prov[pivot], prov[rank]
        order[rank], order[pivot] = order[pivot], order[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        prov[rank] = [x * inv for x in prov[rank]]
        for i in range(m):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
                prov[i] = [a - f * b for a, b in zip(prov[i], prov[rank])]
        pivots.append(col)
    return mat, prov, tuple(pivots), order


def check_elimination(rows, d):
    """Assert that groups.pivot_rows and then groups.eliminate_rhs, on the
    columns of rows, are the fraction-free form of dense_solve's
    reduction, and return (rank, consistent, swapped).

    Its outputs are ints; every pivot row holds the same positive pivot p
    and is p times the dense row at its position, and its coefficients p
    times that row's dense provenance.  The first position
    after the pivot rows with a nonzero dense defect is the inconsistent
    row: its combination is p times the dense provenance, of <= d + 1
    input rows, zero on the d columns and not on the defect.  With none,
    the alpha the pivot rows give solves every row.
    """
    columns = list(zip(*rows)) or [()] * (d + 1)
    half = pivot_rows(columns[:d], len(columns[d]))
    reduced, pivots, combo = eliminate_rhs(half, columns[:d], columns[d])
    dense_mat, dense_prov, dense_pivots, order = dense_solve(rows, d)
    rank = len(pivots)
    assert pivots == dense_pivots, rows
    assert all(type(x) is int for row in reduced for x in row), rows
    pivot = reduced[0][pivots[0]] if pivots else 1
    assert pivot > 0 and all(reduced[i][col] == pivot for i, col in enumerate(pivots)), rows
    assert [[Fraction(x, pivot) for x in row[: d + 1]] for row in reduced] == dense_mat[:rank]
    for row, dense in zip(reduced, dense_prov):
        assert {order[s]: Fraction(c, pivot) for s, c in enumerate(row[d + 1 :]) if c} == {
            i: c for i, c in enumerate(dense) if c
        }, rows
    bad = next((i for i in range(rank, len(rows)) if dense_mat[i][d]), None)
    if bad is None:
        assert combo is None, rows
        alpha = [Fraction(0)] * d
        for row, col in zip(reduced, pivots):
            alpha[col] = Fraction(row[d], pivot)
        for row in rows:
            assert sum(a * x for a, x in zip(alpha, row)) == row[d], rows
    else:
        assert all(type(c) is int for c in combo.values()), rows
        assert {i: Fraction(c, pivot) for i, c in combo.items()} == {
            i: c for i, c in enumerate(dense_prov[bad]) if c
        }, rows
        assert len(combo) <= d + 1, rows
        for j in range(d):
            assert sum(c * rows[i][j] for i, c in combo.items()) == 0, rows
        assert sum(c * rows[i][d] for i, c in combo.items()) != 0, rows
    return rank, bad is None, order != sorted(order)
