"""Group construction, conjugacy data and lattice arithmetic."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from livsic import (
    BadShape,
    ClosureTooLarge,
    GroupSpec,
    NotAGroup,
    build_group,
    smith_diagonal,
    subgroup_rank_and_index,
)
from livsic.groups import _compose, gauss_jordan, row_combination
from livsic.skew import class_tag
from corpus import q8_group, s3_group


def test_cyclic_names_and_arithmetic():
    g = build_group(GroupSpec.cyclic(4))
    assert g.names == ("e", "g", "g^2", "g^3")
    assert g.identity_index == 0
    assert g.mul(1, 3) == 0
    assert g.inverses[1] == 3
    assert g.order == 4


def test_cyclic_rejects_nonpositive_order():
    with pytest.raises(BadShape):
        build_group(GroupSpec.cyclic(0))


def test_permutation_closure_s3():
    g = s3_group()
    assert g.order == 6
    assert g.names[0] == "e"
    assert g.associativity_verified
    # Every generator name appears as an element name.
    assert {"s", "r"} <= set(g.names)


def _class_sizes(g):
    return sorted(len(m) for m in {class_tag(g, a).members for a in range(g.order)})


def _center(g):
    """Central elements are exactly those alone in their conjugacy class."""
    return tuple(a for a in range(g.order) if class_tag(g, a).members == (a,))


def test_s3_conjugacy_classes_and_center():
    g = s3_group()
    assert _class_sizes(g) == [1, 2, 3]
    assert _center(g) == (g.identity_index,)


def test_q8_table_is_a_group():
    g = q8_group()
    assert g.order == 8
    z = _center(g)
    assert sorted(g.name_of(i) for i in z) == ["-1", "1"]
    assert _class_sizes(g) == [1, 1, 2, 2, 2]


def test_table_rejects_broken_rows():
    spec = GroupSpec.finite_table(["e", "a"], [[0, 0], [1, 0]])
    with pytest.raises(NotAGroup) as err:
        build_group(spec)
    assert "permutation" in str(err.value)


def test_table_rejects_missing_identity():
    # Latin square in which no element acts as a two-sided identity.
    table = [[1, 0, 2], [0, 2, 1], [2, 1, 0]]
    spec = GroupSpec.finite_table(["a", "b", "c"], table)
    with pytest.raises(NotAGroup) as err:
        build_group(spec)
    assert "identity" in str(err.value)


def test_table_rejects_nonassociative_square():
    # Order-5 Latin square with identity: forced nonassociative, since the
    # only group of order 5 is cyclic and this is not its table.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    spec = GroupSpec.finite_table(["e", "a", "b", "c", "d"], table)
    with pytest.raises(NotAGroup) as err:
        build_group(spec)
    assert "associativity" in str(err.value)
    assert err.value.witness is not None


def _closure_reference(spec):
    """Names, table and inverses of a permutation closure: breadth-first
    elements as words in the sorted generators, and one composition per
    pair of elements."""
    pairs = sorted(zip(spec.generator_names, spec.generators))
    identity = tuple(range(1, spec.degree + 1))
    elems, names, queue = [identity], ["e"], [0]
    while queue:
        i = queue.pop(0)
        for gname, g in pairs:
            p = _compose(elems[i], g)
            if p not in elems:
                elems.append(p)
                names.append(gname if i == 0 else names[i] + gname)
                queue.append(len(elems) - 1)
    index = {p: i for i, p in enumerate(elems)}
    table = tuple(tuple(index[_compose(a, b)] for b in elems) for a in elems)
    inverses = tuple(index[tuple(sorted(identity, key=lambda i: p[i - 1]))] for p in elems)
    return tuple(names), table, inverses


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.permutation(3, [(2, 1, 3), (2, 3, 1)], names=["s", "r"]),
        GroupSpec.permutation(5, [(2, 1, 3, 4, 5), (2, 3, 4, 5, 1)]),
        # S6 as <(1 4)(2 6), (1 2 3)(4 5)>, its names out of sorted order.
        GroupSpec.permutation(6, [(4, 6, 3, 1, 5, 2), (2, 3, 1, 5, 4, 6)], names=["x", "b"]),
    ],
    ids=["S3", "S5", "degree 6"],
)
def test_permutation_closure_matches_a_table_of_compositions(spec):
    g = build_group(spec)
    assert (g.names, g.table, g.inverses) == _closure_reference(spec)
    assert g.identity_index == 0


def test_cyclic_tables_match_the_formula():
    for n in range(1, 13):
        g = build_group(GroupSpec.cyclic(n))
        assert g.table == tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        assert g.inverses == tuple((-i) % n for i in range(n))


def test_split_and_join_are_inverse():
    for g in (build_group(GroupSpec.cyclic(2)), s3_group()):
        for a in g.elements():
            assert g.split(a) == (a, ())
            assert g.join(*g.split(a)) == a
    rng = random.Random(7)
    for d in (1, 2):
        g = build_group(GroupSpec.free_abelian(d))
        assert g.join(0) == g.identity == (0,) * d
        for _ in range(20):
            z = tuple(rng.randint(-9, 9) for _ in range(d))
            assert g.split(z) == (0, z)
            assert g.join(*g.split(z)) == z


def test_permutation_rejects_bad_generator():
    spec = GroupSpec.permutation(3, [(1, 1, 2)])
    with pytest.raises(NotAGroup):
        build_group(spec)


def test_closure_cap():
    # The symmetric group on 5 points has order 120.
    spec = GroupSpec.permutation(5, [(2, 1, 3, 4, 5), (2, 3, 4, 5, 1)])
    with pytest.raises(ClosureTooLarge):
        build_group(spec, max_order=100)


def test_free_abelian_arithmetic():
    g = build_group(GroupSpec.free_abelian(2))
    assert not g.is_finite
    assert g.order is None
    assert g.identity == (0, 0)
    assert g.mul((1, 2), (3, -1)) == (4, 1)
    assert g.mul((1, -2), (-1, 2)) == g.identity
    assert g.name_of((1, -2)) == "(1,-2)"


def test_smith_diagonal_samples():
    assert smith_diagonal([[2]], 1) == (2,)
    assert smith_diagonal([[1, 0], [0, 1]], 2) == (1, 1)
    assert smith_diagonal([[2, 0], [3, 0], [0, 1]], 2) == (1, 1)
    assert smith_diagonal([[2, 0], [0, 4]], 2) == (2, 4)
    assert smith_diagonal([[4, 6]], 2) == (2,)
    assert smith_diagonal([[0, 0]], 2) == ()


def test_smith_divisibility_chain():
    diag = smith_diagonal([[6, 4, 8], [4, 2, 6], [10, 8, 14]], 3)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


def test_subgroup_report():
    full = subgroup_rank_and_index([(1, 0), (0, 1)], 2)
    assert full.full and full.index == 1 and full.rank == 2

    doubled = subgroup_rank_and_index([(2, 0), (0, 2)], 2)
    assert not doubled.full and doubled.index == 4

    line = subgroup_rank_and_index([(2, 4)], 2)
    assert line.rank == 1 and line.index is None and not line.full


def _dense_solve(rows, d):
    """Gauss-Jordan with a dense identity provenance, kept as a reference."""
    m = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    prov = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    pivots = []
    for col in range(d):
        rank = len(pivots)
        pivot = next((i for i in range(rank, m) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prov[rank], prov[pivot] = prov[pivot], prov[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        prov[rank] = [x * inv for x in prov[rank]]
        for i in range(m):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
                prov[i] = [a - f * b for a, b in zip(prov[i], prov[rank])]
        pivots.append(col)
    return mat, prov, tuple(pivots)


def _random_system(rng, d):
    """Integer rows (lhs of width d, then rhs), often of deficient rank."""
    m = rng.randint(0, 6)
    basis = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(1, d))]
    rows = []
    for _ in range(m):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        lhs = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(d)]
        rows.append((*lhs, rng.randint(-2, 2) if rng.random() < 0.5 else sum(lhs)))
    return rows


def test_gauss_jordan_certifies_both_outcomes():
    rng = random.Random(20251)
    seen = {"consistent": 0, "inconsistent": 0, "empty": 0, "deficient": 0}
    for _ in range(600):
        d = rng.randint(1, 3)
        rows = _random_system(rng, d)
        reduced, order, pivots = gauss_jordan(rows, d)
        assert sorted(order) == list(range(len(rows)))
        # Every reduced row, pivot rows included, is recovered as an integer
        # combination of at most d + 1 input rows from the pivot rows plus
        # itself, and it is the combination its row_combination names.
        combos = [row_combination(rows, d, order, len(pivots), i) for i in range(len(rows))]
        for red, combo in zip(reduced, combos):
            assert all(type(x) is int for x in red)
            assert all(type(c) is int for c in combo.values())
            assert len(combo) <= d + 1
            for j in range(d + 1):
                assert red[j] == sum(c * rows[i][j] for i, c in combo.items())
        # Every pivot row holds one positive pivot value, and each row and
        # its combination is that value times the rational reference, the
        # dense provenance of the row at the same position.
        pivot = reduced[0][pivots[0]] if pivots else 1
        assert pivot > 0
        assert all(reduced[i][col] == pivot for i, col in enumerate(pivots))
        dense_mat, dense_prov, dense_pivots = _dense_solve(rows, d)
        assert pivots == dense_pivots
        assert [[Fraction(x, pivot) for x in red] for red in reduced] == dense_mat
        for combo, dense in zip(combos, dense_prov):
            assert {i: Fraction(c, pivot) for i, c in combo.items()} == {
                i: c for i, c in enumerate(dense) if c
            }
        bad = [i for i in range(len(pivots), len(rows)) if reduced[i][d]]
        if bad:
            seen["inconsistent"] += 1
            combo = combos[bad[0]]
            for j in range(d):
                assert sum(c * rows[i][j] for i, c in combo.items()) == 0
            assert sum(c * rows[i][d] for i, c in combo.items()) != 0
        else:
            seen["consistent"] += 1
            alpha = [Fraction(0)] * d
            for row_i, col in enumerate(pivots):
                alpha[col] = Fraction(reduced[row_i][d], reduced[row_i][col])
            for row in rows:
                assert sum(a * x for a, x in zip(alpha, row)) == row[d]
        seen["empty"] += not rows
        seen["deficient"] += len(pivots) < d
    assert min(seen.values()) > 0, seen
