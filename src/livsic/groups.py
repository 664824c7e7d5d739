"""Finite groups by table, permutation closure or cyclic order, plus Z^d.

Finite group elements are indices into a name list; free abelian elements
are integer tuples.  A Group owns all arithmetic, so elements never carry
their group around.

A Group is the record of a deck group F x Z^d: table and inverses are the
finite factor F, rank is d.  A finite group has d = 0; Z^d has the
one-element F, the default table ((0,),).  Only this module knows the
encodings: other code reads an element's two factors with Group.split
and builds an element from them with Group.join.
"""
from __future__ import annotations

from itertools import repeat
from operator import mul, sub

from .errors import (
    BadShape,
    ClosureTooLarge,
    InfiniteGroup,
    NotAGroup,
    ASSOCIATIVITY_CHECK_LIMIT,
    DEFAULT_MAX_GROUP_ORDER,
)
from .record import record

GroupElement = int | tuple[int, ...]


@record
class GroupSpec:
    """Declarative description of a group, as it appears in system documents."""

    variant: str
    names: tuple[str, ...] | None = None
    table: tuple[tuple[int, ...], ...] | None = None
    degree: int | None = None
    generators: tuple[tuple[int, ...], ...] | None = None
    generator_names: tuple[str, ...] | None = None
    order: int | None = None
    rank: int | None = None

    @classmethod
    def finite_table(cls, names, table) -> "GroupSpec":
        return cls(
            variant="finite_table",
            names=tuple(names),
            table=tuple(tuple(row) for row in table),
        )

    @classmethod
    def permutation(cls, degree, generators, names=None) -> "GroupSpec":
        gens = tuple(tuple(g) for g in generators)
        if names is None:
            names = tuple(chr(ord("a") + i) for i in range(len(gens)))
        return cls(
            variant="permutation",
            degree=degree,
            generators=gens,
            generator_names=tuple(names),
        )

    @classmethod
    def cyclic(cls, order: int) -> "GroupSpec":
        return cls(variant="cyclic", order=order)

    @classmethod
    def free_abelian(cls, rank: int) -> "GroupSpec":
        return cls(variant="free_abelian", rank=rank)


@record(weak=True)
class Group:
    """F x Z^d: F by its Cayley table, inverses and identity index, d by
    rank.  Elements are F indices over a finite group and Z^d vectors
    over Z^d; the cover code reads the factors, not the encodings."""

    variant: str
    names: tuple[str, ...] = ()
    table: tuple[tuple[int, ...], ...] = ((0,),)
    inverses: tuple[int, ...] = (0,)
    identity_index: int = 0
    rank: int = 0
    associativity_verified: bool = True

    @property
    def is_finite(self) -> bool:
        return self.variant != "free_abelian"

    @property
    def order(self) -> int | None:
        return len(self.names) if self.is_finite else None

    @property
    def identity(self) -> GroupElement:
        if self.is_finite:
            return self.identity_index
        return (0,) * self.rank

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        if self.is_finite:
            return self.table[a][b]
        return tuple(x + y for x, y in zip(a, b))

    def split(self, a: GroupElement) -> tuple[int, tuple[int, ...]]:
        """The factors of a: its F index and its Z^d vector."""
        return (a, ()) if self.is_finite else (0, a)

    def join(self, f: int, z: tuple[int, ...] = ()) -> GroupElement:
        """The element with F index f and Z^d vector z; over Z^d an empty z
        is the zero vector."""
        if self.is_finite:
            return f
        return tuple(z) or (0,) * self.rank

    def elements(self):
        if not self.is_finite:
            raise InfiniteGroup("free abelian groups cannot be enumerated")
        return range(len(self.names))

    def name_of(self, a: GroupElement) -> str:
        if self.is_finite:
            return self.names[a]
        return "(" + ",".join(str(x) for x in a) + ")"

    def element_by_name(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise BadShape(f"unknown group element {name!r}") from None


def _check_table(names, table) -> tuple[int, tuple[int, ...], bool]:
    """Validate a Cayley table; returns (identity, inverses, associativity_verified)."""
    n = len(names)
    if len(set(names)) != n:
        raise NotAGroup("element names are not distinct")
    if len(table) != n or any(len(row) != n for row in table):
        raise NotAGroup(f"table must be {n}x{n}")
    full = set(range(n))
    for i, row in enumerate(table):
        if set(row) != full:
            raise NotAGroup("row is not a permutation", witness=names[i])
    for j in range(n):
        if {table[i][j] for i in range(n)} != full:
            raise NotAGroup("column is not a permutation", witness=names[j])
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    inverses = [None] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                inverses[a] = b
                break
        if inverses[a] is None:
            raise NotAGroup("no inverse", witness=names[a])
    verified = n <= ASSOCIATIVITY_CHECK_LIMIT
    if verified:
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                row_b = table[b]
                row_ab = table[ab]
                for c in range(n):
                    if row_ab[c] != table[a][row_b[c]]:
                        raise NotAGroup(
                            "associativity fails",
                            witness=(names[a], names[b], names[c]),
                        )
    return identity, tuple(inverses), verified


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p * q)(i) = p(q(i)), images 1-based
    return tuple([p[x - 1] for x in q])


def _permutation_closure(spec: GroupSpec) -> Group:
    degree = spec.degree
    if degree is None or degree < 1:
        raise BadShape("permutation group needs a positive degree")
    gens = list(spec.generators or ())
    gen_names = list(spec.generator_names or ())
    for g in gens:
        if sorted(g) != list(range(1, degree + 1)):
            raise NotAGroup("generator is not a permutation", witness=g)
    order = sorted(range(len(gens)), key=lambda i: gen_names[i])
    gens = [gens[i] for i in order]
    gen_names = [gen_names[i] for i in order]

    identity = tuple(range(1, degree + 1))
    elems: list[tuple[int, ...]] = [identity]
    names: list[str] = ["e"]
    index = {identity: 0}
    parent: list[tuple[int, int]] = [(0, 0)]  # elems[j] = elems[i] * gens[g]
    for i, p in enumerate(elems):
        for gi, (g, gname) in enumerate(zip(gens, gen_names)):
            q = _compose(p, g)
            if q not in index:
                if len(elems) >= DEFAULT_MAX_GROUP_ORDER:
                    raise ClosureTooLarge(f"closure exceeds {DEFAULT_MAX_GROUP_ORDER} elements")
                index[q] = len(elems)
                elems.append(q)
                names.append(gname if i == 0 else names[i] + gname)
                parent.append((i, gi))
    # Row a = elems[i] * g of the table is row i read through b -> g * b.
    left = [tuple(index[_compose(g, b)] for b in elems) for g in gens]
    rows = [tuple(range(len(elems)))]
    for i, gi in parent[1:]:
        rows.append(tuple(map(rows[i].__getitem__, left[gi])))
    return Group(
        variant="permutation",
        names=tuple(names),
        table=tuple(rows),
        inverses=tuple(row.index(0) for row in rows),
        identity_index=0,
    )


def build_group(spec: GroupSpec) -> Group:
    """Materialize a Group from its spec.

    Raises NotAGroup with a witness when table axioms fail, ClosureTooLarge
    when a permutation closure or a cyclic order passes
    DEFAULT_MAX_GROUP_ORDER.
    """
    if spec.variant == "finite_table":
        identity, inverses, verified = _check_table(spec.names, spec.table)
        return Group(
            variant="finite_table",
            names=tuple(spec.names),
            table=tuple(tuple(row) for row in spec.table),
            inverses=inverses,
            identity_index=identity,
            associativity_verified=verified,
        )
    if spec.variant == "permutation":
        return _permutation_closure(spec)
    if spec.variant == "cyclic":
        n = spec.order or 0
        if n < 1:
            raise BadShape("cyclic group needs order >= 1")
        if n > DEFAULT_MAX_GROUP_ORDER:
            raise ClosureTooLarge(f"cyclic order {n} exceeds {DEFAULT_MAX_GROUP_ORDER}")
        names = tuple("e" if i == 0 else "g" if i == 1 else f"g^{i}" for i in range(n))
        twice = tuple(range(n)) * 2
        table = tuple(twice[i : i + n] for i in range(n))
        inverses = tuple((-i) % n for i in range(n))
        return Group(
            variant="cyclic",
            names=names,
            table=table,
            inverses=inverses,
            identity_index=0,
        )
    if spec.variant == "free_abelian":
        d = spec.rank or 0
        if d < 1:
            raise BadShape("free abelian group needs rank >= 1")
        return Group(variant="free_abelian", rank=d)
    raise BadShape(f"unknown group variant {spec.variant!r}")


@record
class SubgroupReport:
    """Shape of the subgroup of Z^d generated by a family of integer vectors."""

    ambient_rank: int
    rank: int
    diagonal: tuple[int, ...]
    full: bool
    index: int | None


def smith_diagonal(rows, width: int) -> tuple[int, ...]:
    """Nonzero elementary divisors of an integer matrix, d1 | d2 | ...

    Textbook Smith reduction: repeatedly move a least-magnitude pivot to the
    corner, clear its row and column by euclidean steps, then enforce the
    divisibility condition by folding an offending row into the pivot row.
    Everything is exact over Python ints.
    """
    a = [list(int(x) for x in row) for row in rows]
    for row in a:
        if len(row) != width:
            raise BadShape(f"expected vectors of length {width}")
    m = len(a)
    t = 0
    divisors: list[int] = []
    while t < m and t < width:
        best = None
        for i in range(t, m):
            for j in range(t, width):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        p = a[t][t]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // p
                for j in range(t, width):
                    a[i][j] -= q * a[t][j]
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, width):
            if a[t][j]:
                q = a[t][j] // p
                for i in range(t, m):
                    a[i][j] -= q * a[i][t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, m):
            if any(a[i][j] % p for j in range(t + 1, width)):
                offender = i
                break
        if offender is not None:
            for j in range(t, width):
                a[t][j] += a[offender][j]
            continue
        divisors.append(abs(p))
        t += 1
    return tuple(divisors)


def bareiss_pivot(mat, r: int, col: int, prev: int) -> int:
    """Pivot the integer rows mat in place on mat[r][col] > 0, and return it.

    Bareiss's step row <- (p * row - row[col] * q) // prev, on every row
    but the pivot row q, divides exactly (Math. Comp. 22, 1968); p is the
    pivot and prev the one before (1 at first).  So every row is p times
    its rational Gauss-Jordan row, and the pivot row is left as it is.
    """
    q = mat[r]
    p = q[col]
    for i, row in enumerate(mat):
        if i != r:
            f = row[col]
            mat[i] = [(p * a - f * b) // prev for a, b in zip(row, q)]
    return p


def pivot_rows(columns, n: int):
    """Fraction-free Gauss-Jordan on d integer columns of n rows each,
    reducing only the pivot rows: (pivot rows, pivot columns, the swapped
    order of the rows, the common pivot p).

    For each column it takes the first row, at or after position rank in
    the swapped order, whose live entry p * row[col] - sum of row[c] *
    P_c[col] is nonzero (P_c the pivot row of column c): reduced so and
    made positive, it joins the <= d pivot rows in one bareiss_pivot, and
    each is p times its rational row.  Each pivot row holds its d reduced
    entries and then its coefficient per row taken, as a tuple.  Every
    Bareiss step is linear in the rows, so a pivot row is its
    coefficients' combination of the rows taken, order[:rank], in every
    column: on a right-hand side too, which eliminate_rhs adds without
    another pivot.
    """
    order = list(range(n))
    mat, pivots, p = [], [], 1
    for col in range(len(columns)):
        rank = len(pivots)
        live = [p * x for x in columns[col]]
        for c, q in zip(pivots, mat):
            live = list(map(sub, live, map(mul, columns[c], repeat(q[col]))))
        i = next((i for i in range(rank, n) if live[order[i]]), None)
        if i is None:
            continue
        order[rank], order[i] = order[i], order[rank]
        for q in mat:
            q.append(0)
        row = [*(column[order[rank]] for column in columns), *[0] * rank, 1]
        new = [p * x for x in row]
        for c, q in zip(pivots, mat):
            new = [a - row[c] * b for a, b in zip(new, q)]
        mat.append(new if new[col] > 0 else [-x for x in new])
        p = bareiss_pivot(mat, rank, col, p)
        pivots.append(col)
    return tuple(map(tuple, mat)), tuple(pivots), tuple(order), p


def eliminate_rhs(half, columns, rhs):
    """The elimination of the rows (columns, rhs) from pivot_rows' half
    on columns, with no pivot: (pivot rows, pivot columns, None or the
    combination of the first inconsistent row).

    Each pivot row's right-hand side, put after its d entries, is its
    coefficients' combination of rhs over the rows taken.  A row in their
    span reduces to zero, so the live right-hand side p * rhs - sum of
    column c times P_c's is zero on the rows taken, and the first row
    after them, in the swapped order, where it is not is the inconsistent
    row.  Reduced by the pivot rows, it returns as {input row: int
    coefficient}, zeros left out.
    """
    mat, pivots, order, p = half
    d, rank = len(columns), len(pivots)
    taken = order[:rank]
    tops = [sum(map(mul, row[d:], map(rhs.__getitem__, taken))) for row in mat]
    rows = [[*row[:d], top, *row[d:]] for row, top in zip(mat, tops)]

    def live():
        entries = map(mul, rhs, repeat(p))
        for c, top in zip(pivots, tops):
            entries = map(sub, entries, map(mul, columns[c], repeat(top)))
        return entries

    if not any(live()):
        return rows, pivots, None
    entries = list(live())
    j = next(j for j in order[rank:] if entries[j])
    for q in rows:
        q.append(0)
    row = [*(column[j] for column in columns), rhs[j], *[0] * rank, 1]
    new = [p * x for x in row]
    for c, q in zip(pivots, rows):
        new = [a - row[c] * b for a, b in zip(new, q)]
    return rows, pivots, {i: x for i, x in zip((*taken, j), new[d + 1 :]) if x}


def subgroup_rank_and_index(vectors, ambient_rank: int) -> SubgroupReport:
    """Rank, elementary divisors and fullness of the generated subgroup of Z^d."""
    diagonal = smith_diagonal(list(vectors), ambient_rank)
    rank = len(diagonal)
    if rank == ambient_rank:
        index = 1
        for d in diagonal:
            index *= d
    else:
        index = None
    return SubgroupReport(
        ambient_rank=ambient_rank,
        rank=rank,
        diagonal=diagonal,
        full=index == 1,
        index=index,
    )
