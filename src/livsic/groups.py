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


@record
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


def _permutation_closure(spec: GroupSpec, max_order: int) -> Group:
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
                if len(elems) >= max_order:
                    raise ClosureTooLarge(f"closure exceeds {max_order} elements")
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


def build_group(spec: GroupSpec, *, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> Group:
    """Materialize a Group from its spec.

    Raises NotAGroup with a witness when table axioms fail, ClosureTooLarge
    when a permutation closure overruns the cap.
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
        return _permutation_closure(spec, max_order)
    if spec.variant == "cyclic":
        n = spec.order or 0
        if n < 1:
            raise BadShape("cyclic group needs order >= 1")
        if n > max_order:
            raise ClosureTooLarge(f"cyclic order {n} exceeds {max_order}")
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


def gauss_jordan(rows, width: int):
    """Fraction-free Gauss-Jordan reduction of integer rows on their first width columns.

    Each pivot, made positive by negating its row, is a bareiss_pivot, so
    every pivot row holds the same pivot value, and each reduced row is
    that value times its rational row.  Entries past the first width (a
    right-hand side, say) are carried along but never pivoted on.  Returns
    (reduced, order, pivots): the reduced rows, pivot rows first in pivot
    order and the rest in the order the pivot swaps leave them; order[i],
    the input index of reduced row i; and the pivot columns.

    No provenance is tracked; row_combination recovers a reduced row's
    when it is needed.
    """
    mat = [list(row) for row in rows]
    order = list(range(len(mat)))
    pivots: list[int] = []
    prev = 1
    for col in range(width):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        order[rank], order[pivot] = order[pivot], order[rank]
        if mat[rank][col] < 0:
            mat[rank] = [-x for x in mat[rank]]
        prev = bareiss_pivot(mat, rank, col, prev)
        pivots.append(col)
    return mat, order, tuple(pivots)


def row_combination(rows, width: int, order, rank: int, i: int) -> dict[int, int]:
    """Reduced row i of gauss_jordan(rows, width), which returned order and
    rank pivots, as {input row index: int coefficient}, zeros left out.

    A row's reduction reads only its own input and the pivot rows', so the
    pivot rows in the order they were chosen, plus row i when it is not one
    of them, reduced again choose the same pivots and repeat its
    arithmetic.  Identity columns appended to those rows therefore end as
    its combination, of at most rank + 1 input rows.
    """
    chosen = [*order[:rank], *([order[i]] if i >= rank else ())]
    n = len(chosen)
    augmented = [[*rows[j], *(int(s == t) for t in range(n))] for s, j in enumerate(chosen)]
    reduced, _, _ = gauss_jordan(augmented, width)
    tail = reduced[min(i, rank)][-n:]
    return {j: c for j, c in zip(chosen, tail) if c}


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
