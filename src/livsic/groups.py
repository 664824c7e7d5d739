"""Finite groups by table, permutation closure or cyclic order, plus Z^d.

Finite group elements are indices into a name list; free abelian elements
are integer tuples.  A Group owns all arithmetic, so elements never carry
their group around.
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
    variant: str
    names: tuple[str, ...] = ()
    table: tuple[tuple[int, ...], ...] = ()
    inverses: tuple[int, ...] = ()
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

    def inv(self, a: GroupElement) -> GroupElement:
        if self.is_finite:
            return self.inverses[a]
        return tuple(-x for x in a)

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
    return tuple(p[q[i] - 1] for i in range(len(p)))


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
    queue = [0]
    while queue:
        i = queue.pop(0)
        for g, gname in zip(gens, gen_names):
            p = _compose(elems[i], g)
            if p not in index:
                if len(elems) >= max_order:
                    raise ClosureTooLarge(f"closure exceeds {max_order} elements")
                index[p] = len(elems)
                elems.append(p)
                names.append(gname if i == 0 else names[i] + gname)
                queue.append(len(elems) - 1)
    n = len(elems)
    table = tuple(
        tuple(index[_compose(elems[a], elems[b])] for b in range(n)) for a in range(n)
    )
    inverses = tuple(index[tuple(_inverse_perm(elems[a]))] for a in range(n))
    return Group(
        variant="permutation",
        names=tuple(names),
        table=table,
        inverses=inverses,
        identity_index=0,
    )


def _inverse_perm(p: tuple[int, ...]) -> list[int]:
    inv = [0] * len(p)
    for i, image in enumerate(p):
        inv[image - 1] = i + 1
    return inv


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
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
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


def gauss_jordan(rows, width: int):
    """Fraction-free Gauss-Jordan reduction of integer rows on their first width columns.

    Bareiss's step r <- (p * r - r[col] * q) // prev, on every row r but the
    pivot row q, divides exactly (Math. Comp. 22, 1968); p is the pivot,
    made positive by negating q and its provenance, and prev the one before
    (1 at first).  So every pivot row holds the same pivot value, and each
    reduced row and provenance is that value times its rational row.
    Entries past the first width (a right-hand side, say) are carried along
    but never pivoted on.  Returns (reduced, provenance, pivots): the
    reduced rows, pivot rows first in pivot order and the rest in the order
    the pivot swaps leave them; for each reduced row a dict {original row
    index: int coefficient} whose combination of the input rows it equals;
    and the pivot columns.  A provenance holds at most width + 1 entries.
    """
    mat = [list(row) for row in rows]
    prov = [{i: 1} for i in range(len(mat))]
    pivots: list[int] = []
    prev = 1
    for col in range(width):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prov[rank], prov[pivot] = prov[pivot], prov[rank]
        sign = 1 if mat[rank][col] > 0 else -1
        prow = mat[rank] = [sign * x for x in mat[rank]]
        pprov = prov[rank] = {j: sign * c for j, c in prov[rank].items()}
        p = prow[col]
        for i, (row, combo) in enumerate(zip(mat, prov)):
            if i != rank:
                f = row[col]
                mat[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
                prov[i] = {
                    j: (p * combo.get(j, 0) - f * pprov.get(j, 0)) // prev
                    for j in combo | pprov
                }
        prev = p
        pivots.append(col)
    return mat, prov, tuple(pivots)


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
