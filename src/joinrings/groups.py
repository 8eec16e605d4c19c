"""Finite groups by abelian invariants or explicit Cayley tables.

Elements are indices 0..n-1 with the identity fixed at index 0 (the first
row/column encoding of circulant matrices depends on this convention).
Every table is checked when built, at every order and by every
constructor: each row permutes the indices, 0 is an identity, and Light's
test checks (x s) y = x (s y) for the generators s only.  The s that pass
hold 0 and are closed under the product, and the generators reach every
element from 0, so they cover the table; and an associative table with an
identity and bijective rows gives each element a right inverse, so it is
a group.  The generators, subgroups, normality and commutativity all come
from one closure, :meth:`FiniteGroup._closure`.
Groups are immutable once built, so the named constructors keep what they
build and return the same object for the same group (:func:`abelian`,
:func:`dihedral` and :func:`dicyclic` keep their 64 most recent);
:func:`from_table` and ``table:`` specs build a new group on every call.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache, cached_property, lru_cache, reduce
from math import factorial, lcm, prod

from .errors import AlgebraError, NotNormalError, NotSubgroupError, ParseError, parse_int
from .ntheory import factorize, is_prime, power

ORDER_CAP = 256


def _check_order(n: int) -> None:
    """Refuse an empty group, and one beyond ORDER_CAP before its n x n table is built."""
    if n < 1:
        raise AlgebraError("a group has at least its identity; the Cayley table has no rows")
    if n > ORDER_CAP:
        raise AlgebraError(f"group order {n} exceeds cap {ORDER_CAP}")


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Prefer the constructors :func:`cyclic`, :func:`abelian`,
    :func:`from_table`, :func:`symmetric`, :func:`quaternion`,
    :func:`dihedral`, :func:`dicyclic`.
    """

    def __init__(self, table, invariants=None, name=None):
        _check_order(len(table))
        self.table = tuple(tuple(row) for row in table)
        self._hash = hash(self.table)  # groups are equal by table; hash it once
        self.order = len(self.table)
        self.invariants = tuple(invariants) if invariants else None
        self.name = name or (
            "x".join(f"C{m}" for m in self.invariants) if self.invariants else f"G{self.order}"
        )
        self._validate()
        self.inverse = tuple(row.index(0) for row in self.table)
        self.element_orders = tuple(self._element_order(a) for a in range(self.order))
        self._power_maps: list[tuple[int, ...] | None] = [None] * self.exponent()

    # -- construction-time checks -------------------------------------------

    def _validate(self) -> None:
        """Rows that permute the indices, 0 an identity, and Light's test."""
        n, t = self.order, self.table
        indices = list(range(n))
        for i, row in enumerate(t):
            if {*map(type, row)} != {int} or sorted(row) != indices:  # 1.0, True sort as 1
                raise AlgebraError(f"row {i} of Cayley table is not a permutation of 0..{n - 1}")
        if list(t[0]) != indices or [row[0] for row in t] != indices:
            raise AlgebraError("index 0 is not an identity of the Cayley table")
        for s in self.generators:
            for x, row in enumerate(t):
                if t[row[s]] != tuple(map(row.__getitem__, t[s])):
                    raise AlgebraError(f"associativity fails: (x s) y != x (s y) for x = {x}, "
                                       f"s = {s} and some y")

    def _closure(self, gens) -> set[int]:
        """The elements reached from 0 by right multiplication by `gens`:
        in a group, the subgroup that they generate."""
        gens = list(gens)
        if any(type(a) is not int or not 0 <= a < self.order for a in gens):
            raise NotSubgroupError(f"{gens} holds a value that is no int in 0..{self.order - 1}")
        t, reached, todo = self.table, {0}, [0]
        for x in todo:  # todo grows while it is walked
            for s in gens:
                if (y := t[x][s]) not in reached:
                    reached.add(y)
                    todo.append(y)
        return reached

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Each the least element outside the subgroup that the earlier ones
        generate.  Each at least doubles that subgroup, so a table that needs
        more than log2 |G| of them is no group."""
        gens, reached = [], {0}
        for a in range(self.order):
            if a not in reached:
                gens.append(a)
                if 1 << len(gens) > self.order:
                    raise AlgebraError(f"Cayley table needs more than log2({self.order}) "
                                       "generators, so it is no group")
                reached = self._closure(gens)
        return tuple(gens)

    def _element_order(self, a: int) -> int:
        t, x = 1, a
        while x != 0:
            x = self.table[x][a]
            t += 1
        return t

    # -- basic operations -----------------------------------------------------

    @property
    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise."""
        t, gens = self.table, self.generators
        return all(t[a][b] == t[b][a] for a in gens for b in gens)

    def exponent(self) -> int:
        """lcm of the element orders; divides |G|."""
        return reduce(lcm, self.element_orders, 1)

    def power_map(self, k: int) -> tuple[int, ...]:
        """(h^k for every h), k >= 0, by square and multiply on the table:
        the one place that computes a power map.  h^k = h^(k mod exp G), so
        each map is built once, on the first call for its k mod exp G."""
        maps = self._power_maps
        k %= len(maps)
        if maps[k] is None:
            t = self.table
            maps[k] = power(tuple(range(self.order)), k,
                            lambda x, y: tuple([t[a][b] for a, b in zip(x, y)]),
                            (0,) * self.order)
        return maps[k]

    def order_counts(self) -> dict[int, int]:
        """Mapping d -> number of elements of order d."""
        return dict(Counter(self.element_orders))

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """The conjugacy classes, each sorted, in the order of their least
        member (so the identity's class comes first).  Built once."""
        t, inv = self.table, self.inverse
        seen: set[int] = set()
        classes = []
        for g in range(self.order):
            if g not in seen:
                c = {t[t[x][g]][inv[x]] for x in range(self.order)}
                seen |= c
                classes.append(tuple(sorted(c)))
        return tuple(classes)

    def is_p_group(self, p: int) -> bool:
        if not is_prime(p):
            raise AlgebraError(f"{p} is not prime")
        return set(factorize(self.order)) <= {p}

    # -- subgroups and quotients ----------------------------------------------

    def subgroup(self, elements) -> "Subgroup":
        return Subgroup(self, elements)

    def subgroup_generated(self, generators) -> "Subgroup":
        return Subgroup(self, self._closure(generators))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FiniteGroup)
            and self._hash == other._hash
            and self.table == other.table
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<{self.name}: order {self.order}>"


class Subgroup:
    """A validated subgroup, stored as a sorted element-index tuple."""

    def __init__(self, parent: FiniteGroup, elements):
        self.parent = parent
        try:
            elements = list(elements)
        except TypeError:
            raise NotSubgroupError(f"subgroup elements must be an iterable of ints, "
                                   f"got {type(elements).__name__}") from None
        reached = parent._closure(elements)  # refuses a non-index before the set and the sort
        self._eset = set(elements)
        closed = reached == self._eset
        self.elements = tuple(sorted(self._eset))
        self.order = len(self.elements)
        # the closure holds 0 and H, and no more iff H is closed under the product
        if not closed:
            raise NotSubgroupError(f"{self} is not closed under the product of {parent}")
        self.is_normal = self._check_normal()

    def _check_normal(self) -> bool:
        """g H g^-1 within H for the generators g of the parent, hence for all g."""
        t, inv = self.parent.table, self.parent.inverse
        return all(
            t[t[g][h]][inv[g]] in self._eset
            for g in self.parent.generators
            for h in self.elements
        )

    @cached_property
    def quotient(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """parent/H with the projection element -> coset index, built once.

        Cosets are ordered by their least member, so the identity coset is
        index 0.
        """
        if not self.is_normal:
            raise NotNormalError("cannot form quotient by a non-normal subgroup")
        table = self.parent.table
        seen: dict[int, int] = {}
        cosets: list[tuple[int, ...]] = []
        for g in range(self.parent.order):
            if g in seen:
                continue
            coset = sorted(table[g][h] for h in self.elements)
            idx = len(cosets)
            cosets.append(tuple(coset))
            for x in coset:
                seen[x] = idx
        proj = tuple(seen[g] for g in range(self.parent.order))
        k = len(cosets)
        qtable = [
            [proj[table[cosets[i][0]][cosets[j][0]]] for j in range(k)]
            for i in range(k)
        ]
        name = f"{self.parent.name}/{self}"
        return FiniteGroup(qtable, name=name), proj

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.parent, self.elements))

    def __repr__(self):
        return f"H{list(self.elements)}"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

@cache
def trivial() -> FiniteGroup:
    return FiniteGroup(((0,),), invariants=(1,), name="trivial")


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise AlgebraError(f"cyclic group order must be >= 1, got {n}")
    return abelian((n,))


def abelian(invariants) -> FiniteGroup:
    """Direct product of cyclic groups Z/n1 x ... x Z/nk.

    Elements are mixed-radix tuples, the first invariant the least
    significant digit; (0,...,0) is index 0.  Invariants equal after
    dropping the 1s give the same object while it is among the 64 most
    recently built.
    """
    invariants = tuple(int(m) for m in invariants)
    if not invariants or any(m < 1 for m in invariants):
        raise AlgebraError(f"invariants must be positive integers, got {invariants}")
    return _abelian(tuple(m for m in invariants if m > 1) or (1,))


@lru_cache(maxsize=64)
def _abelian(invariants: tuple[int, ...]) -> FiniteGroup:
    _check_order(prod(invariants))
    table, stride = [[0]], 1
    for m in invariants:  # each invariant adds a more significant digit
        table = [[x + stride * ((c + d) % m) for d in range(m) for x in row]
                 for c in range(m) for row in table]
        stride *= m
    return FiniteGroup(table, invariants=invariants)


def from_table(table) -> FiniteGroup:
    """Build and fully validate a group from an explicit Cayley table."""
    return FiniteGroup(table)


@cache
def symmetric(n: int) -> FiniteGroup:
    """The symmetric group S_n (n <= 5 keeps the order under the cap)."""
    # n! >= n, so testing n first only spares computing a huge factorial
    if n > ORDER_CAP or factorial(n) > ORDER_CAP:
        raise AlgebraError(f"S{n} has order {n}!, which exceeds cap {ORDER_CAP}")
    perms = list(itertools.permutations(range(n)))  # identity comes first
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(a[b[i]] for i in range(n))] for b in perms]
        for a in perms
    ]
    return FiniteGroup(table, name=f"S{n}")


@cache
def quaternion() -> FiniteGroup:
    """The quaternion group Q_8 = {1, -1, i, -i, j, -j, k, -k}."""
    # element = (sign in {0,1}, basis in {1, i, j, k})
    basis_mul = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
        (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
        (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
    }
    elems = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for s1, b1 in elems:
        row = []
        for s2, b2 in elems:
            s3, b3 = basis_mul[(b1, b2)]
            row.append(index[((s1 + s2 + s3) % 2, b3)])
        table.append(row)
    return FiniteGroup(table, name="Q8")


def dihedral(n: int) -> FiniteGroup:
    """D_n of order 2n: <r, s | r^n = s^2 = 1, s^-1 r s = r^-1>."""
    if n < 1:
        raise AlgebraError(f"dihedral group degree must be >= 1, got {n}")
    _check_order(2 * n)
    return _index2_table(n, 0, f"D{n}")


def dicyclic(n: int) -> FiniteGroup:
    """Dic_n of order 4n: <r, s | r^2n = 1, s^2 = r^n, s^-1 r s = r^-1>; Dic_2 is Q8."""
    if n < 1:
        raise AlgebraError(f"dicyclic group degree must be >= 1, got {n}")
    _check_order(4 * n)
    return _index2_table(2 * n, n, f"Dic{n}")


@lru_cache(maxsize=64)
def _index2_table(m: int, e: int, name: str) -> FiniteGroup:
    """<r, s | r^m = 1, s^2 = r^e, s^-1 r s = r^-1>: index i + m j stands for r^i s^j,
    and (r^i s^j)(r^k s^l) = r^(i + (-1)^j k + e j l) s^(j + l)."""
    table = [[(i + (-k if j else k) + e * (j & l)) % m + m * (j ^ l)
              for l in (0, 1) for k in range(m)]
             for j in (0, 1) for i in range(m)]
    return FiniteGroup(table, name=name)


def parse_group_spec(spec: str) -> FiniteGroup:
    """Parse the group mini-grammar.

    "C3", "C2xC2xC4" (abelian invariants), "trivial", "S3", "Q8", "D4"
    (dihedral, order 2n), "Dic3" (dicyclic, order 4n), or "table:<path>"
    for a whitespace-separated Cayley-table file of 0-based indices.
    """
    spec = spec.strip()
    if spec == "trivial":
        return trivial()
    if spec == "Q8":
        return quaternion()
    if spec.startswith("Dic") and spec[3:].isdigit():
        return dicyclic(parse_int(spec[3:], "dicyclic group degree"))
    if spec.startswith("D") and spec[1:].isdigit():
        return dihedral(parse_int(spec[1:], "dihedral group degree"))
    if spec.startswith("S") and spec[1:].isdigit():
        return symmetric(parse_int(spec[1:], "symmetric group degree"))
    if spec.startswith("table:"):
        return from_table(_read_table(spec[len("table:"):]))
    parts = spec.split("x")
    invariants = []
    for part in parts:
        if not part.startswith("C") or not part[1:].isdigit():
            raise ParseError(f"bad group spec {spec!r}")
        invariants.append(parse_int(part[1:], "cyclic group order"))
    return abelian(invariants)


def _read_table(path: str) -> list[list[int]]:
    """The nonblank rows of a Cayley-table file, read no further than the
    first row or line that no group within ORDER_CAP can have."""
    longest = 8 * ORDER_CAP  # ORDER_CAP entries, eight characters each with their blanks
    rows: list[list[int]] = []
    try:
        with open(path) as fh:
            while line := fh.readline(longest + 1):
                if len(line) > longest:
                    raise ParseError(f"row {len(rows)} of Cayley table {path!r} "
                                     f"is longer than {longest} characters")
                row = [int(x) for x in line.split()]
                if row:
                    rows.append(row)
                    _check_order(max(len(rows), len(row)))
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read a Cayley table from {path!r}: {exc}") from None
    return rows


def abelian_groups_of_order(n: int) -> list[FiniteGroup]:
    """All abelian groups of order n, one per isomorphism class."""
    if n == 1:
        return [trivial()]
    per_prime: list[list[tuple[int, ...]]] = []
    for p, e in factorize(n).items():
        per_prime.append([tuple(p**part for part in parts) for parts in _partitions(e)])
    out = []
    for combo in itertools.product(*per_prime):
        invariants = tuple(itertools.chain.from_iterable(combo))
        out.append(abelian(invariants))
    return out


def _partitions(n: int, cap: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest
