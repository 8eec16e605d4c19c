"""Brute-force ground truth at desk scale.

Every closed-form claim elsewhere in the package can be replayed here by
exhaustive enumeration: unit counts, unit orders, Jacobson radicals via
quasi-regularity, and the u^n = 1 property.  Enumeration order is
lexicographic over coefficient vectors, so failing witnesses are
reproducible.  A ring refuses to be built with more elements than its cap;
the radical, which pairs elements, refuses more than cap pairs.

Every ring kind gives `unit_matrix(a)`, a matrix linear in a's coefficient
vector that is invertible iff a is a unit.  The unit count, `list_units`
and the radical build no element to test it.  `list_units` walks every
index in increasing order (lexicographic n-tuples, as in Knuth, TAOCP 4A,
7.2.1.1) and keeps, for each coordinate level, the sum of c_i B_i over the
coordinates i from that level up, where B_i is the unit matrix of the i-th
basis vector, packed once per call as one integer.  A step that changes
coordinate i to c builds that level as its parent plus c B_i, so a step
costs about q/(q - 1) packed additions, a split into rows, and one
elimination; only a unit is built as an element.  The unit count tests
one element per orbit of F_q^x times the ring's `symmetries`, coordinate
permutations that come from left multiplication by a unit: by g in a
group ring, by diag(g_1..g_d) in a join.  An orbit is all units or none,
so each unit tested counts its orbit's size, and its matrix is the packed
sum of c_i B_i over its nonzero coordinates.  F2[C12] takes 351
eliminations where the (q^dim - 1)/(q - 1) scalar classes took 4095, F3[C7]
157 for 1093 and F5[S3] 684 for 3906.  The radical is {x : 1 + r x is a
unit for all r}, the quasi-regular 1 - r x with r replaced by -r:
U(1 + r x) = U(1) + sum r_i U(b_i x) is linear in r, so the walk from U(1)
over the U(b_i x) tests x against every r.  The order questions
(exponent, units of one order, u^n = 1) read one :func:`unit_orders` list.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property, reduce
from itertools import chain, product
from math import gcd, lcm

from . import linalg
from .errors import AlgebraError, EnumerationCapError, InternalConsistencyError
from .ffield import FieldCtx
from .groupring import GroupRingElem, circulant_rows, format_element
from .groups import FiniteGroup
from .joinring import JoinElem, JoinShape, join_embed

DEFAULT_CAP = 2**20


# ---------------------------------------------------------------------------
# enumerable ring adapters
# ---------------------------------------------------------------------------

class EnumerableRing:
    """Uniform enumeration interface over the ring families we brute-force.

    Index 0 is zero; `one` is the identity.  `element(i)` decodes the i-th
    coefficient vector (lexicographic, least significant first).  Every
    oracle below works through these methods alone: `add` and `mul`
    default to the element operators, `is_unit` asks whether `unit_matrix`
    is invertible, and the unit count, `list_units` and the radical walk the
    packed unit matrices without building elements.  Elements are hashable
    and compare by value.  Subclasses call ``__init__`` before they build
    anything of the ring's size, and provide `element(i)`, `unit_matrix(a)`
    and `label(a)`, overriding the arithmetic when their elements have no
    operators.  `element` and `unit_matrix` must be linear in the
    coefficient vector, and `unit_matrix(a)` invertible iff a is a unit.
    An adapter whose units some coordinate permutations preserve lists
    them in `symmetries`, which the unit count uses.
    """

    def __init__(self, ctx: FieldCtx, dim: int, cap: int):
        """Refuse a ring of more than `cap` elements; `repr` must work already."""
        self.ctx, self.dim, self.cap = ctx, dim, cap
        # q^dim > cap once dim reaches cap's bit length, so no such power is
        # built; nor printed, as it can pass the 4300-digit int-to-str limit
        if dim >= cap.bit_length() or self.size > cap:
            raise EnumerationCapError(f"{self!r} has {ctx.q}^{dim} elements, beyond the cap {cap}")

    @property
    def size(self) -> int:
        return self.ctx.q**self.dim

    def elements(self):
        return (self.element(i) for i in range(self.size))

    def _vector(self, index: int) -> list[int]:
        q = self.ctx.q
        out = []
        for _ in range(self.dim):
            out.append(index % q)
            index //= q
        return out

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def is_unit(self, a) -> bool:
        return linalg.is_invertible(self.unit_matrix(a), self.ctx)

    def _basis(self) -> list[int]:
        """B_i: the packed unit matrix of each basis vector."""
        q = self.ctx.q
        return [self._pack(self.element(q**i)) for i in range(self.dim)]

    def _pack(self, a) -> int:
        """The unit matrix of a, packed as one integer."""
        return self.ctx.packing.pack(chain.from_iterable(self.unit_matrix(a)))

    @cached_property
    def _row_split(self) -> tuple[int, range]:
        """(mask, shifts) that split a packed unit matrix into its rows."""
        n = len(self.unit_matrix(self.element(0)))
        stride = n * self.ctx.packing.entry_bits
        return (1 << stride) - 1, range(0, n * stride, stride)

    def symmetries(self) -> Sequence[Sequence[int]]:
        """Coordinate permutations, a group, each of which maps units to units.

        perm sends the element with coordinates v to the one whose
        coordinate perm[h] is v[h].  The base class knows the identity alone.
        """
        return [range(self.dim)]

    def _walk(self, base: int, terms: Iterable[int], width: int):
        """Packed rows of base + sum_{j < width} c_j T_j, T_j the j-th of
        `terms`, for every choice of the codes c_j, in increasing index order.

        levels[j] is base plus the terms of coordinates j and up.  A step
        raises the lowest coordinate below q - 1 and zeroes those under it,
        whose levels then equal their parent.  Each multiple c T_j is built
        when its coordinate changes, so nothing here grows with q.  T_j is
        drawn when coordinate j first steps up, at index q^j.
        """
        combine, times = self.ctx.packing.combine, self.ctx.packing.times
        row_mask, shifts = self._row_split
        top = self.ctx.q - 1
        terms, codes, drawn = iter(terms), [0] * width, []
        levels = [base] * (width + 1)
        while True:
            matrix = levels[0]
            yield [matrix >> s & row_mask for s in shifts]
            j = 0  # the coordinate that steps up: the lowest one below q - 1
            while j < width and codes[j] == top:
                j += 1
            if j == width:
                return
            if j == len(drawn):
                drawn.append(next(terms))
            c = codes[j] = codes[j] + 1
            codes[:j] = [0] * j
            levels[: j + 1] = [combine(levels[j + 1], times(drawn[j], c))] * (j + 1)


class GroupRingEnum(EnumerableRing):
    """F_q[G] with elements enumerated by coefficient vector."""

    def __init__(self, group: FiniteGroup, ctx: FieldCtx, cap: int = DEFAULT_CAP):
        self.group = group
        super().__init__(ctx, group.order, cap)
        self.one = GroupRingElem.one(ctx, group)

    def element(self, index: int) -> GroupRingElem:
        return GroupRingElem(self.ctx, self.group, self._vector(index))

    def unit_matrix(self, a) -> list[list[int]]:
        return circulant_rows(a)

    def symmetries(self) -> Sequence[Sequence[int]]:
        """Left multiplication by g, a unit: coefficient h moves to g h."""
        return self.group.table

    def label(self, a) -> str:
        return format_element(a)

    def __repr__(self):
        return f"F{self.ctx.q}[{self.group.name}]"


class JoinRingEnum(EnumerableRing):
    """A join ring enumerated in the coordinate order of :meth:`JoinShape.from_vector`."""

    def __init__(self, shape: JoinShape, cap: int = DEFAULT_CAP):
        self.shape = shape
        super().__init__(shape.ctx, shape.dimension(), cap)
        self.one = shape.one()

    def element(self, index: int) -> JoinElem:
        return self.shape.from_vector(self._vector(index))

    def unit_matrix(self, a) -> list[list[int]]:
        return join_embed(a)

    def symmetries(self) -> Sequence[Sequence[int]]:
        """Left multiplication by the unit diag(g_1..g_d): block i moves as
        in F_q[G_i], and each a_ij stays, since a permutation matrix times
        an all-ones block is that block."""
        blocks, start = [], 0
        for g in self.shape.groups:
            blocks.append([[start + h for h in row] for row in g.table])
            start += g.order
        offdiag = range(start, self.dim)
        return [[*chain.from_iterable(rows), *offdiag] for rows in product(*blocks)]

    def label(self, a) -> str:
        return a.to_json()

    def __repr__(self):
        return repr(self.shape)


class SemimagicRing(EnumerableRing):
    """n x n matrices with all row and column sums equal.

    The dimension is the closed form n^2 - 2n + 2, so the enumeration cap
    is checked before anything of size n^2 is built.  The basis, built on
    the first :meth:`element`, is the nullspace of the row/column sum
    constraints and must have that many vectors, so the closed form is
    verified rather than assumed.
    """

    def __init__(self, n: int, ctx: FieldCtx, cap: int = DEFAULT_CAP):
        if n < 1:
            raise AlgebraError(f"semimagic size must be >= 1, got {n}")
        self.n = n
        super().__init__(ctx, 1 if n == 1 else n * n - 2 * n + 2, cap)
        self.one = tuple(map(tuple, linalg.identity(n)))

    @cached_property
    def basis(self) -> list[list[list[int]]]:
        n, ctx = self.n, self.ctx
        if n == 1:
            return [[[1]]]
        # constraints: rowsum_i - rowsum_0 = 0 (i >= 1), colsum_j - rowsum_0 = 0
        rows = []
        for i in range(1, n):
            vec = [0] * (n * n)
            for j in range(n):
                vec[i * n + j] = 1
                vec[j] = ctx.sub(vec[j], 1)
            rows.append(vec)
        for j in range(n):
            vec = [0] * (n * n)
            for i in range(n):
                vec[i * n + j] = ctx.add(vec[i * n + j], 1)
            for c in range(n):
                vec[c] = ctx.sub(vec[c], 1)
            rows.append(vec)
        basis_vecs = linalg.nullspace(rows, ctx)
        if len(basis_vecs) != self.dim:
            raise InternalConsistencyError(
                f"semimagic dimension {len(basis_vecs)} != expected {self.dim}"
            )
        return [[vec[i * n : (i + 1) * n] for i in range(n)] for vec in basis_vecs]

    def element(self, index: int):
        vec = self._vector(index)
        ctx, n = self.ctx, self.n
        out = [[0] * n for _ in range(n)]
        for coef, mat in zip(vec, self.basis):
            if coef:
                for i in range(n):
                    for j in range(n):
                        out[i][j] = ctx.add(out[i][j], ctx.mul(coef, mat[i][j]))
        return tuple(tuple(r) for r in out)

    def add(self, a, b):
        add = self.ctx.add
        return tuple(tuple(add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

    def mul(self, a, b):
        return tuple(tuple(r) for r in linalg.mat_mul([list(r) for r in a], [list(r) for r in b], self.ctx))

    def unit_matrix(self, a):
        return a

    def label(self, a) -> str:
        return repr([list(r) for r in a])

    def __repr__(self):
        return f"SM{self.n}(F{self.ctx.q})"


semimagic_ring = SemimagicRing


# ---------------------------------------------------------------------------
# enumeration oracles
# ---------------------------------------------------------------------------

def enumerate_units(ring: EnumerableRing) -> int:
    """Exact unit count: one elimination per orbit of F_q^x times
    `ring.symmetries()`, weighted by the orbit's size.

    Each map of the orbit is a bijection on units, so an orbit is all units
    or none.  Every orbit is a union of scalar classes; each class of q - 1
    elements has one member whose lowest nonzero coordinate is 1, at index
    q^t (1 + q j) when that coordinate is at position t.  These members are
    visited by t, then j.  The first one visited in an orbit is tested, its
    matrix the packed sum of c_h B_h over its nonzero coordinates, and it
    marks the orbit so that none of the others is tested.
    """
    ctx, dim, q = ring.ctx, ring.dim, ring.ctx.q
    basis, (row_mask, shifts) = ring._basis(), ring._row_split
    combine, times = ctx.packing.combine, ctx.packing.times
    # columns[h][c][k] = c q^perm[h], perm the k-th symmetry: the image of v
    # under perm has index sum_h columns[h][v[h]][k]
    columns = [_Multiples({1: [q**i for i in images]}) for images in zip(*ring.symmetries())]
    marked = bytearray(ring.size)  # one byte per element, within the ring's cap
    units = 0
    for t in range(dim):
        for index in range(q**t, q**dim, q ** (t + 1)):
            if marked[index]:
                continue
            vector = ring._vector(index)
            orbit = _orbit(vector, columns, ctx)
            for image in orbit:
                marked[image] = 1
            matrix = basis[t]  # coordinate t is 1, and those under it 0
            for h in range(t + 1, dim):
                if vector[h]:
                    matrix = combine(matrix, times(basis[h], vector[h]))
            if linalg.rows_invertible([matrix >> s & row_mask for s in shifts], ctx):
                units += len(orbit)
    return (q - 1) * units


def _orbit(vector: list[int], columns: list[_Multiples], ctx: FieldCtx) -> set[int]:
    """Indices of the images of `vector` under the symmetries of `columns`,
    each divided by its lowest nonzero coordinate."""
    q = ctx.q
    support = [(h, c) for h, c in enumerate(vector) if c]
    images = list(map(sum, zip(*[columns[h][c] for h, c in support])))
    if q > 2:  # over F_2 every lowest nonzero coordinate is 1 already
        lows = map(min, zip(*[columns[h][1] for h, _ in support]))
        scaled: dict[int, list[int]] = {}  # c -> the images of vector / c
        for k, (image, low) in enumerate(zip(images, lows)):
            c = image // low % q
            if c != 1:
                if c not in scaled:
                    s = ctx.inv(c)
                    scaled[c] = list(map(sum, zip(*[columns[h][ctx.mul(s, a)]
                                                    for h, a in support])))
                images[k] = scaled[c][k]
    return set(images)


class _Multiples(dict):
    """c -> c times the column at key 1, each built on first use."""

    def __missing__(self, c: int) -> list[int]:
        out = self[c] = [c * w for w in self[1]]
        return out


def list_units(ring: EnumerableRing) -> list:
    """Every unit, in enumeration order; only units are built as elements."""
    ctx = ring.ctx
    walk = enumerate(ring._walk(0, ring._basis(), ring.dim))
    return [ring.element(i) for i, rows in walk if linalg.rows_invertible(rows, ctx)]


def _orders(units, mul, one) -> dict:
    """Multiplicative order of every unit, from ring products alone.

    Each unit u not yet seen is multiplied by u until its power u^t is
    one; every power u^j met on the way then has order t / gcd(j, t).  A
    walk that meets one of its own powers again before one has left the
    unit group, so it raises instead of running on.  `units` may be a
    generator: only the orders are kept.
    """
    orders = {one: 1}
    for u in units:
        if u in orders:
            continue
        powers = {}
        x, t = u, 1
        while x != one:
            if x in powers:
                raise InternalConsistencyError(f"{u!r} is not a unit: its powers never reach one")
            powers[x] = t
            x, t = mul(x, u), t + 1
        for x, j in powers.items():
            orders[x] = t // gcd(j, t)
    return orders


def unit_orders(ring: EnumerableRing):
    """List of (unit, multiplicative order) over all units, in enumeration order."""
    units = list_units(ring)
    orders = _orders(units, ring.mul, ring.one)
    return [(u, orders[u]) for u in units]


def unit_group_exponent(orders) -> int:
    """lcm of the orders in a :func:`unit_orders` list."""
    return reduce(lcm, (t for _, t in orders), 1)


def units_of_order(orders, m: int) -> int:
    """Count the units of multiplicative order exactly m in a :func:`unit_orders` list."""
    check_positive(m, "order")
    return sum(1 for _, t in orders if t == m)


def is_delta_n(orders, n: int):
    """True iff u^n = 1 for every unit of a :func:`unit_orders` list; else
    (False, witness, order), the witness the first unit in enumeration
    order whose order does not divide n."""
    check_positive(n, "exponent")
    for u, t in orders:
        if n % t != 0:
            return False, u, t
    return True, None, None


def exp_U1(group: FiniteGroup, ctx: FieldCtx, cap: int = DEFAULT_CAP) -> int:
    """Exponent of the normalized unit group 1 + Delta(F_q[G]), G a p-group.

    Over F_p with G a p-group the group ring is local, so the normalized
    units are exactly the elements of coefficient sum 1, and every order is
    a power of p.  Their orders come from the same power sweep as
    :func:`unit_orders`, on raw coefficient tuples.
    """
    p = ctx.p
    if not group.is_p_group(p):
        raise AlgebraError(f"{group.name} is not a {p}-group")
    ring = GroupRingEnum(group, ctx, cap)
    add, sub, convolve, table = ctx.add, ctx.sub, ctx.convolve, group.table
    # the last coefficient makes the coefficient sum 1
    units = ((*head, sub(1, reduce(add, head, 0)))
             for head in product(range(ctx.q), repeat=group.order - 1))
    orders = _orders(units, lambda a, b: tuple(convolve(a, b, table)), ring.one.coeffs)
    # every order is a power of p, so their lcm is the largest
    return max(orders.values())


def check_positive(n: int, what: str) -> None:
    """Refuse an order or exponent below 1, before anything is enumerated."""
    if n < 1:
        raise AlgebraError(f"{what} must be positive, got {n}")


# ---------------------------------------------------------------------------
# Jacobson radical by quasi-regularity
# ---------------------------------------------------------------------------

def jacobson_radical(ring: EnumerableRing) -> list:
    """{x : 1 + r x is a unit for all r}, verified two-sided and nilpotent.

    r -> -r makes this the quasi-regular {x : 1 - r x is a unit for all r}.
    The walk from U(1) over the U(b_i x), b_i the basis vectors, tests every
    r and stops at the first singular matrix, building b_i x only once it
    reaches coordinate i.  Membership and the ideal check each take up to
    one step per pair (x, r), so the ring's cap bounds the q^(2 dim) pairs.
    """
    q, dim = ring.ctx.q, ring.dim
    if q ** (2 * dim) > ring.cap:
        raise EnumerationCapError(
            f"{ring!r} has {q}^{2 * dim} pairs (x, r) for the radical, beyond the cap {ring.cap}")
    elements = list(ring.elements())
    ctx, one = ring.ctx, ring._pack(ring.one)
    basis = [ring.element(q**i) for i in range(dim)]
    rad = []
    for x in elements:
        walk = ring._walk(one, (ring._pack(ring.mul(b, x)) for b in basis), dim)
        if all(linalg.rows_invertible(rows, ctx) for rows in walk):
            rad.append(x)

    rad_set = set(rad)
    # two-sided ideal check
    for x in rad:
        for r in elements:
            if ring.mul(r, x) not in rad_set or ring.mul(x, r) not in rad_set:
                raise InternalConsistencyError("radical is not a two-sided ideal")
    # nilpotency: rad^k shrinks to {0} within dim steps
    current = set(rad)
    zero = ring.element(0)
    for _ in range(ring.dim):
        if current == {zero}:
            break
        current = {ring.mul(x, y) for x in current for y in rad}
    else:
        if current != {zero}:
            raise InternalConsistencyError("radical failed the nilpotency check")
    return rad


def semisimple_unit_factorization(ring: EnumerableRing):
    """Check |R^x| = |Rad(R)| * |image of R^x in R/Rad(R)|.

    Returns (unit_count, radical_size, image_size).  The image is counted
    as the number of distinct cosets u(1 + Rad) = {u + u x : x in Rad}, each
    taken as a set of elements, which is an independent count of the
    semisimplification's units.
    """
    rad = jacobson_radical(ring)
    units = list_units(ring)
    image = {frozenset(ring.add(u, ring.mul(u, x)) for x in rad) for u in units}
    return len(units), len(rad), len(image)
