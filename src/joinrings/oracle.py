"""Brute-force ground truth at desk scale.

Every closed-form claim elsewhere in the package can be replayed here by
exhaustive enumeration: unit counts, unit orders, Jacobson radicals via
quasi-regularity, and the u^n = 1 property.  Enumeration order is
lexicographic over coefficient vectors, so failing witnesses are
reproducible.  A ring refuses to be built with more elements than its cap,
and a cap above 2^24; the radical, which pairs elements, refuses more than
cap pairs.

The oracles run on coefficient tuples and build elements only for return
values and labels.  Each ring kind gives one product on the tuples, and
`unit_matrix(a)`, linear in a's coefficients and invertible iff a is a
unit; U(v) is packed as one integer, the sum of c_i B_i over v's nonzero
coordinates, B_i that of the i-th basis vector: one
:meth:`~joinrings.ffield.PackedRows.combination`, the one sum of packed
multiples, which also gives a semimagic element and product.

The unit count, the unit listing and the radical share one walk over
orbits, :func:`_orbits`: one representative per orbit of F_q^x times the
ring's `symmetries`, coordinate permutations that map units to units
(g sigma(x) k in a group ring, sigma an automorphism h -> h^k, and
diag(g_1..g_d) x diag(k_1..k_d) in a join, also followed by the transpose
of the embedding), with the indices of the orbit's members whose lowest
nonzero coordinate is 1.  The walk keeps one byte of marks per element.
Each coordinate's 4-byte lanes, one per symmetry, are scaled by every
code once per walk, so one sum of them gives an element's images under
every symmetry at once, and the walk clears their marks as it lists them,
with no set per orbit.  An orbit is all units or none, so the count and
the listing take one elimination per orbit (157 on F2[C12], 41 on
F3[C7]); `list_units` expands the unit orbits and their scalar multiples.
The radical is {x : 1 + r x is a unit for all r}, the quasi-regular
1 - r x with r replaced by -r, and it holds all of an orbit or none of
it, so r runs for the representatives alone: U(1 + r x) =
U(1) + sum r_i U(b_i x) is one packed combination per r, in increasing
index order up to the first singular matrix (203 eliminations on F2[C6],
726 on join(C2,C2;F2)).  The radical is then checked on spanning sets: a
subspace by its size, a two-sided ideal on basis products, nilpotent on
spans of products.  1 + J is then the kernel of R^x -> R/J, so the
factorization reads the image's size as |R^x| / |J|; the CLI compares
(|R^x|, |J|) with a Structure record.

The order questions (exponent, units of one order, u^n = 1) read one
:func:`unit_orders` list, and `exp_U1` only the largest order.  Both walk
the powers of the elements still marked, units or units of coefficient
sum 1, in :func:`_orders`, on the same marks and lanes: one lane sum per
power gives the indices of the power and of its images under the ring's
`automorphisms` (in a group ring the power maps of an abelian group, one
for each coset of the powers of q in (Z/exp G)^x, or the conjugations of
any other; in a join all of them blockwise, each also followed by the
transpose), which have the same order, and the walk clears their marks, so that no
element they reach is walked again (1556 products for `exp_U1` on F3[C9]).
"""

from __future__ import annotations

import json
import sys
from array import array
from collections.abc import Iterable, Sequence
from functools import cached_property, reduce
from itertools import chain, compress, islice, product
from math import gcd, lcm
from operator import itemgetter

from . import linalg
from .errors import AlgebraError, EnumerationCapError, InternalConsistencyError
from .ffield import FieldCtx
from .groupring import GroupRingElem, circulant_rows, format_element, gr_multiplier
from .groups import FiniteGroup
from .joinring import JoinElem, JoinShape, join_embed

DEFAULT_CAP = 2**20
CAP_CEILING = 2**24  # the sweeps allocate one byte per element up to the cap


# ---------------------------------------------------------------------------
# enumerable ring adapters
# ---------------------------------------------------------------------------

class EnumerableRing:
    """Uniform enumeration interface over the ring families we brute-force.

    Index 0 is zero; `one` is the identity.  `element(i)` decodes the i-th
    coefficient vector (lexicographic, least significant first), `_vector(i)`,
    and `coordinates(a)` reads it back.  The oracles run on these tuples
    through `product(u, v)`, the ring product on them.  Elements are hashable
    and compare by value.  Subclasses call ``__init__`` before they build
    anything of the ring's size, and provide `one`, `element(i)`,
    `product(u, v)`, `unit_matrix(a)` and `label(a)`, a JSON value that
    names a; `coordinates(a)` is `a.coeffs` unless they say otherwise.
    `element` and `unit_matrix` must be linear in the coefficient vector, and
    `unit_matrix(a)` invertible iff a is a unit.  An adapter whose units some
    coordinate permutations preserve lists them in `symmetries`, and those
    that are ring automorphisms or anti-automorphisms in `automorphisms`.
    """

    def __init__(self, ctx: FieldCtx, dim: int, cap: int):
        """Refuse a cap out of range and a ring beyond it; `repr` must work already."""
        check_cap(cap)
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

    @cached_property
    def _places(self) -> list[int]:
        """q^h, the place value of coordinate h in an index."""
        return [self.ctx.q**h for h in range(self.dim)]

    def _vector(self, index: int) -> tuple[int, ...]:
        q = self.ctx.q
        return tuple([index // w % q for w in self._places])

    def coordinates(self, a) -> tuple[int, ...]:
        return a.coeffs

    @cached_property
    def _one(self) -> tuple[int, ...]:
        return tuple(self.coordinates(self.one))

    def is_unit(self, a) -> bool:
        return linalg.is_invertible(self.unit_matrix(a), self.ctx)

    @cached_property
    def _basis(self) -> list[int]:
        """B_i: the packed unit matrix of each basis vector."""
        q, pack = self.ctx.q, self.ctx.packing.pack
        return [pack(chain.from_iterable(self.unit_matrix(self.element(q**i))))
                for i in range(self.dim)]

    def _pack(self, vector) -> int:
        """The unit matrix of the element with coordinates `vector`, packed as
        one integer: the sum of c_h B_h over its nonzero coordinates c_h."""
        return self.ctx.packing.combination(vector, self._basis)

    @cached_property
    def _row_split(self) -> tuple[int, range]:
        """(mask, shifts) that split a packed unit matrix into its rows."""
        n = len(self.unit_matrix(self.element(0)))
        stride = n * self.ctx.packing.entry_bits
        return (1 << stride) - 1, range(0, n * stride, stride)

    def _invertible(self, matrix: int) -> bool:
        """Whether the unit matrix packed as `matrix` is invertible."""
        row_mask, shifts = self._row_split
        return linalg.rows_invertible([matrix >> s & row_mask for s in shifts], self.ctx)

    @cached_property
    def symmetries(self) -> list[Sequence[int]]:
        """Coordinate permutations, a group, each of which maps units to units.

        perm sends the element with coordinates v to the one whose
        coordinate perm[h] is v[h].  The base class knows the identity alone.
        """
        return [range(self.dim)]

    @cached_property
    def automorphisms(self) -> list[Sequence[int]]:
        """Coordinate permutations, in the layout of `symmetries`, that are
        ring automorphisms or anti-automorphisms, sigma(u v) = sigma(v)
        sigma(u), so that sigma(u) has the order of u.  The base class knows
        the identity alone."""
        return [range(self.dim)]


class GroupRingEnum(EnumerableRing):
    """F_q[G] with elements enumerated by coefficient vector."""

    def __init__(self, group: FiniteGroup, ctx: FieldCtx, cap: int = DEFAULT_CAP):
        self.group = group
        super().__init__(ctx, group.order, cap)
        self.one = GroupRingElem.one(ctx, group)
        self.product = gr_multiplier(ctx, group)

    def element(self, index: int) -> GroupRingElem:
        return GroupRingElem(self.ctx, self.group, self._vector(index))

    def unit_matrix(self, a) -> list[list[int]]:
        return circulant_rows(a)

    @cached_property
    def symmetries(self) -> list[Sequence[int]]:
        """x -> g sigma(x) k for the units g and k in G and sigma among the
        power maps of :func:`_power_maps`: coefficient h moves to
        g sigma(h) k.  They form a group, since sigma(g h k) = sigma(g)
        sigma(h) sigma(k)."""
        powers = _power_maps(self.group)
        return [tuple(map(perm.__getitem__, power)) for perm in _two_sided(self.group)
                for power in powers]

    @cached_property
    def automorphisms(self) -> list[Sequence[int]]:
        """The automorphisms of G from :func:`_automorphisms`: their linear
        extensions are ones of F_q[G].  Over an abelian G they are the power
        maps sigma_k, h -> h^k, less those for k = k' q^m (mod exp G) with
        m >= 1 and k' among the maps kept: in the commutative F_q[G] of
        characteristic p, u^q = sum a_h^q h^q = sigma_q(u), so that
        sigma_k(u) = sigma_k'(u)^(q^m), a power of sigma_k'(u), whose lane
        clears its mark first.  Over F_3 the three maps of C_5 besides the
        identity go."""
        group = self.group
        return _power_maps(group, self.ctx.q) if group.is_abelian else _automorphisms(group)

    def label(self, a) -> str:
        """The `gr` literal of a."""
        return format_element(a)

    def __repr__(self):
        return f"F{self.ctx.q}[{self.group.name}]"


class JoinRingEnum(EnumerableRing):
    """A join ring enumerated in the coordinate order of :meth:`JoinShape.from_vector`."""

    def __init__(self, shape: JoinShape, cap: int = DEFAULT_CAP):
        self.shape = shape
        super().__init__(shape.ctx, shape.dimension(), cap)
        self.one = shape.one()
        self.product = shape.product

    def element(self, index: int) -> JoinElem:
        return self.shape.from_vector(self._vector(index))

    def unit_matrix(self, a) -> list[list[int]]:
        return join_embed(a)

    @cached_property
    def symmetries(self) -> list[Sequence[int]]:
        """x -> diag(g_1..g_d) x diag(k_1..k_d) for the units g_i and k_i in
        G_i, each also followed by the transpose x -> x^T of the embedding.

        Block i moves as in F_q[G_i], and each a_ij stays, since an all-ones
        block times a permutation matrix, on either side, is that block.
        The transpose is an anti-automorphism: it maps units to units, and
        conjugates each translation into another, so the maps form a
        group.  The `automorphisms` are left out: their product over the
        blocks costs more images per orbit than the orbits they merge save.
        """
        return self._transposed(self._blockwise(_two_sided))

    @cached_property
    def automorphisms(self) -> list[Sequence[int]]:
        """An automorphism of each block, as in F_q[G_i], with each a_ij
        fixed, each also followed by the transpose.

        The first is conjugation of the embedding by diag(P_1..P_d), P_i the
        permutation matrix of the automorphism of G_i, which maps block i as
        that automorphism does and fixes every all-ones block.  The
        transpose reverses products, (x y)^T = y^T x^T, so it too keeps the
        order of every unit; it took 34 products against 46 for the orders
        of join(C2,C3;F2).
        """
        return self._transposed(self._blockwise(_automorphisms))

    def _transposed(self, perms) -> list[tuple[int, ...]]:
        """`perms`, then each of them followed by x -> x^T, each map once:
        the circulant of block i transposed is that of the element with h
        moved to h^-1, and a_ij moves to a_ji."""
        shape, at = self.shape, self.shape.offdiag_at
        transpose = [lo + h for g, lo in zip(shape.groups, shape.offsets) for h in g.inverse]
        transpose += [at[j, i] for i, j in at]
        return list(dict.fromkeys(perm for t in perms
                                  for perm in (tuple(t), tuple(map(transpose.__getitem__, t)))))

    def _blockwise(self, maps) -> list[list[int]]:
        """Every choice of one of `maps(G_i)` per block, moving block i's
        coordinates alone."""
        shape = self.shape
        blocks = [[[lo + h for h in perm] for perm in maps(g)]
                  for g, lo in zip(shape.groups, shape.offsets)]
        offdiag = range(shape.n, self.dim)
        return [[*chain.from_iterable(rows), *offdiag] for rows in product(*blocks)]

    def label(self, a) -> dict:
        """The {"shape", "blocks", "offdiag"} object of a, as `join --op` reports it."""
        return json.loads(a.to_json())

    def __repr__(self):
        return repr(self.shape)


def _two_sided(group: FiniteGroup) -> list[tuple[int, ...]]:
    """The distinct permutations h -> g h k of G, for g and k in G: where G
    is abelian, its |G| left products."""
    table = group.table
    return list(dict.fromkeys(tuple(table[x][k] for x in row)
                              for row in table for k in range(group.order)))


def _automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """The power maps h -> h^k of an abelian G, otherwise its conjugations
    h -> g h g^-1, each a distinct map.  The conjugations took 109 products
    against 181 for the identity alone in `exp_U1` on F2[Q8]."""
    if group.is_abelian:
        return _power_maps(group)
    table, inverse = group.table, group.inverse
    return list(dict.fromkeys(tuple(table[table[g][h]][inverse[g]] for h in range(group.order))
                              for g in range(group.order)))


def _power_maps(group: FiniteGroup, q: int = 1) -> list[tuple[int, ...]]:
    """The automorphisms h -> h^k of an abelian G, for the k in 1..exp(G)
    prime to exp(G) but the k' q^m (mod exp(G)) of a smaller k' listed, each
    a distinct map; the identity alone otherwise.  With q = 1 every k is
    listed.  Each kept map is the group's ``power_map(k)``."""
    if not group.is_abelian:
        return [tuple(range(group.order))]
    e = group.exponent()
    maps, met = [], set()
    for k in range(1, e + 1):
        if gcd(k, e) == 1 and k not in met:
            maps.append(group.power_map(k))
            met.update(k * pow(q, m, e) % e for m in range(e))
    return maps


class SemimagicRing(EnumerableRing):
    """n x n matrices with all row and column sums equal.

    The dimension is the closed form n^2 - 2n + 2, so the enumeration cap
    is checked before anything of size n^2 is built.  The basis, built on
    first use, is the nullspace of the row/column sum constraints and must
    have that many vectors, so the closed form is verified rather than
    assumed.  Each basis vector is 1 at its own free column and 0 at the
    others', so an element's coordinates are its entries at those columns,
    and the product reads the structure constants of the basis, built once.
    """

    def __init__(self, n: int, ctx: FieldCtx, cap: int = DEFAULT_CAP):
        if n < 1:
            raise AlgebraError(f"semimagic size must be >= 1, got {n}")
        self.n = n
        super().__init__(ctx, n * n - 2 * n + 2, cap)
        self.one = tuple(map(tuple, linalg.identity(n)))

    @cached_property
    def basis(self) -> list[list[int]]:
        """The nullspace basis, each vector the n^2 entries row by row."""
        n, ctx = self.n, self.ctx
        # every line sum but that of row 0, minus that of row 0
        lines = [range(i * n, i * n + n) for i in range(n)] + [range(j, n * n, n) for j in range(n)]
        rows = [[ctx.sub(int(c in line), int(c in lines[0])) for c in range(n * n)]
                for line in lines[1:]]
        basis_vecs = linalg.nullspace(rows, ctx)
        if len(basis_vecs) != self.dim:
            raise InternalConsistencyError(
                f"semimagic dimension {len(basis_vecs)} != expected {self.dim}"
            )
        return basis_vecs

    @cached_property
    def _free(self) -> list[int]:
        """The free column of each basis vector, its last nonzero entry: a
        pivot column lies left of every free column its row reaches."""
        return [max(c for c, x in enumerate(vec) if x) for vec in self.basis]

    @cached_property
    def _packed_basis(self) -> list[int]:
        """The basis vectors, each packed as one row of n^2 entries."""
        return list(map(self.ctx.packing.pack, self.basis))

    def element(self, index: int):
        packing, n = self.ctx.packing, self.n
        out = packing.unpack(packing.combination(self._vector(index), self._packed_basis), n * n)
        return tuple(tuple(out[i * n : (i + 1) * n]) for i in range(n))

    def coordinates(self, a) -> tuple[int, ...]:
        return tuple(a[c // self.n][c % self.n] for c in self._free)

    @cached_property
    def _constants(self) -> list[list[int]]:
        """[h][k]: the coordinates of the product of basis vectors h and k,
        packed as one row."""
        q, ctx, pack = self.ctx.q, self.ctx, self.ctx.packing.pack
        mats = [self.element(q**h) for h in range(self.dim)]
        return [[pack(self.coordinates(linalg.mat_mul(x, y, ctx))) for y in mats] for x in mats]

    def product(self, u, v) -> tuple[int, ...]:
        """sum_h u_h (sum_k v_k C_hk), C_hk the packed structure constants;
        the inner sum is skipped where u_h is 0."""
        packing = self.ctx.packing
        combination = packing.combination
        rows = [combination(v, row) if x else 0 for x, row in zip(u, self._constants)]
        return tuple(packing.unpack(combination(u, rows), self.dim))

    def unit_matrix(self, a):
        return a

    def label(self, a) -> list[list[int]]:
        """The rows of a."""
        return [list(r) for r in a]

    def __repr__(self):
        return f"SM{self.n}(F{self.ctx.q})"


semimagic_ring = SemimagicRing


# ---------------------------------------------------------------------------
# enumeration oracles
# ---------------------------------------------------------------------------

def _scaled_lanes(perms: Sequence[Sequence[int]], places: Sequence[int], q: int) -> list[list[int]]:
    """[h][c]: c places[perm[h]] in lane k, 4 bytes from byte 4 k, for the
    k-th of `perms`, `places` the place value of each coordinate in an
    index and c each of the q codes.

    The image of v under perm has index sum_h v_h places[perm[h]], so the
    sum of [h][v_h] over the coordinates holds the index of every image of
    v at once.  No lane carries, since an index is below the cap, at most
    CAP_CEILING = 2^24 < 2^32.
    """
    lanes = [int.from_bytes(array("I", map(places.__getitem__, images)).tobytes(), sys.byteorder)
             for images in zip(*perms)]
    return [[c * lane for c in range(q)] for lane in lanes]


def _orbits(ring: EnumerableRing):
    """One (vector, orbit) per orbit of F_q^x times `ring.symmetries` on the
    nonzero elements: `vector` the coordinates of a representative, `orbit`
    the list of indices of the orbit's members whose lowest nonzero
    coordinate is 1.

    Every orbit is a union of scalar classes; each class of q - 1 elements
    has one member whose lowest nonzero coordinate is 1, at index
    q^t (1 + q j) when that coordinate is at position t.  The bytearray
    `fresh` marks these members until their orbit is visited; they are
    visited by t, then j, and the first one visited in an orbit represents
    it.

    Each member of the orbit is an image of v divided by its lowest nonzero
    coordinate c, one of v's nonzero values: the images of v / c whose
    lowest nonzero coordinate is 1, the fresh ones, for each such c.  One
    sum of the lanes of :func:`_scaled_lanes`, scaled once per walk, gives
    the images of v / c under every symmetry.  The walk clears each fresh
    image's mark as it lists it, so an image met twice is listed once.
    """
    ctx, dim, q, size = ring.ctx, ring.dim, ring.ctx.q, ring.size
    symmetries = ring.symmetries
    width = 4 * len(symmetries)
    # the identity alone moves nothing: an orbit is its representative
    scaled = _scaled_lanes(symmetries, ring._places, q) if len(symmetries) > 1 else None
    fresh = bytearray(size)  # one byte per element, within the ring's cap
    for t in range(dim):
        fresh[q**t :: q ** (t + 1)] = b"\1" * q ** (dim - t - 1)
    marks = memoryview(fresh)  # compress reads the marks as the walk clears them
    for t in range(dim):
        for index in compress(range(q**t, size, q ** (t + 1)), marks[q**t :: q ** (t + 1)]):
            vector = ring._vector(index)
            if scaled is None:
                yield vector, [index]
                continue
            orbit = []
            for c in set(vector) - {0}:
                s = ctx.inv(c)
                divided = vector if s == 1 else [ctx.mul(s, a) for a in vector]
                images = sum(map(list.__getitem__, scaled, divided)).to_bytes(width, sys.byteorder)
                for i in memoryview(images).cast("I"):
                    if fresh[i]:
                        fresh[i] = 0
                        orbit.append(i)
            yield vector, orbit


def _unit_orbits(ring: EnumerableRing):
    """The orbits of :func:`_orbits` that are units, one elimination each.

    Each map of an orbit is a bijection on units, so an orbit is all units
    or none.  The representative's matrix is the packed sum of c_h B_h over
    its nonzero coordinates.
    """
    for vector, orbit in _orbits(ring):
        if ring._invertible(ring._pack(vector)):
            yield orbit


def enumerate_units(ring: EnumerableRing) -> int:
    """Exact unit count: one elimination per orbit of F_q^x times
    `ring.symmetries`, weighted by the orbit's size."""
    return (ring.ctx.q - 1) * sum(map(len, _unit_orbits(ring)))


def _scaled(ring: EnumerableRing, indices: Iterable[int]) -> list[int]:
    """The index of c x for every c in F_q^x and every x at `indices`."""
    q, mul = ring.ctx.q, ring.ctx.mul
    if q == 2:  # F_2^x is {1}
        return list(indices)
    scalars, out = range(1, q), []
    for i in indices:
        terms = [[mul(c, x) * w for c in scalars]
                 for w, x in zip(ring._places, ring._vector(i)) if x]
        out += map(sum, zip(*terms))
    return out


def _unit_indices(ring: EnumerableRing) -> list[int]:
    """The index of every unit, in increasing order: the unit orbits and
    their scalar multiples."""
    return sorted(_scaled(ring, chain.from_iterable(_unit_orbits(ring))))


def list_units(ring: EnumerableRing) -> list:
    """Every unit, in enumeration order; only units are built as elements."""
    return [ring.element(i) for i in _unit_indices(ring)]


def _orders(ring: EnumerableRing, marks: bytearray):
    """Walk the powers of every element whose index is marked, by `ring.product`
    on coordinate tuples: one (t, lanes) per walk, t the order of its
    element u and each lane the indices of sigma(u^j) for j = 1..t, for
    one of `ring.automorphisms` sigma, those whose sigma(u) was marked.

    The elements are walked in increasing index order.  The walk multiplies
    by u until it reaches one; every power u^j then has order t / gcd(j, t),
    and so has sigma(u^j) = sigma(u)^j for each sigma.  One sum of the
    lanes of :func:`_scaled_lanes` gives the index of a power and of its
    images at once, and the walk clears the mark of every index it yields:
    the marked elements left are those no walk has met.  A sigma(u) met
    already, as tau(v^i) for a walk over v, has its powers tau(v^(i j)) met
    too, so its lane is left out.  A unit's order is below the ring's size,
    so a walk that reaches it has left the unit group, and it raises
    instead of running on.
    """
    product, size, one, places, q = ring.product, ring.size, ring._one, ring._places, ring.ctx.q
    automorphisms = ring.automorphisms
    scaled, getter = _scaled_lanes(automorphisms, places, q), list.__getitem__
    lanes, width, order = range(len(automorphisms)), 4 * len(automorphisms), sys.byteorder
    ones = sum(map(getter, scaled, one)).to_bytes(width, order)
    index = marks.find(1)
    while index >= 0:
        u = x = tuple([index // w % q for w in places])  # ring._vector, inlined
        t, images = 1, b""
        while x != one:
            if t == size:
                raise InternalConsistencyError(f"{u!r} is not a unit: its powers never reach one")
            images += sum(map(getter, scaled, x)).to_bytes(width, order)
            x = product(x, u)
            t += 1
        images, met = memoryview(images + ones).cast("I"), []
        for k in lanes:
            if marks[images[k]]:
                met.append(images[k :: len(lanes)])
                for i in met[-1]:
                    marks[i] = 0
        yield t, met
        index = marks.find(1, index + 1)


def unit_orders(ring: EnumerableRing):
    """(unit, multiplicative order) of every unit, in enumeration order, by
    `ring.product`; the orders are kept by index."""
    indices = _unit_indices(ring)
    marks = bytearray(ring.size)
    for i in indices:
        marks[i] = 1
    orders = {}
    for t, lanes in _orders(ring, marks):
        walk = [t // gcd(j, t) for j in range(1, t + 1)]  # the order of u^j
        for lane in lanes:
            orders.update(zip(lane, walk))
    return [(ring.element(i), orders[i]) for i in indices]


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

    Over F_q of characteristic p with G a p-group the group ring is local,
    so the normalized units are exactly the elements of coefficient sum 1,
    and every order is a power of p.  Their orders come from the same power
    sweep as :func:`unit_orders`, on coefficient tuples.
    """
    p = ctx.p
    if not group.is_p_group(p):
        raise AlgebraError(f"{group.name} is not a {p}-group")
    ring = GroupRingEnum(group, ctx, cap)
    # every order is a power of p, so their lcm is the largest, and the
    # powers a walk meets need no walk of their own
    return max(map(itemgetter(0), _orders(ring, _augmentation_marks(ctx, group.order))))


def _augmentation_marks(ctx: FieldCtx, n: int) -> bytearray:
    """One byte per index of F_q^n: 1 where the n coordinates sum to 1.

    sums[t] marks the indices below q^h whose coordinates sum to t.  For
    h = 1 that is index t alone.  Below q^(h+1) the top coordinate c splits
    the indices into q blocks in order of c, so the marks for t are the
    blocks sums[t - c]; the last step builds t = 1 alone.  The steps before
    it take q^2 subtractions each, and come only where n >= 3, so that
    q^3 <= CAP_CEILING.
    """
    q, sub = ctx.q, ctx.sub

    def single(t: int) -> bytes:
        return bytes(t) + b"\1" + bytes(q - 1 - t)

    if n == 1:
        return bytearray(single(1))
    sums = list(map(single, range(q)))
    for _ in range(n - 2):
        sums = [b"".join([sums[sub(t, c)] for c in range(q)]) for t in range(q)]
    return bytearray().join([sums[sub(1, c)] for c in range(q)])


def check_positive(n: int, what: str) -> None:
    """Refuse an order, exponent or cap below 1, before anything is enumerated."""
    if n < 1:
        raise AlgebraError(f"{what} must be positive, got {n}")


def check_cap(cap: int) -> None:
    """Refuse a cap below 1 or above CAP_CEILING, before anything is allocated."""
    check_positive(cap, "cap")
    if cap > CAP_CEILING:
        raise AlgebraError(f"cap must be at most 2^24, got {cap}")


# ---------------------------------------------------------------------------
# Jacobson radical by quasi-regularity
# ---------------------------------------------------------------------------

def jacobson_radical(ring: EnumerableRing) -> list:
    """{x : 1 + r x is a unit for all r}, verified two-sided and nilpotent.

    r -> -r makes this the quasi-regular {x : 1 - r x is a unit for all r}.
    x is tested for one representative of each orbit of :func:`_orbits`:
    for a scalar c and units u, w, 1 + r (c u x w) is a unit for every r iff
    1 + r x is, since substituting r -> w^-1 r u^-1 c^-1 gives
    1 + w^-1 r x w, the conjugate of 1 + r x by w; and an automorphism
    sigma maps 1 + r x to 1 + sigma(r) sigma(x).  Membership takes up to
    one elimination per pair (x, r), so the ring's cap bounds the
    q^(2 dim) pairs; the subspace, ideal and nilpotency checks run on
    spanning sets.
    """
    return [ring.element(i) for i in _radical(ring)]


def _radical(ring: EnumerableRing) -> list[int]:
    """The indices of :func:`jacobson_radical`, in increasing order; every
    product and check runs on coordinate tuples."""
    q, dim, mul = ring.ctx.q, ring.dim, ring.product
    if q ** (2 * dim) > ring.cap:
        raise EnumerationCapError(
            f"{ring!r} has {q}^{2 * dim} pairs (x, r) for the radical, beyond the cap {ring.cap}")
    combination = ring.ctx.packing.combination
    one = ring._pack(ring._one)
    basis = [ring._vector(q**i) for i in range(dim)]

    def every_r(x) -> bool:
        """Whether U(1 + r x) = U(1) + sum r_i U(b_i x) is invertible for
        every nonzero r, in increasing index order up to the first singular
        one; U(b_i x) is packed when r first reaches coordinate i, at q^i.
        `product` varies its last place fastest: r[::-1] is r lowest first."""
        terms = [one]  # U(1), then U(b_i x) for the coordinates reached so far
        for index, r in enumerate(islice(product(range(q), repeat=dim), 1, None), 1):
            if index == q ** (len(terms) - 1):
                terms.append(ring._pack(mul(basis[len(terms) - 1], x)))
            if not ring._invertible(combination((1, *r[::-1]), terms)):
                return False
        return True

    members = [i for x, orbit in _orbits(ring) if every_r(x) for i in orbit]
    indices = [0, *sorted(_scaled(ring, members))]
    _check_radical(ring, [ring._vector(i) for i in indices])
    return indices


def _check_radical(ring: EnumerableRing, rad: Iterable[tuple[int, ...]]) -> None:
    """Raise InternalConsistencyError unless the coordinate tuples `rad` form
    a nilpotent two-sided ideal, each property checked on a spanning set.

    Subspace: rad lies in the span of its echelon basis x_1..x_k, so it is
    that span iff it has q^k elements.  Ideal: b x_j and x_j b in rad for
    every basis vector b of the ring, 2 k dim products.  Nilpotency: J^(m+1)
    is spanned by the products of J^m's basis with J's, and must reach 0
    within dim steps.
    """
    ctx, mul = ring.ctx, ring.product
    rad_set = set(rad)
    basis = linalg.echelon_basis(rad_set, ctx)
    if len(rad_set) != ctx.q ** len(basis):
        raise InternalConsistencyError(
            f"radical of {len(rad_set)} elements is no subspace: its span has {ctx.q}^{len(basis)}")
    for b in (ring._vector(ctx.q**i) for i in range(ring.dim)):
        for x in basis:
            if mul(b, x) not in rad_set or mul(x, b) not in rad_set:
                raise InternalConsistencyError("radical is not a two-sided ideal")
    power = basis
    for _ in range(ring.dim):
        power = linalg.echelon_basis((mul(x, y) for x in power for y in basis), ctx)
    if power:
        raise InternalConsistencyError("radical failed the nilpotency check")


def semisimple_unit_factorization(ring: EnumerableRing):
    """(|R^x|, |Rad(R)|, |R^x| / |Rad(R)|): the unit count, the radical's size
    and that of the image of R^x in R/Rad(R).

    Once the radical J has passed its checks, 1 + J is a subgroup of R^x:
    r = 1 puts 1 + x among the units for every x in J, and J is an ideal, so
    (1 + x)(1 + y) = 1 + (x + y + x y).  It is the kernel of R^x -> R/J, so by
    Lagrange's theorem the image has |R^x| / |J| elements; this is no
    independent count of the units of R/J.
    """
    rad = len(_radical(ring))
    units = enumerate_units(ring)
    return units, rad, units // rad
