"""The group ring F_q[G]: its products, units and structure maps.

A :class:`GroupRingElem` stores its coefficient family as a tuple of raw
field codes indexed by group-element index.  :func:`gr_multiplier` picks
each ring's product: for C_n built from its one invariant (element i is
g^i) over a field of at most 1024 elements, ``ctx.kronecker(n)``, one
integer product of the families packed by base-p digit and folded by
y^n = 1 (:mod:`joinrings.ffield`, "Sums of many products"), where it
measured faster; else ``ctx.convolve`` on the Cayley table.  The join
blocks and the oracle's group rings bind it once.

Units take one of four routes, picked once per ring and per operation by
:func:`_unit_route`:

- Frobenius conjugates (:class:`_Conjugates`) for abelian G with p not
  dividing |G| over a tabled field: u^-1 = u^(p^M - 2) by Itoh and
  Tsujii's chain of products of u and its conjugates u^(p^j), each a
  relabelling of coefficients, where that takes few products: at most
  |G| / 2 on a cyclic group with a packed product, at most |G| otherwise
  (join-units' F9[C16] and F2[C3], calc-mix's F2[C7], F3[C8], F16[C15],
  F25[C4xC4] and F49[C2xC2xC2]; F3[C4] tests units so and inverts by
  Euclid).
- Over C_n otherwise the ring is F_q[y]/(y^n - 1), so a is a unit iff
  gcd(a(y), y^n - 1) = 1, and the extended Euclidean algorithm of
  :mod:`joinrings.poly`, the one the extension fields use, gives its
  inverse (F2[C5], the F4, F25 and F256 blocks, F7[C16], F2048[C5]).
- A group with a cyclic subgroup H of index 2 otherwise (:class:`_Index2`)
  embeds F_q[G] in the 2 x 2 matrices over the commutative F_q[H], so a
  unit test or inverse is one in F_q[H], on its own route, beside two or
  four products there (S3, Q8, D_n, Dic_n, and C2xC4 or C2xC6 where the
  conjugates cost more: the join-units F5[S3] and F5[Q8], calc-mix's
  F4[S3], F3[S3] and F9[C2xC6]).
- Every other group decides units through the regular representation:
  the element is a unit iff its circulant image is an invertible matrix,
  and its inverse is the first row of the circulant's inverse, one
  solution of the transposed system (A4, S4, and the modular C2xC2xC2).

The circulant route stays the independent check of the other three (the
oracle adapters and the tests use it).  :func:`wedderburn_abelian` gives
the :class:`Structure` record of a semisimple abelian F_q[G]: its unit
count and exponent.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from math import lcm, prod

from . import linalg, poly
from .errors import (
    AlgebraError,
    ContextMismatchError,
    InternalConsistencyError,
    NotInvertibleError,
    ParseError,
    parse_int,
)
from .ffield import FamilyProduct, FieldCtx
from .groups import FiniteGroup, Subgroup, cyclic
from .ntheory import ord_mod, power, prime_power


class GroupRingElem:
    """An element sum(a_g * g) of F_q[G].

    The constructor checks the length of the coefficient family but takes
    its codes unchecked, like the raw field operations; codes from outside
    the program are range-checked where they enter, by
    :func:`parse_element` and the JSON reader of the join elements.
    """

    __slots__ = ("ctx", "group", "coeffs")

    def __init__(self, ctx: FieldCtx, group: FiniteGroup, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != group.order:
            raise AlgebraError(
                f"coefficient family has length {len(coeffs)}, expected {group.order}"
            )
        self.ctx = ctx
        self.group = group
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx, group: FiniteGroup) -> "GroupRingElem":
        return cls(ctx, group, (0,) * group.order)

    @classmethod
    def one(cls, ctx: FieldCtx, group: FiniteGroup) -> "GroupRingElem":
        return cls(ctx, group, (1,) + (0,) * (group.order - 1))

    def _check(self, other: "GroupRingElem") -> None:
        if self.ctx != other.ctx or self.group != other.group:
            raise ContextMismatchError("group ring elements from different rings")

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        add = self.ctx.add
        return GroupRingElem(
            self.ctx, self.group, (add(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check(other)
        sub = self.ctx.sub
        return GroupRingElem(
            self.ctx, self.group, (sub(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        self._check(other)
        ctx, group = self.ctx, self.group
        return GroupRingElem(ctx, group, gr_multiplier(ctx, group)(self.coeffs, other.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            return gr_inverse(self) ** (-n)
        return power(self, n, operator.mul, GroupRingElem.one(self.ctx, self.group))

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElem)
            and self.ctx == other.ctx
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.q, self.group, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    # -- structure maps -----------------------------------------------------------

    def aug_total(self) -> int:
        """Coefficient sum (raw code): the classical augmentation into F_q."""
        add = self.ctx.add
        total = 0
        for c in self.coeffs:
            total = add(total, c)
        return total

    def __repr__(self):
        return f"<{format_element(self)} in {self.ctx}[{self.group.name}]>"


def gr_multiplier(ctx: FieldCtx, group: FiniteGroup, packed: bool = False) -> FamilyProduct | None:
    """(u, v) -> the coefficients of u v in F_q[G], for coefficient families.

    The one place that picks a group ring's product (module docstring);
    callers that multiply many times bind the result once.  With `packed`,
    None where that product is the one on the Cayley table.
    """
    product = ctx.kronecker(group.order) if _is_cyclic(group) else None
    if product is not None or packed:
        return product
    convolve, table = ctx.convolve, group.table
    return lambda u, v: tuple(convolve(u, v, table))


# ---------------------------------------------------------------------------
# circulant representation (regular representation)
# ---------------------------------------------------------------------------

def circulant_rows(a: GroupRingElem) -> list[list[int]]:
    """Rows of the circulant image: entry (i, j) is a_{inv(g_i) g_j}."""
    g = a.group
    coeffs = a.coeffs
    return [
        [coeffs[row[j]] for j in range(g.order)]
        for row in (g.table[g.inverse[i]] for i in range(g.order))
    ]


# ---------------------------------------------------------------------------
# augmentation and decomposition
# ---------------------------------------------------------------------------

def augmentation(a: GroupRingElem, H: Subgroup) -> GroupRingElem:
    """Classical augmentation F_q[G] -> F_q[G/H]: coset-wise coefficient sums."""
    quotient, proj = H.quotient
    add = a.ctx.add
    out = [0] * quotient.order
    for g, c in enumerate(a.coeffs):
        if c:
            out[proj[g]] = add(out[proj[g]], c)
    return GroupRingElem(a.ctx, quotient, out)


def idempotent_eH(H: Subgroup, ctx: FieldCtx) -> GroupRingElem:
    """e_H = (1/|H|) sum_{h in H} h; requires |H| invertible in F_q."""
    if H.order % ctx.p == 0:
        raise NotInvertibleError(
            f"|H| = {H.order} is zero in characteristic {ctx.p}; e_H undefined"
        )
    inv_h = ctx.inv(ctx.scalar(H.order))
    coeffs = [0] * H.parent.order
    for h in H.elements:
        coeffs[h] = inv_h
    return GroupRingElem(ctx, H.parent, coeffs)


def gr_decompose(a: GroupRingElem, H: Subgroup) -> tuple[GroupRingElem, GroupRingElem]:
    """Split along F_q[G] = F_q[G/H] x Delta(G, H).

    Returns (augmentation image, a * (1 - e_H)).
    """
    e = idempotent_eH(H, a.ctx)
    f = GroupRingElem.one(a.ctx, a.group) - e
    return augmentation(a, H), a * f


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

def _is_cyclic(group: FiniteGroup) -> bool:
    """True for C_n as built by its invariants, where element i is g^i."""
    return group.invariants is not None and len(group.invariants) == 1


def _not_a_unit() -> NotInvertibleError:
    return NotInvertibleError("group ring element is not a unit")


class _Circulant:
    """Units through the regular representation: a is a unit iff its
    circulant image C is invertible, and a^-1 is the first row x of C^-1,
    the solution of C^T x = e_0."""

    def is_unit(self, a: GroupRingElem) -> bool:
        return linalg.is_invertible(circulant_rows(a), a.ctx)

    def inverse(self, a: GroupRingElem) -> GroupRingElem:
        n = a.group.order
        try:
            column = linalg.solve([*map(list, zip(*circulant_rows(a)))],
                                  [[1]] + [[0]] * (n - 1), a.ctx)
        except NotInvertibleError:
            raise _not_a_unit() from None
        return GroupRingElem(a.ctx, a.group, [x for x, in column])


class _Euclid:
    """Units of F_q[C_n] = F_q[y]/(y^n - 1): a is a unit iff
    gcd(a(y), y^n - 1) = 1, and the Bezout inverse of poly gives a^-1."""

    def __init__(self, ctx: FieldCtx, n: int):
        self.modulus = [ctx.neg(1)] + [0] * (n - 1) + [1]  # y^n - 1

    def is_unit(self, a: GroupRingElem) -> bool:
        return len(poly.euclid(self.modulus, a.coeffs, a.ctx)[0]) == 1

    def inverse(self, a: GroupRingElem) -> GroupRingElem:
        s = poly.inverse(self.modulus, a.coeffs, a.ctx)  # of degree below n
        if s is None:
            raise _not_a_unit()
        return GroupRingElem(a.ctx, a.group, s + [0] * (a.group.order - len(s)))


def _power_products(e: int) -> int:
    """The products :func:`~joinrings.ntheory.power` takes for x^e."""
    return max(e.bit_length() + bin(e).count("1") - 2, 0)


class _Conjugates:
    """Units of a semisimple abelian F_q[G] from the Frobenius conjugates of a.

    With q = p^k, e = exp G and M = lcm(k, ord_e(p)), each component
    F_{q^t} of F_q[G] (:func:`wedderburn_abelian`) is F_{p^(kt)} with
    p^(kt) = 1 mod the order of its characters, so kt divides M and every
    unit u has u^(p^M - 1) = 1.  In the commutative F_q[G] of
    characteristic p, phi(u) = u^p = sum a_h^p h^p: phi^j is one
    permutation of the coefficients, h -> h^(p^j), and the field
    automorphism a -> a^(p^j) on each (``ctx.frobenius``), built once from
    the group's ``power_map`` and the field's table.
    Itoh and Tsujii (Inf. Comput. 78(3), 1988) build
    U_j = prod_{i<j} phi^i(u) by U_2j = U_j phi^j(U_j) and
    U_(j+1) = u phi(U_j).  Then x = phi(U_(M-1)) and N = u x = U_M, so that
    N^(p-1) = u^(p^M - 1), which is 1 exactly when u is a unit (a zero
    component of u is one of N), and u^-1 = x N^(p-2).
    ``products`` counts the ring products of ``(is_unit, inverse)``.
    """

    def __init__(self, ctx: FieldCtx, group: FiniteGroup):
        p, n = ctx.p, group.order
        self.ctx, self.group, self.p = ctx, group, p
        self.m = lcm(ctx.k, ord_mod(group.exponent(), p)) - 1
        self.one = (1,) + (0,) * (n - 1)
        self.multiply = gr_multiplier(ctx, group)
        self.phi = self._conjugation(1)
        self.chain, j = [], 1  # (phi^j, then u phi) for each bit of M - 1 below the top
        for bit in bin(self.m)[3:]:
            self.chain.append((self._conjugation(j), bit == "1"))
            j = 2 * j + (bit == "1")
        norm = len(self.chain) + sum(step for _, step in self.chain) + (self.m > 0)
        odd = p > 2
        self.products = (norm + _power_products(p - 1),
                         norm + _power_products(p - 2) + odd + (odd and self.m > 0))

    def _conjugation(self, j: int):
        """The coefficients of phi^j(u) from those of u: coefficient g is
        a_h^(p^j) for the h = g^(p^-j) with h^(p^j) = g."""
        group = self.group
        source = group.power_map(pow(self.p, -j, group.exponent()))  # p is prime to exp G
        take = operator.itemgetter(*source) if group.order > 1 else tuple
        if not j % self.ctx.k:  # a^(p^k) = a
            return take
        frobenius = self.ctx.frobenius(j)
        if self.ctx.q <= 256:
            codes = bytes(frobenius).ljust(256, b"\0")
            return lambda u: tuple(bytes(take(u)).translate(codes))
        return lambda u: tuple(map(frobenius.__getitem__, take(u)))

    def _norm(self, u):
        """(x, N) of the class docstring, x None where M = 1 and x = 1."""
        if not self.m:
            return None, u
        multiply, phi, acc = self.multiply, self.phi, u  # acc = U_j, from j = 1
        for conjugate, step in self.chain:
            acc = multiply(acc, conjugate(acc))
            if step:
                acc = multiply(u, phi(acc))
        x = phi(acc)
        return x, multiply(u, x)

    def is_unit(self, a: GroupRingElem) -> bool:
        return power(self._norm(a.coeffs)[1], self.p - 1, self.multiply, self.one) == self.one

    def inverse(self, a: GroupRingElem) -> GroupRingElem:
        p, multiply, one = self.p, self.multiply, self.one
        x, norm = self._norm(a.coeffs)
        y = power(norm, p - 2, multiply, one)  # N^-1 if N^(p-1) = 1
        if (multiply(norm, y) if p > 2 else norm) != one:
            raise _not_a_unit()
        return GroupRingElem(self.ctx, self.group,
                             y if x is None else x if p == 2 else multiply(x, y))


def _index2_generator(group: FiniteGroup) -> int | None:
    """The least r whose <r> has index 2 in G, if G has order at least 4; else None."""
    half = group.order // 2
    if half < 2 or group.order % 2:
        return None
    return next((g for g, k in enumerate(group.element_orders) if k == half), None)


class _Index2:
    """Units of F_q[G] for G with a cyclic subgroup H = <r> of index 2.

    With s the least element outside H, sigma(h) = s^-1 h s and
    z = s^2 = r^e, every u is a + s b with a, b in F_q[H] = F_q[C_m]
    (coefficient i at r^i).  From h s = s sigma(h),
    (a + s b)(c + s d) = (a c + z sigma(b) d) + s (sigma(a) d + b c), so u
    acts on the right F_q[H]-module F_q[H] + s F_q[H] as the matrix
    [[a, z sigma(b)], [b, sigma(a)]] over the commutative F_q[H]
    (Passman, The Algebraic Structure of Group Rings, 1977).  Its
    determinant N = a sigma(a) - z b sigma(b) is a unit of F_q[C_m] exactly
    when u is one of F_q[G], and then u^-1 = sigma(a) N^-1 - s b N^-1: two
    products for a unit test and four for an inverse, by C_m's
    :func:`gr_multiplier`, and N's test or inverse on C_m's own route.
    """

    def __init__(self, ctx: FieldCtx, group: FiniteGroup, r: int):
        t, m = group.table, group.order // 2
        powers = [0]  # r^i
        while len(powers) < m:
            powers.append(t[powers[-1]][r])
        at = {h: i for i, h in enumerate(powers)}
        s = next(g for g in range(group.order) if g not in at)
        coset = [t[s][h] for h in powers]  # s r^i
        # sigma(r^i) = r^conjugate[i]; sigma^2 is conjugation by z in the
        # abelian H, so sigma is its own inverse and moves coefficient
        # conjugate[j] to j
        conjugate = [at[t[t[group.inverse[s]][h]][s]] for h in powers]
        self.ctx, self.group, self.m, self.e = ctx, group, m, at[t[s][s]]
        self.ring = cyclic(m)
        self.multiply = gr_multiplier(ctx, self.ring)
        self.split = operator.itemgetter(*powers, *coset)  # u -> (a, b) in one tuple
        self.sigma = operator.itemgetter(*conjugate)
        slot = {g: i for i, g in enumerate(powers + coset)}
        self.join = operator.itemgetter(*map(slot.__getitem__, range(group.order)))

    def _norm(self, u):
        """(sigma(a), b, N) of the class docstring."""
        multiply, sigma, m, e = self.multiply, self.sigma, self.m, self.e
        x = self.split(u)
        a, b = x[:m], x[m:]
        sa, zb = sigma(a), multiply(b, sigma(b))
        if e:  # z x shifts x by e places
            zb = zb[m - e :] + zb[: m - e]
        return sa, b, GroupRingElem(self.ctx, self.ring, map(self.ctx.sub, multiply(a, sa), zb))

    def is_unit(self, a: GroupRingElem) -> bool:
        return gr_is_unit(self._norm(a.coeffs)[2])

    def inverse(self, a: GroupRingElem) -> GroupRingElem:
        multiply = self.multiply
        sa, b, norm = self._norm(a.coeffs)
        y = gr_inverse(norm).coeffs
        c = multiply(sa, y)
        d = map(self.ctx.neg, multiply(b, y))
        return GroupRingElem(self.ctx, self.group, self.join((*c, *d)))


@lru_cache(maxsize=256)
def _unit_route(ctx: FieldCtx, group: FiniteGroup) -> tuple[Callable[[GroupRingElem], bool],
                                                            Callable[[GroupRingElem], GroupRingElem]]:
    """(is_unit, inverse) of F_q[G], each picked once per ring (module
    docstring): by Frobenius conjugates where their count of products says
    they are cheaper, else by Euclid on C_n, through a cyclic subgroup of
    index 2 where G has one, and by the circulant elsewhere.

    A packed product costs little beside Euclid's O(n^2) field steps, so a
    cyclic ring takes at most n / 2 of them, and none on its Cayley table,
    where one costs about what Euclid does; an elimination of the n x n
    circulant costs more than n table products.  The index-2 route takes
    the circulant's place wherever G has such a subgroup: it costs a few
    products and one unit test or inverse on C_(n/2).
    """
    n, is_cyclic = group.order, _is_cyclic(group)
    r = None if is_cyclic else _index2_generator(group)
    other = (_Euclid(ctx, n) if is_cyclic else _Circulant() if r is None
             else _Index2(ctx, group, r))
    is_unit, inverse = other.is_unit, other.inverse
    if not is_cyclic:
        budget = n
    else:
        budget = n // 2 if gr_multiplier(ctx, group, packed=True) else -1
    # the conjugates need G abelian, p prime to |G| and the field's automorphisms as tables
    if budget >= 0 and group.is_abelian and n % ctx.p and ctx.frobenius(0) is not None:
        conjugates = _Conjugates(ctx, group)
        unit_products, inverse_products = conjugates.products
        if unit_products <= budget:
            is_unit = conjugates.is_unit
        if inverse_products <= budget:
            inverse = conjugates.inverse
    return is_unit, inverse


def gr_is_unit(a: GroupRingElem) -> bool:
    return _unit_route(a.ctx, a.group)[0](a)


def gr_inverse(a: GroupRingElem) -> GroupRingElem:
    return _unit_route(a.ctx, a.group)[1](a)


# ---------------------------------------------------------------------------
# structure records and the abelian Wedderburn data (semisimple case)
# ---------------------------------------------------------------------------

def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod over i < n of (q^n - q^i)."""
    return prod(q**n - q**i for i in range(n))


@dataclass(frozen=True)
class Structure:
    """The semisimple ring prod M_n(F_{q^t})^a, over the sorted (n, t, a) of `components`."""

    q: int
    components: tuple[tuple[int, int, int], ...]

    def unit_count(self) -> int:
        """prod |GL_n(F_{q^t})|^a."""
        return prod(gl_order(n, self.q**t) ** a for n, t, a in self.components)

    def exponent(self) -> int:
        """The lcm over the components of exp GL_n(F_Q) = p^e lcm(Q - 1, ..., Q^n - 1),
        Q = q^t, with p^e the least power of p >= n: a unipotent Jordan block's order."""
        p, out = prime_power(self.q)[0], 1
        for n, t, _ in self.components:
            unipotent = next(p**e for e in range(n) if p**e >= n)
            out = lcm(out, unipotent, *(self.q ** (t * i) - 1 for i in range(1, n + 1)))
        return out


def wedderburn_abelian(group: FiniteGroup, ctx: FieldCtx) -> Structure:
    """F_q[G] = prod_d F_{q^t}^(n_d / t), G abelian with gcd(|G|, p) = 1, n_d elements of
    order d and t = ord_d(q)."""
    if not group.is_abelian:
        raise AlgebraError("Wedderburn data implemented for abelian groups only")
    if group.order % ctx.p == 0:
        raise AlgebraError(
            f"characteristic {ctx.p} divides |G| = {group.order}; not semisimple"
        )
    copies: dict[int, int] = {}  # t -> the copies of F_{q^t}
    for d, n_d in sorted(group.order_counts().items()):
        t = ord_mod(d, ctx.q)
        if n_d % t != 0:
            raise InternalConsistencyError(f"n_{d} = {n_d} not divisible by ord_{d}(q) = {t}")
        copies[t] = copies.get(t, 0) + n_d // t
    if sum(t * a for t, a in copies.items()) != group.order:
        raise InternalConsistencyError("Wedderburn dimensions do not add up")
    return Structure(ctx.q, tuple((1, t, a) for t, a in sorted(copies.items())))


def gr_unit_count(group: FiniteGroup, ctx: FieldCtx) -> int:
    """|F_q[G]^x| read from :func:`wedderburn_abelian` (abelian semisimple case)."""
    return wedderburn_abelian(group, ctx).unit_count()


# ---------------------------------------------------------------------------
# element literals: "1+g1+2*g2"
# ---------------------------------------------------------------------------

_ELEM_TERM = re.compile(r"^(?:(\d+)(?:\*(?=g))?)?(?:g(\d+))?$")  # a "*" only before a g


def parse_element(text: str, group: FiniteGroup, ctx: FieldCtx) -> GroupRingElem:
    """Parse "1+g1+2*g2"; gk is the k-th group element, g0 the identity.

    Coefficients are raw field codes (integers in [0, q)).
    """
    text = text.replace(" ", "")
    coeffs = [0] * group.order
    if text in ("", "0"):
        return GroupRingElem(ctx, group, coeffs)
    for term in text.split("+"):
        m = _ELEM_TERM.match(term)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ParseError(f"bad element term {term!r}")
        c = parse_int(m.group(1), "coefficient") if m.group(1) is not None else 1
        g = parse_int(m.group(2), "element index") if m.group(2) is not None else 0
        ctx.check_code(c)
        if not 0 <= g < group.order:
            raise ParseError(f"element index g{g} out of range for {group.name}")
        coeffs[g] = ctx.add(coeffs[g], c)
    return GroupRingElem(ctx, group, coeffs)


def format_element(a: GroupRingElem) -> str:
    terms = []
    for g, c in enumerate(a.coeffs):
        if not c:
            continue
        if g == 0:
            terms.append(str(c))
        elif c == 1:
            terms.append(f"g{g}")
        else:
            terms.append(f"{c}*g{g}")
    return "+".join(terms) if terms else "0"
