"""The group ring F_q[G]: its products, units and structure maps.

A :class:`GroupRingElem` stores its coefficient family as a tuple of raw
field codes indexed by group-element index.  :func:`gr_multiplier` picks
each ring's product: for C_n built from its one invariant (element i is
g^i) over a prime field, ``ctx.kronecker(n)``, one integer product of the
packed families folded by y^n = 1 (:mod:`joinrings.ffield`, "Sums of many
products"), where it measured faster; else ``ctx.convolve`` on the Cayley
table.  The join blocks and the oracle's group rings bind it once.  Over
C_n the ring is F_q[y]/(y^n - 1), so an element a is a unit iff
gcd(a(y), y^n - 1) = 1, and the extended Euclidean algorithm of
:mod:`joinrings.poly`, the one the extension fields use, gives its
inverse.  Every other group decides units through the regular
representation: the element is a unit iff its circulant image is an
invertible matrix, and inverses are pulled back through the first row.
The circulant route stays the independent check of the Euclidean one (the
oracle adapters and the tests use it).  :func:`wedderburn_abelian` gives the
:class:`Structure` record of a semisimple abelian F_q[G]: its unit count and exponent.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
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
from .groups import FiniteGroup, Subgroup
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


def gr_multiplier(ctx: FieldCtx, group: FiniteGroup) -> FamilyProduct:
    """(u, v) -> the coefficients of u v in F_q[G], for coefficient families.

    The one place that picks a group ring's product (module docstring);
    callers that multiply many times bind the result once.
    """
    product = ctx.kronecker(group.order) if _is_cyclic(group) else None
    if product is not None:
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


def _cyclic_modulus(a: GroupRingElem) -> list[int]:
    """y^n - 1, for a in F_q[C_n] = F_q[y]/(y^n - 1)."""
    return [a.ctx.neg(1)] + [0] * (a.group.order - 1) + [1]


def gr_is_unit(a: GroupRingElem) -> bool:
    if _is_cyclic(a.group):
        return len(poly.euclid(_cyclic_modulus(a), a.coeffs, a.ctx)[0]) == 1
    return linalg.is_invertible(circulant_rows(a), a.ctx)


def gr_inverse(a: GroupRingElem) -> GroupRingElem:
    ctx = a.ctx
    if not _is_cyclic(a.group):
        try:
            coeffs = linalg.inverse(circulant_rows(a), ctx)[0]
        except NotInvertibleError:
            raise NotInvertibleError("group ring element is not a unit") from None
        return GroupRingElem(ctx, a.group, coeffs)
    last, quotients = poly.euclid(_cyclic_modulus(a), a.coeffs, ctx)
    if len(last) != 1:
        raise NotInvertibleError("group ring element is not a unit")
    # the cofactor has degree below n, and times a(y) it is c mod y^n - 1
    c, mul = ctx.inv(last[0]), ctx.mul
    s = poly.cofactor(quotients, ctx)
    return GroupRingElem(ctx, a.group, [mul(c, x) for x in s] + [0] * (a.group.order - len(s)))


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
