"""The group ring F_q[G]: convolution arithmetic and structure maps.

A :class:`GroupRingElem` stores its coefficient family as a tuple of raw
field codes indexed by group-element index.  Units are decided through the
regular representation: the element is a unit iff its circulant image is
an invertible matrix, and inverses are pulled back through the first row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import linalg
from .errors import (
    AlgebraError,
    ContextMismatchError,
    NotInvertibleError,
    ParseError,
)
from .ffield import FieldCtx, FieldElement
from .groups import FiniteGroup, Subgroup
from .ntheory import ord_mod


class GroupRingElem:
    """An element sum(a_g * g) of F_q[G]."""

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
        return cls.delta(ctx, group, 0)

    @classmethod
    def delta(cls, ctx: FieldCtx, group: FiniteGroup, g: int, scale: int = 1) -> "GroupRingElem":
        coeffs = [0] * group.order
        coeffs[g] = scale % ctx.q if ctx.k == 1 else scale
        return cls(ctx, group, coeffs)

    @classmethod
    def all_ones(cls, ctx: FieldCtx, group: FiniteGroup) -> "GroupRingElem":
        """The element 1 + g_2 + ... + g_n (all coefficients one)."""
        return cls(ctx, group, (1,) * group.order)

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

    def __neg__(self):
        neg = self.ctx.neg
        return GroupRingElem(self.ctx, self.group, (neg(a) for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return GroupRingElem(
            self.ctx,
            self.group,
            _convolve(self.coeffs, other.coeffs, self.group.table, self.ctx),
        )

    def scale(self, c: int) -> "GroupRingElem":
        """Multiply by a scalar, given as a raw field code."""
        mul = self.ctx.mul
        return GroupRingElem(self.ctx, self.group, (mul(c, a) for a in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            return gr_inverse(self) ** (-n)
        result = GroupRingElem.one(self.ctx, self.group)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElem)
            and self.ctx == other.ctx
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.q, id(self.group), self.coeffs))

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

    def coefficient(self, g: int) -> FieldElement:
        return FieldElement(self.ctx, self.coeffs[g])

    def __repr__(self):
        return f"<{format_element(self)} in {self.ctx}[{self.group.name}]>"


def _convolve(a, b, table, ctx: FieldCtx):
    out = [0] * len(a)
    add, mul = ctx.add, ctx.mul
    for h, ah in enumerate(a):
        if not ah:
            continue
        row = table[h]
        for k, bk in enumerate(b):
            if bk:
                g = row[k]
                out[g] = add(out[g], mul(ah, bk))
    return out


# ---------------------------------------------------------------------------
# circulant representation (regular representation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CirculantMatrix:
    """|G| x |G| matrix with entry (i, j) = a_{inv(g_i) g_j}."""

    rows: tuple
    group: FiniteGroup
    ctx: FieldCtx

    def as_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def to_circulant(a: GroupRingElem) -> CirculantMatrix:
    rows = circulant_rows(a)
    return CirculantMatrix(tuple(tuple(r) for r in rows), a.group, a.ctx)


def circulant_rows(a: GroupRingElem) -> list[list[int]]:
    """Raw rows of the circulant image (no wrapper object)."""
    g = a.group
    coeffs = a.coeffs
    return [
        [coeffs[row[j]] for j in range(g.order)]
        for row in (g.table[g.inverse[i]] for i in range(g.order))
    ]


def from_circulant(m: CirculantMatrix) -> GroupRingElem:
    g, ctx = m.group, m.ctx
    coeffs = m.rows[0]
    elem = GroupRingElem(ctx, g, coeffs)
    if circulant_rows(elem) != m.as_lists():
        raise AlgebraError("matrix does not satisfy the circulant condition")
    return elem


# ---------------------------------------------------------------------------
# augmentation and decomposition
# ---------------------------------------------------------------------------

def augmentation(a: GroupRingElem, H: Subgroup) -> GroupRingElem:
    """Classical augmentation F_q[G] -> F_q[G/H]: coset-wise coefficient sums."""
    quotient, proj = _quotient_cached(H)
    add = a.ctx.add
    out = [0] * quotient.order
    for g, c in enumerate(a.coeffs):
        if c:
            out[proj[g]] = add(out[proj[g]], c)
    return GroupRingElem(a.ctx, quotient, out)


_QUOTIENT_CACHE: dict = {}


def _quotient_cached(H: Subgroup):
    key = (id(H.parent), H.elements)
    if key not in _QUOTIENT_CACHE:
        _QUOTIENT_CACHE[key] = H.parent.quotient(H)
    return _QUOTIENT_CACHE[key]


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

def gr_is_unit(a: GroupRingElem) -> bool:
    return linalg.is_invertible(circulant_rows(a), a.ctx)


def gr_inverse(a: GroupRingElem) -> GroupRingElem:
    try:
        inv_rows = linalg.inverse(circulant_rows(a), a.ctx)
    except NotInvertibleError:
        raise NotInvertibleError("group ring element is not a unit") from None
    return GroupRingElem(a.ctx, a.group, inv_rows[0])


# ---------------------------------------------------------------------------
# Wedderburn data for abelian group algebras (semisimple case)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WedderburnData:
    """Factorization data F_q[G] = prod_d  F_{q^{ord_d(q)}} ^ {a_d}.

    `triples` lists (d, a_d, ord_d(q)) over divisors d of |G| with a_d > 0.
    """

    triples: tuple[tuple[int, int, int], ...]
    q: int
    group: FiniteGroup

    def dimension(self) -> int:
        return sum(a * deg for _, a, deg in self.triples)

    def unit_count(self) -> int:
        total = 1
        for _, a, deg in self.triples:
            total *= (self.q**deg - 1) ** a
        return total


def wedderburn_abelian(group: FiniteGroup, ctx: FieldCtx) -> WedderburnData:
    """Simple-component data of F_q[G] for abelian G with gcd(|G|, p) = 1."""
    if not group.is_abelian:
        raise AlgebraError("Wedderburn data implemented for abelian groups only")
    if group.order % ctx.p == 0:
        raise AlgebraError(
            f"characteristic {ctx.p} divides |G| = {group.order}; not semisimple"
        )
    triples = []
    for d, n_d in sorted(group.order_counts().items()):
        deg = ord_mod(d, ctx.q)
        if n_d % deg != 0:
            raise AlgebraError(f"n_{d} = {n_d} not divisible by ord_{d}(q) = {deg}")
        triples.append((d, n_d // deg, deg))
    data = WedderburnData(tuple(triples), ctx.q, group)
    if data.dimension() != group.order:
        raise AlgebraError("Wedderburn dimensions do not add up")
    return data


def gr_unit_count(group: FiniteGroup, ctx: FieldCtx) -> int:
    """|F_q[G]^x| via the simple-component data (abelian semisimple case)."""
    return wedderburn_abelian(group, ctx).unit_count()


# ---------------------------------------------------------------------------
# element literals: "1+g1+2*g2"
# ---------------------------------------------------------------------------

_ELEM_TERM = re.compile(r"^(?:(\d+)\*?)?(?:g(\d+))?$")


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
        c = int(m.group(1)) if m.group(1) is not None else 1
        g = int(m.group(2)) if m.group(2) is not None else 0
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
