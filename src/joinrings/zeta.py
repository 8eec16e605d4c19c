"""Hasse-Weil zeta functions of finite-dimensional F_q-algebras.

A zeta function here is always a finite product prod_n (1 - t^n)^{e_n}
with t = q^{-s} and signed integer exponents, stored as a degree ->
exponent mapping.  The classical (1 - q^{-ns})^{-a} contributes e_n = -a;
positive exponents arise from the join prefactor.
"""

from __future__ import annotations

import json
import re

from .errors import AlgebraError, ParseError
from .ffield import FieldCtx
from .groups import FiniteGroup
from .ntheory import prime_power


class ZetaFunction:
    """A formal product prod_n (1 - q^{-ns})^{e_n}, e_n a signed integer."""

    __slots__ = ("q", "factors")

    def __init__(self, q: int, factors: dict[int, int] | None = None):
        if prime_power(q) is None:
            raise AlgebraError(f"base {q} is not a prime power")
        self.q = q
        cleaned = {}
        for n, e in (factors or {}).items():
            n, e = int(n), int(e)
            if n < 1:
                raise AlgebraError(f"factor degree must be >= 1, got {n}")
            if e:
                cleaned[n] = e
        self.factors = dict(sorted(cleaned.items()))

    def __mul__(self, other: "ZetaFunction") -> "ZetaFunction":
        if self.q != other.q:
            raise AlgebraError(f"base mismatch: {self.q} vs {other.q}")
        merged = dict(self.factors)
        for n, e in other.factors.items():
            merged[n] = merged.get(n, 0) + e
        return ZetaFunction(self.q, merged)

    def pole_order_at_zero(self) -> int:
        """Order of the pole at s = 0 (t = 1): each (1-t^n)^e contributes -e."""
        return -sum(self.factors.values())

    def degree(self) -> int:
        """sum n * (-e_n): the dimension of the centre of R/J."""
        return -sum(n * e for n, e in self.factors.items())

    def __eq__(self, other):
        return (
            isinstance(other, ZetaFunction)
            and self.q == other.q
            and self.factors == other.factors
        )

    def __hash__(self):
        return hash((self.q, tuple(self.factors.items())))

    def __repr__(self):
        return f"ZetaFunction(q={self.q}, {self.pretty()})"

    def pretty(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for n, e in self.factors.items():
            base = f"(1-{self.q}^-s)" if n == 1 else f"(1-{self.q}^-{n}s)"
            parts.append(f"{base}^{e}")
        return " ".join(parts)

    def to_json(self) -> str:
        return json.dumps({"q": self.q, "factors": {str(n): e for n, e in self.factors.items()}})

    @classmethod
    def from_json(cls, text: str) -> "ZetaFunction":
        """Read :meth:`to_json` output; ParseError on any malformed document."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ParseError(f"bad zeta function JSON: {exc}") from None
        q, factors = (data.get("q"), data.get("factors")) if isinstance(data, dict) else (None, None)
        needs = "zeta function JSON needs a prime power 'q' and a 'factors' object"
        if type(q) is not int or not isinstance(factors, dict):
            raise ParseError(needs)
        if not all(re.fullmatch(r"[1-9][0-9]*", n) and type(e) is int for n, e in factors.items()):
            raise ParseError(f"zeta factors must map degrees >= 1 to integers, got {factors}")
        try:
            return cls(q, {int(n): e for n, e in factors.items()})
        except AlgebraError:  # q is no prime power, or too long to decide
            raise ParseError(needs) from None


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def zeta_field(q: int) -> ZetaFunction:
    return ZetaFunction(q, {1: -1})


def zeta_matrix_ring(n: int, q: int) -> ZetaFunction:
    """zeta of M_n(F_q): equals zeta of F_q by Morita invariance."""
    if n < 1:
        raise AlgebraError(f"matrix size must be >= 1, got {n}")
    return ZetaFunction(q, {1: -1})


def zeta_group_ring(group: FiniteGroup, ctx: FieldCtx) -> ZetaFunction:
    """prod over orbits (1 - q^{-ts})^{-1}: the Witt-Berman theorem.

    The simple components of F_q[G]/J match the orbits of C -> C^q on the
    conjugacy classes of p-regular elements, p = char(F_q), and an orbit of
    t classes gives a component with centre F_{q^t}.  F_5[S3] gives
    {1: -3}, F_2[S3] {1: -2} and F_3[Q8] {1: -5}.
    """
    return ZetaFunction(ctx.q, _add_orbits(group, ctx, {}))


def _add_orbits(group: FiniteGroup, ctx: FieldCtx, factors: dict[int, int]) -> dict[int, int]:
    """Add -1 to factors[t] for each orbit of t classes, followed on the
    power map g -> g^q of the group from one member of each; return factors."""
    orders, classes = group.element_orders, group.conjugacy_classes
    label = {g: i for i, c in enumerate(classes) for g in c}
    frobenius = group.power_map(ctx.q % group.exponent())
    seen: set[int] = set()
    for i, c in enumerate(classes):
        if orders[c[0]] % ctx.p == 0 or i in seen:
            continue
        g, t = frobenius[c[0]], 1  # g = c[0]^(q^t)
        while label[g] != i:
            seen.add(label[g])
            g, t = frobenius[g], t + 1
        factors[t] = factors.get(t, 0) - 1
    return factors


def zeta_semimagic(n: int, q: int) -> ZetaFunction:
    """zeta of the semimagic-square ring SM_n(F_q); char-sensitive at n = 2."""
    if n < 1:
        raise AlgebraError(f"semimagic size must be >= 1, got {n}")
    # the constructor refuses a q that is no prime power; one that is, is even iff p = 2
    return ZetaFunction(q, {1: -1 if n == 1 or (n == 2 and q % 2 == 0) else -2})


def zeta_join(shape) -> ZetaFunction:
    """(1 - q^{-s})^{max(r-1, 0)} times the product of the per-block zetas.

    r counts the semisimple blocks.  Only their trivial components merge
    into one M_r(F_q), which removes r - 1 factors (1 - q^{-s})^{-1}; with
    r = 0 nothing merges and nothing is removed.
    """
    factors = {1: max(shape.r - 1, 0)}
    for g in shape.groups:
        _add_orbits(g, shape.ctx, factors)
    return ZetaFunction(shape.ctx.q, factors)
