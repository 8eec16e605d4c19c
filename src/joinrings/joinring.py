"""Join rings of group rings: block elements, embedding, augmentation.

An element of the join of groups G_1..G_d has d diagonal blocks C_i in
F_q[G_i] plus one scalar a_ij per off-diagonal block position; the
off-diagonal block itself is a_ij times the all-ones matrix and is never
materialized except by :func:`join_embed`.

Multiplication uses the closed block formula derived from the two matrix
identities J_{m,n} J_{n,p} = n J_{m,p} and A J_{m,n} = rowsum(A) J_{m,n};
the full matrix embedding stays available as an independent oracle.
"""

from __future__ import annotations

import json
import re
from math import gcd

from . import linalg
from .errors import (
    AlgebraError,
    ContextMismatchError,
    InternalConsistencyError,
    NotInvertibleError,
    ParseError,
)
from .ffield import FieldCtx, parse_field
from .groupring import (
    GroupRingElem,
    augmentation,
    circulant_rows,
    gr_unit_count,
    idempotent_eH,
    wedderburn_abelian,
)
from .groups import FiniteGroup, Subgroup, parse_group_spec


class JoinShape:
    """An ordered family of block groups over a fixed coefficient field."""

    def __init__(self, groups_, ctx: FieldCtx):
        self.groups: tuple[FiniteGroup, ...] = tuple(groups_)
        if not self.groups:
            raise AlgebraError("a join shape needs at least one block group")
        self.ctx = ctx
        self.d = len(self.groups)
        self.sizes = tuple(g.order for g in self.groups)
        self.n = sum(self.sizes)
        self.offsets = tuple(sum(self.sizes[:i]) for i in range(self.d))
        # r = number of blocks whose order is invertible in F_q; block order
        # is irrelevant here, only the count and membership are used.
        self.semisimple_blocks = tuple(
            i for i, g in enumerate(self.groups) if gcd(g.order, ctx.p) == 1
        )
        self.r = len(self.semisimple_blocks)

    def zero(self) -> "JoinElem":
        return JoinElem(
            self,
            [GroupRingElem.zero(self.ctx, g) for g in self.groups],
            [[0] * self.d for _ in range(self.d)],
        )

    def one(self) -> "JoinElem":
        return JoinElem(
            self,
            [GroupRingElem.one(self.ctx, g) for g in self.groups],
            [[0] * self.d for _ in range(self.d)],
        )

    def element(self, blocks, offdiag=None) -> "JoinElem":
        if offdiag is None:
            offdiag = [[0] * self.d for _ in range(self.d)]
        return JoinElem(self, blocks, offdiag)

    def dimension(self) -> int:
        """Dimension over F_q: sum |G_i| plus d(d-1) off-diagonal scalars."""
        return self.n + self.d * (self.d - 1)

    def __eq__(self, other):
        return (
            isinstance(other, JoinShape)
            and self.ctx == other.ctx
            and self.groups == other.groups
        )

    def __hash__(self):
        return hash((self.ctx.q, self.groups))

    def __repr__(self):
        names = ",".join(g.name for g in self.groups)
        return f"join({names};F{self.ctx.q})"


class JoinElem:
    """d diagonal group-ring blocks plus off-diagonal scalars a_ij."""

    __slots__ = ("shape", "blocks", "offdiag")

    def __init__(self, shape: JoinShape, blocks, offdiag):
        blocks = tuple(blocks)
        offdiag = tuple(tuple(row) for row in offdiag)
        if len(blocks) != shape.d or len(offdiag) != shape.d:
            raise AlgebraError("block count does not match shape")
        for g, b in zip(shape.groups, blocks):
            if b.group != g or b.ctx != shape.ctx:
                raise ContextMismatchError("block does not live in its slot's group ring")
        if any(offdiag[i][i] != 0 for i in range(shape.d)):
            raise AlgebraError("diagonal entries of the off-diagonal family must be zero")
        self.shape = shape
        self.blocks = blocks
        self.offdiag = offdiag

    def _check(self, other: "JoinElem") -> None:
        if self.shape != other.shape:
            raise ContextMismatchError("join elements with different shapes")

    def __add__(self, other):
        self._check(other)
        add = self.shape.ctx.add
        return JoinElem(
            self.shape,
            [a + b for a, b in zip(self.blocks, other.blocks)],
            [
                [add(x, y) for x, y in zip(ra, rb)]
                for ra, rb in zip(self.offdiag, other.offdiag)
            ],
        )

    def __sub__(self, other):
        self._check(other)
        sub = self.shape.ctx.sub
        return JoinElem(
            self.shape,
            [a - b for a, b in zip(self.blocks, other.blocks)],
            [
                [sub(x, y) for x, y in zip(ra, rb)]
                for ra, rb in zip(self.offdiag, other.offdiag)
            ],
        )

    def __mul__(self, other):
        return join_mul(self, other)

    def __pow__(self, n: int):
        if n < 0:
            return join_inverse(self) ** (-n)
        result = self.shape.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, JoinElem)
            and self.shape == other.shape
            and self.blocks == other.blocks
            and self.offdiag == other.offdiag
        )

    def __hash__(self):
        return hash((self.shape, self.blocks, self.offdiag))

    def __bool__(self):
        return any(self.blocks) or any(any(r) for r in self.offdiag)

    def is_diagonal(self) -> bool:
        """True when every off-diagonal scalar vanishes."""
        return not any(any(r) for r in self.offdiag)

    def __repr__(self):
        return f"<join element of {self.shape}>"

    # -- JSON wire format -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "shape": repr(self.shape),
                "blocks": [list(b.coeffs) for b in self.blocks],
                "offdiag": [list(r) for r in self.offdiag],
            }
        )

    @classmethod
    def from_json(cls, text: str, shape: JoinShape | None = None) -> "JoinElem":
        """Read :meth:`to_json` output; ParseError on any malformed or out-of-range entry."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ParseError(f"bad join element JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ParseError("join element JSON must be an object")
        if shape is None:
            shape = parse_shape_spec(str(data.get("shape")))
        ctx, d, blocks = shape.ctx, shape.d, data.get("blocks")
        if not isinstance(blocks, list) or len(blocks) != d:
            raise ParseError(f"expected {d} blocks for {shape}")
        for g, coeffs in zip(shape.groups, blocks):
            if not isinstance(coeffs, list) or len(coeffs) != g.order:
                raise ParseError(f"a block over {g.name} needs {g.order} coefficients")
            for c in coeffs:
                ctx.check_code(c)
        offdiag = data.get("offdiag")
        if not isinstance(offdiag, list) or len(offdiag) != d or any(
            not isinstance(row, list) or len(row) != d for row in offdiag
        ):
            raise ParseError(f"the off-diagonal family must be a {d} x {d} list")
        for i, row in enumerate(offdiag):
            for v in row:
                ctx.check_code(v)
            if row[i]:
                raise ParseError("diagonal entries of the off-diagonal family must be zero")
        blocks = [GroupRingElem(ctx, g, coeffs) for g, coeffs in zip(shape.groups, blocks)]
        return cls(shape, blocks, offdiag)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def join_mul(a: JoinElem, b: JoinElem) -> JoinElem:
    """Block-formula product (agrees with matrix product after embedding)."""
    a._check(b)
    shape = a.shape
    ctx = shape.ctx
    d = shape.d
    add, mul = ctx.add, ctx.mul
    sizes = [ctx.scalar(k) for k in shape.sizes]
    aug_a = [blk.aug_total() for blk in a.blocks]
    aug_b = [blk.aug_total() for blk in b.blocks]

    blocks = []
    for i in range(d):
        blk = a.blocks[i] * b.blocks[i]
        # contributions a_ik * J * b_ki * J = a_ik b_ki k_k * (all-ones)
        s = 0
        for k in range(d):
            if k != i:
                s = add(s, mul(mul(a.offdiag[i][k], b.offdiag[k][i]), sizes[k]))
        if s:
            blk = blk + GroupRingElem.all_ones(ctx, shape.groups[i]).scale(s)
        blocks.append(blk)

    offdiag = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            s = add(mul(aug_a[i], b.offdiag[i][j]), mul(a.offdiag[i][j], aug_b[j]))
            for k in range(d):
                if k != i and k != j:
                    s = add(s, mul(mul(a.offdiag[i][k], b.offdiag[k][j]), sizes[k]))
            offdiag[i][j] = s
    return JoinElem(shape, blocks, offdiag)


def join_embed(a: JoinElem) -> list[list[int]]:
    """The element as a full n x n matrix over F_q (raw codes)."""
    shape = a.shape
    n = shape.n
    rows = [[0] * n for _ in range(n)]
    for i, blk in enumerate(a.blocks):
        off = shape.offsets[i]
        for r, row in enumerate(circulant_rows(blk)):
            rows[off + r][off : off + shape.sizes[i]] = row
    for i in range(shape.d):
        for j in range(shape.d):
            if i == j or not a.offdiag[i][j]:
                continue
            v = a.offdiag[i][j]
            oi, oj = shape.offsets[i], shape.offsets[j]
            for r in range(shape.sizes[i]):
                row = rows[oi + r]
                for c in range(shape.sizes[j]):
                    row[oj + c] = v
    return rows


def join_unembed(shape: JoinShape, rows) -> JoinElem:
    """Inverse of join_embed; raises if the matrix is not in the join subring."""
    from .groupring import CirculantMatrix, from_circulant

    blocks = []
    for i, g in enumerate(shape.groups):
        off = shape.offsets[i]
        sub = [row[off : off + g.order] for row in rows[off : off + g.order]]
        blocks.append(
            from_circulant(CirculantMatrix(tuple(tuple(r) for r in sub), g, shape.ctx))
        )
    offdiag = [[0] * shape.d for _ in range(shape.d)]
    for i in range(shape.d):
        for j in range(shape.d):
            if i == j:
                continue
            oi, oj = shape.offsets[i], shape.offsets[j]
            v = rows[oi][oj]
            for r in range(shape.sizes[i]):
                for c in range(shape.sizes[j]):
                    if rows[oi + r][oj + c] != v:
                        raise AlgebraError(
                            f"off-diagonal block ({i}, {j}) is not constant"
                        )
            offdiag[i][j] = v
    return JoinElem(shape, blocks, offdiag)


# ---------------------------------------------------------------------------
# generalized augmentation and decomposition
# ---------------------------------------------------------------------------

def _check_subgroups(shape: JoinShape, subgroups) -> list[Subgroup]:
    subgroups = list(subgroups)
    if len(subgroups) != shape.d:
        raise AlgebraError("need one subgroup per block")
    for g, h in zip(shape.groups, subgroups):
        if h.parent != g:
            raise AlgebraError("subgroup does not belong to its block group")
    return subgroups


def quotient_shape(shape: JoinShape, subgroups) -> JoinShape:
    subgroups = _check_subgroups(shape, subgroups)
    from .groupring import _quotient_cached

    return JoinShape([_quotient_cached(h)[0] for h in subgroups], shape.ctx)


def gen_augmentation(a: JoinElem, subgroups) -> JoinElem:
    """Blockwise augmentation; off-diagonal a_ij picks up a factor |H_j|.

    With all H_i = G_i this is the matrix-valued augmentation into M_d(F_q).
    """
    shape = a.shape
    subgroups = _check_subgroups(shape, subgroups)
    ctx = shape.ctx
    target = quotient_shape(shape, subgroups)
    blocks = [augmentation(blk, h) for blk, h in zip(a.blocks, subgroups)]
    offdiag = [
        [
            ctx.mul(a.offdiag[i][j], ctx.scalar(subgroups[j].order)) if i != j else 0
            for j in range(shape.d)
        ]
        for i in range(shape.d)
    ]
    return JoinElem(target, blocks, offdiag)


def aug_matrix(a: JoinElem) -> list[list[int]]:
    """The d x d matrix image of a under augmentation by all H_i = G_i."""
    full = [g.full_subgroup() for g in a.shape.groups]
    img = gen_augmentation(a, full)
    d = a.shape.d
    return [
        [img.blocks[i].coeffs[0] if i == j else img.offdiag[i][j] for j in range(d)]
        for i in range(d)
    ]


def join_idempotents(shape: JoinShape, subgroups) -> list[JoinElem]:
    """The d+1 orthogonal central idempotents behind the decomposition.

    Entries 0..d-1 carry 1 - e_{H_i} in block i; the last is the complement,
    with e_{H_i} in every diagonal block.
    """
    subgroups = _check_subgroups(shape, subgroups)
    ctx = shape.ctx
    out = []
    for i, (g, h) in enumerate(zip(shape.groups, subgroups)):
        f_i = GroupRingElem.one(ctx, g) - idempotent_eH(h, ctx)
        blocks = [
            f_i if j == i else GroupRingElem.zero(ctx, gj)
            for j, gj in enumerate(shape.groups)
        ]
        out.append(shape.element(blocks))
    last = shape.one()
    for f in out:
        last = last - f
    out.append(last)
    return out


def join_decompose(a: JoinElem, subgroups):
    """Split along J = J_{G_i/H_i} x prod Delta(G_i, H_i).

    Returns (gen_augmentation image, [C_i * (1 - e_{H_i})]).
    """
    shape = a.shape
    subgroups = _check_subgroups(shape, subgroups)
    ctx = shape.ctx
    deltas = []
    for blk, h in zip(a.blocks, subgroups):
        f = GroupRingElem.one(ctx, blk.group) - idempotent_eH(h, ctx)
        deltas.append(blk * f)
    return gen_augmentation(a, subgroups), deltas


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

def join_is_unit(a: JoinElem) -> bool:
    return linalg.is_invertible(join_embed(a), a.shape.ctx)


def join_inverse(a: JoinElem) -> JoinElem:
    try:
        inv_rows = linalg.inverse(join_embed(a), a.shape.ctx)
    except NotInvertibleError:
        raise NotInvertibleError("join element is not a unit") from None
    try:
        result = join_unembed(a.shape, inv_rows)
    except AlgebraError as exc:
        # The inverse of a join-subring unit must itself be a join element;
        # anything else means the arithmetic is broken.
        raise InternalConsistencyError(
            f"matrix inverse left the join subring: {exc}"
        ) from exc
    return result


def join_unit_count(shape: JoinShape) -> int:
    """|J^x| for abelian blocks with orders invertible in F_q.

    Computed through the decomposition J = M_d(F_q) x prod Delta(G_i):
    |GL_d(F_q)| times the product of the Delta(G_i) unit-group orders.
    """
    q = shape.ctx.q
    for g in shape.groups:
        if not g.is_abelian:
            raise AlgebraError("unit-count formula needs abelian blocks")
        if g.order % shape.ctx.p == 0:
            raise AlgebraError("block order divisible by the characteristic")
    d = shape.d
    total = 1
    for i in range(d):
        total *= q**d - q**i
    for g in shape.groups:
        # Delta(G)^x: drop one copy of the trivial-character factor F_q^x.
        wd = wedderburn_abelian(g, shape.ctx)
        total *= wd.unit_count() // (q - 1)
    return total


def thm_unit_count_rooted(shape: JoinShape) -> int:
    """The all-rooted closed form prod(q^{p_i-1} - 1) * |GL_d(F_q)|."""
    q = shape.ctx.q
    d = shape.d
    total = 1
    for g in shape.groups:
        total *= q ** (g.order - 1) - 1
    for i in range(d):
        total *= q**d - q**i
    return total


def diagonal_unit_count(shape: JoinShape) -> int:
    """Order of the subgroup of diagonal units: prod |F_q[G_i]^x|."""
    total = 1
    for g in shape.groups:
        total *= gr_unit_count(g, shape.ctx)
    return total


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_SHAPE_RE = re.compile(r"^join\(([^;]+);(F\d+)\)$")


def parse_shape_spec(spec: str) -> JoinShape:
    """Parse a shape spec like "join(C3,C5;F2)"."""
    m = _SHAPE_RE.match(spec.replace(" ", ""))
    if not m:
        raise ParseError(f"bad shape spec {spec!r}; expected e.g. 'join(C3,C5;F2)'")
    groups_ = [parse_group_spec(s) for s in m.group(1).split(",")]
    return JoinShape(groups_, parse_field(m.group(2)))


_ASSIGN_RE = re.compile(r"^a\[(\d+)\]\[(\d+)\]=(\d+)$")


def parse_join_element(text: str, shape: JoinShape) -> JoinElem:
    """Parse "<block>;<block>;...;a[i][j]=v;..." with 1-based block indices.

    Block literals use the group-ring element syntax and must appear in
    order, one per block; a[i][j] assignments may follow in any order.
    """
    from .groupring import parse_element

    parts = [p for p in text.split(";") if p.strip()]
    blocks = []
    offdiag = [[0] * shape.d for _ in range(shape.d)]
    for part in parts:
        part = part.strip().replace(" ", "")
        m = _ASSIGN_RE.match(part)
        if m:
            i, j, v = int(m.group(1)) - 1, int(m.group(2)) - 1, int(m.group(3))
            if not (0 <= i < shape.d and 0 <= j < shape.d) or i == j:
                raise ParseError(f"bad off-diagonal position in {part!r}")
            offdiag[i][j] = shape.ctx.check_code(v)
        else:
            if len(blocks) >= shape.d:
                raise ParseError("too many block literals")
            blocks.append(parse_element(part, shape.groups[len(blocks)], shape.ctx))
    while len(blocks) < shape.d:
        blocks.append(GroupRingElem.zero(shape.ctx, shape.groups[len(blocks)]))
    return JoinElem(shape, blocks, offdiag)
