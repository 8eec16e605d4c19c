"""Join rings of group rings: block elements, embedding, augmentation.

An element of the join of groups G_1..G_d has d diagonal blocks C_i in
F_q[G_i] plus one scalar a_ij per off-diagonal block position; the
off-diagonal block itself is a_ij times the all-ones matrix and is never
materialized except by :func:`join_embed`.

Multiplication uses the closed block formula derived from the two matrix
identities J_{m,n} J_{n,p} = n J_{m,p} and A J_{m,n} = rowsum(A) J_{m,n},
on coordinate vectors (:meth:`JoinShape.product`); :func:`join_mul` wraps
it for elements.
Units and inverses come from the join decomposition: shifted blocks b_i in
F_q[G_i] and one d x d matrix, by the matrix determinant lemma and
Woodbury's identity (see :func:`_woodbury_split`).  The full matrix
embedding (:func:`join_embed`, :func:`join_unembed`) stays available as an
independent oracle; nothing in the unit routes builds it.  The unit count
reads the Structure record of :func:`join_structure`: J = M_d(F_q) x prod Delta(G_i).
"""

from __future__ import annotations

import json
import random
import re
from functools import cached_property, reduce
from itertools import chain
from math import prod

from . import linalg
from .errors import (
    AlgebraError,
    ContextMismatchError,
    InternalConsistencyError,
    NotInvertibleError,
    ParseError,
    parse_int,
)
from .ffield import FamilyProduct, FieldCtx, parse_field
from .groupring import (
    GroupRingElem,
    Structure,
    augmentation,
    circulant_rows,
    gl_order,
    gr_decompose,
    gr_inverse,
    gr_is_unit,
    gr_multiplier,
    gr_unit_count,
    parse_element,
    wedderburn_abelian,
)
from .groups import ORDER_CAP, FiniteGroup, Subgroup, parse_group_spec
from .ntheory import power


class JoinShape:
    """An ordered family of block groups over a fixed coefficient field."""

    def __init__(self, groups_, ctx: FieldCtx):
        self.groups: tuple[FiniteGroup, ...] = tuple(groups_)
        if not self.groups:
            raise AlgebraError("a join shape needs at least one block group")
        if len(self.groups) > ORDER_CAP // 4:  # before the d(d - 1) pairs below
            raise AlgebraError(f"a join shape of {len(self.groups)} blocks exceeds "
                               f"the cap of {ORDER_CAP // 4}")
        self.ctx = ctx
        self.d = len(self.groups)
        self.sizes = tuple(g.order for g in self.groups)
        self.n = sum(self.sizes)
        self.offsets = tuple(sum(self.sizes[:i]) for i in range(self.d))
        # r = number of blocks whose order is invertible in F_q
        self.r = sum(g.order % ctx.p != 0 for g in self.groups)
        # (i, j) -> the coordinate of a_ij in the layout of from_vector, row by row
        pairs = [(i, j) for i in range(self.d) for j in range(self.d) if i != j]
        self.offdiag_at = {pair: h for h, pair in enumerate(pairs, self.n)}

    def zero(self) -> "JoinElem":
        return self.from_vector([0] * self.dimension())

    def one(self) -> "JoinElem":
        return self.from_vector(self._one)

    @cached_property
    def _one(self) -> tuple[int, ...]:
        """The coordinates of the identity: a 1 at the start of each block."""
        vec = [0] * self.dimension()
        for lo in self.offsets:
            vec[lo] = 1
        return tuple(vec)

    def from_vector(self, vec) -> "JoinElem":
        """The element whose :meth:`dimension` coordinates are `vec`: every
        block coefficient in block order, then the a_ij row by row."""
        vec = tuple(vec)
        if len(vec) != self.dimension():
            raise AlgebraError(f"{self} needs {self.dimension()} coordinates, not {len(vec)}")
        a = object.__new__(JoinElem)  # JoinElem's checks hold here
        a.shape, a.coeffs = self, vec
        return a

    @cached_property
    def _blocks(self) -> list[tuple[int, int, FamilyProduct]]:
        """The coordinate range of each block and its group ring's product,
        bound once, on the first product, so that shapes built for one
        augmentation never bind it."""
        return [(lo, lo + g.order, gr_multiplier(self.ctx, g))
                for g, lo in zip(self.groups, self.offsets)]

    @cached_property
    def _terms(self) -> list[list[list[tuple[int, int, int]]]]:
        """[i][j]: the coordinates of a_ik and b_kj, and |G_k|, for each k != i, j."""
        at = self.offdiag_at
        return [[[(at[i, k], at[k, j], self.ctx.scalar(size))
                  for k, size in enumerate(self.sizes) if k not in (i, j)]
                 for j in range(self.d)] for i in range(self.d)]

    def product(self, u, v) -> tuple[int, ...]:
        """The coordinates of u v, for u and v in the layout of :meth:`from_vector`.

        With a_ij the scalars of u, b_ij those of v and epsilon the
        augmentation, block i is u_i v_i plus the sum of a_ik b_ki |G_k| over
        k != i times the all-ones element, and the scalar (i, j) is
        epsilon(u_i) b_ij + a_ij epsilon(v_j) plus the sum of a_ik b_kj |G_k|
        over k != i, j, by the identities of the module docstring.
        """
        ctx, terms = self.ctx, self._terms
        add, mul = ctx.add, ctx.mul
        out, aug_u, aug_v = [], [], []
        for i, (lo, hi, times) in enumerate(self._blocks):
            x, y = u[lo:hi], v[lo:hi]
            aug_u.append(reduce(add, x, 0))
            aug_v.append(reduce(add, y, 0))
            s = 0
            for ik, ki, size in terms[i][i]:
                s = add(s, mul(mul(u[ik], v[ki]), size))
            block = times(x, y)
            out += [add(c, s) for c in block] if s else block
        for (i, j), ij in self.offdiag_at.items():
            s = add(mul(aug_u[i], v[ij]), mul(u[ij], aug_v[j]))
            for ik, kj, size in terms[i][j]:
                s = add(s, mul(mul(u[ik], v[kj]), size))
            out.append(s)
        return tuple(out)

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
    """d diagonal group-ring blocks plus off-diagonal scalars a_ij, held as
    the coordinate tuple `coeffs` of :meth:`JoinShape.from_vector`; `blocks`
    and `offdiag` are read-only views of it.  The constructor checks the
    block layout but takes the codes unchecked; codes from outside the
    program are range-checked where they enter, by
    :func:`parse_join_element` and :meth:`from_json`.
    """

    __slots__ = ("shape", "coeffs")

    def __init__(self, shape: JoinShape, blocks, offdiag):
        blocks, offdiag = tuple(blocks), [tuple(row) for row in offdiag]
        if len(blocks) != shape.d or len(offdiag) != shape.d or {*map(len, offdiag)} != {shape.d}:
            raise AlgebraError("block count or off-diagonal family does not fit the shape")
        # lists compare item by item, taking an identical item as equal first
        if ([b.group for b in blocks] != list(shape.groups)
                or [b.ctx for b in blocks] != [shape.ctx] * shape.d):
            raise ContextMismatchError("block does not live in its slot's group ring")
        if any(offdiag[i][i] != 0 for i in range(shape.d)):
            raise AlgebraError("diagonal entries of the off-diagonal family must be zero")
        coeffs = [c for b in blocks for c in b.coeffs]
        coeffs += [offdiag[i][j] for i, j in shape.offdiag_at]
        self.shape, self.coeffs = shape, tuple(coeffs)

    @property
    def blocks(self) -> tuple[GroupRingElem, ...]:
        shape, c = self.shape, self.coeffs
        return tuple([GroupRingElem(shape.ctx, g, c[lo : lo + g.order])
                      for g, lo in zip(shape.groups, shape.offsets)])

    @property
    def offdiag(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._rows()))

    def _rows(self) -> list[list[int]]:
        """The d x d family of the a_ij, zero on the diagonal, as new lists."""
        c, d = self.coeffs, self.shape.d
        rows = [[0] * d for _ in range(d)]
        for (i, j), ij in self.shape.offdiag_at.items():
            rows[i][j] = c[ij]
        return rows

    def _check(self, other: "JoinElem") -> None:
        if self.shape != other.shape:
            raise ContextMismatchError("join elements with different shapes")

    def __add__(self, other):
        self._check(other)
        return self.shape.from_vector(map(self.shape.ctx.add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return self.shape.from_vector(map(self.shape.ctx.sub, self.coeffs, other.coeffs))

    def __mul__(self, other):
        return join_mul(self, other)

    def __pow__(self, n: int):
        if n < 0:
            return join_inverse(self) ** (-n)
        return power(self, n, join_mul, self.shape.one())

    def __eq__(self, other):
        return (
            isinstance(other, JoinElem)
            and self.shape == other.shape
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.shape, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"<join element of {self.shape}>"

    # -- JSON wire format -----------------------------------------------------

    def to_json(self) -> str:
        blocks = [list(b.coeffs) for b in self.blocks]
        return json.dumps({"shape": repr(self.shape), "blocks": blocks, "offdiag": self._rows()})

    @classmethod
    def from_json(cls, text: str) -> "JoinElem":
        """Read :meth:`to_json` output in the shape the document names; ParseError
        on any malformed or out-of-range entry."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ParseError(f"bad join element JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ParseError("join element JSON must be an object")
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
    """The element product by :meth:`JoinShape.product`; it agrees with the embedded product."""
    a._check(b)
    shape = a.shape
    return shape.from_vector(shape.product(a.coeffs, b.coeffs))


def join_embed(a: JoinElem) -> list[list[int]]:
    """The element as a full n x n matrix over F_q (raw codes)."""
    shape, at, sizes = a.shape, a.shape.offsets, a.shape.sizes
    if shape.n > 4 * ORDER_CAP:
        raise AlgebraError(f"embedding {shape} needs a matrix of {shape.n} rows, "
                           f"beyond the cap of {4 * ORDER_CAP}")
    rows = [[0] * shape.n for _ in range(shape.n)]
    for (i, j), ij in shape.offdiag_at.items():  # a_ij times the all-ones block
        for r in range(at[i], at[i] + sizes[i]):
            rows[r][at[j] : at[j] + sizes[j]] = [a.coeffs[ij]] * sizes[j]
    for blk, lo in zip(a.blocks, at):
        for r, row in enumerate(circulant_rows(blk), lo):
            rows[r][lo : lo + len(row)] = row
    return rows


def join_unembed(shape: JoinShape, rows) -> JoinElem:
    """Inverse of join_embed; raises if the matrix is not in the join subring."""
    at = shape.offsets
    blocks = [rows[lo][lo + h] for g, lo in zip(shape.groups, at) for h in range(g.order)]
    a = shape.from_vector(blocks + [rows[at[i]][at[j]] for i, j in shape.offdiag_at])
    if join_embed(a) != [list(row) for row in rows]:
        raise AlgebraError(f"the matrix is not in the join subring of {shape}")
    return a


def random_join_element(shape: JoinShape, rng: random.Random) -> JoinElem:
    """A uniform element, drawn in the coordinate order of :meth:`JoinShape.from_vector`."""
    q = shape.ctx.q
    return shape.from_vector([rng.randrange(q) for _ in range(shape.dimension())])


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


def gen_augmentation(a: JoinElem, subgroups) -> JoinElem:
    """Blockwise augmentation; off-diagonal a_ij picks up a factor |H_j|.

    With all H_i = G_i this is the matrix-valued augmentation into M_d(F_q).
    """
    subgroups = _check_subgroups(a.shape, subgroups)
    return _augmented(a, subgroups, [augmentation(b, h) for b, h in zip(a.blocks, subgroups)])


def _augmented(a: JoinElem, subgroups, images) -> JoinElem:
    """The image of a by :func:`gen_augmentation` over the checked
    `subgroups`, given its blocks' `images`: each a_ij is scaled by |H_j|."""
    shape, ctx = a.shape, a.shape.ctx
    target = JoinShape([b.group for b in images], ctx)
    scale = [ctx.scalar(h.order) for h in subgroups]
    return target.from_vector([*chain.from_iterable(b.coeffs for b in images),
                               *(ctx.mul(a.coeffs[ij], scale[j])
                                 for (_, j), ij in shape.offdiag_at.items())])


def aug_matrix(a: JoinElem) -> list[list[int]]:
    """The d x d matrix image of a under augmentation by all H_i = G_i."""
    img = gen_augmentation(a, [g.full_subgroup() for g in a.shape.groups])
    c, target = img.coeffs, img.shape  # each block of the image has one coefficient
    return [[c[target.offdiag_at[i, j]] if i != j else c[i] for j in range(target.d)]
            for i in range(target.d)]


def join_idempotents(shape: JoinShape, subgroups) -> list[JoinElem]:
    """The d+1 orthogonal central idempotents behind the decomposition.

    Entries 0..d-1 carry 1 - e_{H_i}, the Delta part of 1 by
    :func:`gr_decompose`, in block i; the last is the complement, with
    e_{H_i} in every diagonal block.
    """
    subgroups = _check_subgroups(shape, subgroups)
    out = []
    for g, h, lo in zip(shape.groups, subgroups, shape.offsets):
        f = [0] * shape.dimension()
        f[lo : lo + g.order] = gr_decompose(GroupRingElem.one(shape.ctx, g), h)[1].coeffs
        out.append(shape.from_vector(f))
    last = shape.one()
    for f in out:
        last = last - f
    out.append(last)
    return out


def join_decompose(a: JoinElem, subgroups):
    """Split along J = J_{G_i/H_i} x prod Delta(G_i, H_i).

    Returns (gen_augmentation image, [C_i * (1 - e_{H_i})]), both parts of
    each block by one :func:`gr_decompose`.
    """
    subgroups = _check_subgroups(a.shape, subgroups)
    images, deltas = zip(*[gr_decompose(b, h) for b, h in zip(a.blocks, subgroups)])
    return _augmented(a, subgroups, images), list(deltas)


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

def _woodbury_split(a: JoinElem):
    """The blocks b_i = a_i - t_i N_i, their augmentations and the d x d matrix A.

    With N_i the sum of the elements of G_i, s_i = |G_i| in F_q and
    epsilon the augmentation, t_i = (epsilon(a_i) - 1) / s_i when s_i != 0
    and t_i = 0 otherwise.  A holds the off-diagonal scalars a_ij and t_i
    on its diagonal.

    Why the units follow from these (:func:`join_is_unit`,
    :func:`join_inverse`): x -> a_i mod (N_i) and x -> a_i (1 - e_{G_i})
    are ring maps, so a unit x makes every b_i a unit (when p divides |G_i|,
    N_i^2 = 0 and a_i = b_i is a unit iff it is one mod (N_i); otherwise
    epsilon(b_i) = 1 and b_i is a unit iff a_i (1 - e_{G_i}) is one).  The
    embedding of x is D + P A P^T with D = diag(circulant(b_i)) and P the
    block diagonal of all-ones columns 1_{|G_i|}.  The rows and columns of
    circulant(b) sum to epsilon(b), so 1^T C_b^-1 = epsilon(b)^-1 1^T and
    P^T D^-1 P = S = diag(s_i / epsilon(b_i)), which is diag(s_i): the shift
    makes epsilon(b_i) = 1 whenever s_i != 0.  By the matrix determinant
    lemma x is a unit iff every b_i is one and K = I_d + S A is invertible,
    and by Woodbury's identity (M. A. Woodbury, "Inverting modified
    matrices", 1950) its inverse is D^-1 - P E^-1 A K^-1 E^-1 P^T with
    E = diag(epsilon(b_i)).
    """
    shape, c = a.shape, a.coeffs
    ctx = shape.ctx
    sub = ctx.sub
    blocks, augs, mat = [], [], a._rows()
    for i, (g, lo) in enumerate(zip(shape.groups, shape.offsets)):
        x = c[lo : lo + g.order]
        s, aug = ctx.scalar(g.order), reduce(ctx.add, x, 0)
        # 1/s lies in the prime field, whose codes are its integers mod p
        t = ctx.mul(sub(aug, 1), pow(s, -1, ctx.p)) if s else 0
        if t:  # b_i = a_i where t_i = 0, and epsilon(b_i) = 1 where s_i != 0
            mat[i][i] = t
            x, aug = [sub(v, t) for v in x], 1
        blocks.append(GroupRingElem(ctx, g, x))
        augs.append(aug)
    return blocks, augs, mat


def _capacitance(shape: JoinShape, mat) -> list[list[int]]:
    """K^T = I_d + A^T S with S = diag(s_i) (see :func:`_woodbury_split`): an
    invertible K^T is an invertible K, and W = A K^-1 solves K^T W^T = A^T."""
    ctx = shape.ctx
    mul, sizes = ctx.mul, [*map(ctx.scalar, shape.sizes)]
    k = [[mul(x, s) for x, s in zip(col, sizes)] for col in zip(*mat)]
    for i, row in enumerate(k):
        row[i] = ctx.add(row[i], 1)
    return k


def join_is_unit(a: JoinElem) -> bool:
    """Every b_i a unit of F_q[G_i] and K invertible (:func:`_woodbury_split`).

    Block-sized work plus one d x d elimination; the n x n embedding is not
    built.
    """
    blocks, _, mat = _woodbury_split(a)
    return all(map(gr_is_unit, blocks)) and linalg.is_invertible(
        _capacitance(a.shape, mat), a.shape.ctx
    )


def join_inverse(a: JoinElem) -> JoinElem:
    """The inverse by Woodbury's identity (:func:`_woodbury_split`).

    With W = A K^-1, block i is b_i^-1 - epsilon(b_i)^-2 W_ii N_i and the
    off-diagonal entry (i, j) is -epsilon(b_i)^-1 epsilon(b_j)^-1 W_ij.
    """
    shape = a.shape
    ctx = shape.ctx
    mul, neg, sub = ctx.mul, ctx.neg, ctx.sub
    blocks, augs, mat = _woodbury_split(a)
    try:
        inverses = [gr_inverse(b) for b in blocks]
        w_t = linalg.solve(_capacitance(shape, mat), [*map(list, zip(*mat))], ctx)  # W^T
    except NotInvertibleError:
        raise NotInvertibleError("join element is not a unit") from None
    e_inv = [ctx.inv(e) for e in augs]
    coords = []
    for i, b_inv in enumerate(inverses):
        c = mul(mul(e_inv[i], e_inv[i]), w_t[i][i])
        coords += [sub(x, c) for x in b_inv.coeffs]
    coords += [neg(mul(mul(e_inv[i], e_inv[j]), w_t[j][i])) for i, j in shape.offdiag_at]
    if shape.product(a.coeffs, coords) != shape._one:
        # the formula is exact, so a wrong product means the arithmetic is broken
        raise InternalConsistencyError("Woodbury inverse times the element is not one")
    return shape.from_vector(coords)


def join_structure(shape: JoinShape) -> Structure:
    """J = M_d(F_q) x prod Delta(G_i), Delta(G_i) being F_q[G_i] without its trivial
    component F_q, from :func:`wedderburn_abelian`, which refuses any other block."""
    copies = {(shape.d, 1): 1}  # (n, t) -> the copies of M_n(F_{q^t})
    for g in shape.groups:
        for n, t, a in wedderburn_abelian(g, shape.ctx).components:
            copies[n, t] = copies.get((n, t), 0) + a
        copies[1, 1] -= 1
    return Structure(shape.ctx.q, tuple(sorted((n, t, a) for (n, t), a in copies.items() if a)))


def join_unit_count(shape: JoinShape) -> int:
    """|J^x| read from :func:`join_structure`."""
    return join_structure(shape).unit_count()


def thm_unit_count_rooted(shape: JoinShape) -> int:
    """The all-rooted closed form prod(q^{p_i-1} - 1) * |GL_d(F_q)|."""
    q = shape.ctx.q
    total = gl_order(shape.d, q)
    for g in shape.groups:
        total *= q ** (g.order - 1) - 1
    return total


def diagonal_unit_count(shape: JoinShape) -> int:
    """Order of the subgroup of diagonal units: prod |F_q[G_i]^x|."""
    return prod(gr_unit_count(g, shape.ctx) for g in shape.groups)


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
    parts = [p for p in text.split(";") if p.strip()]
    blocks = []
    offdiag = [[0] * shape.d for _ in range(shape.d)]
    for part in parts:
        part = part.strip().replace(" ", "")
        m = _ASSIGN_RE.match(part)
        if m:
            i, j, v = (parse_int(x, "a number in a[i][j]=v") for x in m.groups())
            if not (1 <= i <= shape.d and 1 <= j <= shape.d) or i == j:
                raise ParseError(f"bad off-diagonal position in {part!r}")
            offdiag[i - 1][j - 1] = shape.ctx.check_code(v)
        else:
            if len(blocks) >= shape.d:
                raise ParseError("too many block literals")
            blocks.append(parse_element(part, shape.groups[len(blocks)], shape.ctx))
    while len(blocks) < shape.d:
        blocks.append(GroupRingElem.zero(shape.ctx, shape.groups[len(blocks)]))
    return JoinElem(shape, blocks, offdiag)
