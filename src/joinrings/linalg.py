"""Dense matrices over a FieldCtx, stored as lists of rows of raw codes.

Only what the rest of the package needs: multiplication, invertibility,
inversion, and nullspaces, all by Gaussian elimination.  A packed bitset
path handles F_2, which is where the big brute-force enumerations live.
"""

from __future__ import annotations

from .errors import NotInvertibleError
from .ffield import FieldCtx

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero(n: int, m: int | None = None) -> Matrix:
    return [[0] * (m if m is not None else n) for _ in range(n)]


def mat_add(a: Matrix, b: Matrix, ctx: FieldCtx) -> Matrix:
    add = ctx.add
    return [[add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix, ctx: FieldCtx) -> Matrix:
    if ctx.q == 2:
        return _mat_mul_gf2(a, b)
    n, m, l = len(a), len(b), len(b[0])
    add, mul = ctx.add, ctx.mul
    bt = [[b[k][j] for k in range(m)] for j in range(l)]  # columns of b
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = add(acc, mul(x, y))
            orow.append(acc)
        out.append(orow)
    return out


def _pack_gf2(a: Matrix) -> list[int]:
    return [sum(bit << j for j, bit in enumerate(row)) for row in a]


def _unpack_gf2(rows: list[int], width: int) -> Matrix:
    return [[(r >> j) & 1 for j in range(width)] for r in rows]


def _mat_mul_gf2(a: Matrix, b: Matrix) -> Matrix:
    l = len(b[0])
    cols = [sum(b[k][j] << k for k in range(len(b))) for j in range(l)]
    rows = _pack_gf2(a)
    return [[(r & c).bit_count() & 1 for c in cols] for r in rows]


def is_invertible(a: Matrix, ctx: FieldCtx) -> bool:
    n = len(a)
    if ctx.q == 2:
        return _rank_gf2(_pack_gf2(a), n) == n
    rows = [row[:] for row in a]
    sub, mul, inv = ctx.sub, ctx.mul, ctx.inv
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        piv_inv = inv(rows[col][col])
        prow = rows[col]
        for r in range(col + 1, n):
            f = rows[r][col]
            if f:
                f = mul(f, piv_inv)
                rr = rows[r]
                for c in range(col, n):
                    rr[c] = sub(rr[c], mul(f, prow[c]))
    return True


def _rank_gf2(rows: list[int], ncols: int) -> int:
    pivots: dict[int, int] = {}  # leading-bit position -> pivot row
    rank = 0
    for r in rows:
        while r:
            lead = r.bit_length() - 1
            if lead in pivots:
                r ^= pivots[lead]
            else:
                pivots[lead] = r
                rank += 1
                break
    return rank


def inverse(a: Matrix, ctx: FieldCtx) -> Matrix:
    """Gauss-Jordan inverse; raises NotInvertibleError on singular input."""
    n = len(a)
    sub, mul, inv = ctx.sub, ctx.mul, ctx.inv
    rows = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise NotInvertibleError("matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        piv_inv = inv(rows[col][col])
        rows[col] = [mul(piv_inv, x) for x in rows[col]]
        prow = rows[col]
        for r in range(n):
            if r == col:
                continue
            f = rows[r][col]
            if f:
                rr = rows[r]
                for c in range(col, 2 * n):
                    rr[c] = sub(rr[c], mul(f, prow[c]))
    return [row[n:] for row in rows]


def nullspace(a: Matrix, ctx: FieldCtx) -> list[list[int]]:
    """Basis of the right nullspace {x : a x = 0}."""
    if not a:
        return []
    nrows, ncols = len(a), len(a[0])
    sub, mul, inv = ctx.sub, ctx.mul, ctx.inv
    rows = [row[:] for row in a]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        piv_inv = inv(rows[r][col])
        rows[r] = [mul(piv_inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = ctx.neg(rows[i][fc])
        basis.append(vec)
    return basis
