"""Dense matrices over a FieldCtx, stored as lists of rows of raw codes.

Only what the rest of the package needs: multiplication, invertibility
(also of rows already packed), inversion, echelon bases and nullspaces, all
by Gaussian elimination.

The loops work on rows packed into one integer each
(:class:`~joinrings.ffield.PackedRows`: the code in whole bytes in
characteristic 2, F_2 included, otherwise one lane per base-p digit).  The
update x - f*y of a whole row is one integer addition of a multiple of the
pivot row (XOR in characteristic 2), reduced lane by lane in one step, and
that multiple is built once per distinct factor f within a column (over
F_2, rows_invertible ranks the byte rows by their leading set bits instead).
Single entries are decoded only where they are read: the pivot column (to
find the pivot and the factors) and the output.  Each row of a product is
one :meth:`~joinrings.ffield.PackedRows.combination`, the one sum of packed multiples.
"""

from __future__ import annotations

from .errors import NotInvertibleError
from .ffield import FieldCtx

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_add(a: Matrix, b: Matrix, ctx: FieldCtx) -> Matrix:
    add = ctx.add
    return [[add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix, ctx: FieldCtx) -> Matrix:
    packing = ctx.packing
    brows = list(map(packing.pack, b))
    width = len(b[0])
    return [packing.unpack(packing.combination(row, brows), width) for row in a]


def is_invertible(a: Matrix, ctx: FieldCtx) -> bool:
    return rows_invertible(list(map(ctx.packing.pack, a)), ctx)


def rows_invertible(rows: list[int], ctx: FieldCtx) -> bool:
    """Whether the square matrix of reduced packed rows is invertible.

    The rows are those of ``ctx.packing``; the list passed in is left as it is.
    """
    n = len(rows)
    if ctx.q == 2:
        return _rank_gf2(rows) == n
    packing = ctx.packing
    code_of, mask, width = packing.code_of, packing.entry_mask, packing.entry_bits
    combine, times = packing.combine, packing.times
    mul, neg, inv = ctx.mul, ctx.neg, ctx.inv
    rows = list(rows)  # eliminated in place
    for col in range(n):
        # rows[col:] hold their entries from column col on
        for r in range(col, n):
            if rows[r] & mask:
                break
        else:
            return False
        if col == n - 1:
            return True
        prow, rows[r] = rows[r], rows[col]
        neg_inv = neg(inv(code_of[prow & mask]))
        tail = prow >> width
        scaled: dict[int, int] = {}  # factor -> -factor/pivot * tail
        for r in range(col + 1, n):
            row = rows[r]
            f = code_of[row & mask]
            if f:
                s = scaled.get(f)
                if s is None:
                    s = scaled[f] = times(tail, mul(f, neg_inv))
                rows[r] = combine(row >> width, s)
            else:
                rows[r] = row >> width
    return True  # n == 0


def _rank_gf2(rows: list[int]) -> int:
    """Rank of byte-packed F_2 rows, each reduced by the pivots of its leading bits.

    2-3x faster than the column loop of rows_invertible: F2[C12] circulants take
    14 us against 48 us, join(C3,C5;F2) embeddings 10 us against 22 us.
    """
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


def _row_reduce(rows: list[int], ncols: int, ctx: FieldCtx) -> list[int]:
    """Gauss-Jordan on packed rows, in place, over their first ncols columns.

    Returns the pivot columns: row i then has a 1 in column pivots[i], and
    every other row a 0 there.
    """
    packing = ctx.packing
    code_of, mask, width = packing.code_of, packing.entry_mask, packing.entry_bits
    combine, times = packing.combine, packing.times
    mul, neg, inv = ctx.mul, ctx.neg, ctx.inv
    pivots: list[int] = []
    for col in range(ncols):
        r, shift = len(pivots), col * width
        piv = next((i for i in range(r, len(rows)) if rows[i] >> shift & mask), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        tail = rows[r] >> shift  # the pivot row from column col on
        piv_inv = inv(code_of[tail & mask])
        neg_inv = neg(piv_inv)
        scaled: dict[int, int] = {}  # factor -> -factor/pivot * tail, shifted back
        for i, row in enumerate(rows):
            f = code_of[row >> shift & mask]
            if f and i != r:
                s = scaled.get(f)
                if s is None:
                    s = scaled[f] = times(tail, mul(f, neg_inv)) << shift
                rows[i] = combine(row, s)
        rows[r] = combine(0, times(tail, piv_inv)) << shift
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots


def inverse(a: Matrix, ctx: FieldCtx) -> Matrix:
    """Gauss-Jordan inverse; raises NotInvertibleError on singular input."""
    n = len(a)
    packing = ctx.packing
    rows = [packing.pack(row + ident_row) for row, ident_row in zip(a, identity(n))]
    if len(_row_reduce(rows, n, ctx)) < n:
        raise NotInvertibleError("matrix is singular")
    shift = n * packing.entry_bits
    return [packing.unpack(row >> shift, n) for row in rows]


def echelon_basis(vectors, ctx: FieldCtx) -> list[tuple[int, ...]]:
    """The reduced echelon basis of the span of equal-length `vectors`: as
    many tuples as the span's dimension, each with a leading 1."""
    vectors = list(vectors)
    if not vectors:
        return []
    ncols, packing = len(vectors[0]), ctx.packing
    rows = list(map(packing.pack, vectors))
    rank = len(_row_reduce(rows, ncols, ctx))
    return [tuple(packing.unpack(row, ncols)) for row in rows[:rank]]


def nullspace(a: Matrix, ctx: FieldCtx) -> list[list[int]]:
    """Basis of the right nullspace {x : a x = 0}."""
    if not a:
        return []
    ncols = len(a[0])
    reduced = echelon_basis(a, ctx)
    pivots = [next(c for c, x in enumerate(row) if x) for row in reduced]
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = ctx.neg(row[fc])
        basis.append(vec)
    return basis
