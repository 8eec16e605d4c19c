"""Dense matrices over a FieldCtx, stored as lists of rows of raw codes.

Only what the rest of the package needs: multiplication, invertibility
(also of rows already packed), solving a x = b and inversion, echelon bases
and nullspaces, all by Gaussian elimination.

The loops work on rows packed into one integer each
(:class:`~joinrings.ffield.PackedRows`: the code in whole bytes in
characteristic 2, F_2 included, otherwise one lane per base-p digit).  The
update x - f*y of a whole row is one integer addition of a multiple of the
pivot row (XOR in characteristic 2), reduced lane by lane in one step.
rows_invertible reduces each row by the pivot of its leading (highest
nonzero) entry, which ``bit_length`` finds; over a prime field it adds the
multiples unreduced until a lane could overflow.  _row_reduce goes column by
column, to the reduced echelon form, and that multiple is built once per
distinct factor f within a column.  Single entries are decoded only where
they are read: the leading entry or pivot column, and the output.  Each row
of a product is one :meth:`~joinrings.ffield.PackedRows.combination`.
"""

from __future__ import annotations

from .errors import NotInvertibleError
from .ffield import FieldCtx

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix, ctx: FieldCtx) -> Matrix:
    packing = ctx.packing
    brows = list(map(packing.pack, b))
    width = len(b[0])
    return [packing.unpack(packing.combination(row, brows), width) for row in a]


def is_invertible(a: Matrix, ctx: FieldCtx) -> bool:
    return rows_invertible(list(map(ctx.packing.pack, a)), ctx)


def rows_invertible(rows: list[int], ctx: FieldCtx) -> bool:
    """Whether the square matrix of reduced packed rows is invertible.

    Each row is reduced by the pivot of its leading entry until it is zero,
    or leads at an entry no pivot holds and becomes its pivot: the entries
    below, with -1/entry.  The rows are those of ``ctx.packing``, left as they are.

    Over a prime field an entry is one lane, whose code is its value mod p.
    A row then takes ``packing.room`` multiples of reduced pivots as plain
    integer additions before it is reduced, and a leading lane that is 0
    mod p is dropped; a row is reduced when it becomes a pivot.
    """
    if ctx.q == 2:  # entries are bytes 0 and 1: a pivot is a row, keyed by its top bit
        rows_at: dict[int, int] = {}
        for r in rows:
            while (pivot := rows_at.get(r.bit_length())) is not None:
                r ^= pivot
            if not r:
                return False
            rows_at[r.bit_length()] = r
        return True
    packing = ctx.packing
    code_of, width = packing.code_of, packing.entry_bits
    combine, times = packing.combine, packing.times
    mul, neg, inv = ctx.mul, ctx.neg, ctx.inv
    pivots: dict[int, tuple[int, int]] = {}  # shift of an entry -> (entries below, -1/entry)
    if ctx.k == 1:  # an entry is one lane, its code mod p
        p, room = ctx.p, packing.room
        for r in rows:
            left = room
            while r:
                shift = (r.bit_length() - 1) // width * width
                lead = r >> shift
                below = r - (lead << shift)
                f = lead % p
                if not f:  # a lane that is 0 mod p: drop it
                    r = below
                    continue
                if (pivot := pivots.get(shift)) is None:
                    break
                tail, c = pivot
                r = below + tail * (f * c % p)
                left -= 1
                if not left:
                    r, left = combine(r, 0), room
            if not r:
                return False
            if len(pivots) < len(rows) - 1:
                pivots[shift] = combine(below, 0), -pow(f, -1, p) % p
        return True
    for r in rows:
        while r:
            shift = (r.bit_length() - 1) // width * width
            lead = r >> shift  # the leading entry
            below = r - (lead << shift)
            f = code_of[lead]
            if (pivot := pivots.get(shift)) is None:
                break
            tail, c = pivot
            r = combine(below, times(tail, mul(f, c)))
        if not r:
            return False
        if len(pivots) < len(rows) - 1:  # the last pivot would reduce nothing
            pivots[shift] = below, neg(inv(f))
    return True


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


def solve(a: Matrix, b: Matrix, ctx: FieldCtx) -> Matrix:
    """The x with a x = b, for square a, by one Gauss-Jordan pass on [a | b];
    raises NotInvertibleError on singular a."""
    n, width = len(a), len(b[0])
    packing = ctx.packing
    rows = [packing.pack(row + rhs) for row, rhs in zip(a, b)]
    if len(_row_reduce(rows, n, ctx)) < n:
        raise NotInvertibleError("matrix is singular")
    shift = n * packing.entry_bits
    return [packing.unpack(row >> shift, width) for row in rows]


def inverse(a: Matrix, ctx: FieldCtx) -> Matrix:
    """Gauss-Jordan inverse; raises NotInvertibleError on singular input."""
    return solve(a, identity(len(a)), ctx)


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
