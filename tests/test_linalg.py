"""linalg and the group-ring products against plain scalar loops.

Every reference below uses only the scalar FieldCtx.add/sub/mul/inv, which
test_ffield checks against the polynomial routines; none of it touches the
packed rows or the lifted lanes.  The fields are every canonical field with
q <= 64, F169 (the first k > 1 field whose packed lanes need two bytes),
and F1031, F2048, F2187, F2^20 and F(10^18 + 3) for the fields above the
table limit.
"""

import random
import tracemalloc

import pytest

from joinrings import linalg
from joinrings.errors import NotInvertibleError
from joinrings.ffield import _kronecker, parse_field
from joinrings.groups import ORDER_CAP, cyclic, parse_group_spec
from joinrings.ntheory import is_prime, prime_power

LARGE = ["F1031", "F2048", "F2187", "F1048576", "F1000000000000000003"]
FIELDS = [f"F{q}" for q in range(2, 65) if prime_power(q)] + ["F169"] + LARGE


def _rand(rng, ctx, n, m):
    return [[rng.randrange(ctx.q) for _ in range(m)] for _ in range(n)]


def _mul_ref(a, b, ctx):
    out = []
    for row in a:
        orow = []
        for j in range(len(b[0])):
            acc = 0
            for k, x in enumerate(row):
                acc = ctx.add(acc, ctx.mul(x, b[k][j]))
            orow.append(acc)
        out.append(orow)
    return out


def _det_ref(a, ctx):
    """Cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    total = 0
    for j, x in enumerate(a[0]):
        if x:
            minor = [row[:j] + row[j + 1 :] for row in a[1:]]
            term = ctx.mul(x, _det_ref(minor, ctx))
            total = ctx.sub(total, term) if j % 2 else ctx.add(total, term)
    return total


def _rank_ref(a, ctx):
    """Rank by a plain elimination on scalar operations."""
    rows = [row[:] for row in a]
    rank = 0
    for col in range(len(a[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ctx.inv(rows[rank][col])
        for i in range(rank + 1, len(rows)):
            f = ctx.mul(rows[i][col], inv)
            rows[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _singular(rng, ctx, n):
    """A repeated row and a zero column."""
    a = _rand(rng, ctx, n, n)
    rep = [row[:] for row in a]
    rep[-1] = rep[0][:]
    zcol = [row[:] for row in a]
    for row in zcol:
        row[n // 2] = 0
    return [rep, zcol]


@pytest.mark.parametrize("spec", FIELDS)
def test_invertibility_and_inverse(spec):
    ctx = parse_field(spec)
    rng = random.Random(f"linalg/{spec}")
    ident = lambda n: [[int(i == j) for j in range(n)] for i in range(n)]  # noqa: E731
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            a = _rand(rng, ctx, n, n)
            unit = _det_ref(a, ctx) != 0
            assert linalg.is_invertible(a, ctx) == unit
            if unit:
                inv = linalg.inverse(a, ctx)
                assert _mul_ref(inv, a, ctx) == ident(n)
                assert _mul_ref(a, inv, ctx) == ident(n)
            else:
                with pytest.raises(NotInvertibleError):
                    linalg.inverse(a, ctx)
    for n in (2, 5, 9):
        for a in _singular(rng, ctx, n):
            assert not linalg.is_invertible(a, ctx)
            with pytest.raises(NotInvertibleError):
                linalg.inverse(a, ctx)
    a = [[ctx.q - 1]]
    assert linalg.is_invertible(a, ctx) and linalg.inverse(a, ctx) == [[ctx.inv(ctx.q - 1)]]
    assert not linalg.is_invertible([[0]], ctx)
    a = _rand(rng, ctx, 9, 9)
    if _rank_ref(a, ctx) == 9:
        assert _mul_ref(linalg.inverse(a, ctx), a, ctx) == ident(9)


@pytest.mark.parametrize("spec", FIELDS)
def test_solve(spec):
    # a x = b for a right-hand side of any width, and a refusal on singular a
    ctx = parse_field(spec)
    rng = random.Random(f"solve/{spec}")
    for n, width in ((1, 1), (2, 1), (2, 3), (4, 2), (5, 7)):
        a, b = _rand(rng, ctx, n, n), _rand(rng, ctx, n, width)
        if _det_ref(a, ctx):
            assert _mul_ref(a, linalg.solve(a, b, ctx), ctx) == b
        else:
            with pytest.raises(NotInvertibleError):
                linalg.solve(a, b, ctx)
    for a in _singular(rng, ctx, 4):
        with pytest.raises(NotInvertibleError):
            linalg.solve(a, _rand(rng, ctx, 4, 2), ctx)


@pytest.mark.parametrize("spec, room", [("F3", 63), ("F5", 15), ("F7", 6), ("F13", 1),
                                         ("F17", 255)])
def test_prime_field_rows_add_unreduced_within_their_room(spec, room):
    # rows_invertible and combination add up to `room` multiples of reduced
    # rows before a reduction; rows of 24 entries take more than 6 of them
    ctx = parse_field(spec)
    assert ctx.packing.room == room
    rng = random.Random(f"linalg/room/{spec}")
    for n in (12, 24):
        for _ in range(3):
            a, b = _rand(rng, ctx, n, n), _rand(rng, ctx, n, n)
            assert linalg.is_invertible(a, ctx) == (_rank_ref(a, ctx) == n)
            assert linalg.mat_mul(a, b, ctx) == _mul_ref(a, b, ctx)
        a[-1] = [ctx.sub(x, y) for x, y in zip(a[0], a[1])]
        assert not linalg.is_invertible(a, ctx)


@pytest.mark.parametrize("spec", FIELDS)
def test_packed_rows_invertibility_leaves_its_rows(spec):
    ctx = parse_field(spec)
    rng = random.Random(f"linalg/rows/{spec}")
    for n in (1, 3, 5):
        for a in [_rand(rng, ctx, n, n) for _ in range(4)] + _singular(rng, ctx, n):
            rows = list(map(ctx.packing.pack, a))
            kept = list(rows)
            assert linalg.rows_invertible(rows, ctx) == (_det_ref(a, ctx) != 0)
            assert rows == kept


@pytest.mark.parametrize("spec", FIELDS)
def test_nullspace_and_mat_mul(spec):
    ctx = parse_field(spec)
    rng = random.Random(f"nullspace/{spec}")
    for nrows, ncols, rank in ((4, 6, 2), (6, 6, 5), (5, 3, 3), (1, 4, 1), (3, 3, 0)):
        left, right = _rand(rng, ctx, nrows, rank), _rand(rng, ctx, rank, ncols)
        a = _mul_ref(left, right, ctx) if rank else [[0] * ncols for _ in range(nrows)]
        basis = linalg.nullspace(a, ctx)
        assert len(basis) == ncols - _rank_ref(a, ctx)
        for vec in basis:
            assert _mul_ref(a, [[v] for v in vec], ctx) == [[0]] * nrows
        if basis:
            assert _rank_ref(basis, ctx) == len(basis)
    for n, m, k in ((1, 1, 1), (2, 3, 4), (5, 7, 4), (6, 6, 6)):
        a, b = _rand(rng, ctx, n, m), _rand(rng, ctx, m, k)
        assert linalg.mat_mul(a, b, ctx) == _mul_ref(a, b, ctx)


@pytest.mark.parametrize("spec", FIELDS)
def test_echelon_basis_spans_the_rows(spec):
    ctx = parse_field(spec)
    rng = random.Random(f"echelon/{spec}")
    assert linalg.echelon_basis([], ctx) == []
    for nrows, ncols, rank in ((4, 6, 2), (6, 6, 5), (5, 3, 3), (1, 4, 1), (3, 3, 0)):
        left, right = _rand(rng, ctx, nrows, rank), _rand(rng, ctx, rank, ncols)
        a = _mul_ref(left, right, ctx) if rank else [[0] * ncols for _ in range(nrows)]
        basis = linalg.echelon_basis(map(tuple, a), ctx)
        assert len(basis) == _rank_ref(a, ctx) == _rank_ref(a + [list(v) for v in basis], ctx)
        # reduced: each vector's leading entry is 1, and 0 in every other vector
        leads = [next(c for c, x in enumerate(v) if x) for v in basis]
        assert leads == sorted(set(leads))
        for v, c in zip(basis, leads):
            assert [w[c] for w in basis] == [int(w is v) for w in basis]


@pytest.mark.parametrize("spec", [s for s in FIELDS if s not in ("F2048", "F2187", "F1048576")])
def test_largest_entries_at_n48(spec):
    # every entry q - 1, the code whose digits are all p - 1; the untabled
    # k > 1 fields are left out because their 48^3 polynomial products take
    # seconds
    ctx = parse_field(spec)
    n, top = 48, ctx.q - 1
    full = [[top] * n for _ in range(n)]
    assert not linalg.is_invertible(full, ctx)
    assert len(linalg.nullspace(full, ctx)) == n - 1
    total = 0
    for _ in range(n):
        total = ctx.add(total, ctx.mul(top, top))
    assert linalg.mat_mul(full, full, ctx) == [[total] * n for _ in range(n)]
    # top * (J - I) has determinant +-top^n (n - 1), a unit unless p | 47
    off = [[0 if i == j else top for j in range(n)] for i in range(n)]
    assert linalg.is_invertible(off, ctx) == (47 % ctx.p != 0)
    if 47 % ctx.p:
        inv = linalg.inverse(off, ctx)
        for i in (0, 17, n - 1):  # three rows of inv * off, to keep the test fast
            assert _mul_ref([inv[i]], off, ctx) == [[int(i == j) for j in range(n)]]


@pytest.mark.parametrize("spec", LARGE + ["F78125"])
def test_packing_above_the_table_limit_does_not_grow_with_q(spec):
    # a table of q entries would take megabytes for F5^7 and F2^20 and
    # never finish for F(10^18 + 3)
    ctx = parse_field(spec)
    tracemalloc.start()
    try:
        packing = ctx.packing
        row = [ctx.q - 1, 1, 0, ctx.q // 2]
        assert packing.unpack(packing.pack(row), 4) == row
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _convolve_ref(a, b, table, ctx):
    want = [0] * len(a)
    for h, x in enumerate(a):
        for k, y in enumerate(b):
            g = table[h][k]
            want[g] = ctx.add(want[g], ctx.mul(x, y))
    return want


@pytest.mark.parametrize("spec", FIELDS)
def test_convolve_matches_double_loop(spec):
    ctx = parse_field(spec)
    rng = random.Random(f"convolve/{spec}")
    for group in (cyclic(1), cyclic(5), cyclic(8), parse_group_spec("S3"), parse_group_spec("Q8")):
        n = group.order
        cases = [([ctx.q - 1] * n, [ctx.q - 1] * n), ([0] * n, [1] * n)]
        cases += [(_rand(rng, ctx, 1, n)[0], _rand(rng, ctx, 1, n)[0]) for _ in range(4)]
        for a, b in cases:
            assert ctx.convolve(a, b, group.table) == _convolve_ref(a, b, group.table, ctx)


@pytest.mark.parametrize("spec", ["F9", "F961"])
def test_convolve_holds_the_largest_lane_sum(spec):
    # a lifted lane of F_{p^k} sums at most ORDER_CAP digits below p; all-ones
    # times all-(p - 1) over C_256 fills every output lane to 256 (p - 1)
    ctx, group = parse_field(spec), cyclic(ORDER_CAP)
    a, b = [1] * ORDER_CAP, [ctx.p - 1] * ORDER_CAP
    assert ctx.convolve(a, b, group.table) == _convolve_ref(a, b, group.table, ctx)


# every tabled extension field, q <= 1024 with k > 1
TABLED_EXTENSIONS = [q for q in range(4, 1025) if prime_power(q) and prime_power(q)[1] > 1]


@pytest.mark.parametrize("q", [p for p in range(2, 62) if is_prime(p)] + TABLED_EXTENSIONS)
def test_kronecker_matches_double_loop(q):
    # a folded lane holds n k (p - 1)^2 at most, and one byte holds 255, so
    # the last n a field packs and the first it refuses are tested too: 240
    # and 256 on F5[C15] and F5[C16], 255 and 256 on F2[C255] and F2[C256],
    # 254 and 256 on F4[C127] and F4[C128], 248 and 256 on F9[C31] and
    # F9[C32] and on F256[C31] and F256[C32], 224 and 256 on F25[C7] and F25[C8]
    ctx = parse_field(f"F{q}")
    p, k = ctx.p, ctx.k
    rng = random.Random(f"kronecker/{q}")
    last = 255 // (k * (p - 1) ** 2)
    for n in sorted({*range(1, 17), last, last + 1} - {0}):
        product, table = _kronecker(p, k, n), cyclic(n).table
        if n * k * (p - 1) ** 2 > 255:
            assert product is None, n
            continue
        top, zero = [q - 1] * n, [0] * n
        cases = [(top, top), (zero, zero), (zero, top), (top, zero)]
        cases += [(_rand(rng, ctx, 1, n)[0], _rand(rng, ctx, 1, n)[0]) for _ in range(4)]
        for a, b in cases:
            assert product(a, b) == tuple(_convolve_ref(a, b, table, ctx)), (n, a, b)
