"""Exact arithmetic in finite fields F_{p^k}.

Elements are canonically encoded as integers in [0, q): the element with
polynomial representative c_0 + c_1 x + ... + c_{k-1} x^{k-1} is encoded as
sum(c_i * p**i).  A :class:`FieldCtx` owns the modulus and binds the raw
operations on codes once, and the group-ring product kernels next to the
tables they read, so that inner loops elsewhere work on plain integers.

Each kind of field has one path.  A prime field computes modulo p at every
size (XOR in characteristic 2) and inverts by ``pow(a, -1, p)``.  An
extension field with q up to ``_TABLE_LIMIT`` walks the powers of a
primitive element g into O(q) arrays ``exp[i] = g^i`` and ``log[g^i] = i``,
plus, for odd p, the Zech logarithms ``zech[i] = log(1 + g^i)`` (K. Huber,
"Some comments on Zech's logarithms", IEEE Trans. Inf. Theory 36(4), 1990):
mul and inv are index arithmetic, add is XOR in characteristic 2 and one
Zech lookup otherwise.  A larger extension field multiplies and inverts on
polynomials, and odd p^k add digit by digit.  That polynomial work and
Rabin's irreducibility test run on :mod:`joinrings.poly` over F_p.

Sums of many products run on plain integers and are reduced once:

- The ``convolve`` of a prime field sums integer products and reduces them
  mod p at the end.  Over F_2 each nonzero product is 1 and flips its
  sum by XOR, 1.1-1.7x faster than summing and reducing (F2[C2] to F2[S4],
  2-core x86).  A tabled
  extension field sums the *lifts* of ``exp[log a + log b]``:
  :class:`_Lanes` puts digit i of a code in a lane from bit ``i * w`` up,
  w the bit length of ``ORDER_CAP * (p - 1)``: no group has more than
  ``ORDER_CAP`` elements, so an output coefficient sums at most that many
  lifts, each lane below p, and no lane carries into the next.  Each lane
  is read back mod p (in characteristic 2 a lift is its code).  A larger
  extension field sums its scalar products.
- A field of at most ``_TABLE_LIMIT`` elements, prime or not, multiplies in
  F_q[C_n] = F_q[y]/(y^n - 1) by Kronecker substitution
  (:func:`_kronecker`) while n k (p - 1)^2 fits a byte (F_2 up to C_255,
  F_4 up to C_127, F_3 up to C_63, F_9 and F_256 up to C_31, F_25 up to C_7):
  each family is packed into one integer, base-p digit i of coefficient j
  in byte (2k - 1) j + i, with k - 1 empty bytes after each coefficient's
  digits.  One integer product gives every coefficient of the product
  polynomial, a mask, a shift and an add fold y^n onto 1, and
  ``bytes.translate`` by :func:`_byte_residues`, the table of
  :func:`_lane_adder`, reduces every lane mod p.  For k > 1 the lanes of
  x^k .. x^(2k-2) then fold onto the digits by one multiple each of the
  digits of x^j mod m, and a second ``translate`` reduces them.
  :meth:`FieldCtx.kronecker` offers it from the n where it measured faster
  than ``convolve``: n = 3 in a prime field, 4 in an extension field of
  odd p, max(8, k + 3) in characteristic 2.  A larger n k (p - 1)^2 keeps
  ``convolve``.
- For the eliminations in :mod:`joinrings.linalg`, :class:`PackedRows`
  packs a whole matrix row into one integer: in characteristic 2 each entry
  is its code in whole bytes (one byte up to F_256, F_2 included), and
  otherwise the :class:`_Lanes` of the entry, each lane just wide enough
  for a reduced row plus one multiple of a reduced row.  A row update
  x - f*y is then one integer addition (XOR in characteristic 2) followed
  by one reduction of the whole row.  This works for every field; only up
  to ``_TABLE_LIMIT`` are the packed forms of all q codes built in advance.
  :meth:`PackedRows.combination` is the one sum of packed multiples,
  sum c_i row_i over the nonzero c_i: the rows of a matrix product and the
  oracle's packed unit matrices and semimagic products.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from collections.abc import Callable, Sequence
from functools import cached_property, lru_cache

from . import poly
from .errors import AlgebraError, NotInvertibleError, ParseError, parse_int
from .groups import ORDER_CAP
from .ntheory import factorize, is_prime, order_dividing, power, prime_power

# Extension fields with q at most this bound get the O(q) log/antilog (and
# Zech) arrays; above it every operation is computed on demand.
_TABLE_LIMIT = 1024

# parse_field refuses larger extension fields; F_{5^25} takes 0.6 s to build
_EXTENSION_LIMIT = 2**60

Poly = tuple[int, ...]  # a modulus: dense coefficients, constant term first
# (u, v) -> the coefficients of u v, for coefficient families of a group ring
FamilyProduct = Callable[[Sequence[int], Sequence[int]], tuple[int, ...]]


# ---------------------------------------------------------------------------
# the polynomial path for k > 1, on the core of joinrings.poly over F_p
# ---------------------------------------------------------------------------

def _decode_poly(code: int, p: int, length: int) -> list[int]:
    """The first `length` base-p digits of code, least significant first."""
    out = []
    for _ in range(length):
        code, d = divmod(code, p)
        out.append(d)
    return out


def _encode_poly(coeffs, p: int) -> int:
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


def _mulmod(p: int, m: Poly) -> Callable[[list[int], list[int]], list[int]]:
    """(a, b) -> a * b modulo m, for polynomials over F_p."""
    prime = _cached_field(p, 1)
    return lambda a, b: poly.rem(poly.mul(a, b, prime), m, prime)


def _code_mul(p: int, k: int, m: Poly) -> Callable[[int, int], int]:
    """(a, b) -> the code of a * b modulo m, for codes of F_{p^k}."""
    mul = _mulmod(p, m)
    return lambda a, b: _encode_poly(mul(_decode_poly(a, p, k), _decode_poly(b, p, k)), p)


def _irreducible(m: Poly, p: int) -> bool:
    """Rabin's test for the monic m of degree k over F_p.

    m is irreducible iff x^(p^k) = x modulo m and gcd(x^(p^(k/r)) - x, m) = 1
    for each prime r dividing k (M. O. Rabin, "Probabilistic algorithms in
    finite fields", SIAM J. Comput. 9(2), 1980).  x^(p^j) is raised one
    Frobenius step at a time and the gcds are taken as j reaches k/r, so
    most reducible candidates fail early.
    """
    k = len(m) - 1
    if k == 1:
        return True
    prime, mul = _cached_field(p, 1), _mulmod(p, m)
    checks = {k // r for r in factorize(k)}
    y = [0, 1]  # x^(p^j) modulo m, from j = 0
    for j in range(1, k + 1):
        y = power(y, p, mul, [1])  # y^p
        if j in checks:
            d = y + [0] * (2 - len(y))
            d[1] = prime.sub(d[1], 1)
            if len(poly.euclid(m, d, prime)[0]) != 1:
                return False
    return y == [0, 1]


def _canonical_modulus(p: int, k: int) -> Poly:
    """Lexicographically smallest irreducible monic degree-k polynomial.

    Candidates x^k + (lower part) are scanned in increasing order of the
    base-p code of the lower part, so the choice is reproducible.
    """
    if k == 1:
        return (0, 1)  # the polynomial x
    for code in range(p**k):
        cand = tuple(_decode_poly(code, p, k)) + (1,)
        if _irreducible(cand, p):
            return cand
    raise AlgebraError(f"no irreducible polynomial of degree {k} over F_{p}")  # pragma: no cover


def _primitive_element(p: int, k: int, modulus: Poly) -> int:
    """The least code g with g^((q-1)/f) != 1 for every prime f | q - 1.

    x need not be primitive (it has order 4 modulo x^2 + 1 over F_3).
    """
    q1 = p**k - 1
    exponents = [q1 // f for f in factorize(q1)]
    mul = _code_mul(p, k, modulus)
    for g in range(1, q1 + 1):
        if all(power(g, e, mul, 1) != 1 for e in exponents):
            return g
    raise AlgebraError(f"no primitive element modulo {modulus}")  # pragma: no cover


def _log_tables(p: int, k: int, modulus: Poly) -> tuple[list[int], list[int]]:
    """exp[i] = code of g^i for 0 <= i <= 2(q-1), and log[code] for code != 0.

    exp holds two periods plus one entry, so exp[log[a] + log[b]] needs no
    reduction mod q - 1.  log[0] is left as None: zero has no logarithm, and
    a caller that forgets to test for it fails loudly.
    """
    q1 = p**k - 1
    g = _primitive_element(p, k, modulus)
    mul = _code_mul(p, k, modulus)
    exp = [0] * (2 * q1 + 1)
    log: list = [None] * (q1 + 1)
    code = 1
    for i in range(q1):
        exp[i] = exp[i + q1] = code
        log[code] = i
        code = mul(code, g)
    exp[2 * q1] = 1
    return exp, log


def _zech_table(p: int, exp: list[int], log: list) -> list[int]:
    """zech[i] = log(1 + g^i), or -1 where 1 + g^i = 0, over two periods."""
    q1 = len(log) - 1
    zech = [0] * q1
    for i in range(q1):
        code = exp[i]
        c0 = code % p  # 1 + g^i only changes the constant digit
        one_plus = code - c0 + (c0 + 1) % p
        zech[i] = log[one_plus] if one_plus else -1
    return zech + zech


# ---------------------------------------------------------------------------
# packed rows for the eliminations
# ---------------------------------------------------------------------------

class PackedRows:
    """Rows of codes packed into one integer each, for :mod:`joinrings.linalg`.

    Entry j of a row takes the ``entry_bits`` bits from ``j * entry_bits``
    up.  In characteristic 2 an entry holds its code in whole bytes, one
    byte up to F_256 (F_2 included), and rows add by XOR.  For odd p an entry
    holds one lane of whole bytes per base-p digit, wide enough for a
    reduced row plus one multiple of a reduced row.  Every row that
    :meth:`pack` and :meth:`combine` return is reduced, so an entry
    ``x & entry_mask`` is read back as ``code_of[x & entry_mask]``.
    ``times(x, c)`` is c times the reduced row x, lane by lane but not
    reduced: only :meth:`combine` reduces.  For odd p a lane holds
    ``room`` >= 1 such multiples added to a reduced row as plain integers
    before it must be reduced; XOR never carries.

    Up to ``_TABLE_LIMIT`` the entries of all q codes are built once; above
    it each entry is encoded and decoded on its own, so that nothing here
    grows with q.
    """

    def __init__(self, ctx: "FieldCtx"):
        p, k, q, mul = ctx.p, ctx.k, ctx.q, ctx.mul
        if p == 2:
            size = (k + 7) // 8

            def encode(c: int) -> bytes:
                return c.to_bytes(size, "little")

            self.combine = self._add = operator.xor
            self.room = math.inf  # XOR never carries
        else:
            top = (p - 1) * (1 + k * (p - 1))  # largest lane value before a reduction
            width = 1
            while top >> 8 * width:
                width *= 2
            lane, size = 8 * width, k * width
            lanes = _Lanes(p, k, lane)

            def encode(c: int) -> bytes:
                return lanes.lift(c).to_bytes(size, "little")

            self.combine = _lane_adder(p, width)
            self._add = operator.add
            # a multiple of a reduced row adds at most k (p - 1)^2 to a lane
            self.room = ((1 << lane) - p) // (k * (p - 1) ** 2)
        self.entry_bits = 8 * size
        self.entry_mask = (1 << self.entry_bits) - 1
        if q <= _TABLE_LIMIT:
            encoded = list(map(encode, range(q)))
            self._encode = encoded.__getitem__
        else:
            self._encode = encode
        if k == 1 or p == 2:  # an entry is its code
            self.code_of = range(q)
        elif q <= _TABLE_LIMIT:
            self.code_of = {int.from_bytes(e, "little"): c for c, e in enumerate(encoded)}
        else:
            self.code_of = lanes
        if size == 1:  # the byte of an entry is its code
            self.pack = lambda codes: int.from_bytes(bytes(codes), "little")
            self.unpack = lambda x, n: list(x.to_bytes(n, "little"))
        if k == 1:
            self.times = operator.mul  # each lane of c * x stays below p^2
        elif p == 2 and size == 1:
            self.times = self._byte_times(mul, q)
        elif p > 2 and q <= _TABLE_LIMIT:
            self.times = self._lane_times(mul, p, k, lane, size)
        else:
            # one product per entry, as many as a scalar loop makes
            self.times = lambda x, c: self.pack(
                [mul(c, y) for y in self.unpack(x, -(-x.bit_length() // self.entry_bits))]
            )

    def _byte_times(self, mul, q: int) -> Callable[[int, int], int]:
        """c * x by one bytes.translate, when every entry is one byte, its code."""
        tables: dict[int, bytes] = {}  # c -> its multiplication table, at most q of them

        def times(x: int, c: int) -> int:
            table = tables.get(c)
            if table is None:
                table = tables[c] = bytes([mul(c, y) for y in range(q)] + [0] * (256 - q))
            data = x.to_bytes((x.bit_length() + 7) >> 3, "little")
            return int.from_bytes(data.translate(table), "little")

        return times

    def _lane_times(self, mul, p: int, k: int, lane: int, size: int) -> Callable[[int, int], int]:
        """c * x as sum_j (digit j of every entry of x) * lift(c x^j).

        A shift and a mask move digit j of every entry to lane 0.  The digit
        is below p, so its product with the k-lane lift of c x^j (the code
        c * p^j) stays inside its entry.
        """
        encode = self._encode
        unit = ((1 << lane) - 1).to_bytes(size, "little")  # lane 0 of one entry
        shifts = [lane * j for j in range(k)]
        lifts: dict[int, list[int]] = {}  # c -> lifts of c x^j, at most q of them
        mask = 0  # lane 0 of every entry, for rows up to its length

        def times(x: int, c: int) -> int:
            nonlocal mask
            lift = lifts.get(c)
            if lift is None:
                lift = lifts[c] = [
                    int.from_bytes(encode(mul(c, p**j)), "little") for j in range(k)
                ]
            if x.bit_length() > mask.bit_length():
                mask = int.from_bytes(unit * (2 * x.bit_length() // (8 * size) + 1), "little")
            acc = 0
            for s, v in zip(shifts, lift):
                acc += (x >> s & mask) * v
            return acc

        return times

    def pack(self, codes) -> int:
        return int.from_bytes(b"".join(map(self._encode, codes)), "little")

    def combination(self, coeffs, rows) -> int:
        """The reduced sum of c * row over the pairs of `coeffs` and the list
        `rows` with c nonzero.  For odd p, where the lanes hold `room`
        multiples, the multiples add as integers and the sum is reduced once."""
        combine, times = self.combine, self.times
        add = self._add if len(rows) <= self.room else combine
        acc = 0
        for c, row in zip(coeffs, rows):
            if c:
                acc = add(acc, times(row, c))
        return acc if add is combine else combine(acc, 0)

    def unpack(self, x: int, n: int) -> list[int]:
        """The n codes of the reduced row x."""
        code_of, mask, width = self.code_of, self.entry_mask, self.entry_bits
        return [code_of[x >> s & mask] for s in range(0, n * width, width)]


class _Lanes:
    """Codes of F_{p^k} with digit i in the `bits` bits from ``i * bits`` up.

    ``lift(code)`` spreads a code over its lanes, and ``lanes[x]`` reads a
    code back from the lanes x, each taken mod p.
    """

    def __init__(self, p: int, k: int, bits: int):
        self._p, self._k, self._mask = p, k, (1 << bits) - 1
        self._shifts = range(0, k * bits, bits)
        self._high_first = self._shifts[::-1]

    def lift(self, code: int) -> int:
        return sum(d << s for d, s in zip(_decode_poly(code, self._p, self._k), self._shifts))

    def __getitem__(self, x: int) -> int:
        p, mask, code = self._p, self._mask, 0
        for s in self._high_first:
            code = code * p + (x >> s & mask) % p
        return code


def _digitwise(p: int, k: int, op: Callable[[int, int], int]) -> Callable[[int, int], int]:
    """op mod p on each base-p digit pair of two codes (odd p above the table limit)."""
    places = [p**i for i in range(k - 1, -1, -1)]

    def digitwise(a: int, b: int) -> int:
        code = 0
        for place in places:  # a // p^i is digit i of a plus a multiple of p
            code = code * p + op(a // place, b // place) % p
        return code

    return digitwise


@lru_cache(maxsize=None)
def _byte_residues(p: int) -> bytes:
    """The ``bytes.translate`` table that takes each byte to its residue mod p."""
    return bytes(i % p for i in range(256))


def _lane_adder(p: int, width: int) -> Callable[[int, int], int]:
    """x + y with every lane of `width` bytes reduced mod p."""
    if width == 1:
        table = _byte_residues(p)

        def combine(x: int, y: int) -> int:
            s = x + y
            data = s.to_bytes((s.bit_length() + 7) >> 3, "little")
            return int.from_bytes(data.translate(table), "little")

        return combine

    def combine(x: int, y: int) -> int:
        s = x + y
        data = s.to_bytes(-(-s.bit_length() // (8 * width)) * width, "little")
        return int.from_bytes(
            b"".join(
                (int.from_bytes(data[i : i + width], "little") % p).to_bytes(width, "little")
                for i in range(0, len(data), width)
            ),
            "little",
        )

    return combine


@lru_cache(maxsize=256)
def _kronecker(p: int, k: int, n: int) -> FamilyProduct | None:
    """The product of F_{p^k}[C_n] = F_{p^k}[y]/(y^n - 1) as one integer product, or None.

    Coefficient i of a family takes the 2k - 1 byte lanes from byte
    (2k - 1) i up: its k base-p digits, then k - 1 zero lanes, room for the
    digits x^k .. x^(2k-2) of a product of two of them.  A lane of the
    folded product sums at most k (p - 1)^2 digit products for each of n
    coefficient pairs, so while n k (p - 1)^2 fits a byte no lane carries
    into the next.  The product of two packed families holds the
    coefficients of y^0 .. y^(2n-2), and y^n = 1 folds slot i + n onto slot
    i by one mask, one shift and one add (D. Harvey, "Faster polynomial
    multiplication via multipoint Kronecker substitution", J. Symbolic
    Comput. 44(10), 2009); one ``bytes.translate`` reduces every lane mod p.
    For k > 1 lane j >= k of every coefficient then adds lane j times the
    digits of x^j mod m to lanes 0 .. k - 1, at most (k - 1) (p - 1)^2 more,
    within the same bound, and a second ``translate`` reduces them.  Digit i
    of every code is read at once as the bytes ``data[i::2k-1]``.  None
    where n k (p - 1)^2 > 255, which a byte cannot hold.
    """
    if n * k * (p - 1) ** 2 > 255:
        return None
    stride = 2 * k - 1
    size = n * stride
    bits = 8 * size
    mask = (1 << bits) - 1
    residues = _byte_residues(p)
    if k == 1:

        def product(a, b) -> tuple[int, ...]:
            x = int.from_bytes(a, "little") * int.from_bytes(b, "little")
            return tuple(((x & mask) + (x >> bits)).to_bytes(n, "little").translate(residues))

        return product
    q, power_of_x = p**k, _cached_field(p, k).pow
    lanes = [bytes(_decode_poly(c, p, k) + [0] * (k - 1)) for c in range(q)]
    digits = (b"\xff" * k).ljust(stride, b"\0") * n  # lanes 0 .. k - 1 of every coefficient
    low = int.from_bytes(digits, "little")
    first = int.from_bytes(b"\xff".ljust(stride, b"\0") * n, "little")  # lane 0 of each
    folds = [(8 * j, int.from_bytes(bytes(_decode_poly(power_of_x(p, j), p, k)), "little"))
             for j in range(k, stride)]
    places = list(enumerate(p**i for i in range(k)))
    lane_of = lanes.__getitem__
    if q <= 256:  # a code fits the byte of its coefficient

        def read(data: bytes) -> tuple[int, ...]:
            acc = 0
            for i, place in places:
                acc += int.from_bytes(data[i::stride], "little") * place
            return tuple(acc.to_bytes(n, "little"))
    else:  # two bytes per code
        unpack = struct.Struct(f"<{n}H").unpack

        def read(data: bytes) -> tuple[int, ...]:
            acc, spread = 0, bytearray(2 * n)
            for i, place in places:
                spread[::2] = data[i::stride]
                acc += int.from_bytes(spread, "little") * place
            return unpack(acc.to_bytes(2 * n, "little"))

    def product(a, b) -> tuple[int, ...]:
        x = (int.from_bytes(b"".join(map(lane_of, a)), "little")
             * int.from_bytes(b"".join(map(lane_of, b)), "little"))
        data = ((x & mask) + (x >> bits)).to_bytes(size, "little").translate(residues)
        x = int.from_bytes(data, "little")
        y = x & low
        for shift, lift in folds:
            y += (x >> shift & first) * lift
        return read(y.to_bytes(size, "little").translate(residues))

    return product


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

def _convolver(add, mul):
    """convolve(a, b, table): out[table[h][k]] sums mul(a_h, b_k) by add."""

    def convolve(a, b, table) -> list[int]:
        out = [0] * len(a)
        for h, ah in enumerate(a):
            if ah:
                row = table[h]
                for k, bk in enumerate(b):
                    if bk:
                        g = row[k]
                        out[g] = add(out[g], mul(ah, bk))
        return out

    return convolve


def _prime_convolver(p: int):
    """convolve(a, b, table) over F_p, its arithmetic inline: in F_2 each
    product of nonzero codes is 1 and flips its sum; otherwise the products
    are summed as plain integers and each sum reduced mod p once at the end."""
    reduce = p.__rmod__

    def convolve(a, b, table) -> list[int]:
        out = [0] * len(a)
        for h, ah in enumerate(a):
            if ah:
                row = table[h]
                for k, bk in enumerate(b):
                    if bk:
                        out[row[k]] += ah * bk
        return list(map(reduce, out))

    def convolve_f2(a, b, table) -> list[int]:
        out = [0] * len(a)
        for h, ah in enumerate(a):
            if ah:
                row = table[h]
                for k, bk in enumerate(b):
                    if bk:
                        out[row[k]] ^= 1
        return out

    return convolve_f2 if p == 2 else convolve


def _lifted_convolver(lane_exp, log, reduce=None):
    """convolve(a, b, table) on lifted products, lane_exp[i] the lift of g^i:
    summed inline by XOR in characteristic 2 (reduce None), where a lift is
    its code, else as plain integers, each sum read back by reduce."""

    def convolve(a, b, table) -> list[int]:
        out = [0] * len(a)
        for h, ah in enumerate(a):
            if ah:
                la, row = log[ah], table[h]
                for k, bk in enumerate(b):
                    if bk:
                        out[row[k]] += lane_exp[la + log[bk]]
        return list(map(reduce, out))

    def convolve_xor(a, b, table) -> list[int]:
        out = [0] * len(a)
        for h, ah in enumerate(a):
            if ah:
                la, row = log[ah], table[h]
                for k, bk in enumerate(b):
                    if bk:
                        out[row[k]] ^= lane_exp[la + log[bk]]
        return out

    return convolve_xor if reduce is None else convolve


class FieldCtx:
    """The field F_{p^k}, reduced by its one canonical modulus.

    Every result the library computes depends on F_q only up to isomorphism,
    so each order has one modulus, :func:`_canonical_modulus`, and no option
    selects another; contexts are equal when p and k are.  Immutable after
    construction; safe to share.  The raw operations
    :attr:`add`, :attr:`sub`, :attr:`neg`, :attr:`mul` and :attr:`inv` act on
    integer codes in [0, q).  They are plain functions bound per context and
    do not check their arguments: codes from outside the program are checked
    where they enter (the parsers, the JSON readers and the CLI).
    :attr:`convolve` is the group-ring product kernel of the module
    docstring: ``convolve(a, b, table)`` lists the coefficients of the
    product of the families a and b, ``out[table[h][k]]`` summing a_h b_k;
    :meth:`kronecker` gives the cyclic one of a field of at most
    ``_TABLE_LIMIT`` elements, and :meth:`frobenius` the automorphisms
    a -> a^(p^i) of such a field as tables.
    :attr:`packing`, built on first use, is the :class:`PackedRows` layout.
    """

    add: Callable[[int, int], int]
    sub: Callable[[int, int], int]
    neg: Callable[[int], int]
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]  # raises NotInvertibleError on zero
    convolve: Callable[..., list[int]]  # (a, b, table), the module docstring's kernel

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise AlgebraError(f"{p} is not prime")
        if k < 1:
            raise AlgebraError(f"extension degree must be positive, got {k}")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus: Poly = _canonical_modulus(p, k)
        # the n whose Kronecker product of F_q[C_n] :meth:`kronecker` offers
        if k == 1:
            start = 3
        elif self.q <= _TABLE_LIMIT:
            start = max(8, k + 3) if p == 2 else 4
        else:
            start = 256  # beyond every n k (p - 1)^2 <= 255
        self._kronecker_ns = range(start, 255 // (k * (p - 1) ** 2) + 1)
        if p == 2:  # characteristic 2 at every size: a + b = a - b = a XOR b
            self.add = self.sub = operator.xor
            self.neg = operator.pos
        if k == 1:
            self._bind_prime()
        elif self.q <= _TABLE_LIMIT:
            self._bind_tabled()
        else:
            self._bind_untabled()

    def _bind_prime(self) -> None:
        """Arithmetic modulo p, which measures faster than any lookup."""
        p = self.p
        if p > 2:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: -a % p
        self.convolve = _prime_convolver(p)
        self.mul = lambda a, b: a * b % p

        def inv(a: int) -> int:
            if not a:
                raise NotInvertibleError("division by zero in field")
            return pow(a, -1, p)

        self.inv = inv

    def _bind_tabled(self) -> None:
        p, k, q1 = self.p, self.k, self.q - 1
        exp, log = _log_tables(p, k, self.modulus)

        def mul(a: int, b: int) -> int:
            if a and b:
                return exp[log[a] + log[b]]
            return 0

        def inv(a: int) -> int:
            if not a:
                raise NotInvertibleError("division by zero in field")
            return exp[q1 - log[a]]

        self.mul, self.inv = mul, inv
        if p == 2:  # a code is its own lift, and lifts add by XOR
            self.convolve = _lifted_convolver(exp, log)
            return
        self._bind_zech(exp, log, _zech_table(p, exp, log))
        # no lane carries: an output coefficient sums at most ORDER_CAP lifts
        lanes = _Lanes(p, k, (ORDER_CAP * (p - 1)).bit_length())
        lift = list(map(lanes.lift, range(self.q)))  # q lifts, not one per entry of exp
        lane_exp = [lift[c] for c in exp]
        self.convolve = _lifted_convolver(lane_exp, log, lanes.__getitem__)

    @cached_property
    def packing(self) -> PackedRows:
        return PackedRows(self)

    def kronecker(self, n: int) -> FamilyProduct | None:
        """The :func:`_kronecker` product of F_q[C_n] where it measured faster
        than :attr:`convolve`, else None: while n k (p - 1)^2 fits a byte, in
        a prime field from n = 3, in an extension field of odd p from n = 4,
        and in one of characteristic 2 from n = max(8, k + 3) (F4 to F32 from
        C8, F64 from C9, F256 from C11).  Below that, packing costs as much as
        the terms it saves; above ``_TABLE_LIMIT`` there is no kernel."""
        return _kronecker(self.p, self.k, n) if n in self._kronecker_ns else None

    def frobenius(self, i: int) -> list[int] | None:
        """[a^(p^i) for every code a], the field automorphism a -> a^(p^i) as
        a list, where q is at most ``_TABLE_LIMIT``; None above it."""
        if self.q > _TABLE_LIMIT:
            return None
        place = self.p ** (i % self.k)  # a^(p^k) = a
        return [self.pow(a, place) for a in range(self.q)] if place > 1 else list(range(self.q))

    def _bind_zech(self, exp: list[int], log: list[int], zech: list[int]) -> None:
        # With a = g^i and b = g^j, a + b = g^i (1 + g^(j-i)) = g^(i + zech[j-i]),
        # and -b = g^(j+half).  zech holds two periods, so every index difference
        # below lies within its range, negative ones included.
        half = (self.q - 1) // 2

        def add(a: int, b: int) -> int:
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            z = zech[log[b] - la]
            return exp[la + z] if z >= 0 else 0

        def sub(a: int, b: int) -> int:
            if not b:
                return a
            if not a:
                return exp[log[b] + half]
            la = log[a]
            z = zech[log[b] + half - la]
            return exp[la + z] if z >= 0 else 0

        def neg(a: int) -> int:
            return exp[log[a] + half] if a else 0

        self.add, self.sub, self.neg = add, sub, neg

    def _bind_untabled(self) -> None:
        p, k, m = self.p, self.k, self.modulus
        prime = _cached_field(p, 1)

        def inv(a: int) -> int:
            if not a:
                raise NotInvertibleError("division by zero in field")
            # m is irreducible, so every nonzero a is prime to it
            return _encode_poly(poly.inverse(m, _decode_poly(a, p, k), prime), p)

        self.mul, self.inv = _code_mul(p, k, m), inv
        if p > 2:  # characteristic 2 adds by XOR (__init__)
            self.add = _digitwise(p, k, operator.add)
            self.sub = sub = _digitwise(p, k, operator.sub)
            self.neg = lambda a: sub(0, a)
        self.convolve = _convolver(self.add, self.mul)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        return power(a, n, self.mul, 1)

    def check_code(self, value) -> int:
        """value itself if it is an element code, an int in [0, q).

        The check for codes arriving from outside the program (parsers, JSON,
        the CLI); the raw operations do not make it.  Raises ParseError.
        """
        if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < self.q:
            raise ParseError(f"element code {value!r} out of range for F_{self.q}")
        return value

    def scalar(self, n: int) -> int:
        """Image of the integer n under Z -> F_q (lands in the prime field)."""
        return n % self.p

    def mult_order(self, a: int) -> int:
        """Least t >= 1 with a**t == 1.  Divides q - 1."""
        if a == 0:
            raise AlgebraError("zero has no multiplicative order")
        return order_dividing(self.q - 1, lambda t: self.pow(a, t) == 1)

    # -- misc -----------------------------------------------------------------

    def poly_str(self, coeffs: Poly) -> str:
        terms = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return "+".join(terms) if terms else "0"

    def __reduce__(self):
        # the bound operations are closures; pickle the definition instead
        return FieldCtx, (self.p, self.k)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldCtx) and (self.p, self.k) == (other.p, other.k)
        )

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        if self.k == 1:
            return f"F{self.p}"
        return f"F{self.q} (mod {self.poly_str(self.modulus)})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cached_field(p: int, k: int) -> FieldCtx:
    return FieldCtx(p, k)


def parse_field(spec: str) -> FieldCtx:
    """Resolve a textual field spec like "F9" to its canonical context."""
    m = re.fullmatch(r"F(\d+)", spec.strip())
    if not m:
        raise ParseError(f"bad field spec {spec!r}; expected e.g. 'F9'")
    q = parse_int(m.group(1), "field order")
    pk = prime_power(q)
    if pk is None:
        raise ParseError(f"{q} is not a prime power")
    if pk[1] > 1 and q > _EXTENSION_LIMIT:
        raise ParseError(f"F{q} is an extension field above 2^60, too large to build")
    return _cached_field(*pk)

