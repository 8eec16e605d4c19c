"""Exact arithmetic in finite fields F_{p^k}.

Elements are canonically encoded as integers in [0, q): the element with
polynomial representative c_0 + c_1 x + ... + c_{k-1} x^{k-1} is encoded as
sum(c_i * p**i).  A :class:`FieldCtx` owns the modulus and binds the raw
operations on codes once, so that inner loops elsewhere in the package work
on plain integers.

For q up to ``_TABLE_LIMIT`` the kernel is a set of O(q) arrays built by
walking the powers of a primitive element g: ``exp[i] = g^i`` and
``log[g^i] = i``, plus, for odd p with k > 1, the Zech logarithms
``zech[i] = log(1 + g^i)`` (K. Huber, "Some comments on Zech's logarithms",
IEEE Trans. Inf. Theory 36(4), 1990).  Multiplication and inversion are
index arithmetic; addition is XOR in characteristic 2, plain modular
arithmetic in prime fields and one Zech lookup otherwise.  Larger fields
compute each operation modulo p (k = 1) or on polynomials (k > 1).  The
polynomial routines below are also the independent reference the tests
compare the kernel with.

The public element type :class:`FieldElement` wraps a code together with
its context and supports the usual operators.  Elements from different
contexts never mix; cross-context arithmetic raises
:class:`~joinrings.errors.ContextMismatchError`.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable
from functools import lru_cache

from .errors import AlgebraError, ContextMismatchError, NotInvertibleError, ParseError
from .ntheory import factorize, is_prime, prime_power

# Contexts with q at most this bound get the O(q) log/antilog (and Zech)
# arrays; above it every operation is computed on demand and set-up is free.
_TABLE_LIMIT = 1024

Poly = tuple[int, ...]  # dense coefficients, constant term first


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (dense tuples, constant term first)
# ---------------------------------------------------------------------------

def _poly_trim(c: list[int]) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Poly, m: Poly, p: int) -> Poly:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        a.pop()
    return _poly_trim(a)


def _poly_divmod(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        q[shift] = factor
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
        a.pop()
    return _poly_trim(q), _poly_trim(list(a))


def _poly_ext_gcd_inverse(a: Poly, m: Poly, p: int) -> Poly:
    """Inverse of a modulo m over F_p via extended Euclid."""
    # invariant: r0 = s0*a (mod m), r1 = s1*a (mod m)
    r0, r1 = m, _poly_trim(list(a))
    s0, s1 = (), (1,)
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim([x % p for x in _poly_sub(s0, _poly_mul(q, s1, p), p)])
    if len(r0) != 1:
        raise NotInvertibleError("element is not invertible modulo the field modulus")
    c = pow(r0[0], p - 2, p)
    return _poly_trim([(x * c) % p for x in s0])


def _poly_sub(a: Poly, b: Poly, p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return out


def _poly_pow_mod(a: Poly, n: int, m: Poly, p: int) -> Poly:
    """a**n modulo m over F_p, by square and multiply (n >= 0)."""
    result, base = (1,), _poly_mod(a, m, p)
    while n:
        if n & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        n >>= 1
    return result


def _is_irreducible(m: Poly, p: int) -> bool:
    """Trial-division irreducibility: no roots, no monic factor of degree <= deg/2."""
    k = len(m) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    # root check (covers all degree-1 factors)
    for a in range(p):
        if sum(c * pow(a, i, p) for i, c in enumerate(m)) % p == 0:
            return False
    # monic factors of degree 2 .. k//2
    for d in range(2, k // 2 + 1):
        for code in range(p**d):
            cand = _decode_poly(code, p, d) + (1,)
            if not _poly_mod(m, cand, p):
                return False
    return True


def _decode_poly(code: int, p: int, length: int) -> Poly:
    out = []
    for _ in range(length):
        out.append(code % p)
        code //= p
    return tuple(out)


def _encode_poly(coeffs: Poly, p: int) -> int:
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


def _canonical_modulus(p: int, k: int) -> Poly:
    """Lexicographically smallest irreducible monic degree-k polynomial.

    Candidates x^k + (lower part) are scanned in increasing order of the
    base-p code of the lower part, so the choice is reproducible.
    """
    if k == 1:
        return (0, 1)  # the polynomial x
    for code in range(p**k):
        cand = _decode_poly(code, p, k) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AlgebraError(f"no irreducible polynomial of degree {k} over F_{p}")  # pragma: no cover


def _primitive_element(p: int, k: int, modulus: Poly) -> Poly:
    """The least code g with g^((q-1)/f) != 1 for every prime f | q - 1.

    Tested with the polynomial routines: x need not be primitive (it has
    order 4 modulo x^2 + 1 over F_3).
    """
    q1 = p**k - 1
    exponents = [q1 // f for f in factorize(q1)]
    for code in range(1, q1 + 1):
        g = _decode_poly(code, p, k)
        if all(_poly_pow_mod(g, e, modulus, p) != (1,) for e in exponents):
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
    exp = [0] * (2 * q1 + 1)
    log: list = [None] * (q1 + 1)
    power: Poly = (1,)
    for i in range(q1):
        code = _encode_poly(power, p)
        exp[i] = exp[i + q1] = code
        log[code] = i
        power = _poly_mod(_poly_mul(power, g, p), modulus, p)
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
# field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """The field F_{p^k} with a fixed monic irreducible modulus.

    Immutable after construction; safe to share.  The raw operations
    :attr:`add`, :attr:`sub`, :attr:`neg`, :attr:`mul` and :attr:`inv` act on
    integer codes in [0, q).  They are plain functions bound per context and
    do not check their arguments: codes from outside the program are checked
    where they enter (the parsers, the JSON readers and the CLI).
    """

    add: Callable[[int, int], int]
    sub: Callable[[int, int], int]
    neg: Callable[[int], int]
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]  # raises NotInvertibleError on zero

    def __init__(self, p: int, k: int = 1, modulus: Poly | None = None):
        if not is_prime(p):
            raise AlgebraError(f"{p} is not prime")
        if k < 1:
            raise AlgebraError(f"extension degree must be positive, got {k}")
        self.p = p
        self.k = k
        self.q = p**k
        if modulus is None:
            modulus = _canonical_modulus(p, k)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise AlgebraError(
                    f"modulus must be monic of degree {k} over F_{p}, got {modulus}"
                )
            if not _is_irreducible(modulus, p):
                raise AlgebraError(f"modulus {self.poly_str(modulus)} is reducible over F_{p}")
        self.modulus: Poly = modulus
        if self.q <= _TABLE_LIMIT:
            self._bind_tabled()
        else:
            self._bind_untabled()

    def _bind_tabled(self) -> None:
        p, k, q1 = self.p, self.k, self.q - 1
        exp, log = _log_tables(p, k, self.modulus)

        def inv(a: int) -> int:
            if not a:
                raise NotInvertibleError("division by zero in field")
            return exp[q1 - log[a]]

        self.inv = inv
        if k == 1:
            self._bind_prime()
        else:

            def mul(a: int, b: int) -> int:
                if a and b:
                    return exp[log[a] + log[b]]
                return 0

            self.mul = mul
        if p == 2:
            self.add = self.sub = operator.xor
            self.neg = operator.pos
        elif k > 1:
            self._bind_zech(exp, log, _zech_table(p, exp, log))

    def _bind_prime(self) -> None:
        """add, sub, neg and mul modulo p, which measure faster than any lookup."""
        p = self.p
        self.add = lambda a, b: (a + b) % p
        self.sub = lambda a, b: (a - b) % p
        self.neg = lambda a: -a % p
        self.mul = lambda a, b: a * b % p

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
        if k == 1:
            self._bind_prime()

            def inv(a: int) -> int:
                if not a:
                    raise NotInvertibleError("division by zero in field")
                return pow(a, p - 2, p)

            self.inv = inv
            return

        def dec(a: int) -> Poly:
            return _decode_poly(a, p, k)

        def add(a: int, b: int) -> int:
            return _encode_poly(tuple(_poly_sub(dec(a), tuple((-x) % p for x in dec(b)), p)), p)

        def neg(a: int) -> int:
            return _encode_poly(tuple((-x) % p for x in dec(a)), p)

        def mul(a: int, b: int) -> int:
            return _encode_poly(_poly_mod(_poly_mul(dec(a), dec(b), p), m, p), p)

        def inv(a: int) -> int:
            if not a:
                raise NotInvertibleError("division by zero in field")
            return _encode_poly(_poly_ext_gcd_inverse(dec(a), m, p), p)

        self.add, self.neg, self.mul, self.inv = add, neg, mul, inv
        self.sub = lambda a, b: add(a, neg(b))

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        result, base = 1, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

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

    # -- element interface ---------------------------------------------------

    def element(self, value: int | Poly) -> "FieldElement":
        if isinstance(value, tuple):
            if len(value) > self.k:
                raise AlgebraError("coefficient vector longer than extension degree")
            value = _encode_poly(tuple(c % self.p for c in value), self.p)
        if not 0 <= value < self.q:
            raise AlgebraError(f"code {value} out of range for F_{self.q}")
        return FieldElement(self, value)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self):
        return (FieldElement(self, c) for c in range(self.q))

    def coeffs(self, code: int) -> Poly:
        return _decode_poly(code, self.p, self.k)

    def mult_order(self, a: int) -> int:
        """Least t >= 1 with a**t == 1.  Divides q - 1."""
        if a == 0:
            raise AlgebraError("zero has no multiplicative order")
        t = self.q - 1
        for f in factorize(self.q - 1):
            while t % f == 0 and self.pow(a, t // f) == 1:
                t //= f
        return t

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
        return FieldCtx, (self.p, self.k, self.modulus)

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"F{self.p}"
        return f"F{self.q} (mod {self.poly_str(self.modulus)})"


class FieldElement:
    """An element of F_{p^k}, stored as its canonical integer code."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: FieldCtx, code: int):
        self.ctx = ctx
        self.code = code

    def _check(self, other: "FieldElement") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError(f"field mismatch: {self.ctx} vs {other.ctx}")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.ctx, self.ctx.add(self.code, other.code))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.ctx, self.ctx.sub(self.code, other.code))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.ctx, self.ctx.mul(self.code, other.code))

    def __truediv__(self, other):
        self._check(other)
        return FieldElement(self.ctx, self.ctx.div(self.code, other.code))

    def __pow__(self, n: int):
        return FieldElement(self.ctx, self.ctx.pow(self.code, n))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg(self.code))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.inv(self.code))

    def mult_order(self) -> int:
        return self.ctx.mult_order(self.code)

    @property
    def coeffs(self) -> Poly:
        return self.ctx.coeffs(self.code)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.ctx == other.ctx
            and self.code == other.code
        )

    def __hash__(self):
        return hash((self.ctx.q, self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        if self.ctx.k == 1:
            return str(self.code)
        return f"[{self.ctx.poly_str(self.coeffs)}]"


# ---------------------------------------------------------------------------
# public constructors / parsing
# ---------------------------------------------------------------------------

def field_make(p: int, k: int = 1, modulus: Poly | str | None = None) -> FieldCtx:
    """Build F_{p^k}.  Omitting the modulus selects the canonical one."""
    if isinstance(modulus, str):
        modulus = parse_poly(modulus)
    return FieldCtx(p, k, modulus)


@lru_cache(maxsize=None)
def _cached_field(p: int, k: int) -> FieldCtx:
    return FieldCtx(p, k)


def parse_field(spec: str) -> FieldCtx:
    """Resolve a textual field spec like "F9" to its canonical context."""
    m = re.fullmatch(r"F(\d+)", spec.strip())
    if not m:
        raise ParseError(f"bad field spec {spec!r}; expected e.g. 'F9'")
    q = int(m.group(1))
    pk = prime_power(q)
    if pk is None:
        raise ParseError(f"{q} is not a prime power")
    return _cached_field(*pk)


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(?:x(?:\^(\d+))?)?$")


def parse_poly(text: str) -> Poly:
    """Parse a polynomial literal such as "x^2+x+1" over the integers.

    Coefficients are read as plain integers; reduction mod p happens in
    :class:`FieldCtx`.
    """
    text = text.replace(" ", "").replace("-", "+-")
    if not text:
        raise ParseError("empty polynomial literal")
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        m = _TERM_RE.match(term)
        if not m or (m.group(1) is None and "x" not in term):
            raise ParseError(f"bad polynomial term {term!r}")
        coef = int(m.group(1)) if m.group(1) is not None else 1
        if "x" in term:
            exp = int(m.group(2)) if m.group(2) is not None else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
    deg = max(coeffs) if coeffs else 0
    return _poly_trim([coeffs.get(i, 0) for i in range(deg + 1)])
