"""The polynomial core and Rabin's irreducibility test, against references here.

The references work on plain lists: products and remainders by schoolbook
loops, irreducibility by trial division with integers mod p.
"""

import itertools
import random
from math import prod

import pytest

from joinrings import poly
from joinrings.ffield import FieldCtx, _canonical_modulus, _irreducible, parse_field
from joinrings.ntheory import factorize, prime_power


def _trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def _ref_mul(a, b, ctx):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    return _trim(out)


def _ref_rem(a, m, ctx):
    a, m = _trim(a), _trim(m)
    lead = ctx.inv(m[-1])
    while len(a) >= len(m):
        c, shift = ctx.mul(a[-1], lead), len(a) - len(m)
        for j, y in enumerate(m):
            a[shift + j] = ctx.sub(a[shift + j], ctx.mul(c, y))
        a = _trim(a)
    return a


def _ref_coprime(m, a, ctx):
    """gcd(a, m) = 1, by remainders alone."""
    r0, r1 = _trim(m), _trim(a)
    while r1:
        r0, r1 = r1, _ref_rem(r0, r1, ctx)
    return len(r0) == 1


def _random_poly(rng, q, degree):
    """Degree exactly `degree` (the zero polynomial for -1)."""
    if degree < 0:
        return []
    return [rng.randrange(q) for _ in range(degree)] + [rng.randrange(1, q)]


FIELDS = ["F2", "F7", "F9", "F256"]


@pytest.mark.parametrize("spec", FIELDS)
def test_product_and_remainder(spec):
    ctx = parse_field(spec)
    rng = random.Random(spec)
    for _ in range(200):
        m = _random_poly(rng, ctx.q, rng.randrange(0, 9))
        a = _random_poly(rng, ctx.q, rng.randrange(-1, 9))
        b = _random_poly(rng, ctx.q, rng.randrange(-1, 9))
        prod = poly.mul(a, b, ctx)
        assert prod == _ref_mul(a, b, ctx)
        r = poly.rem(list(prod), m, ctx)
        assert r == _ref_rem(prod, m, ctx)
        assert len(r) < len(m)


def _cofactor_cases(ctx, rng):
    q = ctx.q
    for degree in range(1, 13):
        m = _random_poly(rng, q, degree)
        yield m, "random", [rng.randrange(q) for _ in range(degree)]
        yield m, "random", _random_poly(rng, q, degree - 1)
        yield m, "zero", []
        yield m, "zero", [0] * degree
        yield m, "constant", [rng.randrange(1, q)]
    for _ in range(12):  # a and m share the factor g
        g = _random_poly(rng, q, rng.randrange(1, 4))
        h = _random_poly(rng, q, rng.randrange(1, 5))
        f = _random_poly(rng, q, rng.randrange(0, len(h) - 1))
        yield _ref_mul(g, h, ctx), "non-coprime", _ref_mul(g, f, ctx)


@pytest.mark.parametrize("spec", FIELDS)
def test_cofactor_identity(spec):
    """The Bezout cofactor s of poly.inverse has s * a = 1 (mod m) and
    deg s < deg m exactly when gcd(a, m) = 1, and is None otherwise."""
    ctx = parse_field(spec)
    rng = random.Random(spec)
    kinds = set()
    for m, kind, a in _cofactor_cases(ctx, rng):
        m_before, a_before = list(m), list(a)
        last, quotients = poly.euclid(m, a, ctx)
        s = poly.inverse(m, a, ctx)
        assert (m, a) == (m_before, a_before)  # euclid and inverse work on copies
        r0, r1 = m, _trim(a)
        for quot in quotients:  # r0 = quot * r1 + (the next remainder)
            r2 = _ref_rem(r0, r1, ctx)
            back = _ref_mul(quot, r1, ctx)
            back += [0] * (len(r0) - len(back))
            for j, x in enumerate(r2):
                back[j] = ctx.add(back[j], x)
            assert _trim(back) == r0
            r0, r1 = r1, r2
        assert r1 == last and len(last) <= 1
        coprime = _ref_coprime(m, a, ctx)
        assert coprime == (kind not in ("zero", "non-coprime")) or kind == "random"
        if not coprime:
            assert last == [] and s is None, (kind, m, a)
        else:
            assert s == _trim(s) and len(s) < len(m), (kind, m, a)
            assert _ref_rem(_ref_mul(s, a, ctx), m, ctx) == [1], (kind, m, a)
        if kind == "constant":
            assert s == [ctx.inv(a[0])]
        kinds.add((kind, s is not None, bool(quotients)))
    assert ("random", True, True) in kinds and ("non-coprime", False, True) in kinds


# ---------------------------------------------------------------------------
# Rabin's test against trial division
# ---------------------------------------------------------------------------

def _divides(d, m, p):
    """True if the monic d divides m over F_p (plain integers mod p)."""
    m = list(m)
    while len(m) >= len(d):
        c, shift = m.pop(), len(m) + 1 - len(d)
        for j in range(len(d) - 1):
            m[shift + j] = (m[shift + j] - c * d[j]) % p
    return not any(m)


def _monic(p, degree):
    return [lower + (1,) for lower in itertools.product(range(p), repeat=degree)]


def _trial_irreducible(m, p):
    k = len(m) - 1
    return all(not _divides(d, m, p) for e in range(1, k // 2 + 1) for d in _monic(p, e))


def _irreducible_count(p, k):
    """Gauss: (1/k) sum over squarefree d | k of mu(d) p^(k/d)."""
    primes = list(factorize(k))
    total = sum(
        (-1) ** r * p ** (k // prod(ds))
        for r in range(len(primes) + 1)
        for ds in itertools.combinations(primes, r)
    )
    return total // k


@pytest.mark.parametrize("p, max_degree", [(2, 9), (3, 6), (5, 4), (7, 3)])
def test_rabin_matches_trial_division(p, max_degree):
    for k in range(1, max_degree + 1):
        found = 0
        for m in _monic(p, k):
            verdict = _irreducible(m, p)
            assert verdict == _trial_irreducible(m, p), m
            found += verdict
        assert found == _irreducible_count(p, k), (p, k)


# base-p code of the lower part of the canonical modulus of F_q, for every
# prime power q = p^k <= 3^8 with k > 1 (every 2^k <= 2^12 among them)
CANONICAL_LOWER_CODES = {
    4: 3, 8: 3, 9: 1, 16: 3, 25: 2, 27: 7, 32: 5, 49: 1, 64: 3, 81: 5, 121: 1,
    125: 6, 128: 3, 169: 2, 243: 7, 256: 27, 289: 3, 343: 2, 361: 1, 512: 3,
    529: 1, 625: 2, 729: 5, 841: 2, 961: 1, 1024: 9, 1331: 15, 1369: 2,
    1681: 3, 1849: 1, 2048: 5, 2187: 11, 2197: 2, 2209: 1, 2401: 8, 2809: 2,
    3125: 21, 3481: 1, 3721: 2, 4096: 9, 4489: 1, 4913: 20, 5041: 1, 5329: 5,
    6241: 1, 6561: 11,
}


def test_canonical_moduli_unchanged():
    qs = [q for q in range(4, 3**8 + 1) if prime_power(q) and prime_power(q)[1] > 1]
    assert qs == sorted(CANONICAL_LOWER_CODES)
    for q, code in CANONICAL_LOWER_CODES.items():
        p, k = prime_power(q)
        lower = [code // p**i % p for i in range(k)]
        assert _canonical_modulus(p, k) == tuple(lower) + (1,), q


def test_prime_fields_use_no_polynomials(monkeypatch):
    def refuse(*args):
        raise AssertionError("a prime field reached the polynomial core")

    for name in ("mul", "rem", "euclid", "inverse"):
        monkeypatch.setattr(poly, name, refuse)
    for ctx in (FieldCtx(2), FieldCtx(7), FieldCtx(1031), FieldCtx(10**9 + 7)):
        for a in {1, ctx.q - 1, (ctx.q + 1) // 2}:
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.pow(a, ctx.q - 1) == 1 and (ctx.q - 1) % ctx.mult_order(a) == 0
