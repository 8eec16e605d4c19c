"""Elementary number theory helpers: primality, factoring, orders mod n.

Everything here is deterministic and desk-scale (trial division up to
sqrt(n), n < 2**64 in practice).  No probabilistic tests.
"""

from __future__ import annotations

from collections.abc import Callable
from math import gcd

from .errors import AlgebraError


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: multiplicity}."""
    if n < 1:
        raise AlgebraError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n == p**k, or None if n is not a prime power."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    ((p, k),) = fac.items()
    return p, k


def euler_phi(n: int) -> int:
    phi = 1
    for p, k in factorize(n).items():
        phi *= (p - 1) * p ** (k - 1)
    return phi


def order_dividing(m: int, is_one: Callable[[int], bool]) -> int:
    """Least t dividing m with is_one(t), found by stripping the primes of m.

    is_one(t) must hold, among the divisors t of m, exactly for the
    multiples of the answer, as "x**t == 1" does for an x with x**m == 1.
    """
    t = m
    for p in factorize(m):
        while t % p == 0 and is_one(t // p):
            t //= p
    return t


def ord_mod(d: int, q: int) -> int:
    """Multiplicative order of q modulo d: least t >= 1 with q**t == 1 (mod d).

    Requires gcd(q, d) == 1.  ord_mod(1, q) == 1 by convention.
    """
    if d < 1:
        raise AlgebraError(f"modulus must be positive, got {d}")
    if d == 1:
        return 1
    if gcd(q, d) != 1:
        raise AlgebraError(f"gcd({q}, {d}) != 1, order undefined")
    return order_dividing(euler_phi(d), lambda t: pow(q, t, d) == 1)


def is_q_rooted(p: int, q: int) -> bool:
    """True iff q is a primitive root modulo p, i.e. ord_p(q) == p - 1."""
    if not is_prime(p) or not is_prime(q):
        raise AlgebraError(f"both arguments must be prime, got ({p}, {q})")
    if p == q:
        raise AlgebraError("p and q must be distinct primes")
    return ord_mod(p, q) == p - 1


def is_mersenne_prime(p: int) -> tuple[bool, int | None]:
    """Check p == 2**a - 1 with p prime; returns (verdict, a)."""
    if p < 3 or not is_prime(p):
        return False, None
    a = (p + 1).bit_length() - 1
    if 2**a - 1 != p:
        return False, None
    return True, a


def is_fermat_prime(q: int) -> tuple[bool, int | None]:
    """Check q == 2**(2**n) + 1 with q prime; returns (verdict, n)."""
    if q < 3 or not is_prime(q):
        return False, None
    m = q - 1  # must be 2**(2**n)
    e = m.bit_length() - 1
    if 2**e != m:
        return False, None
    # The exponent e must itself be a power of two: e == 2**n.
    n = e.bit_length() - 1
    if 2**n != e:
        return False, None
    return True, n

