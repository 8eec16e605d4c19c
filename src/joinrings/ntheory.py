"""Elementary number theory helpers: primality, factoring, orders mod n.

Everything here is deterministic.  Primality is Miller-Rabin with a fixed
set of bases that is proven exact below ``MR_LIMIT``; factoring is trial
division up to ``TRIAL_BOUND``, for desk-scale n.  No probabilistic tests.
"""

from __future__ import annotations

from collections.abc import Callable
from math import gcd, log2

from .errors import AlgebraError


# Miller-Rabin with the first thirteen primes as bases has no strong
# pseudoprime below this bound (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3_317_044_064_679_887_385_961_981
TRIAL_BOUND = 1 << 20  # factorize divides by trial up to here: about 0.05 s


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Exact below MR_LIMIT.  Above it a witness still proves n composite, but
    passing every base proves nothing, so that case raises AlgebraError.
    """
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_LIMIT:
        raise AlgebraError(f"primality of {n} is beyond the deterministic test")
    return True


def factorize(n: int) -> dict[int, int]:
    """{prime: multiplicity}; a cofactor left past ``TRIAL_BOUND`` must pass is_prime."""
    if n < 1:
        raise AlgebraError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and f <= TRIAL_BOUND:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if f * f <= n and not is_prime(n):
        raise AlgebraError(f"cannot factor {n}: it has no prime factor up to {TRIAL_BOUND}")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0 and k >= 1, in integers."""
    if n < 2:
        return n
    # Newton's step falls only by a factor of about 1 - 1/k far above the
    # root, so start just above it: 2^(log2(n)/k) from a float, whose top 53
    # bits are shifted into place and rounded up past any rounding error.
    shift = max(n.bit_length() - 64, 0)
    e = (log2(n >> shift) + shift) / k
    whole = max(int(e) - 52, 0)
    x = (int(2.0 ** (e - whole) * (1 + 2.0**-30)) + 1) << whole
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


_WITNESS_BITS = 2048  # prime_power runs no primality test on longer roots
# Primes below 2**10, divided out of n before prime_power looks for roots.
_TRIAL_PRIMES = tuple(filter(is_prime, range(1 << 10)))


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n == p**k, or None if n is not a prime power.

    A prime factor below 2**10 settles the answer by division.  Otherwise
    every prime factor of n is above 2**10, so n = m**k has k <= log2(n)/10;
    each prime r up to that bound is tried as an exponent (a k-th power is
    an r-th power for every prime r | k) until m is no perfect power, and m
    alone goes to the primality test.  One round of that test takes about
    30 ms on 2048 bits and 7 s on 4000 digits, so a root m longer than
    ``_WITNESS_BITS`` raises AlgebraError without running it; above
    ``MR_LIMIT`` the test could only prove m composite anyway.
    """
    if n < 2:
        return None
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n, k = n // p, k + 1
            return (p, k) if n == 1 else None
    k, r = 1, 2
    while r <= n.bit_length() // 10:
        root = iroot(n, r)
        if root**r == n:
            n, k = root, k * r
        else:
            r = next(filter(is_prime, range(r + 1, 2 * r + 1)))  # one exists (Bertrand)
    if n.bit_length() > _WITNESS_BITS:
        raise AlgebraError(
            f"whether a {n.bit_length()}-bit root is prime is beyond the deterministic test"
        )
    return (n, k) if is_prime(n) else None


def euler_phi(n: int) -> int:
    phi = 1
    for p, k in factorize(n).items():
        phi *= (p - 1) * p ** (k - 1)
    return phi


def power(x, n: int, mul: Callable, one):
    """x**n (n >= 0) by square and multiply, in any monoid given by mul and one:
    n.bit_length() - 1 squarings and one product fewer than the set bits of
    n, since the first set bit takes its power as it is."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if result is None else result


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
    """True iff q is a primitive root modulo p, i.e. ord_p(q) == p - 1.

    p is a prime and q a prime power of another characteristic.
    """
    if not is_prime(p) or prime_power(q) is None:
        raise AlgebraError(f"need a prime and a prime power, got ({p}, {q})")
    if q % p == 0:
        raise AlgebraError(f"{p} is the characteristic of F_{q}")
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

