"""Polynomials over a finite field: product, remainder, Euclid and the Bezout inverse.

A polynomial is a list of element codes, constant term first, *trimmed*
when its last code is nonzero; ``[]`` is zero.  The routines use only the
raw add, sub, mul and inv of the coefficient field's context, so one core
serves the extension fields F_p[x]/(m) and the group rings F_q[y]/(y^n - 1).
"""

from __future__ import annotations


def mul(a: list[int], b: list[int], ctx) -> list[int]:
    """The product a * b; trimmed when a and b are."""
    if not a or not b:
        return []
    add, mul_ = ctx.add, ctx.mul
    terms = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] = add(out[i + j], mul_(x, y))
    return out


def rem(a: list[int], m: list[int], ctx) -> list[int]:
    """Reduce a modulo the trimmed nonzero m in place and return it, trimmed.

    Each step cancels the leading term of a and pops it without computing
    the zero left there.
    """
    sub, mul_ = ctx.sub, ctx.mul
    n = len(m) - 1
    lead_inv = ctx.inv(m[-1])
    while a and not a[-1]:
        a.pop()
    while len(a) > n:
        k = len(a) - 1 - n
        c = mul_(a.pop(), lead_inv)
        for j in range(n):
            if m[j]:
                a[k + j] = sub(a[k + j], mul_(c, m[j]))
        while a and not a[-1]:
            a.pop()
    return a


def euclid(m: list[int], a: list[int], ctx) -> tuple[list[int], list[list[int]]]:
    """Euclid's algorithm on the trimmed m and on a; neither is changed.

    Returns the first remainder of degree below 1 (``[]`` for zero) and the
    quotients of the divisions that led to it.  a is invertible modulo m
    iff that remainder is a nonzero constant: then gcd(a, m) = 1, and
    :func:`inverse` builds a^-1 from the quotients.
    """
    sub, mul_ = ctx.sub, ctx.mul
    r0, r1 = list(m), list(a)
    while r1 and not r1[-1]:
        r1.pop()
    quotients = []
    while len(r1) > 1:
        # r0 = quot * r1 + remainder, by the steps of :func:`rem` inlined
        # (a call per division measured slower on small cyclic unit tests)
        n = len(r1) - 1
        lead_inv = ctx.inv(r1[-1])
        quot = [0] * (len(r0) - n)
        while len(r0) > n:
            k = len(r0) - 1 - n
            c = quot[k] = mul_(r0.pop(), lead_inv)
            for j in range(n):
                if r1[j]:
                    r0[k + j] = sub(r0[k + j], mul_(c, r1[j]))
            while r0 and not r0[-1]:
                r0.pop()
        quotients.append(quot)
        r0, r1 = r1, r0
    return r1, quotients


def inverse(m: list[int], a: list[int], ctx) -> list[int] | None:
    """The trimmed s with s * a = 1 (mod m) and deg s < deg m, or None when
    gcd(a, m) != 1; neither m nor a is changed.

    From ``last, quotients = euclid(m, a)``, the cofactors run
    s_{i+1} = s_{i-1} - quotient_i * s_i from s = 0, 1, and the last of
    them times a is last modulo m; a unit ``last[0]`` scales it to s.
    """
    last, quotients = euclid(m, a, ctx)
    if len(last) != 1:
        return None
    sub, mul_ = ctx.sub, ctx.mul
    s0, s1 = [], [1]
    for quot in quotients:
        s = s0 + [0] * (len(quot) + len(s1) - 1 - len(s0))
        for k, c in enumerate(quot):
            if c:
                for j, x in enumerate(s1, k):
                    if x:
                        s[j] = sub(s[j], mul_(c, x))
        s0, s1 = s1, s
    c = ctx.inv(last[0])
    return [mul_(c, x) for x in s1]
