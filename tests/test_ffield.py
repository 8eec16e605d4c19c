import random
import tracemalloc

import pytest

from joinrings.errors import AlgebraError, NotInvertibleError, ParseError
from joinrings.ffield import FieldCtx, parse_field
from joinrings.ntheory import prime_power


def test_prime_field_arithmetic():
    f7 = parse_field("F7")
    assert f7.add(3, 5) == 1
    assert f7.sub(2, 5) == 4
    assert f7.mul(3, 5) == 1
    assert f7.div(1, 3) == 5
    assert f7.pow(3, 6) == 1
    assert f7.neg(2) == 5


def test_canonical_moduli_pinned():
    # lexicographically smallest irreducible monic polynomial, constant first
    assert parse_field("F4").modulus == (1, 1, 1)
    assert parse_field("F8").modulus == (1, 1, 0, 1)
    assert parse_field("F9").modulus == (1, 0, 1)
    assert parse_field("F16").modulus == (1, 1, 0, 0, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_axioms_exhaustive(q):
    ctx = parse_field(f"F{q}")
    for a in range(1, q):
        inv = ctx.inv(a)
        assert ctx.mul(a, inv) == 1
        # Frobenius: a^q = a
        assert ctx.pow(a, q) == a
        assert (q - 1) % ctx.mult_order(a) == 0


def test_zero_has_no_inverse():
    with pytest.raises(NotInvertibleError):
        parse_field("F5").inv(0)


@pytest.mark.parametrize("p", [2, 1021])
def test_prime_field_builds_no_table(p):
    # every prime field computes modulo p at every size, with no log tables
    tracemalloc.start()
    try:
        ctx = FieldCtx(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024
    assert all(ctx.mul(a, ctx.inv(a)) == 1 for a in range(1, min(p, 200)))


def test_parse_field_rejects_non_prime_power():
    with pytest.raises(AlgebraError):
        parse_field("F6")
    with pytest.raises(ParseError):
        parse_field("G7")
    with pytest.raises(AlgebraError, match="not prime"):
        FieldCtx(4)
    with pytest.raises(AlgebraError, match="extension degree"):
        FieldCtx(2, 0)


def test_mult_order_generator_exists():
    # every F_q has a primitive element of order q-1
    for q in (4, 8, 9, 25):
        ctx = parse_field(f"F{q}")
        assert max(ctx.mult_order(a) for a in range(1, q)) == q - 1


def test_mult_order_matches_linear_scan():
    for q in range(2, 65):
        if prime_power(q) is None:
            continue
        ctx = parse_field(f"F{q}")
        for a in range(1, q):
            t, x = 1, a
            while x != 1:
                x = ctx.mul(x, a)
                t += 1
            assert ctx.mult_order(a) == t, (q, a)


# ---------------------------------------------------------------------------
# the kernel against a schoolbook reference written here
# ---------------------------------------------------------------------------

def _reference_ops(ctx):
    """add, sub, neg and mul on base-p digit lists, apart from the package.

    A code is the list of its k base-p digits, constant term first; the
    product is reduced by the monic modulus with plain % p.  There is no
    reference inverse: the kernel's inv(a) is checked by ref mul(a, inv(a)) == 1.
    """
    p, k, m = ctx.p, ctx.k, ctx.modulus

    def dec(a):
        digits = []
        for _ in range(k):
            a, d = divmod(a, p)
            digits.append(d)
        return digits

    def enc(digits):
        code = 0
        for d in reversed(digits):
            code = code * p + d % p
        return code

    def mul(a, b):
        x, y = dec(a), dec(b)
        prod = [0] * (2 * k - 1)
        for i in range(k):
            for j in range(k):
                prod[i + j] += x[i] * y[j]
        for top in range(2 * k - 2, k - 1, -1):  # x^k = -(m_0 + ... + m_{k-1} x^{k-1})
            c = prod[top] % p
            for i in range(k):
                prod[top - k + i] -= c * m[i]
        return enc(prod[:k])

    return {
        "add": lambda a, b: enc([x + y for x, y in zip(dec(a), dec(b))]),
        "sub": lambda a, b: enc([x - y for x, y in zip(dec(a), dec(b))]),
        "neg": lambda a: enc([-x for x in dec(a)]),
        "mul": mul,
    }


def _check_kernel(ctx, pairs):
    ref = _reference_ops(ctx)
    for a, b in pairs:
        assert ctx.add(a, b) == ref["add"](a, b), ("add", a, b)
        assert ctx.sub(a, b) == ref["sub"](a, b), ("sub", a, b)
        assert ctx.mul(a, b) == ref["mul"](a, b), ("mul", a, b)
    for a in {a for a, _ in pairs}:
        assert ctx.neg(a) == ref["neg"](a), ("neg", a)
        assert ctx.pow(a, 0) == 1, ("pow 0", a)
        if a:
            inv = ctx.inv(a)
            assert 0 <= inv < ctx.q and ref["mul"](a, inv) == 1, ("inv", a)
            assert ctx.pow(a, -5) == ctx.pow(inv, 5), ("pow -5", a)
    with pytest.raises(NotInvertibleError):
        ctx.inv(0)


CANONICAL_Q_UP_TO_64 = [q for q in range(2, 65) if prime_power(q)]


@pytest.mark.parametrize("q", CANONICAL_Q_UP_TO_64)
def test_kernel_matches_polynomials_every_pair(q):
    ctx = parse_field(f"F{q}")
    _check_kernel(ctx, [(a, b) for a in range(q) for b in range(q)])


@pytest.mark.parametrize("q", [128, 243, 256, 343, 512, 625, 729, 1024, 1031, 2048, 2187, 3125])
def test_kernel_matches_polynomials_sampled(q):
    ctx = parse_field(f"F{q}")
    rng = random.Random(q)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(1500)]
    pairs += [(0, b) for b in range(0, q, 37)] + [(a, a) for a in range(0, q, 41)]
    _check_kernel(ctx, pairs)


@pytest.mark.parametrize("q, x_order", [(9, 4), (25, 8), (256, 51), (512, 73)])
def test_canonical_fields_where_x_is_not_primitive(q, x_order):
    # the kernel must not assume x is primitive; these fields, every pair
    # or sampled above, keep that covered in both characteristics
    ctx = parse_field(f"F{q}")
    assert ctx.mult_order(ctx.p) == x_order  # the code of x is p


def test_twenty_digit_extension_builds_and_inverts():
    # F_{3^20}: its canonical modulus took seconds to find by trial division
    ctx = parse_field("F3486784401")
    assert (ctx.p, ctx.k) == (3, 20)
    ref = _reference_ops(ctx)
    rng = random.Random(20)
    for a in [1, 2, 3, ctx.q - 1] + [rng.randrange(1, ctx.q) for _ in range(200)]:
        inv = ctx.inv(a)
        assert ctx.mul(a, inv) == 1 == ref["mul"](a, inv), a


def test_extension_fields_stop_at_the_size_limit():
    assert (parse_field(f"F{2**40}").k, parse_field(f"F{2**60}").k) == (40, 60)
    for q in (2**61, 3**38, 5**26):
        with pytest.raises(ParseError, match="above 2\\^60"):
            parse_field(f"F{q}")
    assert parse_field(f"F{2**61 - 1}").k == 1  # a prime field has no modulus to find


def test_context_pickles_by_definition():
    import pickle

    for ctx in (parse_field("F7"), parse_field("F9"), parse_field("F2048")):
        copy = pickle.loads(pickle.dumps(ctx))
        assert copy == ctx and copy.mul(3, 5) == ctx.mul(3, 5)

