import random

import pytest

from joinrings.errors import AlgebraError, NotInvertibleError, ParseError
from joinrings.ffield import (
    _decode_poly,
    _encode_poly,
    _poly_ext_gcd_inverse,
    _poly_mod,
    _poly_mul,
    _poly_sub,
    field_make,
    parse_field,
    parse_poly,
)
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


def test_field_elements_operators():
    f9 = parse_field("F9")
    a = f9.element(5)
    b = f9.element(7)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert (a ** 8).code == 1


def test_custom_modulus():
    # x^2 + x + 2 is also irreducible over F_3
    ctx = field_make(3, 2, "x^2+x+2")
    assert ctx.q == 9
    for a in range(1, 9):
        assert ctx.mul(a, ctx.inv(a)) == 1


def test_reducible_modulus_rejected():
    with pytest.raises(AlgebraError):
        field_make(2, 2, "x^2+1")  # (x+1)^2 over F_2


def test_parse_poly():
    assert parse_poly("x^2+x+1") == (1, 1, 1)
    assert parse_poly("x^3+2*x+1") == (1, 2, 0, 1)
    with pytest.raises(ParseError):
        parse_poly("x^^2")


def test_parse_field_rejects_non_prime_power():
    with pytest.raises(AlgebraError):
        parse_field("F6")
    with pytest.raises(ParseError):
        parse_field("G7")


def test_mult_order_generator_exists():
    # every F_q has a primitive element of order q-1
    for q in (4, 8, 9, 25):
        ctx = parse_field(f"F{q}")
        assert max(ctx.mult_order(a) for a in range(1, q)) == q - 1


# ---------------------------------------------------------------------------
# the log/antilog kernel against the polynomial routines
# ---------------------------------------------------------------------------

def _reference_ops(ctx):
    """add, sub, neg, mul, inv computed on polynomials, apart from the kernel."""
    p, k, m = ctx.p, ctx.k, ctx.modulus

    def dec(a):
        return _decode_poly(a, p, k)

    def enc(c):
        return _encode_poly(tuple(c), p)

    return {
        "add": lambda a, b: enc(_poly_sub(dec(a), tuple((-x) % p for x in dec(b)), p)),
        "sub": lambda a, b: enc(_poly_sub(dec(a), dec(b), p)),
        "neg": lambda a: enc(_poly_sub((), dec(a), p)),
        "mul": lambda a, b: enc(_poly_mod(_poly_mul(dec(a), dec(b), p), m, p)),
        "inv": lambda a: enc(_poly_ext_gcd_inverse(dec(a), m, p)),
    }


def _check_kernel(ctx, pairs):
    ref = _reference_ops(ctx)
    for a, b in pairs:
        assert ctx.add(a, b) == ref["add"](a, b), ("add", a, b)
        assert ctx.sub(a, b) == ref["sub"](a, b), ("sub", a, b)
        assert ctx.mul(a, b) == ref["mul"](a, b), ("mul", a, b)
    for a in {a for a, _ in pairs}:
        assert ctx.neg(a) == ref["neg"](a), ("neg", a)
        if a:
            assert ctx.inv(a) == ref["inv"](a), ("inv", a)
    with pytest.raises(NotInvertibleError):
        ctx.inv(0)


CANONICAL_Q_UP_TO_64 = [q for q in range(2, 65) if prime_power(q)]


@pytest.mark.parametrize("q", CANONICAL_Q_UP_TO_64)
def test_kernel_matches_polynomials_every_pair(q):
    ctx = parse_field(f"F{q}")
    _check_kernel(ctx, [(a, b) for a in range(q) for b in range(q)])


@pytest.mark.parametrize("q", [128, 243, 256, 343, 625, 729, 1024])
def test_kernel_matches_polynomials_sampled(q):
    ctx = parse_field(f"F{q}")
    rng = random.Random(q)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(1500)]
    pairs += [(0, b) for b in range(0, q, 37)] + [(a, a) for a in range(0, q, 41)]
    _check_kernel(ctx, pairs)


@pytest.mark.parametrize("p, k, modulus, x_order", [
    (2, 4, "x^4+x^3+x^2+x+1", 5),  # x is not primitive: the kernel must not assume it
    (3, 2, "x^2+x+2", 8),
])
def test_kernel_matches_polynomials_custom_modulus(p, k, modulus, x_order):
    ctx = field_make(p, k, modulus)
    assert ctx.mult_order(p) == x_order  # the code of x is p
    _check_kernel(ctx, [(a, b) for a in range(ctx.q) for b in range(ctx.q)])


def test_context_pickles_by_definition():
    import pickle

    for ctx in (parse_field("F7"), parse_field("F9"), parse_field("F2048")):
        copy = pickle.loads(pickle.dumps(ctx))
        assert copy == ctx and copy.mul(3, 5) == ctx.mul(3, 5)

