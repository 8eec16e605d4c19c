import random

import pytest

from joinrings.errors import AlgebraError, ContextMismatchError, NotInvertibleError
from joinrings.ffield import parse_field
from joinrings.groupring import (
    GroupRingElem,
    augmentation,
    circulant_rows,
    format_element,
    gr_decompose,
    gr_inverse,
    gr_is_unit,
    gr_multiplier,
    gr_unit_count,
    idempotent_eH,
    parse_element,
    wedderburn_abelian,
)
from joinrings.groups import cyclic, from_table, parse_group_spec, symmetric

F2 = parse_field("F2")
F3 = parse_field("F3")
F7 = parse_field("F7")


def test_elements_of_two_rings_do_not_mix():
    a = parse_element("1+g1", cyclic(3), F2)
    for other in (parse_element("1+g1", cyclic(3), F3), parse_element("1+g1", cyclic(4), F2)):
        with pytest.raises(ContextMismatchError):
            a + other
        with pytest.raises(ContextMismatchError):
            a * other


def test_ring_axioms_random_free():
    g = cyclic(4)
    a = parse_element("1+g1", g, F3)
    b = parse_element("2*g2+g3", g, F3)
    c = parse_element("1+2*g1+g3", g, F3)
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * GroupRingElem.one(F3, g) == a


def test_all_ones_is_idempotent_not_unit_in_char_3_free():
    # coefficient sum 1+1+1 = 3 = 1 in F_2, so the all-ones element of
    # F_2[Z/3] squares to itself and is NOT invertible (singular circulant)
    g = cyclic(3)
    e = GroupRingElem(F2, g, [1, 1, 1])
    assert e * e == e
    assert not gr_is_unit(e)
    with pytest.raises(NotInvertibleError):
        gr_inverse(e)


def test_unit_group_f2_z3():
    g = cyclic(3)
    units = []
    for code in range(8):
        coeffs = [(code >> i) & 1 for i in range(3)]
        a = GroupRingElem(F2, g, coeffs)
        if gr_is_unit(a):
            units.append(tuple(coeffs))
    # exactly the trivial units 1, g, g^2
    assert sorted(units) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert len(units) == gr_unit_count(g, F2) == 3


def test_circulant_roundtrip_and_product():
    g = cyclic(5)
    a = parse_element("1+g1+3*g4", g, F7)
    b = parse_element("2+g2", g, F7)
    # the first row of the circulant is the coefficient family itself
    assert GroupRingElem(F7, g, circulant_rows(a)[0]) == a
    # circulant of a product is the product of circulants
    import joinrings.linalg as linalg

    prod_rows = linalg.mat_mul(circulant_rows(a), circulant_rows(b), F7)
    assert circulant_rows(a * b) == prod_rows


def test_inverse_pullback():
    g = cyclic(7)
    a = parse_element("1+g1+g2", g, F2)
    inv = gr_inverse(a)
    assert a * inv == GroupRingElem.one(F2, g)
    assert inv * a == GroupRingElem.one(F2, g)
    assert a ** -1 == inv
    assert a ** -3 == inv * inv * inv
    assert a ** 0 == GroupRingElem.one(F2, g)


def test_nonabelian_convolution():
    s3 = symmetric(3)
    a = GroupRingElem(F3, s3, [1, 1, 0, 0, 0, 0])
    b = GroupRingElem(F3, s3, [0, 0, 1, 0, 0, 1])
    # no commutativity in general, but associativity must hold
    assert (a * b) * a == a * (b * a)


def test_augmentation_is_ring_hom():
    g = cyclic(6)
    h = g.subgroup([0, 3])
    a = parse_element("1+g1+2*g4", g, F7)
    b = parse_element("3+g2+g5", g, F7)
    assert augmentation(a * b, h) == augmentation(a, h) * augmentation(b, h)
    assert augmentation(a + b, h) == augmentation(a, h) + augmentation(b, h)


def test_idempotent_eH_decomposition():
    g = cyclic(6)
    h = g.subgroup([0, 2, 4])  # order 3, invertible in F_2
    e = idempotent_eH(h, F2)
    assert e * e == e
    a = parse_element("1+g1+g3", g, F2)
    assert a * e == e * a
    left, right = gr_decompose(a, h)
    # right component is annihilated by e_H
    assert right * e == GroupRingElem.zero(F2, g)


def test_idempotent_eH_needs_invertible_order():
    g = cyclic(6)
    h = g.subgroup([0, 3])  # order 2 not invertible in F_2
    with pytest.raises(AlgebraError):
        idempotent_eH(h, F2)


def test_wedderburn_f2_z7():
    data = wedderburn_abelian(cyclic(7), F2)
    # divisors 1 and 7: 1 component F_2, two components F_8
    assert data.components == ((1, 1, 1), (1, 3, 2))
    assert data.unit_count() == 49


def test_wedderburn_rejects_modular_case():
    with pytest.raises(AlgebraError):
        wedderburn_abelian(cyclic(2), F2)


def test_parse_and_format_roundtrip():
    g = cyclic(4)
    for text in ("1+g1+2*g2", "g3", "2", "2g1"):
        a = parse_element(text, g, F3)
        assert parse_element(format_element(a), g, F3) == a


def test_parse_rejects_out_of_range_generator():
    with pytest.raises(AlgebraError):
        parse_element("g9", cyclic(3), F2)
    with pytest.raises(AlgebraError, match="length 2, expected 3"):
        GroupRingElem(F2, cyclic(3), [1, 0])


def test_hash_agrees_with_equality_across_equal_groups():
    # two distinct copies of C3 and C4 are equal groups, so equal elements,
    # subgroups and quotients must hash and compare alike (cyclic(n) is built
    # once per process, so the second copy comes from its table)
    g1, g2 = cyclic(3), from_table(cyclic(3).table)
    assert g1 is not g2 and g1 == g2 and hash(g1) == hash(g2)
    a = GroupRingElem(F3, g1, (1, 2, 0))
    b = GroupRingElem(F3, g2, (1, 2, 0))
    assert a == b and hash(a) == hash(b) and b in {a}

    h1, h2 = cyclic(4).subgroup([0, 2]), from_table(cyclic(4).table).subgroup([0, 2])
    assert h1.parent is not h2.parent
    assert h1 == h2 and hash(h1) == hash(h2) and h2 in {h1}
    quotient, proj = h1.quotient
    assert h2.quotient == (quotient, proj)
    # each subgroup builds its quotient once and keeps it
    assert h1.quotient is h1.quotient
    # elements over one parent augment along an equal subgroup of the other
    x = GroupRingElem(F3, h1.parent, (1, 1, 2, 0))
    assert augmentation(x, h2).coeffs == (0, 1)
    assert augmentation(x, h2) == augmentation(x, h1)
    # an equal but separately built parent forms the same quotient
    assert cyclic(4).subgroup([0, 2]).quotient == (quotient, proj)


@pytest.mark.parametrize("ctx", [F2, F3, F7], ids=str)
def test_cyclic_products_agree_with_the_table_route(ctx):
    # cyclic(n) multiplies by ctx.kronecker from n = 5 here while
    # n (p - 1)^2 fits a byte (not F7[C9] nor F7[C16]), and from_table of
    # the same table, without invariants, by ctx.convolve: the two routes
    # share no code and check each other
    rng = random.Random(f"routes/{ctx.q}")
    for n in (1, 2, 5, 9, 16):
        kron, table = cyclic(n), from_table(cyclic(n).table)
        assert table.invariants is None
        if n * (ctx.p - 1) ** 2 > 255:
            assert ctx.kronecker(n) is None
        elif n >= 5:
            assert gr_multiplier(ctx, kron) is ctx.kronecker(n) is not None
        for _ in range(40):
            a, b = ([rng.randrange(ctx.q) for _ in range(n)] for _ in range(2))
            want = (GroupRingElem(ctx, table, a) * GroupRingElem(ctx, table, b)).coeffs
            assert (GroupRingElem(ctx, kron, a) * GroupRingElem(ctx, kron, b)).coeffs == want
