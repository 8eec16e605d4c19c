import itertools
import random

import pytest

from joinrings.errors import AlgebraError, ContextMismatchError, NotInvertibleError
from joinrings.ffield import parse_field
from joinrings.groupring import (
    GroupRingElem,
    _Circulant,
    _Conjugates,
    _Euclid,
    _Index2,
    _index2_generator,
    _is_cyclic,
    _unit_route,
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
from joinrings.groups import (
    abelian_groups_of_order,
    cyclic,
    from_table,
    parse_group_spec,
    symmetric,
)

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


# the first n whose cyclic product is the Kronecker one, where it measured
# faster than ctx.convolve (ffield.FieldCtx.kronecker)
KRONECKER_FROM = {"F2": 3, "F3": 3, "F7": 3, "F4": 8, "F9": 4, "F25": 4, "F256": 11}


@pytest.mark.parametrize("spec", KRONECKER_FROM)
def test_cyclic_products_agree_with_the_table_route(spec):
    # cyclic(n) multiplies by ctx.kronecker from KRONECKER_FROM on while
    # n k (p - 1)^2 fits a byte (not F7[C9] nor F7[C16], F25[C9] nor
    # F25[C16]), and from_table of the same table, without invariants, by
    # ctx.convolve: the two routes share no code and check each other
    ctx = parse_field(spec)
    rng = random.Random(f"routes/{ctx.q}")
    start = KRONECKER_FROM[spec]
    for n in sorted({1, 2, 5, 9, 16, start - 1, start}):
        kron, table = cyclic(n), from_table(cyclic(n).table)
        assert table.invariants is None
        if n * ctx.k * (ctx.p - 1) ** 2 > 255 or n < start:
            assert ctx.kronecker(n) is None
            assert gr_multiplier(ctx, kron, packed=True) is None
        else:
            assert gr_multiplier(ctx, kron) is ctx.kronecker(n) is not None
        for _ in range(40):
            a, b = ([rng.randrange(ctx.q) for _ in range(n)] for _ in range(2))
            want = (GroupRingElem(ctx, table, a) * GroupRingElem(ctx, table, b)).coeffs
            assert (GroupRingElem(ctx, kron, a) * GroupRingElem(ctx, kron, b)).coeffs == want


# F512, F729 and F1024 relabel their coefficients through a list, above the
# byte tables of the fields up to F256
ROUTE_FIELDS = ["F2", "F3", "F4", "F5", "F7", "F8", "F9", "F16", "F25", "F512", "F729", "F1024"]


def _route_samples(rng, ctx, group):
    """Random elements, and non-units of every kind the rings have: u (1 - g)
    loses the trivial character, u N_G every other, and u (1 - g) N_H those
    trivial on H = <g> but for the trivial one."""
    n = group.order
    rand = [GroupRingElem(ctx, group, [rng.randrange(ctx.q) for _ in range(n)])
            for _ in range(8)]
    out = list(rand)
    if n > 1:
        g = rng.randrange(1, n)
        one_minus_g = GroupRingElem.one(ctx, group) - GroupRingElem(
            ctx, group, [int(h == g) for h in range(n)])
        h = group.subgroup_generated([g])
        norm_g = GroupRingElem(ctx, group, [1] * n)
        norm_h = GroupRingElem(ctx, group, [int(x in h.elements) for x in range(n)])
        out += [rand[0] * one_minus_g, rand[1] * norm_g, rand[2] * norm_h * one_minus_g]
    return out + [GroupRingElem.zero(ctx, group), GroupRingElem.one(ctx, group)]


@pytest.mark.parametrize("spec", ROUTE_FIELDS)
def test_conjugate_route_matches_euclid_and_the_circulant(spec):
    # the Frobenius conjugates decide and invert every unit of each
    # semisimple abelian F_q[G] with |G| <= 16 as the Bezout inverse of Euclid (on
    # C_n) and the circulant do, whichever route the ring itself takes, and
    # refuse every non-unit with the same error
    ctx = parse_field(spec)
    rng = random.Random(f"conjugates/{spec}")
    for n in range(1, 17):
        if n % ctx.p == 0:
            continue
        for group in abelian_groups_of_order(n) + [cyclic(n)]:
            checks = [_Circulant()] + ([_Euclid(ctx, n)] if _is_cyclic(group) else [])
            route = _Conjugates(ctx, group)
            for a in _route_samples(rng, ctx, group):
                verdict = checks[0].is_unit(a)
                assert all(c.is_unit(a) == verdict for c in checks[1:]), (group.name, a)
                assert route.is_unit(a) == verdict == gr_is_unit(a), (group.name, a)
                if verdict:
                    inverse = checks[0].inverse(a)
                    assert all(c.inverse(a) == inverse for c in checks[1:]), (group.name, a)
                    assert route.inverse(a) == inverse == gr_inverse(a), (group.name, a)
                    continue
                for refuse in (route.inverse, gr_inverse):
                    with pytest.raises(NotInvertibleError, match="^group ring element is not a unit$"):
                        refuse(a)


@pytest.mark.parametrize("label", ["F25[C4xC4]", "F49[C2xC2xC2]"])
def test_conjugate_route_needs_the_field_degree(label):
    # ord_{exp G}(p) = 1 here, so M = lcm(k, 1) = 2 comes from the field
    # alone: p^M - 1 = q - 1 is the exponent of the units, where p - 1 is not
    field, spec = label[:-1].split("[")
    ctx, group = parse_field(field), parse_group_spec(spec)
    rng = random.Random(f"degree/{label}")
    route, check = _Conjugates(ctx, group), _Circulant()
    for a in _route_samples(rng, ctx, group):
        assert route.is_unit(a) == check.is_unit(a), a
        if check.is_unit(a):
            assert route.inverse(a) == check.inverse(a) == gr_inverse(a), a


@pytest.mark.parametrize("label", ["F2[trivial]", "F5[trivial]", "F2[C5]", "F3[C4]", "F4[C3xC3]",
                                   "F9[C16]", "F25[C7]", "F25[C4xC4]"])
def test_conjugate_route_counts_its_products(label):
    # the route choice reads `products`, so it must be what a unit costs
    field, spec = label[:-1].split("[")
    ctx, group = parse_field(field), parse_group_spec(spec)
    route, calls = _Conjugates(ctx, group), []
    multiply = route.multiply
    route.multiply = lambda u, v: calls.append(1) or multiply(u, v)
    unit = GroupRingElem(ctx, group, [ctx.neg(1)] + [0] * (group.order - 1))
    for op, want in zip((route.is_unit, route.inverse), route.products):
        calls.clear()
        op(unit)
        assert len(calls) == want, op.__name__


INDEX2_GROUPS = ["S3", "Q8", "D4", "D5", "D6", "D7", "Dic3", "C2xC2", "C2xC4", "C2xC6"]


@pytest.mark.parametrize("spec", ["F2", "F3", "F4", "F5", "F7", "F9", "F25"])
def test_index2_route_matches_the_circulant(spec):
    # through a cyclic subgroup of index 2, every unit of these rings is
    # decided and inverted as the circulant does it, whichever route the
    # ring itself takes, and every non-unit is refused with the same error
    ctx = parse_field(spec)
    rng = random.Random(f"index2/{spec}")
    check = _Circulant()
    for name in INDEX2_GROUPS:
        group = parse_group_spec(name)
        route = _Index2(ctx, group, _index2_generator(group))
        one = GroupRingElem.one(ctx, group)
        units = []
        while len(units) < 6:
            a = GroupRingElem(ctx, group, [rng.randrange(ctx.q) for _ in range(group.order)])
            if check.is_unit(a):
                units.append(a)
        for a in _route_samples(rng, ctx, group) + units:
            verdict = check.is_unit(a)
            assert route.is_unit(a) == verdict == gr_is_unit(a), (name, a)
            if verdict:
                inverse = route.inverse(a)
                assert inverse == check.inverse(a) == gr_inverse(a), (name, a)
                assert a * inverse == inverse * a == one, (name, a)
                continue
            for refuse in (route.inverse, gr_inverse):
                with pytest.raises(NotInvertibleError, match="^group ring element is not a unit$"):
                    refuse(a)


def test_index2_route_serves_the_groups_with_a_cyclic_subgroup_of_index_2():
    # the non-abelian groups of INDEX2_GROUPS take it on every field; A4,
    # S4 and C2xC2xC2 have no such subgroup and keep the circulant
    for name in INDEX2_GROUPS:
        group = parse_group_spec(name)
        r = _index2_generator(group)
        assert 2 * group.element_orders[r] == group.order, name
        if not group.is_abelian:
            for spec in ("F2", "F5", "F25"):
                assert _route_names(parse_field(spec), group) == ("Index2", "Index2"), name
    even = [p for p in itertools.permutations(range(4))
            if sum(p[i] > p[j] for i in range(4) for j in range(i)) % 2 == 0]
    at = {p: i for i, p in enumerate(even)}
    a4 = from_table([[at[tuple(x[y[i]] for i in range(4))] for y in even] for x in even])
    for group in (a4, symmetric(4), parse_group_spec("C2xC2xC2")):
        assert _index2_generator(group) is None
        assert _route_names(parse_field("F2"), group) == ("Circulant", "Circulant")


@pytest.mark.parametrize("label", ["F5[S3]", "F5[Q8]", "F2[D4]", "F9[Dic3]", "F25[C2xC6]",
                                   "F64[D7]"])
def test_index2_route_counts_its_products(label):
    # two C_m products for a unit test and four for an inverse, on top of
    # N's own test or inverse in F_q[C_m]
    field, spec = label[:-1].split("[")
    ctx, group = parse_field(field), parse_group_spec(spec)
    route, calls = _Index2(ctx, group, _index2_generator(group)), []
    multiply = route.multiply
    route.multiply = lambda u, v: calls.append(1) or multiply(u, v)
    unit = GroupRingElem(ctx, group, [ctx.neg(1)] + [0] * (group.order - 1))
    for op, want in ((route.is_unit, 2), (route.inverse, 4)):
        calls.clear()
        op(unit)
        assert len(calls) == want, op.__name__


def _route_names(ctx, group):
    return tuple(type(method.__self__).__name__.strip("_") for method in _unit_route(ctx, group))


# the (is_unit, inverse) route of each join-units block and each calc-mix
# group ring and join block: Frobenius conjugates where at most n / 2 packed
# products (cyclic) or n table products (otherwise) do it, so not F25[C7]
# (6 and 8 products), F256 (5), F2[C5] (3), nor F7[C16], whose products run
# on its table; and F3[C4] tests units by 2 products, inverts by Euclid
ROUTES = {
    # join-units
    "F2[C3]": ("Conjugates", "Conjugates"), "F2[C5]": ("Euclid", "Euclid"),
    "F4[C3]": ("Euclid", "Euclid"), "F4[C5]": ("Euclid", "Euclid"),
    "F4[C7]": ("Euclid", "Euclid"), "F5[S3]": ("Index2", "Index2"),
    "F5[Q8]": ("Index2", "Index2"), "F25[C7]": ("Euclid", "Euclid"),
    "F25[C9]": ("Euclid", "Euclid"), "F9[C16]": ("Conjugates", "Conjugates"),
    "F256[C3]": ("Euclid", "Euclid"), "F256[C5]": ("Euclid", "Euclid"),
    # calc-mix group rings
    "F2[C7]": ("Conjugates", "Conjugates"), "F3[C8]": ("Conjugates", "Conjugates"),
    "F4[S3]": ("Index2", "Index2"), "F7[C16]": ("Euclid", "Euclid"),
    "F9[C2xC6]": ("Index2", "Index2"), "F16[C15]": ("Conjugates", "Conjugates"),
    "F25[C4xC4]": ("Conjugates", "Conjugates"), "F64[C32]": ("Euclid", "Euclid"),
    "F49[C2xC2xC2]": ("Conjugates", "Conjugates"),
    # calc-mix join blocks besides those above, and wide-field's F2048[C5]
    "F3[S3]": ("Index2", "Index2"), "F3[C2]": ("Euclid", "Euclid"),
    "F2[C2]": ("Euclid", "Euclid"), "F3[C4]": ("Conjugates", "Euclid"),
    "F5[trivial]": ("Euclid", "Euclid"), "F5[C3]": ("Euclid", "Euclid"),
    "F64[C5]": ("Euclid", "Euclid"), "F64[C8]": ("Euclid", "Euclid"),
    "F2048[C5]": ("Euclid", "Euclid"),
}


@pytest.mark.parametrize("label", ROUTES)
def test_unit_routes_are_pinned(label):
    field, group = label[:-1].split("[")
    assert _route_names(parse_field(field), parse_group_spec(group)) == ROUTES[label]
