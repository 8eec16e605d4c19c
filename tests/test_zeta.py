import itertools
import math

import pytest

from joinrings.errors import AlgebraError, ParseError
from joinrings.ffield import parse_field
from joinrings.groupring import GroupRingElem, wedderburn_abelian
from joinrings.groups import (
    _partitions,
    abelian_groups_of_order,
    cyclic,
    parse_group_spec,
)
from joinrings.joinring import JoinShape, parse_shape_spec
from joinrings.zeta import (
    ZetaFunction,
    zeta_field,
    zeta_group_ring,
    zeta_join,
    zeta_matrix_ring,
    zeta_semimagic,
)

F2 = parse_field("F2")
F3 = parse_field("F3")


def test_zeta_field_and_matrix_ring():
    assert zeta_field(5).factors == {1: -1}
    assert zeta_matrix_ring(4, 2).factors == {1: -1}
    assert zeta_field(5).pole_order_at_zero() == 1
    with pytest.raises(AlgebraError, match="matrix size"):
        zeta_matrix_ring(0, 2)
    with pytest.raises(AlgebraError, match="factor degree"):
        ZetaFunction(2, {0: 1})


def test_zeta_abelian_split_cases():
    # F_2[Z/3] = F_2 x F_4
    assert zeta_group_ring(cyclic(3), F2).factors == {1: -1, 2: -1}
    # F_2[Z/5] = F_2 x F_16
    assert zeta_group_ring(cyclic(5), F2).factors == {1: -1, 4: -1}
    # F_2[Z/7] = F_2 x F_8 x F_8
    assert zeta_group_ring(cyclic(7), F2).factors == {1: -1, 3: -2}
    # F_3[Z/4] = F_3 x F_3 x F_9
    assert zeta_group_ring(cyclic(4), F3).factors == {1: -2, 2: -1}


def test_zeta_normal_sylow_reduction():
    # zeta of F_2[Z/6] equals zeta of F_2[Z/3]
    assert zeta_group_ring(cyclic(6), F2).factors == zeta_group_ring(cyclic(3), F2).factors
    assert zeta_group_ring(cyclic(12), F3).factors == {1: -2, 2: -1}


def test_zeta_join_rooted():
    z = zeta_join(parse_shape_spec("join(C3,C5;F2)"))
    assert z.factors == {1: -1, 2: -1, 4: -1}
    assert z.pole_order_at_zero() == 3


def test_zeta_join_trivial_blocks():
    z = zeta_join(parse_shape_spec("join(trivial,trivial;F2)"))
    assert z.factors == {1: -1}


def test_zeta_semimagic_cases():
    assert zeta_semimagic(1, 5).factors == {1: -1}
    assert zeta_semimagic(2, 2).factors == {1: -1}  # char 2 collapses a factor
    assert zeta_semimagic(2, 3).factors == {1: -2}
    assert zeta_semimagic(3, 2).factors == {1: -2}
    assert zeta_semimagic(4, 3).factors == {1: -2}
    assert zeta_semimagic(2, 4).factors == {1: -1}  # F_4 has characteristic 2 too
    for n in (1, 2, 3):
        with pytest.raises(AlgebraError, match="not a prime power"):
            zeta_semimagic(n, 6)


def test_zeta_product_and_pretty():
    z = zeta_field(2) * zeta_matrix_ring(2, 2)
    assert z.factors == {1: -2}
    with pytest.raises(AlgebraError, match="base mismatch"):
        zeta_field(2) * zeta_field(3)
    assert zeta_join(parse_shape_spec("join(C3;F2)")).pretty() == "(1-2^-s)^-1 (1-2^-2s)^-1"


def test_zeta_json_roundtrip():
    z = zeta_join(parse_shape_spec("join(C3,C5;F2)"))
    assert ZetaFunction.from_json(z.to_json()) == z


@pytest.mark.parametrize("text", [
    "not json",
    "null",
    "[2, {}]",
    '{"q": 2}',
    '{"q": 2, "factors": [1]}',
    '{"q": 2, "factors": {"x": -1}}',
    '{"q": 2, "factors": {"0": -1}}',
    '{"q": 2, "factors": {"1": 1.5}}',
    '{"q": 2, "factors": {"1": "-1"}}',
    '{"q": 2, "factors": {"1": true}}',
    '{"q": "2", "factors": {}}',
    '{"q": 6, "factors": {"1": -1}}',
    '{"q": true, "factors": {}}',
], ids=["not-json", "null", "list", "no-factors", "factors-list", "bad-degree",
        "degree-0", "float-exponent", "string-exponent", "bool-exponent",
        "string-base", "base-not-prime-power", "bool-base"])
def test_from_json_rejects_malformed_documents(text):
    with pytest.raises(ParseError):
        ZetaFunction.from_json(text)


@pytest.mark.parametrize("q", [10**4000 - 1, 1033 * 1031**1326], ids=["small-factor", "no-small-factor"])
def test_from_json_rejects_a_4000_digit_base_quickly(q):
    import time

    assert len(str(q)) >= 3999
    start = time.perf_counter()
    with pytest.raises(ParseError):
        ZetaFunction.from_json(f'{{"q": {q}, "factors": {{"1": -1}}}}')
    assert time.perf_counter() - start < 1.0


def test_degree():
    # degree = dimension of the centre of R/J
    assert zeta_group_ring(cyclic(7), F2).degree() == 7
    # F_5[S3] = F_5 x F_5 x M_2(F_5) has dimension 6 and a centre of dimension 3
    assert zeta_group_ring(parse_group_spec("S3"), parse_field("F5")).degree() == 3
    assert zeta_join(parse_shape_spec("join(C3,C5;F2)")).degree() == 7


SMALL_GROUPS = [parse_group_spec(s) for s in ("trivial", "S3", "Q8")] + [
    g for n in range(2, 13) for g in abelian_groups_of_order(n)
]


@pytest.mark.parametrize("field", ["F2", "F3", "F4", "F5", "F9"])
def test_one_block_join_is_its_group_ring(field):
    ctx = parse_field(field)
    for g in SMALL_GROUPS:
        assert zeta_join(JoinShape([g], ctx)) == zeta_group_ring(g, ctx), g.name


@pytest.mark.parametrize("spec, factors", [
    # r = 0: no block is semisimple, so no trivial components merge
    ("join(C2,C2;F2)", {1: -2}),
    ("join(C4;F2)", {1: -1}),
    ("join(C3;F3)", {1: -1}),
    ("join(C2,C4;F2)", {1: -2}),
    # r = 1
    ("join(C2,C3;F2)", {1: -2, 2: -1}),
    ("join(C3,C2;F3)", {1: -3}),
])
def test_zeta_join_with_at_most_one_semisimple_block(spec, factors):
    assert zeta_join(parse_shape_spec(spec)).factors == factors


def _centre_degrees(group, ctx) -> dict[int, int]:
    """The multiset {t_i} of Z(F_q[G]) = prod F_{q^t_i}, as zeta factors.

    For G coprime to q the centre is the span of the class sums.  It is
    enumerated, the Frobenius z -> z^q is applied by group-ring products,
    and N(t) = #{z : z^(q^t) = z} = prod q^gcd(t_i, t) picks out {t_i}.
    """
    n, q, table, inv = group.order, ctx.q, group.table, group.inverse
    classes = sorted({frozenset(table[table[x][g]][inv[x]] for x in range(n)) for g in range(n)},
                     key=min)
    label = [next(i for i, c in enumerate(classes) if g in c) for g in range(n)]
    period = {}
    for c in itertools.product(range(q), repeat=len(classes)):
        z = GroupRingElem(ctx, group, [c[label[g]] for g in range(n)])
        if z in period:
            continue
        orbit = [z]
        while (y := orbit[-1] ** q) != z:
            orbit.append(y)
        period.update((y, len(orbit)) for y in orbit)
    h = len(classes)
    logs = []  # log_q N(t) = sum_i gcd(t_i, t)
    for t in range(1, h + 1):
        count, e = sum(t % k == 0 for k in period.values()), 0
        while count % q == 0:
            count, e = count // q, e + 1
        assert count == 1
        logs.append(e)
    found = [part for part in _partitions(h)
             if [sum(math.gcd(x, t) for x in part) for t in range(1, h + 1)] == logs]
    assert len(found) == 1
    return {t: -found[0].count(t) for t in set(found[0])}


@pytest.mark.parametrize("group, field, factors", [
    ("S3", "F5", {1: -3}),
    ("S3", "F7", {1: -3}),
    ("Q8", "F3", {1: -5}),
    ("Q8", "F5", {1: -5}),
    ("D5", "F3", {1: -2, 2: -1}),
    ("C7", "F2", {1: -1, 3: -2}),
])
def test_zeta_matches_the_centre_of_the_group_ring(group, field, factors):
    g = parse_group_spec(group)
    ctx = parse_field(field)
    assert _centre_degrees(g, ctx) == factors
    assert zeta_group_ring(g, ctx).factors == factors


@pytest.mark.parametrize("group, field, factors", [
    ("S3", "F2", {1: -2}),  # R/J = F_2 x M_2(F_2)
    ("S4", "F2", {1: -2}),
    ("S4", "F3", {1: -4}),
    ("Q8", "F2", {1: -1}),
])
def test_zeta_modular_values(group, field, factors):
    assert zeta_group_ring(parse_group_spec(group), parse_field(field)).factors == factors


def test_zeta_matches_wedderburn_data_of_the_abelian_reductions():
    # where the p-elements form a normal subgroup P with G/P abelian,
    # zeta(F_q[G]) = zeta(F_q[G/P]) = prod (1 - q^{-ts})^{-a} over the components (1, t, a)
    fields = ["F2", "F3", "F4", "F5", "F7", "F8", "F9", "F11", "F13", "F16",
              "F25", "F27", "F32", "F49", "F64"]
    groups = [parse_group_spec(s) for s in ("trivial", "S3", "S4", "Q8")] + [
        g for n in range(2, 33) for g in abelian_groups_of_order(n)
    ]
    compared = 0
    for field in fields:
        ctx = parse_field(field)
        for g in groups:
            p_elements = [a for a in range(g.order) if ctx.p ** g.order % g.element_orders[a] == 0]
            try:
                quotient, _ = g.subgroup(p_elements).quotient
            except AlgebraError:  # not closed, or not normal
                continue
            if not quotient.is_abelian:
                continue
            want = {}
            for _, t, a in wedderburn_abelian(quotient, ctx).components:
                want[t] = want.get(t, 0) - a
            assert zeta_group_ring(g, ctx).factors == want, (g.name, field)
            compared += 1
    assert compared == 834
