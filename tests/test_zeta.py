import pytest

from joinrings.errors import AlgebraError, ParseError
from joinrings.ffield import parse_field
from joinrings.groups import cyclic, parse_group_spec
from joinrings.joinring import parse_shape_spec
from joinrings.zeta import (
    ZetaFunction,
    zeta_abelian_group_ring,
    zeta_field,
    zeta_group_ring,
    zeta_join,
    zeta_matrix_ring,
    zeta_semimagic,
    zeta_with_normal_sylow,
)

F2 = parse_field("F2")
F3 = parse_field("F3")


def test_zeta_field_and_matrix_ring():
    assert zeta_field(5).factors == {1: -1}
    assert zeta_matrix_ring(4, 2).factors == {1: -1}
    assert zeta_field(5).pole_order_at_zero() == 1


def test_zeta_abelian_split_cases():
    # F_2[Z/3] = F_2 x F_4
    assert zeta_abelian_group_ring(cyclic(3), F2).factors == {1: -1, 2: -1}
    # F_2[Z/7] = F_2 x F_8 x F_8
    assert zeta_abelian_group_ring(cyclic(7), F2).factors == {1: -1, 3: -2}
    # F_3[Z/4] = F_3 x F_3 x F_9
    assert zeta_abelian_group_ring(cyclic(4), F3).factors == {1: -2, 2: -1}


def test_zeta_modular_case_rejected_for_abelian_route():
    with pytest.raises(AlgebraError):
        zeta_abelian_group_ring(cyclic(2), F2)


def test_zeta_normal_sylow_reduction():
    g = cyclic(6)
    h = g.normal_sylow(2)
    # zeta of F_2[Z/6] equals zeta of F_2[Z/3]
    z = zeta_with_normal_sylow(g, h, F2)
    assert z.factors == zeta_abelian_group_ring(cyclic(3), F2).factors

    g12 = cyclic(12)
    z12 = zeta_with_normal_sylow(g12, g12.normal_sylow(3), F3)
    assert z12.factors == {1: -2, 2: -1}


def test_zeta_normal_sylow_requires_the_sylow():
    g = cyclic(12)
    h = g.subgroup([0, 6])  # order 2, not the full 2-Sylow
    with pytest.raises(AlgebraError):
        zeta_with_normal_sylow(g, h, F2)


def test_zeta_group_ring_dispatch():
    assert zeta_group_ring(cyclic(6), F2).factors == {1: -1, 2: -1}
    assert zeta_group_ring(cyclic(5), F2).factors == {1: -1, 4: -1}


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


def test_zeta_product_and_pretty():
    z = zeta_field(2) * zeta_matrix_ring(2, 2)
    assert z.factors == {1: -2}
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
    # degree = dimension of the semisimple quotient
    assert zeta_abelian_group_ring(cyclic(7), F2).degree() == 7
    assert zeta_join(parse_shape_spec("join(C3,C5;F2)")).degree() == 7
