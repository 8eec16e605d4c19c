import random

import pytest

import joinrings.linalg as linalg
from joinrings.errors import AlgebraError, NotInvertibleError, ParseError
from joinrings.ffield import parse_field
from joinrings.groupring import GroupRingElem, parse_element
from joinrings.groups import cyclic, parse_group_spec, trivial
from joinrings.joinring import (
    JoinElem,
    JoinShape,
    aug_matrix,
    diagonal_unit_count,
    gen_augmentation,
    join_decompose,
    join_embed,
    join_idempotents,
    join_inverse,
    join_is_unit,
    join_unembed,
    join_unit_count,
    parse_join_element,
    parse_shape_spec,
    thm_unit_count_rooted,
)

F2 = parse_field("F2")
F7 = parse_field("F7")


def _random_elem(shape, rng):
    q = shape.ctx.q
    blocks = [
        GroupRingElem(shape.ctx, g, [rng.randrange(q) for _ in range(g.order)])
        for g in shape.groups
    ]
    offdiag = [
        [rng.randrange(q) if i != j else 0 for j in range(shape.d)]
        for i in range(shape.d)
    ]
    return JoinElem(shape, blocks, offdiag)


def test_parse_shape_spec():
    shape = parse_shape_spec("join(C3,C5;F2)")
    assert shape.d == 2
    assert shape.n == 8
    assert shape.dimension() == 10
    assert [g.order for g in shape.groups] == [3, 5]
    with pytest.raises(AlgebraError):
        parse_shape_spec("join(;F2)")


def test_embed_respects_product():
    rng = random.Random(7)
    shape = parse_shape_spec("join(C3,C5;F2)")
    for _ in range(50):
        a, b = _random_elem(shape, rng), _random_elem(shape, rng)
        assert join_embed(a * b) == linalg.mat_mul(join_embed(a), join_embed(b), F2)
        assert join_embed(a + b) == linalg.mat_add(join_embed(a), join_embed(b), F2)


def test_unembed_roundtrip():
    rng = random.Random(11)
    shape = parse_shape_spec("join(S3,C2;F7)")
    for _ in range(20):
        a = _random_elem(shape, rng)
        assert join_unembed(shape, join_embed(a)) == a


def test_unembed_rejects_non_member():
    shape = parse_shape_spec("join(C2,C2;F2)")
    rows = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(AlgebraError):
        join_unembed(shape, rows)  # diagonal block not circulant


def test_one_and_zero():
    shape = parse_shape_spec("join(C3,C5;F2)")
    one, zero = shape.one(), shape.zero()
    a = _random_elem(shape, random.Random(3))
    assert a * one == a
    assert one * a == a
    assert a + zero == a


def test_gen_augmentation_is_hom():
    rng = random.Random(13)
    shape = parse_shape_spec("join(C6,C6;F7)")
    subs = [
        shape.groups[0].subgroup([0, 2, 4]),
        shape.groups[1].subgroup([0, 3]),
    ]
    for _ in range(30):
        a, b = _random_elem(shape, rng), _random_elem(shape, rng)
        lhs = gen_augmentation(a * b, subs)
        rhs = gen_augmentation(a, subs) * gen_augmentation(b, subs)
        assert lhs == rhs


def test_aug_matrix_example():
    shape = parse_shape_spec("join(C3,C3;F7)")
    a = parse_join_element("2;2;a[1][2]=1;a[2][1]=2", shape)
    assert aug_matrix(a) == [[2, 3], [6, 2]]


def test_idempotents_central_orthogonal_sum_one():
    shape = parse_shape_spec("join(C3,C5;F2)")
    subs = [g.full_subgroup() for g in shape.groups]
    idems = join_idempotents(shape, subs)
    assert len(idems) == shape.d + 1
    total = shape.zero()
    for i, e in enumerate(idems):
        assert e * e == e
        total = total + e
        for j, f in enumerate(idems):
            if i != j:
                assert e * f == shape.zero()
    assert total == shape.one()
    # centrality against random elements
    rng = random.Random(17)
    for _ in range(10):
        a = _random_elem(shape, rng)
        for e in idems:
            assert e * a == a * e


def test_join_decompose_components():
    from joinrings.groupring import augmentation

    shape = parse_shape_spec("join(C3,C5;F2)")
    subs = [g.full_subgroup() for g in shape.groups]
    rng = random.Random(19)
    a = _random_elem(shape, rng)
    image, deltas = join_decompose(a, subs)
    assert image.shape.d == shape.d
    # each delta component has zero classical augmentation
    for blk, h in zip(deltas, subs):
        assert not any(augmentation(blk, h).coeffs)
    # decomposition is multiplicative on both coordinates
    b = _random_elem(shape, rng)
    image_b, deltas_b = join_decompose(b, subs)
    image_ab, deltas_ab = join_decompose(a * b, subs)
    assert image_ab == image * image_b
    for ab, (x, y) in zip(deltas_ab, zip(deltas, deltas_b)):
        assert ab == x * y


def test_unit_count_three_ways():
    shape = parse_shape_spec("join(C3,C5;F2)")
    assert join_unit_count(shape) == 270
    assert thm_unit_count_rooted(shape) == 270
    # |GL_2(F_2)| * |F_4^x| * |F_16^x| = 6 * 3 * 15
    assert 6 * 3 * 15 == 270


def test_unit_count_not_rooted():
    shape = parse_shape_spec("join(C7;F2)")
    assert join_unit_count(shape) == 49
    assert thm_unit_count_rooted(shape) == 63
    assert join_unit_count(shape) != thm_unit_count_rooted(shape)


def test_diagonal_unit_count():
    shape = parse_shape_spec("join(C3,C5;F2)")
    # diagonal units: each block an invertible circulant, zero off-diagonal
    assert diagonal_unit_count(shape) == 3 * 15


def test_inverse_stays_in_subring():
    shape = parse_shape_spec("join(C3,C5;F2)")
    rng = random.Random(23)
    found = 0
    while found < 10:
        a = _random_elem(shape, rng)
        if join_is_unit(a):
            found += 1
            inv = join_inverse(a)
            assert a * inv == shape.one()
            assert inv * a == shape.one()


def test_non_unit_inverse_raises():
    shape = parse_shape_spec("join(C3,C5;F2)")
    with pytest.raises(NotInvertibleError):
        join_inverse(shape.zero())


def test_element_json_roundtrip():
    shape = parse_shape_spec("join(C3,C5;F2)")
    a = _random_elem(shape, random.Random(29))
    assert JoinElem.from_json(a.to_json(), shape) == a


def test_parse_join_element_literals():
    shape = parse_shape_spec("join(C3,C5;F2)")
    a = parse_join_element("1+g1;1+g2;a[1][2]=1;a[2][1]=1", shape)
    assert a.blocks[0] == parse_element("1+g1", shape.groups[0], F2)
    assert a.offdiag[0][1] == 1 and a.offdiag[1][0] == 1
    with pytest.raises(AlgebraError):
        parse_join_element("1;1;a[1][1]=1", shape)  # diagonal scalar forbidden


@pytest.mark.parametrize("field", ["F4", "F5"])
def test_parse_join_element_rejects_out_of_range_scalar(field):
    shape = parse_shape_spec(f"join(C3,C5;{field})")
    with pytest.raises(ParseError):
        parse_join_element("1;1;a[1][2]=7", shape)


@pytest.mark.parametrize("blocks, offdiag", [
    ([[5, 0], [1, -1, 0]], [[0, 0], [0, 0]]),  # codes outside [0, 2)
    ([[1, 0], [1, 0]], [[0, 0], [0, 0]]),  # second block too short
    ([[1, 0]], [[0, 0], [0, 0]]),  # one block missing
    ([[1, 0], [1, 0, 0]], [[0, 1]]),  # off-diagonal family not 2 x 2
    ([[1, 0], [1, 0, 0]], [[0, 1], [1, 0, 0]]),  # ragged off-diagonal row
    ([[1, 0], [1, 0, 0]], [[1, 0], [0, 0]]),  # nonzero diagonal
    ([[1, 0], [1, 0, 0]], [[0, 2], [0, 0]]),  # off-diagonal code outside [0, 2)
])
def test_from_json_rejects_malformed_elements(blocks, offdiag):
    import json

    shape = parse_shape_spec("join(C2,C3;F2)")
    text = json.dumps({"shape": repr(shape), "blocks": blocks, "offdiag": offdiag})
    with pytest.raises(ParseError):
        JoinElem.from_json(text, shape)
    with pytest.raises(ParseError):
        JoinElem.from_json(text)


def test_trivial_blocks_give_full_matrix_ring():
    # two trivial blocks over F_2: the embedding is all of M_2(F_2)
    shape = parse_shape_spec("join(trivial,trivial;F2)")
    assert shape.n == 2 and shape.dimension() == 4
    assert join_unit_count(shape) == 6  # |GL_2(F_2)|
