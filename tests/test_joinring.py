import importlib.util
import random
from pathlib import Path

import pytest

import joinrings.linalg as linalg
from joinrings.errors import AlgebraError, ContextMismatchError, NotInvertibleError, ParseError
from joinrings.ffield import parse_field
from joinrings.groupring import parse_element
from joinrings.groups import ORDER_CAP, cyclic, parse_group_spec, trivial
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
    random_join_element,
    thm_unit_count_rooted,
)

F2 = parse_field("F2")
F7 = parse_field("F7")


def test_parse_shape_spec():
    shape = parse_shape_spec("join(C3,C5;F2)")
    assert shape.d == 2
    assert shape.n == 8
    assert shape.dimension() == 10
    assert [g.order for g in shape.groups] == [3, 5]
    with pytest.raises(AlgebraError):
        parse_shape_spec("join(;F2)")
    with pytest.raises(AlgebraError, match="at least one block"):
        JoinShape([], F2)


def test_from_vector_layout():
    # block coefficients in block order, then a_ij row by row
    shape = parse_shape_spec("join(C2,C1,C3;F7)")
    a = shape.from_vector(range(12))
    assert [b.coeffs for b in a.blocks] == [(0, 1), (2,), (3, 4, 5)]
    assert a.offdiag == ((0, 6, 7), (8, 0, 9), (10, 11, 0))


@pytest.mark.parametrize("spec", ["join(C3,C5;F2)", "join(trivial,C3;F5)", "join(C4;F3)",
                                  "join(S3,Q8;F5)", "join(C2,C2,C2;F2)", "join(C3,C5;F256)"])
def test_a_join_element_is_its_coordinate_tuple(spec):
    # blocks and offdiag are views of one tuple; the constructor, from_vector
    # and the JSON reader all land on it, and the sums act entry by entry
    shape = parse_shape_spec(spec)
    ctx, rng = shape.ctx, random.Random(spec)
    assert not shape.zero()
    for _ in range(10):
        a, b = random_join_element(shape, rng), random_join_element(shape, rng)
        again = JoinElem(shape, a.blocks, a.offdiag)
        assert again == a and hash(again) == hash(a)
        assert again.coeffs == a.coeffs
        assert shape.from_vector(a.coeffs) == a
        assert JoinElem.from_json(a.to_json()) == a
        assert (a + b).blocks == tuple(x + y for x, y in zip(a.blocks, b.blocks))
        assert (a - b).blocks == tuple(x - y for x, y in zip(a.blocks, b.blocks))
        for c, op in ((a + b, ctx.add), (a - b, ctx.sub)):
            assert c.offdiag == tuple(tuple(map(op, r, s)) for r, s in zip(a.offdiag, b.offdiag))
    with pytest.raises(AttributeError):
        a.blocks = b.blocks
    with pytest.raises(AttributeError):
        a.offdiag = b.offdiag
    with pytest.raises(AlgebraError, match="coordinates"):
        shape.from_vector(a.coeffs[1:])


def _bench_workloads():
    """bench/workloads.py, read only, for its own copy of the join draw."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("spec", ["join(C3,C5;F2)", "join(S3,C2,C1;F7)", "join(C4;F9)",
                                  "join(C2,C3,C2;F3)"])
def test_random_join_element_draws_like_the_benchmark(spec):
    # the benchmark keeps its own copy of the draw; both must give one stream
    random_join = _bench_workloads()._random_join
    shape = parse_shape_spec(spec)
    for seed in range(5):
        mine, theirs = random.Random(seed), random.Random(seed)
        for _ in range(10):
            assert random_join_element(shape, mine) == random_join(theirs, shape)


def test_embed_respects_product():
    rng = random.Random(7)
    shape = parse_shape_spec("join(C3,C5;F2)")
    for _ in range(50):
        a, b = random_join_element(shape, rng), random_join_element(shape, rng)
        assert join_embed(a * b) == linalg.mat_mul(join_embed(a), join_embed(b), F2)
        assert join_embed(a + b) == [[F2.add(x, y) for x, y in zip(r, s)]
                                     for r, s in zip(join_embed(a), join_embed(b))]


def test_unembed_roundtrip():
    rng = random.Random(11)
    shape = parse_shape_spec("join(S3,C2;F7)")
    for _ in range(20):
        a = random_join_element(shape, rng)
        assert join_unembed(shape, join_embed(a)) == a
        assert join_unembed(shape, [tuple(r) for r in join_embed(a)]) == a


def test_unembed_rejects_non_member():
    shape = parse_shape_spec("join(C2,C2;F2)")
    rows = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(AlgebraError):
        join_unembed(shape, rows)  # diagonal block not circulant
    rows = [[1, 0, 1, 1], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(AlgebraError):
        join_unembed(shape, rows)  # off-diagonal block not constant


def test_one_and_zero():
    shape = parse_shape_spec("join(C3,C5;F2)")
    one, zero = shape.one(), shape.zero()
    a = random_join_element(shape, random.Random(3))
    assert a * one == a
    assert one * a == a
    assert a + zero == a


def test_elements_of_two_shapes_do_not_mix():
    a = parse_shape_spec("join(C3,C5;F2)").one()
    for spec in ("join(C5,C3;F2)", "join(C3,C5;F4)", "join(C3,C5,C1;F2)"):
        b = parse_shape_spec(spec).one()
        with pytest.raises(ContextMismatchError):
            a + b
        with pytest.raises(ContextMismatchError):
            a * b


def test_a_shape_has_at_most_a_quarter_of_order_cap_blocks():
    blocks = ORDER_CAP // 4
    assert JoinShape([cyclic(2)] * blocks, F2).dimension() == 2 * blocks + blocks * (blocks - 1)
    with pytest.raises(AlgebraError):
        JoinShape([cyclic(2)] * (blocks + 1), F2)


def test_embedding_is_capped_at_four_times_order_cap_rows():
    at_cap = parse_shape_spec("join(C256,C256,C256,C256;F2)")
    assert len(join_embed(at_cap.one())) == 4 * ORDER_CAP
    past = parse_shape_spec("join(C256,C256,C256,C256,trivial;F2)")
    assert past.n == 4 * ORDER_CAP + 1
    with pytest.raises(AlgebraError):
        join_embed(past.one())


def test_gen_augmentation_is_hom():
    rng = random.Random(13)
    shape = parse_shape_spec("join(C6,C6;F7)")
    subs = [
        shape.groups[0].subgroup([0, 2, 4]),
        shape.groups[1].subgroup([0, 3]),
    ]
    for _ in range(30):
        a, b = random_join_element(shape, rng), random_join_element(shape, rng)
        lhs = gen_augmentation(a * b, subs)
        rhs = gen_augmentation(a, subs) * gen_augmentation(b, subs)
        assert lhs == rhs
    with pytest.raises(AlgebraError, match="one subgroup per block"):
        gen_augmentation(a, subs[:1])
    with pytest.raises(AlgebraError, match="does not belong"):
        gen_augmentation(a, [subs[0], cyclic(4).subgroup([0, 2])])


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
        a = random_join_element(shape, rng)
        for e in idems:
            assert e * a == a * e


def test_join_decompose_components():
    from joinrings.groupring import augmentation

    shape = parse_shape_spec("join(C3,C5;F2)")
    subs = [g.full_subgroup() for g in shape.groups]
    rng = random.Random(19)
    a = random_join_element(shape, rng)
    image, deltas = join_decompose(a, subs)
    assert image.shape.d == shape.d
    # each delta component has zero classical augmentation
    for blk, h in zip(deltas, subs):
        assert not any(augmentation(blk, h).coeffs)
    # decomposition is multiplicative on both coordinates
    b = random_join_element(shape, rng)
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
        a = random_join_element(shape, rng)
        if join_is_unit(a):
            found += 1
            inv = join_inverse(a)
            assert a * inv == shape.one()
            assert inv * a == shape.one()
            assert a ** -1 == inv
            assert (a ** -2) * (a ** 2) == shape.one()
            assert a ** 0 == shape.one()


def test_non_unit_inverse_raises():
    shape = parse_shape_spec("join(C3,C5;F2)")
    with pytest.raises(NotInvertibleError):
        join_inverse(shape.zero())


def test_element_json_roundtrip():
    shape = parse_shape_spec("join(C3,C5;F2)")
    a = random_join_element(shape, random.Random(29))
    assert JoinElem.from_json(a.to_json()) == a


def test_from_json_keeps_the_documents_shape():
    import json

    # C4 and C2xC2 have one order, so the same coefficients fit either shape
    shapes = [parse_shape_spec("join(C4;F2)"), parse_shape_spec("join(C2xC2;F2)")]
    docs = [json.dumps({"shape": repr(s), "blocks": [[1, 1, 0, 1]], "offdiag": [[0]]})
            for s in shapes]
    elems = [JoinElem.from_json(doc) for doc in docs]
    assert [e.shape for e in elems] == shapes
    assert elems[0] != elems[1]


def test_parse_join_element_literals():
    shape = parse_shape_spec("join(C3,C5;F2)")
    a = parse_join_element("1+g1;1+g2;a[1][2]=1;a[2][1]=1", shape)
    assert a.blocks[0] == parse_element("1+g1", shape.groups[0], F2)
    assert a.offdiag[0][1] == 1 and a.offdiag[1][0] == 1
    with pytest.raises(AlgebraError):
        parse_join_element("1;1;a[1][1]=1", shape)  # diagonal scalar forbidden
    with pytest.raises(ParseError, match="too many block literals"):
        parse_join_element("1;1;1", shape)


def test_join_elem_refuses_a_family_that_does_not_fit_its_shape():
    shape = parse_shape_spec("join(C3,C5;F2)")
    one = shape.one()
    with pytest.raises(AlgebraError, match="block count"):
        JoinElem(shape, one.blocks[:1], one.offdiag)
    with pytest.raises(ContextMismatchError, match="its slot's group ring"):
        JoinElem(shape, one.blocks[::-1], one.offdiag)
    with pytest.raises(AlgebraError, match="diagonal entries"):
        JoinElem(shape, one.blocks, [[1, 0], [0, 0]])
    with pytest.raises(AlgebraError, match="off-diagonal family does not fit"):
        JoinElem(shape, one.blocks, [[0, 1], [1]])


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
        JoinElem.from_json(text)


def test_from_json_needs_an_object():
    with pytest.raises(ParseError, match="must be an object"):
        JoinElem.from_json("[]")


def test_trivial_blocks_give_full_matrix_ring():
    # two trivial blocks over F_2: the embedding is all of M_2(F_2)
    shape = parse_shape_spec("join(trivial,trivial;F2)")
    assert shape.n == 2 and shape.dimension() == 4
    assert join_unit_count(shape) == 6  # |GL_2(F_2)|
