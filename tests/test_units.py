"""Units and inverses from ring structure, against the matrix route.

join_is_unit/join_inverse work from the join decomposition (blocks b_i and
a d x d capacitance matrix), and gr_is_unit/gr_inverse over a cyclic group
run the extended Euclidean algorithm on F_q[y]/(y^n - 1).  Every verdict
and inverse here is compared with Gaussian elimination on the n x n
embedding or the circulant; the new routes eliminate only on d x d
matrices, and the Euclidean one not at all.
"""

import random

import pytest

import joinrings.groupring as groupring
import joinrings.joinring as joinring
import joinrings.linalg as linalg
from joinrings.errors import InternalConsistencyError, NotInvertibleError
from joinrings.ffield import parse_field
from joinrings.groupring import GroupRingElem, circulant_rows, gr_inverse, gr_is_unit
from joinrings.groups import abelian, parse_group_spec
from joinrings.joinring import (
    JoinElem,
    join_embed,
    join_inverse,
    join_is_unit,
    join_unembed,
    parse_shape_spec,
    random_join_element,
)
from joinrings.oracle import GroupRingEnum, JoinRingEnum, enumerate_units

SMALL_SHAPES = ["join(C2,C2;F2)", "join(C2,C3;F2)", "join(C2,C3;F3)", "join(C2,C2,C2;F2)",
                "join(trivial,C2;F2)", "join(C4;F2)", "join(S3;F2)", "join(C3,C3;F2)"]
# the six shapes of the join-units benchmark workload, then large, modular
# and mixed ones
RANDOM_SHAPES = ["join(C3,C5;F2)", "join(C3,C5,C7;F4)", "join(S3,Q8;F5)", "join(C7,C9;F25)",
                 "join(C16,C16;F9)", "join(C3,C5;F256)", "join(C3,C5;F2048)",
                 "join(C2,C3;F1000000000000000003)", "join(C3,C6,C2;F3)"]


def _matrix_verdict_and_inverse(a):
    """(is unit, inverse or None) by elimination on the n x n embedding."""
    rows, ctx = join_embed(a), a.shape.ctx
    if not linalg.is_invertible(rows, ctx):
        return False, None
    return True, join_unembed(a.shape, linalg.inverse(rows, ctx))


def _check_join(a):
    unit, expected = _matrix_verdict_and_inverse(a)
    assert join_is_unit(a) is unit
    if unit:
        assert join_inverse(a) == expected
    else:
        with pytest.raises(NotInvertibleError):
            join_inverse(a)
    return unit


@pytest.mark.parametrize("spec", SMALL_SHAPES)
def test_join_units_exhaustive(spec):
    shape = parse_shape_spec(spec)
    units = sum(_check_join(a) for a in JoinRingEnum(shape).elements())
    assert 0 < units < shape.ctx.q ** shape.dimension()


def test_join_unit_count_by_is_unit():
    shape = parse_shape_spec("join(C2,C3;F3)")
    assert sum(map(join_is_unit, JoinRingEnum(shape).elements())) == 648


def _non_unit(shape, rng):
    """y * m * z for random y, z and m with one block a multiple of the all-ones element.

    The rows of the embedding of m in that block are equal, so m and every
    product with it are non-units.
    """
    m = random_join_element(shape, rng)
    i = max(range(shape.d), key=lambda j: shape.sizes[j])
    c = rng.randrange(shape.ctx.q)
    blocks = list(m.blocks)
    blocks[i] = GroupRingElem(shape.ctx, shape.groups[i], [c] * shape.sizes[i])
    m = JoinElem(shape, blocks, m.offdiag)
    return random_join_element(shape, rng) * m * random_join_element(shape, rng)


@pytest.mark.parametrize("spec", RANDOM_SHAPES)
def test_join_units_random(spec):
    shape = parse_shape_spec(spec)
    rng = random.Random(spec)
    units = tries = 0
    while units < 4:
        units += _check_join(random_join_element(shape, rng))
        tries += 1
        assert tries < 100
    for _ in range(3):
        assert not _check_join(_non_unit(shape, rng))


def test_modular_blocks_need_the_augmentation_factors():
    # p = 3 divides |C3| and |C6|, so those blocks keep augmentation != 1
    # and their inverse blocks carry the epsilon^-2 correction
    shape = parse_shape_spec("join(C3,C6,C2;F3)")
    rng = random.Random(5)
    seen = 0
    while seen < 10:
        a = random_join_element(shape, rng)
        if any(b.aug_total() == 2 for b in a.blocks[:2]) and _check_join(a):
            seen += 1


def test_no_elimination_on_the_embedding(monkeypatch):
    """Only d x d matrices reach linalg; cyclic blocks reach it not at all."""
    sizes = []
    for name in ("is_invertible", "inverse", "solve"):
        real = getattr(linalg, name)

        def spy(rows, *rest, real=real):
            sizes.append(len(rows))
            return real(rows, *rest)

        monkeypatch.setattr(linalg, name, spy)
    rng = random.Random(17)
    for spec in ["join(C3,C5;F2)", "join(C16,C16;F9)", "join(C3,C5,C7;F4)"]:
        shape = parse_shape_spec(spec)
        units = 0
        while units < 3:
            a = random_join_element(shape, rng)
            if join_is_unit(a):
                join_inverse(a)
                units += 1
        assert set(sizes) == {shape.d}
        sizes.clear()


def test_inverse_post_check_catches_wrong_blocks(monkeypatch):
    shape = parse_shape_spec("join(C3,C5;F7)")
    a = random_join_element(shape, random.Random(3))
    assert join_is_unit(a)
    monkeypatch.setattr(joinring, "gr_inverse", lambda b: b)
    with pytest.raises(InternalConsistencyError):
        join_inverse(a)


# ---------------------------------------------------------------------------
# cyclic group rings: extended Euclid against the circulant
# ---------------------------------------------------------------------------

def _check_group_ring(x):
    rows, ctx = circulant_rows(x), x.ctx
    unit = linalg.is_invertible(rows, ctx)
    assert gr_is_unit(x) is unit
    if unit:
        assert list(gr_inverse(x).coeffs) == linalg.inverse(rows, ctx)[0]
    else:
        with pytest.raises(NotInvertibleError):
            gr_inverse(x)
    return unit


@pytest.mark.parametrize("field, group", [
    ("F2", "C4"), ("F2", "C7"), ("F3", "C6"), ("F4", "C3"), ("F5", "C4"), ("F3", "trivial"),
    ("F2", "C2xC3"), ("F3", "S3"),
])
def test_group_ring_units_exhaustive(field, group):
    ring = GroupRingEnum(parse_group_spec(group), parse_field(field))
    units = sum(_check_group_ring(x) for x in ring.elements())
    assert units == enumerate_units(ring)


@pytest.mark.parametrize("field, group", [
    ("F9", "C16"), ("F25", "C9"), ("F4", "C9"), ("F3", "C9"), ("F256", "C5"), ("F2048", "C5"),
    ("F1000000000000000003", "C4"), ("F5", "C2xC2"), ("F5", "Q8"),
])
def test_group_ring_units_random(field, group):
    ctx, g = parse_field(field), parse_group_spec(group)
    rng = random.Random(field + group)
    for _ in range(8):
        _check_group_ring(GroupRingElem(ctx, g, [rng.randrange(ctx.q) for _ in range(g.order)]))
    # a multiple of 1 - g_1 has augmentation 0 and is never a unit
    one_minus = GroupRingElem(ctx, g, [1, ctx.neg(1)] + [0] * (g.order - 2))
    y = GroupRingElem(ctx, g, [rng.randrange(ctx.q) for _ in range(g.order)])
    assert not _check_group_ring(y * one_minus)


def test_cyclic_route_runs_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("elimination on a cyclic group ring")

    for name in ("is_invertible", "inverse", "solve"):
        monkeypatch.setattr(linalg, name, refuse)
    ctx = parse_field("F7")
    for g in (parse_group_spec("C5"), abelian([5])):
        x = GroupRingElem(ctx, g, [3, 1, 0, 0, 0])  # -3 is no fifth root of 1 in F7
        assert gr_is_unit(x)
        assert x * gr_inverse(x) == GroupRingElem.one(ctx, g)
    assert groupring._is_cyclic(parse_group_spec("C12"))
    assert not groupring._is_cyclic(parse_group_spec("C4xC3"))


@pytest.mark.parametrize("spec", ["S3", "Q8"])
def test_index2_route_runs_no_elimination(monkeypatch, spec):
    # F5[S3] and F5[Q8] answer through their cyclic subgroup of index 2, so
    # their unit route shares no elimination with the oracle's circulant
    def refuse(*args):
        raise AssertionError(f"elimination on F5[{spec}]")

    for name in ("is_invertible", "inverse", "solve"):
        monkeypatch.setattr(linalg, name, refuse)
    ctx, g = parse_field("F5"), parse_group_spec(spec)
    rng = random.Random(f"index2/{spec}")
    one, units = GroupRingElem.one(ctx, g), 0
    while units < 8:
        x = GroupRingElem(ctx, g, [rng.randrange(5) for _ in range(g.order)])
        if gr_is_unit(x):
            y = gr_inverse(x)
            assert x * y == y * x == one
            units += 1
        else:
            with pytest.raises(NotInvertibleError):
                gr_inverse(x)
