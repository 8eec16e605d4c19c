import random
import signal
import time
from array import array
from functools import reduce
from itertools import product
from math import gcd, lcm, prod

import pytest

from joinrings import linalg, oracle
from joinrings.errors import AlgebraError, EnumerationCapError, InternalConsistencyError
from joinrings.ffield import parse_field
from joinrings.groupring import GroupRingElem, gr_unit_count, wedderburn_abelian
from joinrings.groups import abelian_groups_of_order, cyclic, parse_group_spec
from joinrings.joinring import (
    JoinElem,
    join_embed,
    join_structure,
    join_unembed,
    join_unit_count,
    parse_shape_spec,
)
from joinrings.ntheory import euler_phi, factorize
from joinrings.oracle import (
    EnumerableRing,
    GroupRingEnum,
    JoinRingEnum,
    SemimagicRing,
    _check_radical,
    _orders,
    _power_maps,
    _radical,
    enumerate_units,
    exp_U1,
    is_delta_n,
    jacobson_radical,
    list_units,
    semimagic_ring,
    semisimple_unit_factorization,
    unit_group_exponent,
    unit_orders,
    units_of_order,
)

F2 = parse_field("F2")
F3 = parse_field("F3")
F5 = parse_field("F5")


def test_enumeration_is_bijective():
    ring = GroupRingEnum(cyclic(3), F2)
    seen = {tuple(ring.element(i).coeffs) for i in range(ring.size)}
    assert len(seen) == ring.size == 8
    assert not any(ring.element(0).coeffs)


def test_unit_counts_group_rings():
    assert enumerate_units(GroupRingEnum(cyclic(3), F2)) == 3
    assert enumerate_units(GroupRingEnum(cyclic(7), F2)) == 49
    assert enumerate_units(GroupRingEnum(cyclic(4), F3)) == 32
    assert enumerate_units(GroupRingEnum(cyclic(2), F2)) == 2


def test_unit_count_join_ring():
    ring = JoinRingEnum(parse_shape_spec("join(C3,C5;F2)"))
    assert ring.size == 1024
    assert enumerate_units(ring) == 270


def test_list_units_matches_count():
    ring = GroupRingEnum(cyclic(5), F2)
    units = list_units(ring)
    assert len(units) == enumerate_units(ring) == 15


def test_cap_enforced():
    message = r"F2\[C7\] has 2\^7 elements, beyond the cap 100"
    with pytest.raises(EnumerationCapError, match=message):
        GroupRingEnum(cyclic(7), F2, cap=100)
    assert GroupRingEnum(cyclic(7), F2, cap=128).size == 128


@pytest.mark.parametrize("cap", [2**63, 10**30], ids=["2^63", "10^30"])
def test_cap_above_the_ceiling_is_refused(cap):
    # an invalid argument, not a ring beyond its cap
    with pytest.raises(AlgebraError, match=f"cap must be at most 2\\^24, got {cap}") as exc:
        GroupRingEnum(cyclic(100), F2, cap=cap)
    assert exc.type is AlgebraError
    assert GroupRingEnum(cyclic(24), F2, cap=2**24).size == 2**24


@pytest.mark.parametrize("make, message", [
    (lambda: JoinRingEnum(parse_shape_spec("join(C2,C3,C2;F3)")), r"3\^13 elements"),
    (lambda: SemimagicRing(200, F2), r"SM200\(F2\) has 2\^39602 elements"),
], ids=["join(C2,C3,C2;F3)", "SM200(F2)"])
def test_adapters_refuse_beyond_the_default_cap_when_built(make, message):
    with pytest.raises(EnumerationCapError, match=message + ", beyond the cap 1048576"):
        make()


def test_radical_cap_counts_pairs():
    # membership and the ideal check take a step per pair (x, r): q^(2 dim)
    with pytest.raises(EnumerationCapError, match=r"2\^12 pairs"):
        jacobson_radical(GroupRingEnum(cyclic(6), F2, cap=4095))
    assert len(jacobson_radical(GroupRingEnum(cyclic(6), F2, cap=4096))) == 8
    # F2[C16] is within the default cap, its 2^32 pairs are not
    ring = GroupRingEnum(cyclic(16), F2)
    for oracle in (jacobson_radical, semisimple_unit_factorization):
        with pytest.raises(EnumerationCapError, match=r"2\^32 pairs"):
            oracle(ring)


def test_join_enumeration_follows_the_vector_layout():
    # coordinate k is the k-th block coefficient, then a_ij row by row
    shape = parse_shape_spec("join(C2,C1,C3;F3)")
    ring = JoinRingEnum(shape)
    for k in range(ring.dim):
        vec = [0] * ring.dim
        vec[k] = 1
        a = ring.element(3**k)
        coords = [c for b in a.blocks for c in b.coeffs]
        coords += [a.offdiag[i][j] for i in range(3) for j in range(3) if i != j]
        assert coords == vec, k
    assert ring.element(3**6 * 2).offdiag == ((0, 2, 0), (0, 0, 0), (0, 0, 0))
    assert ring.element(3**11).offdiag == ((0, 0, 0), (0, 0, 0), (0, 1, 0))


def test_unit_group_exponent():
    assert unit_group_exponent(unit_orders(GroupRingEnum(cyclic(3), F2))) == 3
    assert unit_group_exponent(unit_orders(GroupRingEnum(cyclic(7), F2))) == 7
    ring = JoinRingEnum(parse_shape_spec("join(C2,C2;F2)"))
    assert unit_group_exponent(unit_orders(ring)) == 2


def test_exp_u1():
    assert exp_U1(cyclic(2), F2) == 2
    assert exp_U1(cyclic(4), F2) == 4
    assert exp_U1(parse_group_spec("C2xC2"), F2) == 2
    assert exp_U1(cyclic(8), F2) == 8
    assert exp_U1(parse_group_spec("Q8"), F2) == 4
    with pytest.raises(AlgebraError):
        exp_U1(cyclic(3), F2)


def _exp_u1_elementwise(group, ctx):
    """exp(U1) the long way: every element of coefficient sum 1 is raised to
    p-th powers until it reaches 1, with nothing kept between elements."""
    ring = GroupRingEnum(group, ctx)
    exponent = 1
    for a in ring.elements():
        if a.aug_total() != 1:
            continue
        order, x = 1, a
        while x != ring.one:
            x, order = x**ctx.p, order * ctx.p
        exponent = lcm(exponent, order)
    return exponent


@pytest.mark.parametrize("spec,field", [
    ("trivial", "F2"), ("C2", "F2"), ("C4", "F2"), ("C8", "F2"), ("C2xC2", "F2"),
    ("C2xC4", "F2"), ("Q8", "F2"), ("C2", "F4"), ("C4", "F4"), ("C2xC2", "F4"),
    ("C3", "F3"), ("C3", "F9"), ("C9", "F3"), ("C5", "F5"),
])
def test_exp_u1_matches_elementwise_orders(spec, field):
    group, ctx = parse_group_spec(spec), parse_field(field)
    assert exp_U1(group, ctx) == _exp_u1_elementwise(group, ctx)


def test_units_of_order():
    orders = unit_orders(GroupRingEnum(cyclic(3), F2))
    assert units_of_order(orders, 1) == 1
    assert units_of_order(orders, 3) == 2
    assert units_of_order(unit_orders(GroupRingEnum(cyclic(7), F2)), 7) == 48
    with pytest.raises(AlgebraError):
        units_of_order(orders, 0)


def test_is_delta_n():
    ok, _, _ = is_delta_n(unit_orders(GroupRingEnum(parse_group_spec("C2xC2"), F3)), 2)
    assert ok
    ok, witness, order = is_delta_n(unit_orders(GroupRingEnum(cyclic(4), F2)), 2)
    assert not ok and order == 4
    # a failing witness really has that order
    w2 = witness * witness
    assert w2 != GroupRingEnum(cyclic(4), F2).one
    ok, _, _ = is_delta_n(unit_orders(JoinRingEnum(parse_shape_spec("join(C2,C2;F2)"))), 2)
    assert ok
    with pytest.raises(AlgebraError):
        is_delta_n([], 0)


def test_delta_divisor_monotonicity():
    # is_delta_n(R, n) implies is_delta_n(R, m) whenever n | m
    orders = unit_orders(GroupRingEnum(parse_group_spec("C2xC2"), F3))
    for m in (2, 4, 6, 8):
        assert is_delta_n(orders, m)[0]


def test_jacobson_radical():
    assert len(jacobson_radical(GroupRingEnum(cyclic(3), F2))) == 1  # semisimple
    rad = jacobson_radical(GroupRingEnum(cyclic(2), F2))
    assert len(rad) == 2
    rad4 = jacobson_radical(GroupRingEnum(cyclic(4), F2))
    # the augmentation ideal: exactly the elements with coefficient sum 0
    assert len(rad4) == 8
    assert all(x.aug_total() == 0 for x in rad4)


def test_unit_factorization():
    for ring in (
        GroupRingEnum(cyclic(4), F2),
        GroupRingEnum(cyclic(6), F2),
        GroupRingEnum(cyclic(2), F3),
        semimagic_ring(2, F3),
        semimagic_ring(2, F2),  # radical {0, all-ones}: 2 units, one coset
        JoinRingEnum(parse_shape_spec("join(C2,C2;F2)")),
    ):
        units, rad, image = semisimple_unit_factorization(ring)
        assert units == rad * image


def test_semimagic_dimensions_and_units():
    sm1 = semimagic_ring(1, F2)
    assert sm1.dim == 1
    sm3 = semimagic_ring(3, F2)
    assert sm3.dim == 5 and sm3.size == 32
    assert enumerate_units(sm3) == 6
    sm2 = semimagic_ring(2, F2)
    assert sm2.dim == 2
    assert enumerate_units(sm2) == 2


def _times(ring, a, b):
    """The element product: the operator, or mat_mul on two semimagic
    matrices, which are tuples of rows."""
    if isinstance(a, tuple):
        return tuple(map(tuple, linalg.mat_mul(a, b, ring.ctx)))
    return a * b


def _line_sums(ring, a):
    """The row sums, then the column sums, of a semimagic matrix."""
    return [reduce(ring.ctx.add, line, 0) for line in (*a, *zip(*a))]


def test_semimagic_closed_under_product():
    sm = semimagic_ring(3, F3)
    a = sm.element(17)
    b = sm.element(101)
    ab = _times(sm, a, b)
    # every line of a product of semimagic matrices has one sum, the product of theirs
    assert len(set(_line_sums(sm, a))) == len(set(_line_sums(sm, b))) == 1
    assert _line_sums(sm, ab) == [F3.mul(_line_sums(sm, a)[0], _line_sums(sm, b)[0])] * 6


def test_semimagic_sigma():
    sm = semimagic_ring(3, F3)
    assert sm.one == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert _line_sums(sm, sm.one) == [1] * 6


# ---------------------------------------------------------------------------
# every oracle on every adapter kind, against closed forms
# ---------------------------------------------------------------------------

def _semimagic_unit_count(n, ctx):
    """(q - 1) |GL_{n-1}(F_q)|, since SM_n(F_q) = F_q x M_{n-1}(F_q) when p does not divide n."""
    q = ctx.q
    return (q - 1) * prod(q ** (n - 1) - q**i for i in range(n - 1))


def _adapter_cases():
    """label -> (ring, unit count by a closed form, unit-group exponent).

    p divides no group order and no n, so every ring is semisimple and its
    radical is {0}.  Exponents: F2[C7] = F2 x F8 x F8 and F3[C4] = F3 x F3 x F9;
    a join is GL_d(F_q) x prod Delta(G_i), where GL_2(F_q) has exponent
    lcm(q^2 - 1, p(q - 1)), Delta(C3) = F4 over F2 and Delta(C2) = F3 over F3;
    SM_n(F_q) has the exponent of F_q^x x GL_{n-1}(F_q).
    """
    c7, c4 = cyclic(7), cyclic(4)
    j2, j3 = parse_shape_spec("join(C3,C3;F2)"), parse_shape_spec("join(C2,C2;F3)")
    return {
        "F2[C7]": (GroupRingEnum(c7, F2), gr_unit_count(c7, F2), 7),
        "F3[C4]": (GroupRingEnum(c4, F3), gr_unit_count(c4, F3), 8),
        "join(C3,C3;F2)": (JoinRingEnum(j2), join_unit_count(j2), 6),
        "join(C2,C2;F3)": (JoinRingEnum(j3), join_unit_count(j3), 24),
        "SM2(F3)": (semimagic_ring(2, F3), _semimagic_unit_count(2, F3), 2),
        "SM3(F2)": (semimagic_ring(3, F2), _semimagic_unit_count(3, F2), 6),
        "SM2(F5)": (semimagic_ring(2, F5), _semimagic_unit_count(2, F5), 4),
    }


ADAPTERS = _adapter_cases()


def _power(ring, u, t):
    result = ring.one
    while t:
        if t & 1:
            result = _times(ring, result, u)
        u = _times(ring, u, u)
        t >>= 1
    return result


def test_semimagic_closed_form_values():
    assert [_semimagic_unit_count(n, f) for n, f in ((2, F3), (3, F2), (2, F5))] == [4, 6, 16]
    assert _semimagic_unit_count(4, F3) == enumerate_units(semimagic_ring(4, F3)) == 22464


@pytest.mark.parametrize("label", ADAPTERS)
def test_unit_count_on_every_adapter(label):
    ring, count, _ = ADAPTERS[label]
    assert enumerate_units(ring) == len(list_units(ring)) == count


@pytest.mark.parametrize("label", ADAPTERS)
def test_unit_orders_on_every_adapter(label):
    ring, count, exponent = ADAPTERS[label]
    orders = unit_orders(ring)
    assert len(orders) == count
    for u, t in orders:
        assert _power(ring, u, t) == ring.one
        assert all(_power(ring, u, t // f) != ring.one for f in factorize(t))
    assert lcm(*(t for _, t in orders)) == unit_group_exponent(orders) == exponent
    assert units_of_order(orders, 1) == 1
    assert is_delta_n(orders, exponent) == (True, None, None)
    n = exponent // max(factorize(exponent))
    ok, witness, order = is_delta_n(orders, n)
    assert not ok and n % order and _power(ring, witness, n) != ring.one


@pytest.mark.parametrize("label", ADAPTERS)
def test_radical_on_every_adapter(label):
    ring, count, _ = ADAPTERS[label]
    assert jacobson_radical(ring) == [ring.element(0)]
    assert semisimple_unit_factorization(ring) == (count, 1, count)


def _abelian_rings(limit):
    """Every abelian group of order <= 8 over F2, F3, F4, F5, F7, F8 and F9,
    where p does not divide |G| and q^|G| <= limit."""
    fields = map(parse_field, ("F2", "F3", "F4", "F5", "F7", "F8", "F9"))
    return {f"F{ctx.q}[{g.name}]": (g, ctx) for ctx in fields for n in range(1, 9)
            for g in abelian_groups_of_order(n) if n % ctx.p and ctx.q**n <= limit}


RECORD_UNITS = _abelian_rings(2**16)
RECORD_EXPONENTS = _abelian_rings(2**14)
# M_n(F_q) is the join of n trivial blocks
JOIN_EXPONENTS = {
    "join(trivial,trivial;F3)": 24,
    "join(trivial,trivial,trivial;F2)": 84,
    "join(trivial,trivial,trivial,trivial;F2)": 420,
    "join(C2,C3;F5)": 120,
    "join(C3,C5;F2)": 30,
    "join(C3,C3;F2)": 6,
    "join(C2,C2;F3)": 24,
    "join(C2,C4;F3)": 24,
}


def test_record_check_sets_have_their_sizes():
    assert (len(RECORD_UNITS), len(RECORD_EXPONENTS)) == (37, 34)


@pytest.mark.parametrize("label", RECORD_UNITS)
def test_structure_unit_count_matches_the_oracle(label):
    group, ctx = RECORD_UNITS[label]
    assert wedderburn_abelian(group, ctx).unit_count() == enumerate_units(GroupRingEnum(group, ctx))


@pytest.mark.parametrize("label", RECORD_EXPONENTS)
def test_structure_exponent_matches_the_oracle(label):
    group, ctx = RECORD_EXPONENTS[label]
    orders = unit_orders(GroupRingEnum(group, ctx))
    assert wedderburn_abelian(group, ctx).exponent() == unit_group_exponent(orders)


@pytest.mark.parametrize("spec", JOIN_EXPONENTS)
def test_join_structure_matches_the_oracle(spec):
    shape = parse_shape_spec(spec)
    orders = unit_orders(JoinRingEnum(shape))
    structure = join_structure(shape)
    assert structure.unit_count() == len(orders)
    assert structure.exponent() == unit_group_exponent(orders) == JOIN_EXPONENTS[spec]


def _difference(ring, a, b):
    if isinstance(a, tuple):  # a semimagic matrix, as a tuple of rows
        return tuple(tuple(map(ring.ctx.sub, ra, rb)) for ra, rb in zip(a, b))
    return a - b


def _radical_by_pairs(ring):
    """The radical the long way: every x with 1 - r x a unit for every r,
    one product, one difference and one is_unit per pair (x, r)."""
    elements = list(ring.elements())
    return [x for x in elements
            if all(ring.is_unit(_difference(ring, ring.one, _times(ring, r, x))) for r in elements)]


RADICAL_RINGS = {
    **{label: ring for label, (ring, _, _) in ADAPTERS.items()},
    # the rings of the benchmark's radical and factorization jobs
    "F2[C6]": GroupRingEnum(cyclic(6), F2),
    "F3[C3]": GroupRingEnum(cyclic(3), F3),
    "SM3(F2)": semimagic_ring(3, F2),
    "F2[S3]": GroupRingEnum(parse_group_spec("S3"), F2),
    "join(C2,C2;F2)": JoinRingEnum(parse_shape_spec("join(C2,C2;F2)")),
    # orbits under the rotations of C5, scalar classes of two and of three members
    "F3[C5]": GroupRingEnum(cyclic(5), F3),
    "F4[C5]": GroupRingEnum(cyclic(5), parse_field("F4")),
}


@pytest.mark.parametrize("label", RADICAL_RINGS)
def test_radical_matches_the_pairwise_definition(label):
    ring = RADICAL_RINGS[label]
    assert jacobson_radical(ring) == _radical_by_pairs(ring)


def test_radical_decides_membership_on_the_walk(monkeypatch):
    def refuse(self, a):
        raise AssertionError("jacobson_radical called is_unit")

    monkeypatch.setattr(EnumerableRing, "is_unit", refuse)
    assert len(jacobson_radical(RADICAL_RINGS["F2[C6]"])) == 8


def _span(ring, vectors):
    """Every F_q-combination of the coordinate tuples `vectors`."""
    ctx, out = ring.ctx, set()
    for coeffs in product(range(ctx.q), repeat=len(vectors)):
        total = (0,) * ring.dim
        for c, v in zip(coeffs, vectors):
            total = tuple(ctx.add(t, ctx.mul(c, x)) for t, x in zip(total, v))
        out.add(total)
    return out


# F3[S3] is not commutative, and its radical of 81 elements holds one-sided
# ideals that are not two-sided
F3_S3 = GroupRingEnum(parse_group_spec("S3"), F3)


def _f3_s3_radical():
    return [F3_S3._vector(i) for i in _radical(F3_S3)]


def test_radical_check_refuses_a_set_of_the_wrong_size():
    rad = _f3_s3_radical()  # checked on its way out of _radical
    assert len(rad) == 81
    with pytest.raises(InternalConsistencyError, match="no subspace"):
        _check_radical(F3_S3, rad[:-1])


@pytest.mark.parametrize("side", ["left", "right"])
def test_radical_check_refuses_a_one_sided_ideal(side):
    # R x or x R for one x in the radical: a nilpotent subspace, closed under
    # products on one side only
    ring, x = F3_S3, (2, 2, 1, 1, 0, 0)
    basis = [ring._vector(3**h) for h in range(ring.dim)]
    products = [ring.product(b, x) if side == "left" else ring.product(x, b) for b in basis]
    ideal = _span(ring, products)
    assert len(ideal) == 9 and ideal <= set(_f3_s3_radical())
    with pytest.raises(InternalConsistencyError, match="two-sided ideal"):
        _check_radical(ring, ideal)


def test_radical_check_refuses_a_subspace_that_is_not_nilpotent():
    # the whole ring: a subspace and a two-sided ideal, but it holds one
    everything = [F3_S3._vector(i) for i in range(F3_S3.size)]
    with pytest.raises(InternalConsistencyError, match="nilpotency"):
        _check_radical(F3_S3, everything)


def _product_calls(ring, monkeypatch, sweep) -> tuple[int, object]:
    """(ring.product calls made by sweep(ring), its result)."""
    calls = []
    product_of = ring.product

    def counted(u, v):
        calls.append(1)
        return product_of(u, v)

    monkeypatch.setattr(ring, "product", counted)
    result = sweep(ring)
    monkeypatch.undo()
    return len(calls), result


def test_radical_checks_take_few_products(monkeypatch):
    # membership and the checks on spanning sets; the all-pairs ideal check
    # took 2480 products here
    ring = JoinRingEnum(parse_shape_spec("join(C2,C2;F2)"))
    calls, radical = _product_calls(ring, monkeypatch, jacobson_radical)
    assert len(radical) == 16
    assert calls <= 300


def _unit_count_elementwise(ring):
    """The unit count the long way: is_unit on every element."""
    return sum(ring.is_unit(a) for a in ring.elements())


COUNT_RINGS = {
    **{label: ring for label, (ring, _, _) in ADAPTERS.items()},
    "F5[S3]": GroupRingEnum(parse_group_spec("S3"), F5),
    "F7[C4]": GroupRingEnum(cyclic(4), parse_field("F7")),
    "F4[C5]": GroupRingEnum(cyclic(5), parse_field("F4")),
    "join(C2,C3;F3)": JoinRingEnum(parse_shape_spec("join(C2,C3;F3)")),
    "SM3(F3)": semimagic_ring(3, F3),
    # orbits with stabilizers, images scaled by c^-1 in an extension field,
    # a non-cyclic abelian group and a non-abelian block in a join
    "F9[C4]": GroupRingEnum(cyclic(4), parse_field("F9")),
    "F2[C2xC4]": GroupRingEnum(parse_group_spec("C2xC4"), F2),
    "join(S3,C2;F2)": JoinRingEnum(parse_shape_spec("join(S3,C2;F2)")),
    # non-abelian groups whose two-sided maps outnumber the left ones: S3
    # with a trivial centre, Q8 with a centre of order 2
    "F3[S3]": GroupRingEnum(parse_group_spec("S3"), F3),
    "F3[Q8]": GroupRingEnum(parse_group_spec("Q8"), F3),
}


@pytest.mark.parametrize("label", COUNT_RINGS)
def test_unit_count_matches_elementwise(label):
    ring = COUNT_RINGS[label]
    assert enumerate_units(ring) == _unit_count_elementwise(ring)


def _coordinate_units(ring):
    """Units whose products on either side permute coordinates: g in
    F_q[G], diag(g_1..g_d) in a join, one in a semimagic ring."""
    if isinstance(ring, GroupRingEnum):
        return [ring.element(ring.ctx.q**g) for g in range(ring.group.order)]
    if isinstance(ring, JoinRingEnum):
        shape = ring.shape
        zero = [[0] * shape.d for _ in range(shape.d)]
        return [JoinElem(shape, [GroupRingElem(ring.ctx, g, [int(h == k) for h in range(g.order)])
                                 for g, k in zip(shape.groups, ks)], zero)
                for ks in product(*(range(g.order) for g in shape.groups))]
    return [ring.one]


def _cycle_lengths(perm):
    """The length of each cycle of the permutation h -> perm[h]."""
    seen, lengths = set(), []
    for h in range(len(perm)):
        length = 0
        while h not in seen:
            seen.add(h)
            h, length = perm[h], length + 1
        if length:
            lengths.append(length)
    return lengths


def _burnside(q, perms) -> int:
    """Orbits of the nonzero vectors of F_q^n under x -> c sigma(x), for c
    in F_q^x and sigma in the group `perms`, by Burnside's lemma: x is
    fixed iff x_sigma(h) = c x_h, so along a cycle of length L its
    coordinates are multiples of one of q values when c^L = 1, and 0
    otherwise.  F_q^x is cyclic: it has phi(m) scalars of each order m
    dividing q - 1, and c^L = 1 iff the order of c divides L."""
    orders = [m for m in range(1, q) if (q - 1) % m == 0]
    fixed = sum(euler_phi(m) * prod(q if length % m == 0 else 1 for length in _cycle_lengths(perm))
                for m in orders for perm in perms)
    assert fixed % ((q - 1) * len(perms)) == 0, "the maps are not a group"
    return fixed // ((q - 1) * len(perms)) - 1  # less the zero orbit


def _orbit_count(ring):
    """Orbits of the nonzero elements under F_q^x times `ring.symmetries`."""
    return _burnside(ring.ctx.q, ring.symmetries)


def _tested_matrices(ring, monkeypatch, sweep=enumerate_units):
    tested = []
    rows_invertible = linalg.rows_invertible

    def counted(rows, ctx):
        tested.append(list(rows))
        return rows_invertible(rows, ctx)

    monkeypatch.setattr(linalg, "rows_invertible", counted)
    sweep(ring)
    monkeypatch.undo()
    return tested


def _ring(label):
    """A group ring `F<q>[<group>]` or a join ring `join(...)` by its label."""
    if label.startswith("join("):
        return JoinRingEnum(parse_shape_spec(label))
    field, group = label.rstrip("]").split("[")
    return GroupRingEnum(parse_group_spec(group), parse_field(field))


@pytest.mark.parametrize("label", COUNT_RINGS)
def test_unit_count_tests_one_element_per_orbit(label, monkeypatch):
    ring = COUNT_RINGS[label]
    tested = _tested_matrices(ring, monkeypatch)
    assert len(tested) == _orbit_count(ring)
    zero = list(map(ring.ctx.packing.pack, ring.unit_matrix(ring.element(0))))
    assert zero not in tested


@pytest.mark.parametrize("label, eliminations", [
    ("F2[C12]", 157), ("F3[C7]", 41), ("join(C3,C5;F2)", 95),
    ("F5[S3]", 178), ("join(S3,C2;F2)", 89), ("F3[Q8]", 207),
])
def test_unit_count_eliminations_are_pinned(label, eliminations, monkeypatch):
    # abelian rings gain nothing from the right products but do from the
    # power maps: F2[C12] took 351 eliminations and F3[C7] 157 with
    # translations alone; F5[S3] took 684 with left products alone,
    # join(S3,C2;F2) 191, F3[Q8] 426; joins took 127 and 119 without the
    # transpose, join(C3,C5;F2) and join(S3,C2;F2)
    assert len(_tested_matrices(_ring(label), monkeypatch)) == eliminations


@pytest.mark.parametrize("sweep, label, eliminations", [
    (list_units, "F3[C5]", 13), (list_units, "F2[C2xC4]", 33),
    (jacobson_radical, "F2[C6]", 203), (jacobson_radical, "F3[C3]", 57),
    (jacobson_radical, "F2[S3]", 75),
    (jacobson_radical, "join(C2,C2;F2)", 726),
], ids=lambda v: getattr(v, "__name__", None))
def test_listing_and_radical_eliminations_are_pinned(sweep, label, eliminations, monkeypatch):
    # one elimination per orbit, or per step of a walk over r for each
    # orbit's representative x; walking every element, and every r for
    # each x, took 243 and 256 for the listings, 648, 288 and 266 for the
    # radicals of F2[C6], F3[C3] and F2[S3], and 1168 for join(C2,C2;F2);
    # orbits of translations alone took 25, 39 and 204 on F3[C5],
    # F2[C2xC4] and F2[C6]; join(C2,C2;F2) took 989 without the transpose
    assert len(_tested_matrices(_ring(label), monkeypatch, sweep)) == eliminations


@pytest.mark.parametrize("sweep, label, products", [
    (jacobson_radical, "SM3(F2)", 54), (jacobson_radical, "F2[C6]", 75),
    (jacobson_radical, "F3[C3]", 27), (jacobson_radical, "F2[S3]", 30),
    (jacobson_radical, "join(C2,C2;F2)", 157),
    (semisimple_unit_factorization, "F2[S3]", 30),
    (semisimple_unit_factorization, "join(C2,C2;F2)", 157),
], ids=lambda v: getattr(v, "__name__", None))
def test_radical_products_are_pinned(sweep, label, products, monkeypatch):
    # b_i x is multiplied out only once r reaches coordinate i, so an x that
    # fails early costs few products; the factorization adds none to the
    # radical's, where counting the cosets u(1 + J) took 446 and 54;
    # join(C2,C2;F2) took 190 without the transpose
    assert _product_calls(RADICAL_RINGS[label], monkeypatch, sweep)[0] == products


def test_unit_count_over_f2_cyclic_tests_one_necklace_per_orbit(monkeypatch):
    # F_2^x is trivial, so the orbits are the classes of nonzero binary
    # necklaces of length n under the maps h -> g + k h of Z/n, k a unit
    # mod n: the rotations composed with the power maps
    tested = {}
    for n in range(1, 13):
        affine = [[(g + k * h) % n for h in range(n)]
                  for g in range(n) for k in range(1, n + 1) if gcd(k, n) == 1]
        tested[n] = len(_tested_matrices(GroupRingEnum(cyclic(n), F2), monkeypatch))
        assert tested[n] == _burnside(2, affine), n
    # rotations alone gave 19 and 351, the nonzero necklaces
    assert (tested[7], tested[12]) == (9, 157)


def _moved(ring, perm, a):
    """The element whose coordinate perm[h] is a's coordinate h."""
    q = ring.ctx.q
    return ring.element(sum(c * q ** perm[h] for h, c in enumerate(ring.coordinates(a))))


def _transposed(ring, a):
    """a^T, by the matrix embedding of a join element."""
    return join_unembed(ring.shape, [list(col) for col in zip(*join_embed(a))])


@pytest.mark.parametrize("label", COUNT_RINGS)
def test_symmetries_are_left_products_by_units(label):
    # each symmetry must be a -> u sigma(a) w, the left product by a unit u
    # of the right product by a unit w of sigma(a), sigma one of the
    # power maps in a group ring, the identity or the transpose of the
    # embedding in a join and the identity elsewhere, and each such map by
    # _coordinate_units must be a symmetry, listed once; the basis vectors
    # fix a linear map, and the random samples check it off the basis
    ring = COUNT_RINGS[label]
    q, rng = ring.ctx.q, random.Random(label)
    samples = [ring.element(i) for i in [q**h for h in range(ring.dim)]
               + [rng.randrange(ring.size) for _ in range(20)]]
    moves = _coordinate_units(ring)
    assert all(ring.is_unit(u) for u in moves)
    if isinstance(ring, GroupRingEnum):
        sigmas = [lambda a, perm=perm: _moved(ring, perm, a) for perm in _power_maps(ring.group)]
    elif isinstance(ring, JoinRingEnum):
        sigmas = [lambda a: a, lambda a: _transposed(ring, a)]
    else:
        sigmas = [lambda a: a]
    expected = {tuple(_times(ring, _times(ring, u, sigma(a)), w) for a in samples)
                for sigma in sigmas for u in moves for w in moves}
    images = [tuple(_moved(ring, perm, a) for a in samples) for perm in ring.symmetries]
    assert set(images) == expected
    assert len(images) == len(expected)


def _unit_orders_by_prime_stripping(ring):
    """(unit, order) the long way: start each order at |U| and strip every
    prime f of |U| while u^(t/f) = 1, powers by square-and-multiply."""
    units = list_units(ring)
    primes = list(factorize(len(units))) if len(units) > 1 else []
    out = []
    for u in units:
        t = len(units)
        for f in primes:
            while t % f == 0 and _power(ring, u, t // f) == ring.one:
                t //= f
        out.append((u, t))
    return out


ORDER_RINGS = {
    **{label: ring for label, (ring, _, _) in ADAPTERS.items()},
    # 24, 27 and 12 units: the reference strips a prime more than once
    "F2[C6]": GroupRingEnum(cyclic(6), F2),
    "F4[C3]": GroupRingEnum(cyclic(3), parse_field("F4")),
    "F2[S3]": GroupRingEnum(parse_group_spec("S3"), F2),
    # power maps of C5 over a prime field and over F4
    "F3[C5]": RADICAL_RINGS["F3[C5]"],
    "F4[C5]": RADICAL_RINGS["F4[C5]"],
    # conjugations of a non-abelian block, each also followed by the transpose
    "join(S3,C2;F2)": JoinRingEnum(parse_shape_spec("join(S3,C2;F2)")),
}


LIST_RINGS = {
    **COUNT_RINGS,
    **ORDER_RINGS,
    # extension-field codes, which do not add as integers
    "F9[C4]": GroupRingEnum(cyclic(4), parse_field("F9")),
}


@pytest.mark.parametrize("label", LIST_RINGS)
def test_list_units_keeps_enumeration_order(label):
    # join(C2,C2;F3), among the adapters, has off-diagonal coordinates
    ring = LIST_RINGS[label]
    assert list_units(ring) == [a for a in ring.elements() if ring.is_unit(a)]


PARTITION_RINGS = {
    **LIST_RINGS,
    "F1048576[C1]": GroupRingEnum(cyclic(1), parse_field("F1048576")),
    # indices up to 1031^2, beyond two bytes
    "F1031[C2]": GroupRingEnum(cyclic(2), parse_field("F1031"), cap=1031**2),
}


@pytest.mark.parametrize("label", PARTITION_RINGS)
def test_orbits_partition_the_nonzero_elements(label):
    # disjoint orbits whose scalar multiples are every nonzero element once,
    # each the images of its representative under the symmetries, divided
    # by their lowest nonzero coordinate
    ring = PARTITION_RINGS[label]
    ctx, q, dim = ring.ctx, ring.ctx.q, ring.dim

    def normalised(vector):
        s = ctx.inv(next(c for c in vector if c))
        return sum(ctx.mul(s, c) * q**h for h, c in enumerate(vector))

    seen = set()
    for vector, orbit in oracle._orbits(ring):
        images = set()
        for perm in ring.symmetries:
            image = [0] * dim
            for h, c in enumerate(vector):
                image[perm[h]] = c
            images.add(normalised(image))
        # listed once each: the walk clears a mark as it lists the index
        assert len(orbit) == len(images) and set(orbit) == images
        assert seen.isdisjoint(orbit)
        seen.update(orbit)
    assert (q - 1) * len(seen) == q**dim - 1


def test_orbit_lanes_hold_every_index():
    # _orbits reads the images of every index below the cap from 4-byte
    # lanes, cast as unsigned ints
    assert oracle.CAP_CEILING < 2**32
    assert array("I").itemsize == 4


@pytest.mark.parametrize(
    "ring",
    [GroupRingEnum(cyclic(1), parse_field("F1048576")), semimagic_ring(1, parse_field("F1048576"))],
    ids=["F1048576[C1]", "SM1(F1048576)"],
)
def test_unit_count_builds_nothing_that_grows_with_q(ring):
    # one elimination, and no table of the q multiples of a basis matrix
    start = time.perf_counter()
    assert enumerate_units(ring) == 2**20 - 1
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("spec", ["F1031", "F2048", "F2187"])
def test_unit_count_on_untabled_fields(spec):
    # the walk multiplies a packed basis matrix by every code above the
    # table limit, in q + 1 eliminations; the cap is raised to the q^2
    # elements, beyond the default cap.  F_q[C2] is F_q x F_q for odd q, and
    # local with radical F_q (1 + g) in characteristic 2.
    ctx = parse_field(spec)
    q = ctx.q
    ring = GroupRingEnum(cyclic(2), ctx, cap=q**2)
    units = q * (q - 1) if q % 2 == 0 else (q - 1) ** 2
    assert enumerate_units(ring) == units


@pytest.mark.parametrize("label", ORDER_RINGS)
def test_unit_orders_match_prime_stripping(label):
    ring = ORDER_RINGS[label]
    assert unit_orders(ring) == _unit_orders_by_prime_stripping(ring)


AUTOMORPHISM_RINGS = {
    **ORDER_RINGS,
    "F3[C9]": GroupRingEnum(cyclic(9), F3),
    "join(C3,C5;F2)": JoinRingEnum(parse_shape_spec("join(C3,C5;F2)")),
}


@pytest.mark.parametrize("label", AUTOMORPHISM_RINGS)
def test_automorphisms_are_ring_automorphisms(label):
    # each listed permutation must fix one and carry products to products,
    # or reverse them all, as the transpose of a join does, listed once; it
    # is linear, so the basis pairs decide, and the random pairs check that
    # off the basis
    ring = AUTOMORPHISM_RINGS[label]
    q, rng = ring.ctx.q, random.Random(label)
    basis = [ring.element(q**h) for h in range(ring.dim)]
    samples = [ring.element(rng.randrange(ring.size)) for _ in range(40)]
    pairs = [(a, b) for a in basis for b in basis] + list(zip(samples[::2], samples[1::2]))
    perms = [tuple(perm) for perm in ring.automorphisms]
    assert len(set(perms)) == len(perms)
    for perm in perms:
        assert sorted(perm) == list(range(ring.dim))
        assert _moved(ring, perm, ring.one) == ring.one
        images = [(_moved(ring, perm, _times(ring, a, b)), _moved(ring, perm, a),
                   _moved(ring, perm, b)) for a, b in pairs]
        assert (all(ab == _times(ring, x, y) for ab, x, y in images)
                or all(ab == _times(ring, y, x) for ab, x, y in images))


@pytest.mark.parametrize("label, count", [
    # phi(exp G) power maps of an abelian G, less those h -> h^(k q^m) of a
    # map h -> h^k kept, where q is prime to exp G (3 generates (Z/5)^x, so
    # F3[C5] keeps the identity alone), their products over the blocks of a
    # join, each there also followed by the transpose, the six conjugations
    # of S3, and the identity alone for semimagic rings
    ("F3[C9]", 6), ("F3[C5]", 1), ("F2[C6]", 2), ("join(C3,C5;F2)", 16),
    ("join(C2,C2;F3)", 2), ("F2[S3]", 6), ("SM3(F2)", 1),
])
def test_automorphisms_are_the_power_maps(label, count):
    assert len(AUTOMORPHISM_RINGS[label].automorphisms) == count


def _exp_u1_products(group, ctx, monkeypatch):
    """(exp_U1, the ring products it took)."""
    calls = []
    multiplier = oracle.gr_multiplier

    def counted(ctx, group):
        product = multiplier(ctx, group)

        def count(u, v):
            calls.append(1)
            return product(u, v)

        return count

    monkeypatch.setattr(oracle, "gr_multiplier", counted)
    exponent = exp_U1(group, ctx)
    monkeypatch.undo()
    return exponent, len(calls)


def test_exp_u1_products_are_pinned(monkeypatch):
    # a walk also gives the orders of the images of its powers under the
    # six power maps of C9; without them the sweep took 8496 products
    assert _exp_u1_products(cyclic(9), F3, monkeypatch) == (9, 1556)


@pytest.mark.parametrize("spec, field, exponent, products", [
    ("Q8", "F2", 4, 109), ("C2xC4", "F2", 4, 118), ("C8", "F2", 8, 94), ("C4", "F4", 4, 60),
])
def test_exp_u1_products_on_small_two_groups_are_pinned(spec, field, exponent, products,
                                                         monkeypatch):
    # the sweep on a dict of coefficient tuples took 178, 118, 94 and 60;
    # the conjugations of the non-abelian Q8 cut its walks
    group, ctx = parse_group_spec(spec), parse_field(field)
    assert _exp_u1_products(group, ctx, monkeypatch) == (exponent, products)


@pytest.mark.parametrize("spec, exponent", [("trivial", 1), ("C2", 2)])
def test_exp_u1_beyond_a_byte_of_codes(spec, exponent):
    # codes beyond a byte; over two coordinates the marks of the units of
    # coefficient sum 1 take q subtractions, not q^2
    assert exp_U1(parse_group_spec(spec), parse_field("F1024")) == exponent


def test_orders_refuses_a_non_unit():
    # the walk stops at the ring's size; without that bound the powers of a
    # non-unit would run on, and the alarm would fail the test after a second
    ring = GroupRingEnum(cyclic(2), F2)
    marks = bytearray(ring.size)
    marks[3] = 1  # 1 + g, whose square is 0

    def timeout(signum, frame):
        raise TimeoutError("the order sweep ran on for a second")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        with pytest.raises(InternalConsistencyError):
            list(_orders(ring, marks))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


PRODUCT_RINGS = {
    "F2[S3]": GroupRingEnum(parse_group_spec("S3"), F2),
    "join(C2,C2;F2)": JoinRingEnum(parse_shape_spec("join(C2,C2;F2)")),
    "join(C2,C3;F2)": JoinRingEnum(parse_shape_spec("join(C2,C3;F2)")),
    "SM2(F3)": semimagic_ring(2, F3),
    "SM3(F2)": semimagic_ring(3, F2),
}


@pytest.mark.parametrize("label", PRODUCT_RINGS)
def test_coordinates_read_back_the_enumeration(label):
    ring = PRODUCT_RINGS[label]
    for i in range(ring.size):
        assert ring.coordinates(ring.element(i)) == ring._vector(i), i


@pytest.mark.parametrize("label", PRODUCT_RINGS)
def test_product_agrees_with_the_element_and_matrix_products(label):
    # on every pair: the element product, and the product of the unit
    # matrices, which are a faithful representation of the ring
    ring = PRODUCT_RINGS[label]
    ctx, q = ring.ctx, ring.ctx.q
    elements = list(ring.elements())
    matrices = [ring.unit_matrix(a) for a in elements]
    for a, ma in zip(elements, matrices):
        u = ring.coordinates(a)
        assert ring.product(u, ring._one) == u == ring.product(ring._one, u)
        for b, mb in zip(elements, matrices):
            uv = ring.product(u, ring.coordinates(b))
            assert uv == ring.coordinates(_times(ring, a, b))
            muv = matrices[sum(c * q**h for h, c in enumerate(uv))]
            assert list(map(list, muv)) == linalg.mat_mul(ma, mb, ctx)


def test_product_on_three_blocks_agrees_with_the_matrix_product():
    # three blocks reach the terms a_ik b_kj |G_k| with k != i, j, which
    # the two-block rings above lack
    ring = JoinRingEnum(parse_shape_spec("join(C2,C1,C3;F3)"))
    rng = random.Random(ring.dim)
    for _ in range(300):
        a, b = (ring.element(rng.randrange(ring.size)) for _ in range(2))
        ab = ring.shape.from_vector(ring.product(ring.coordinates(a), ring.coordinates(b)))
        assert ring.unit_matrix(ab) == linalg.mat_mul(ring.unit_matrix(a), ring.unit_matrix(b), ring.ctx)
