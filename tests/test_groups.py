from math import prod

import pytest

from joinrings.cli import run
from joinrings.errors import AlgebraError, NotNormalError, NotSubgroupError, ParseError
from joinrings.groups import (
    ORDER_CAP,
    abelian,
    abelian_groups_of_order,
    cyclic,
    dicyclic,
    dihedral,
    from_table,
    parse_group_spec,
    quaternion,
    symmetric,
    trivial,
)


def test_cyclic_basic():
    g = cyclic(6)
    assert g.order == 6
    assert g.is_abelian
    assert g.exponent() == 6
    assert g.inverse[2] == 4
    assert g.table[2][5] == 1
    with pytest.raises(AlgebraError, match="order must be >= 1"):
        cyclic(0)


def test_identity_is_index_zero():
    for g in (cyclic(5), abelian([2, 4]), symmetric(3), quaternion()):
        for x in range(g.order):
            assert g.table[0][x] == x
            assert g.table[x][0] == x


def test_abelian_invariants():
    g = abelian([2, 2, 4])
    assert g.order == 16
    assert g.exponent() == 4
    assert g.is_abelian


def test_symmetric_group():
    s3 = symmetric(3)
    assert s3.order == 6
    assert not s3.is_abelian
    assert s3.exponent() == 6
    assert sorted(s3.order_counts().items()) == [(1, 1), (2, 3), (3, 2)]


def test_quaternion_group():
    q8 = quaternion()
    assert q8.order == 8
    assert not q8.is_abelian
    assert q8.exponent() == 4
    # unique element of order 2 (this is -1)
    assert q8.order_counts()[2] == 1


def test_subgroup_and_quotient():
    g = cyclic(6)
    h = g.subgroup([0, 3])
    assert h.is_normal
    q, proj = h.quotient
    assert q.order == 3
    assert proj[0] == 0
    # projection is a homomorphism
    for x in range(6):
        for y in range(6):
            assert proj[g.table[x][y]] == q.table[proj[x]][proj[y]]


def test_non_subgroup_rejected():
    # not closed, no identity, a negative index, an index past the order, empty
    for n, elements in [(6, [0, 2, 3]), (6, [2, 4]), (2, [0, 1, -1]), (2, [0, 5]), (2, [])]:
        with pytest.raises(NotSubgroupError):
            cyclic(n).subgroup(elements)


def test_subgroup_generated_refuses_an_index_past_the_order():
    with pytest.raises(NotSubgroupError):
        cyclic(2).subgroup_generated([5])


def test_non_normal_quotient_rejected():
    s3 = symmetric(3)
    # a 2-element subgroup of S3 is not normal
    two = next(x for x in range(6) if s3.element_orders[x] == 2)
    h = s3.subgroup([0, two])
    assert not h.is_normal
    with pytest.raises(NotNormalError):
        h.quotient


def test_conjugacy_classes():
    assert symmetric(3).conjugacy_classes == ((0,), (1, 2, 5), (3, 4))
    assert quaternion().conjugacy_classes == ((0,), (1,), (2, 3), (4, 5), (6, 7))
    assert cyclic(4).conjugacy_classes == ((0,), (1,), (2,), (3,))


def test_subgroup_generated():
    g = abelian([2, 4])
    h = g.subgroup_generated([1])
    assert len(h.elements) == g.element_orders[1]


def test_parse_group_spec():
    assert parse_group_spec("C12").order == 12
    assert parse_group_spec("C2xC2xC4").order == 16
    assert parse_group_spec("trivial").order == 1
    assert parse_group_spec("S3").order == 6
    assert parse_group_spec("Q8").order == 8
    with pytest.raises(AlgebraError):
        parse_group_spec("C0")


@pytest.mark.parametrize("n", range(1, 11))
def test_dihedral_and_dicyclic_groups(n):
    # D_n = <r, s | r^n, s^2, s^-1 r s = r^-1> of order 2n has n involutions
    # for odd n and n + 1 for even n; Dic_n, of order 4n, has one
    d, dic = parse_group_spec(f"D{n}"), parse_group_spec(f"Dic{n}")
    assert (d.name, d.order, dic.name, dic.order) == (f"D{n}", 2 * n, f"Dic{n}", 4 * n)
    assert d.order_counts().get(2, 0) == (n if n % 2 else n + 1)
    assert dic.order_counts()[2] == 1
    assert d.is_abelian == (n <= 2) and dic.is_abelian == (n == 1)
    for g, m in ((d, n), (dic, 2 * n)):  # index i + m j is r^i s^j
        r, s, t = 1 % m, m, g.table
        assert g.element_orders[r] == m and g.element_orders[s] in (2, 4)
        assert t[t[g.inverse[s]][r]][s] == g.inverse[r]
    assert parse_group_spec(f"D{n}") is d is dihedral(n) and dicyclic(n) is dic


def _order_statistics(g):
    return g.order, g.order_counts(), sorted(map(len, g.conjugacy_classes))


def test_small_dihedral_and_dicyclic_groups_are_the_known_ones():
    # D1 = C2, D2 = C2xC2, D3 = S3, Dic1 = C4 and Dic2 = Q8, by order
    # statistics and class sizes; D4 and Q8 share their order and differ
    for name, other in (("D1", "C2"), ("D2", "C2xC2"), ("D3", "S3"), ("Dic1", "C4"),
                        ("Dic2", "Q8")):
        assert _order_statistics(parse_group_spec(name)) == _order_statistics(
            parse_group_spec(other)), name
    assert _order_statistics(dihedral(4)) != _order_statistics(quaternion())
    assert _order_statistics(dicyclic(3)) != _order_statistics(dihedral(6))


@pytest.mark.parametrize("spec", ["D0", "Dic0", "D129", "Dic65", "D" + "9" * 60, "Dic" + "9" * 60])
def test_dihedral_and_dicyclic_degrees_are_checked_before_the_table(spec):
    with pytest.raises(AlgebraError):
        parse_group_spec(spec)


@pytest.mark.parametrize("spec", ["D", "Dic", "D-2", "Dx3", "Dic3x"])
def test_bad_dihedral_and_dicyclic_specs(spec):
    with pytest.raises(ParseError, match="bad group spec"):
        parse_group_spec(spec)


def test_order_cap_checked_before_the_table():
    # each would build a table far beyond ORDER_CAP (S8 alone is 40320 x 40320)
    for build in (lambda: symmetric(6), lambda: symmetric(8), lambda: cyclic(10**5)):
        with pytest.raises(AlgebraError):
            build()


def test_from_table_validates_associativity():
    bad = [[0, 1], [1, 1]]  # not a group
    with pytest.raises(AlgebraError):
        from_table(bad)


@pytest.mark.parametrize("one", [1.0, True, "1"], ids=["float", "bool", "str"])
def test_from_table_refuses_an_entry_that_is_no_int(one):
    # 1.0 and True equal the index 1, so only the type tells them apart
    with pytest.raises(AlgebraError, match="row 0"):
        from_table([[0, one], [one, 0]])


@pytest.mark.parametrize("one", [1.0, True], ids=["float", "bool"])
def test_subgroup_refuses_an_index_that_is_no_int(one):
    with pytest.raises(NotSubgroupError, match="no int"):
        cyclic(2).subgroup([0, one])


@pytest.mark.parametrize("elements, message", [
    ([[0]], "no int"),  # unhashable: it must be refused before a set is built
    (None, "iterable of ints"),
], ids=["list-entry", "none"])
def test_subgroup_refuses_input_that_is_no_list_of_indices(elements, message):
    with pytest.raises(NotSubgroupError, match=message):
        cyclic(2).subgroup(elements)


def _c66_with_an_intercalate_swapped():
    """C66 with the 2 x 2 Latin subsquare at rows 1, 34 and columns 2, 35
    swapped: still a Latin square with identity 0, but not associative."""
    t = [[(a + b) % 66 for b in range(66)] for a in range(66)]
    t[1][2], t[1][35], t[34][2], t[34][35] = t[1][35], t[1][2], t[34][35], t[34][2]
    return t


def _c65_with_a_repeated_entry():
    t = [[(a + b) % 65 for b in range(65)] for a in range(65)]
    t[3][5] = t[3][6]
    return t


def test_tables_are_checked_at_every_order():
    with pytest.raises(AlgebraError, match="associativity"):
        from_table(_c66_with_an_intercalate_swapped())
    with pytest.raises(AlgebraError, match="row 3"):
        from_table(_c65_with_a_repeated_entry())
    with pytest.raises(AlgebraError, match="identity"):
        from_table([[0, 1], [0, 1]])
    # row x swaps 0 and x: rows permute, 0 is an identity, but each element
    # generates only itself and 0, so 3 generators for 4 elements
    with pytest.raises(AlgebraError, match="generators"):
        from_table([[x if y == 0 else 0 if y == x else y for y in range(4)] for x in range(4)])


@pytest.mark.parametrize("rows", [_c66_with_an_intercalate_swapped(), _c65_with_a_repeated_entry()],
                         ids=["non-associative-order-66", "repeated-entry-order-65"])
def test_tables_that_are_no_group_exit_1(capsys, tmp_path, rows):
    path = tmp_path / "table.txt"
    path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    assert run(["group", f"table:{path}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_generators_each_leave_the_subgroup_of_the_earlier_ones():
    assert cyclic(256).generators == (1,)
    assert trivial().generators == ()
    assert abelian([2] * 8).generators == (1, 2, 4, 8, 16, 32, 64, 128)
    assert symmetric(3).generators == (1, 2) and quaternion().generators == (1, 2, 4)
    for g in [symmetric(5), abelian([16, 16]), *abelian_groups_of_order(48)]:
        gens = g.generators
        for k, s in enumerate(gens):
            below = g.subgroup_generated(gens[:k]).elements
            assert s not in below and all(x in below for x in range(s))
        assert g.subgroup_generated(gens).order == g.order
        assert 2 ** len(gens) <= g.order


def test_from_table_refuses_an_empty_table(tmp_path):
    with pytest.raises(AlgebraError):
        from_table([])
    path = tmp_path / "table.txt"
    path.write_text("\n \n")
    with pytest.raises(AlgebraError):
        parse_group_spec(f"table:{path}")


@pytest.mark.parametrize("text", [
    "0\n" * (ORDER_CAP + 1),
    " ".join(["0"] * (ORDER_CAP + 1)) + "\n",
    "0 " * 10**5,
], ids=["rows-over-cap", "entries-over-cap", "long-line"])
def test_table_files_are_read_no_further_than_the_cap(tmp_path, text):
    path = tmp_path / "table.txt"
    path.write_text(text)
    with pytest.raises(AlgebraError):
        parse_group_spec(f"table:{path}")


POWER_MAP_GROUPS = [g for n in range(1, 17) for g in abelian_groups_of_order(n)] + [
    symmetric(3), symmetric(4), quaternion()]


@pytest.mark.parametrize("group", POWER_MAP_GROUPS, ids=lambda g: g.name)
def test_power_map_is_repeated_multiplication(group):
    # h^k by k - 1 products on the table, for every k up to past twice the
    # exponent, so that every bit pattern of k below that bound is reached
    e, t = group.exponent(), group.table
    power = [0] * group.order  # h^k, from k = 0
    for k in range(2 * e + 2):
        assert group.power_map(k) == tuple(power), k
        power = [t[x][h] for h, x in enumerate(power)]
    assert group.power_map(e - 1) == group.inverse


@pytest.mark.parametrize("group", POWER_MAP_GROUPS, ids=lambda g: g.name)
def test_power_map_is_built_once_for_each_k_mod_the_exponent(group):
    e = group.exponent()
    for k in range(e + 1):
        assert group.power_map(k) is group.power_map(k + e), k
        assert type(group.power_map(k)) is tuple


def test_abelian_groups_of_order():
    # counts are products of partition numbers of the prime multiplicities
    assert len(abelian_groups_of_order(1)) == 1
    assert len(abelian_groups_of_order(8)) == 3
    assert len(abelian_groups_of_order(12)) == 2
    assert len(abelian_groups_of_order(16)) == 5
    for g in abelian_groups_of_order(16):
        assert g.order == 16 and g.is_abelian


def test_trivial_group():
    t = trivial()
    assert t.order == 1
    assert t.exponent() == 1
    assert t.is_p_group(2) and t.is_p_group(3)
    with pytest.raises(AlgebraError, match="not prime"):
        t.is_p_group(4)


def _reference_abelian_table(invariants):
    """Z/n1 x ... x Z/nk entry by entry: decode both indices, add, encode."""
    def decode(i):
        out = []
        for m in invariants:
            out.append(i % m)
            i //= m
        return tuple(out)

    def encode(t):
        i = 0
        for m, x in zip(reversed(invariants), reversed(t)):
            i = i * m + x
        return i

    digits = [decode(i) for i in range(prod(invariants))]
    return tuple(
        tuple(encode([(a + b) % m for a, b, m in zip(x, y, invariants)]) for y in digits)
        for x in digits
    )


def _normalized_invariants(limit):
    """Every ordered tuple of integers >= 2 whose product is at most limit."""
    out, frontier = [], [((), 1)]
    while frontier:
        grown = []
        for inv, n in frontier:
            for m in range(2, limit // n + 1):
                out.append(inv + (m,))
                grown.append((inv + (m,), n * m))
        frontier = grown
    return out


def test_abelian_table_matches_the_entrywise_reference():
    expected = {inv: _reference_abelian_table(inv)
                for inv in [(1,)] + _normalized_invariants(64)}
    assert len(expected) > 64  # more than the cache keeps, so some are rebuilt
    for _ in range(2):  # the second pass finds the earliest groups evicted
        for inv, table in expected.items():
            g = abelian(inv)
            assert g.table == table, inv
            assert g.invariants == inv and g.name == "x".join(f"C{m}" for m in inv)


def test_constructors_return_one_object_per_group():
    c3 = cyclic(3)
    for again in (parse_group_spec("C3"), parse_group_spec("C1xC3"), cyclic(3),
                  abelian([3]), abelian((1, 3, 1))):
        assert again is c3
    assert abelian([2, 3]) is not abelian([3, 2])  # other digit order, other table
    assert cyclic(1) is abelian([1, 1]) and cyclic(1) == trivial()
    for build in (trivial, quaternion, lambda: symmetric(3)):
        assert build() is build()
    assert parse_group_spec("S3") is symmetric(3) and parse_group_spec("Q8") is quaternion()


def test_table_specs_are_read_afresh(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("0 1\n1 0\n")
    first = parse_group_spec(f"table:{path}")
    assert first is not parse_group_spec(f"table:{path}")
    path.write_text("0 1 2\n1 2 0\n2 0 1\n")
    assert parse_group_spec(f"table:{path}").order == 3 and first.order == 2
