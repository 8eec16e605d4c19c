"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
"""

import random

import joinrings.linalg as linalg
from joinrings.arith import (
    classify_group_algebra_delta,
    classify_join_delta,
    rooted_equivalence_report,
)
from joinrings.ffield import parse_field
from joinrings.groupring import gr_unit_count
from joinrings.groups import (
    abelian_groups_of_order,
    cyclic,
    parse_group_spec,
)
from joinrings.joinring import (
    JoinShape,
    join_embed,
    join_idempotents,
    join_unit_count,
    parse_shape_spec,
    random_join_element,
    thm_unit_count_rooted,
)
from joinrings.ntheory import is_prime
from joinrings.oracle import (
    GroupRingEnum,
    JoinRingEnum,
    enumerate_units,
    is_delta_n,
    jacobson_radical,
    semimagic_ring,
    semisimple_unit_factorization,
    unit_orders,
    units_of_order,
)
from joinrings.zeta import zeta_join, zeta_semimagic


def _report(number, detail):
    print(f"CRITERION {number}: PASS — {detail}")


def test_criterion_1_rooted_equivalence_sweep():
    cases = 0
    oracle_cases = 0
    for q in (2, 3, 5):
        ctx = parse_field(f"F{q}")
        for p in range(2, 30):
            if not is_prime(p) or p == q:
                continue
            # conditions (1)-(3) are computed independently inside the
            # report; its constructor raises on any disagreement
            rep = rooted_equivalence_report([p], q)
            cases += 1
            if q**p <= 2**12:
                # condition (4): the number of invertible circulants
                counted = enumerate_units(GroupRingEnum(cyclic(p), ctx))
                assert counted == rep.unit_count
                assert rep.agree == (counted == rep.formula_value)
                oracle_cases += 1
    assert cases == 27
    _report(1, f"{cases} (p, q) pairs consistent, {oracle_cases} oracle-verified")


def test_criterion_2_unit_counts_small_group_rings():
    F2 = parse_field("F2")
    for p, expected in ((3, 3), (7, 49)):
        by_formula = gr_unit_count(cyclic(p), F2)
        by_enumeration = enumerate_units(GroupRingEnum(cyclic(p), F2))
        assert by_formula == by_enumeration == expected
    assert 3 == (2 - 1) * (2**2 - 1)
    assert 49 == (2 - 1) * (2**3 - 1) ** 2
    _report(2, "|F2[C3]^x| = 3 and |F2[C7]^x| = 49, formula == enumeration")


def test_criterion_3_join_unit_count_three_ways():
    shape = parse_shape_spec("join(C3,C5;F2)")
    closed_form = thm_unit_count_rooted(shape)
    decomposition = join_unit_count(shape)  # |GL_2(F_2)| * |F_4^x| * |F_16^x|
    enumerated = enumerate_units(JoinRingEnum(shape))
    assert closed_form == decomposition == enumerated == 270
    _report(3, "270 by closed form, by decomposition product, by enumeration")


def test_criterion_4_zeta_pole_orders():
    rooted = [3, 5, 11]
    for d in (1, 2, 3):
        shape = parse_shape_spec(
            "join(" + ",".join(f"C{p}" for p in rooted[:d]) + ";F2)"
        )
        assert zeta_join(shape).pole_order_at_zero() == d + 1
        # swapping any single prime for 7 (not 2-rooted) raises the pole order
        for i in range(d):
            primes = rooted[:d].copy()
            primes[i] = 7
            bad = parse_shape_spec(
                "join(" + ",".join(f"C{p}" for p in primes) + ";F2)"
            )
            assert zeta_join(bad).pole_order_at_zero() > d + 1
    _report(4, "pole order d+1 for rooted prime blocks, larger once 7 enters")


def test_criterion_5_decomposition_idempotents():
    specs = [
        "join(C3,C5;F2)",      # dim 10
        "join(C3,C3;F2)",      # dim 8
        "join(C5;F2)",         # dim 5
        "join(C7;F2)",         # dim 7
        "join(C2,C2;F3)",      # dim 6
        "join(C4,C2;F3)",      # dim 8
        "join(C2,C2,C2;F3)",   # dim 12
        "join(C2xC2,C4;F3)",   # dim 10
        "join(C8;F3)",         # dim 8
    ]
    checked = 0
    for spec in specs:
        shape = parse_shape_spec(spec)
        assert shape.dimension() <= 12
        subs = [g.full_subgroup() for g in shape.groups]
        idems = join_idempotents(shape, subs)
        zero, one, total = shape.zero(), shape.one(), shape.zero()
        q = shape.ctx.q
        basis = [JoinRingEnum(shape).element(q**i) for i in range(shape.dimension())]
        for i, e in enumerate(idems):
            assert e * e == e
            total = total + e
            for j, f in enumerate(idems):
                if i != j:
                    assert e * f == zero
            # centrality on a spanning set is centrality everywhere
            for x in basis:
                assert e * x == x * e
        assert total == one
        checked += 1
    _report(5, f"idempotents central/orthogonal/summing to 1 in {checked} shapes")


def test_criterion_6_block_formula_vs_matrix_oracle():
    specs = [
        "join(C3,C5;F2)",
        "join(S3,C2;F3)",        # a non-abelian block
        "join(trivial,C3;F5)",   # a trivial block
        "join(C2,C2,C2;F2)",
        "join(C4;F3)",
    ]
    rng = random.Random(20240817)
    pairs_per_shape = 2000
    total = 0
    for spec in specs:
        shape = parse_shape_spec(spec)
        for _ in range(pairs_per_shape):
            a = random_join_element(shape, rng)
            b = random_join_element(shape, rng)
            expected = linalg.mat_mul(join_embed(a), join_embed(b), shape.ctx)
            assert join_embed(a * b) == expected
            total += 1
    assert total == 10_000
    _report(6, f"{total} random products match the matrix embedding")


def test_criterion_7_delta_classifier_vs_oracle():
    qs = (2, 3, 4, 5, 7, 8, 9)
    ps = (2, 3, 7)
    rs = (1, 2, 3)
    checked = 0
    witnessed = set()
    for q in qs:
        ctx = parse_field(f"F{q}")
        groups = [g for n in range(1, 17) for g in abelian_groups_of_order(n)]
        groups += [parse_group_spec("S3"), parse_group_spec("Q8")]
        for group in groups:
            if q**group.order > 4096:
                continue
            ring = GroupRingEnum(group, ctx)
            orders = [t for _, t in unit_orders(ring)]
            for p in ps:
                for r in rs:
                    c = classify_group_algebra_delta(q, group, p, r)
                    assert c.verdict is not None
                    oracle_verdict = all(p**r % t == 0 for t in orders)
                    assert c.verdict == oracle_verdict, (q, group.name, p, r)
                    checked += 1
                    if c.verdict:
                        witnessed.add((q, group.name, p, r))
    # named positive witnesses
    assert (3, "C2xC2", 2, 1) in witnessed
    assert (4, "C3", 3, 1) in witnessed
    assert (5, "C4", 2, 2) in witnessed  # Fermat-case instance
    # Fermat/q=9 family beyond the oracle cap still classifies positively
    assert classify_group_algebra_delta(9, parse_group_spec("C2xC8"), 2, 3).verdict
    # named negative witness with its order-4 counterexample unit
    ok, witness, order = is_delta_n(unit_orders(GroupRingEnum(cyclic(4), parse_field("F2"))), 2)
    assert not ok and order == 4
    _report(7, f"{checked} (q, G, p, r) classifications agree with enumeration")


def test_criterion_8_join_delta_instances():
    F2 = parse_field("F2")
    shape = parse_shape_spec("join(C2,C2;F2)")
    ring = JoinRingEnum(shape)
    assert ring.size == 64
    ok, _, _ = is_delta_n(unit_orders(ring), 2)
    assert ok
    assert classify_join_delta(shape, 2, 1).verdict

    bad = parse_shape_spec("join(trivial,trivial;F2)")
    bad_ring = JoinRingEnum(bad)
    # this join is all of M_2(F_2); it has units of order 3
    assert units_of_order(unit_orders(bad_ring), 3) > 0
    for r in (1, 2, 5):
        c = classify_join_delta(bad, 2, r)
        assert not c.verdict and "at_most_one_trivial" in c.case
    _report(8, "every unit of join(C2,C2;F2) squares to 1; double-trivial join rejected")


def test_criterion_9_semimagic():
    F2 = parse_field("F2")
    sm3 = semimagic_ring(3, F2)
    assert sm3.size == 32
    assert enumerate_units(sm3) == 6  # |F_2^x| * |GL_2(F_2)|
    for n in (1, 2, 3, 4):
        for q in (2, 3, 4):
            z = zeta_semimagic(n, q)
            if n == 1:
                expected = {1: -1}
            elif n == 2 and q % 2 == 0:
                expected = {1: -1}
            else:
                expected = {1: -2}
            assert z.factors == expected, (n, q)
    _report(9, "SM3(F2) has 6 units; all 12 semimagic zeta cases match")


def test_criterion_10_unit_factorization_and_radical():
    F2, F3 = parse_field("F2"), parse_field("F3")
    suite = [
        GroupRingEnum(cyclic(2), F2),
        GroupRingEnum(cyclic(3), F2),
        GroupRingEnum(cyclic(4), F2),
        GroupRingEnum(cyclic(6), F2),
        GroupRingEnum(cyclic(2), F3),
        GroupRingEnum(parse_group_spec("C2xC2"), F3),
        semimagic_ring(2, F2),
        semimagic_ring(2, F3),
        semimagic_ring(3, F2),
        JoinRingEnum(parse_shape_spec("join(C2,C2;F2)")),
        JoinRingEnum(parse_shape_spec("join(trivial,trivial;F2)")),
    ]
    for ring in suite:
        units, rad, image = semisimple_unit_factorization(ring)
        assert units == rad * image, repr(ring)
    rad4 = jacobson_radical(GroupRingEnum(cyclic(4), F2))
    assert len(rad4) == 8
    assert all(x.aug_total() == 0 for x in rad4)
    _report(10, f"|R^x| = |Rad| * |image| in {len(suite)} rings; Rad(F2[C4]) = aug ideal")
