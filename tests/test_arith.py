import json
from itertools import combinations_with_replacement
from math import gcd

import pytest

from joinrings import oracle
from joinrings.arith import (
    classify_field_delta,
    classify_group_algebra_delta,
    classify_join_delta,
    rooted_equivalence_report,
    trivial_unit_count_of_order_p,
    units_of_order_p_expected,
)
from joinrings.errors import AlgebraError
from joinrings.groups import parse_group_spec, trivial
from joinrings.joinring import parse_shape_spec
from joinrings.ntheory import (
    MR_LIMIT,
    euler_phi,
    factorize,
    iroot,
    is_fermat_prime,
    is_mersenne_prime,
    is_prime,
    is_q_rooted,
    ord_mod,
    power,
    prime_power,
)
from joinrings.oracle import JoinRingEnum, unit_group_exponent, unit_orders


def test_ord_mod():
    assert ord_mod(3, 2) == 2
    assert ord_mod(7, 2) == 3
    assert ord_mod(1, 11) == 1
    assert euler_phi(7) % ord_mod(7, 2) == 0
    with pytest.raises(AlgebraError):
        ord_mod(6, 2)
    with pytest.raises(AlgebraError, match="modulus must be positive"):
        ord_mod(0, 2)


def test_power_matches_builtin_pow():
    for n in range(70):
        assert power(3, n, lambda x, y: x * y % 1009, 1) == pow(3, n, 1009)
        assert power("ab", n, str.__add__, "") == "ab" * n
    one = object()
    assert power("ab", 0, str.__add__, one) is one


def test_ord_mod_matches_linear_scan():
    for d in range(1, 151):
        for q in range(1, 31):
            if gcd(d, q) != 1:
                continue
            t, x = 1, q % d
            while x != 1 % d:
                x = x * q % d
                t += 1
            assert ord_mod(d, q) == t, (d, q)


def test_is_q_rooted():
    assert is_q_rooted(3, 2)
    assert is_q_rooted(5, 2)
    assert not is_q_rooted(7, 2)
    assert is_q_rooted(2, 3)
    assert is_q_rooted(3, 8) and is_q_rooted(5, 27)  # prime-power bases
    assert not is_q_rooted(3, 4)
    for p, q in [(3, 3), (2, 4), (3, 6), (4, 5)]:
        with pytest.raises(AlgebraError):
            is_q_rooted(p, q)


def test_mersenne_fermat_witnesses():
    assert is_mersenne_prime(7) == (True, 3)
    assert is_mersenne_prime(31) == (True, 5)
    assert is_mersenne_prime(11) == (False, None)
    assert is_fermat_prime(17) == (True, 2)
    assert is_fermat_prime(3) == (True, 0)
    assert is_fermat_prime(11) == (False, None)
    assert is_fermat_prime(9) == (False, None)


def test_rooted_report_positive():
    rep = rooted_equivalence_report([3, 5], 2)
    assert rep.agree
    assert rep.pole_order == 3
    assert rep.unit_count == rep.formula_value == 270


def test_rooted_report_negative():
    rep = rooted_equivalence_report([7], 2)
    assert not rep.agree
    assert rep.unit_count == 49
    assert rep.formula_value == 63
    assert rep.pole_order > 2


def test_rooted_report_d1_rooted():
    rep = rooted_equivalence_report([3], 2)
    assert rep.agree
    assert rep.unit_count == (2**2 - 1) * (2 - 1)


def test_rooted_report_rejects_char():
    with pytest.raises(AlgebraError):
        rooted_equivalence_report([2], 2)
    with pytest.raises(AlgebraError):
        rooted_equivalence_report([3, 3], 2)


def test_rooted_report_json_fields():
    data = rooted_equivalence_report([3, 5], 2).to_json()
    conds = data["conditions"]
    assert conds["all_rooted"]["per_prime"] == [True, True]
    assert conds["pole_order"]["pole"] == 3
    assert conds["unit_count"]["count"] == 270
    assert data["verdict"] is True


def test_trivial_unit_counts():
    assert trivial_unit_count_of_order_p(3, 2) == 2
    assert units_of_order_p_expected(3, 2) == 2
    assert trivial_unit_count_of_order_p(7, 2) == 6
    assert units_of_order_p_expected(7, 2) == 48
    # p | q - 1 branch; expected count disagrees since 7 is not 3-rooted
    assert trivial_unit_count_of_order_p(3, 7) == 8
    assert units_of_order_p_expected(3, 7) == 26
    with pytest.raises(AlgebraError, match="expected distinct primes"):
        trivial_unit_count_of_order_p(4, 3)
    with pytest.raises(AlgebraError, match="must differ from the characteristic"):
        trivial_unit_count_of_order_p(3, 3)


def test_classify_field_delta_cases():
    c = classify_field_delta(4, 3, 1)
    assert c.verdict and "Mersenne" in c.case and c.strict_n == 3
    c = classify_field_delta(9, 2, 3)
    assert c.verdict and c.strict_n == 8
    c = classify_field_delta(5, 3, 2)
    assert not c.verdict and c.case == "no case"
    c = classify_field_delta(17, 2, 4)
    assert c.verdict and "Fermat" in c.case and c.strict_n == 16
    assert not classify_field_delta(17, 2, 3).verdict
    assert classify_field_delta(2, 13, 1).verdict
    assert not classify_field_delta(9, 2, 2).verdict


def test_classify_field_delta_matches_divisibility_grid():
    from joinrings.ntheory import is_prime, prime_power

    for q in range(2, 129):
        if prime_power(q) is None:
            continue
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for r in (1, 2, 3, 4, 5):
                c = classify_field_delta(q, p, r)  # internal cross-check raises
                assert c.verdict == (p**r % (q - 1) == 0)


def test_trivial_group_algebra_is_its_field():
    # F_q[1] = F_q, so both classifiers agree on every input; q = 2 with a
    # prime p that is not Mersenne is decided by the q = 2, G trivial row
    checked = 0
    for q in range(2, 65):
        if prime_power(q) is None:
            continue
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
            for r in (1, 2, 3, 4, 5):
                group_algebra = classify_group_algebra_delta(q, trivial(), p, r)
                assert group_algebra.verdict == classify_field_delta(q, p, r).verdict, (q, p, r)
                checked += 1
    assert checked == 1350
    c = classify_group_algebra_delta(2, trivial(), 5, 1)
    assert c.case == "q = 2, G trivial (unit group trivial)" and c.strict_n == 1
    assert classify_group_algebra_delta(2, trivial(), 7, 1).case.startswith("Mersenne")


def test_classify_group_algebra_examples():
    assert classify_group_algebra_delta(3, parse_group_spec("C2xC2"), 2, 1).verdict
    c = classify_group_algebra_delta(2, parse_group_spec("C4"), 2, 1)
    assert not c.verdict
    c = classify_group_algebra_delta(4, parse_group_spec("C3"), 3, 1)
    assert c.verdict and c.strict_n == 3
    assert classify_group_algebra_delta(2, parse_group_spec("C3"), 3, 1).verdict
    assert classify_group_algebra_delta(3, parse_group_spec("C8"), 2, 3).verdict
    assert not classify_group_algebra_delta(3, parse_group_spec("C8"), 2, 2).verdict
    assert classify_group_algebra_delta(9, parse_group_spec("C2xC8"), 2, 3).verdict
    assert not classify_group_algebra_delta(2, parse_group_spec("C9"), 3, 1).verdict
    assert not classify_group_algebra_delta(2, parse_group_spec("S3"), 2, 1).verdict
    assert not classify_group_algebra_delta(4, parse_group_spec("C2"), 2, 5).verdict
    c = classify_group_algebra_delta(3, parse_group_spec("Q8"), 2, 3)
    assert c.verdict is False and c.case == "no case (G non-abelian, (p, q) != (2, 2))"


def test_classify_group_algebra_modular_nonabelian_uses_enumeration():
    c = classify_group_algebra_delta(2, parse_group_spec("Q8"), 2, 2)
    assert c.verdict is True and c.strict_n == 4
    assert not classify_group_algebra_delta(2, parse_group_spec("Q8"), 2, 1).verdict


def test_classify_group_algebra_infeasible_returns_unknown():
    # non-abelian modular case needs enumeration; shrink the cap to force
    # the infeasible branch
    c = classify_group_algebra_delta(2, parse_group_spec("Q8"), 2, 2, cap=16)
    assert c.verdict is None
    assert "unknown" in c.case


def test_classify_join_delta():
    sh = parse_shape_spec("join(C2,C2;F2)")
    assert classify_join_delta(sh, 2, 1).verdict
    sh = parse_shape_spec("join(trivial,trivial;F2)")
    c = classify_join_delta(sh, 2, 4)
    assert not c.verdict and "at_most_one_trivial" in c.case
    assert "unit_group_exponent" not in c.evidence  # M_2(F_2) has units of order 3
    sh = parse_shape_spec("join(C2,C2;F3)")
    assert not classify_join_delta(sh, 2, 1).verdict
    sh = parse_shape_spec("join(C2,C4;F2)")
    assert not classify_join_delta(sh, 2, 1).verdict
    assert classify_join_delta(sh, 2, 2).verdict
    # the unit embedded as [[1,1,1],[1,1,0],[1,0,1]] has order 4
    sh = parse_shape_spec("join(trivial,C2;F2)")
    assert not classify_join_delta(sh, 2, 1).verdict
    c = classify_join_delta(sh, 2, 2)
    assert c.verdict and c.strict_n == 4


# every d = 2 or 3 join over F2 of these blocks with dimension at most 12
SWEEP_SHAPES = [
    shape
    for d in (2, 3)
    for blocks in combinations_with_replacement(["trivial", "C2", "C4", "C2xC2", "Q8"], d)
    if (shape := parse_shape_spec(f"join({','.join(blocks)};F2)")).dimension() <= 12
]


@pytest.mark.parametrize("shape", SWEEP_SHAPES, ids=repr)
def test_classify_join_delta_agrees_with_the_unit_orders(shape):
    exponent = unit_group_exponent(unit_orders(JoinRingEnum(shape)))
    for r in (1, 2, 3):
        c = classify_join_delta(shape, 2, r)
        assert c.verdict == (2**r % exponent == 0), (r, exponent)
        assert c.strict_n == (exponent if c.verdict else None)


def test_classify_join_delta_enumerates_each_block_group_once(monkeypatch):
    # both blocks are Q8, so F2[Q8] is enumerated once; the report is the
    # one given when each block was enumerated on its own
    calls = []
    exp_u1 = oracle.exp_U1

    def counted(group, ctx, cap):
        calls.append(group.name)
        return exp_u1(group, ctx, cap)

    monkeypatch.setattr(oracle, "exp_U1", counted)
    c = classify_join_delta(parse_shape_spec("join(Q8,Q8;F2)"), 2, 2)
    assert calls == ["Q8"]
    conditions = {"p_q_both_2": True, "blocks_2_groups": True,
                  "at_most_one_trivial": True, "exponent_bound": True}
    assert json.dumps(c.to_json()) == json.dumps({
        "subject": "join(Q8,Q8;F2)", "p": 2, "r": 2, "verdict": True,
        "case": "q = p = 2 join of 2-groups", "strict_n": 4,
        "evidence": {"conditions": conditions, "trivial_blocks": 0,
                     "block_U1_exponents": [4, 4], "unit_group_exponent": 4}})


def test_classify_join_delta_d1_delegates():
    sh = parse_shape_spec("join(C4;F2)")
    c = classify_join_delta(sh, 2, 2)
    assert c.verdict is True and c.strict_n == 4


def test_delta_classifiers_never_build_p_to_the_r():
    # each divisibility test is pow(p, r, m) == 0, so a huge r costs nothing
    import time

    r = 10**9
    start = time.perf_counter()
    assert classify_field_delta(4, 3, r).verdict
    assert not classify_field_delta(7, 3, r).verdict
    assert classify_group_algebra_delta(3, parse_group_spec("C8"), 2, r).verdict
    assert classify_group_algebra_delta(2, parse_group_spec("C4"), 2, r).verdict
    assert classify_group_algebra_delta(2, parse_group_spec("Q8"), 2, r).verdict
    assert classify_join_delta(parse_shape_spec("join(C2,C4;F2)"), 2, r).verdict
    assert classify_join_delta(parse_shape_spec("join(Q8,C2;F2)"), 2, r).verdict
    assert time.perf_counter() - start < 1.0


def test_delta_args_validated():
    with pytest.raises(AlgebraError):
        classify_field_delta(6, 2, 1)
    with pytest.raises(AlgebraError):
        classify_field_delta(4, 4, 1)
    with pytest.raises(AlgebraError):
        classify_field_delta(4, 3, 0)


def test_is_prime_matches_a_sieve_below_200000():
    n = 200_000
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for f in range(2, int(n**0.5) + 1):
        if sieve[f]:
            sieve[f * f :: f] = bytes(len(range(f * f, n, f)))
    assert [m for m in range(n) if is_prime(m)] == [m for m in range(n) if sieve[m]]


def test_is_prime_large_cases():
    # strong pseudoprimes: 3215031751 to bases 2, 3, 5, 7 and
    # 3825123056546413051 to every prime base up to 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)
    assert is_prime(10**18 + 3)
    assert not is_prime(MR_LIMIT + 1)  # beyond the range, but even
    assert not is_prime((2**61 - 1) * (2**89 - 1))  # beyond it, and a witness shows it
    with pytest.raises(AlgebraError):
        is_prime(2**89 - 1)  # a Mersenne prime beyond the proven range


def test_factorize_stops_trial_division_at_its_bound(monkeypatch):
    from joinrings import ntheory

    bound = ntheory.TRIAL_BOUND
    assert factorize(2**61 - 1) == {2**61 - 1: 1}  # prime: accepted past the bound
    assert factorize(6 * 1000003 * 1000033) == {2: 1, 3: 1, 1000003: 1, 1000033: 1}
    with pytest.raises(AlgebraError, match="no prime factor up to"):
        factorize((2**31 - 1) ** 2)  # both factors above the bound
    with pytest.raises(AlgebraError):
        factorize(2**89 - 1)  # prime, but past the proven range of is_prime
    with pytest.raises(AlgebraError, match="cannot factor 0"):
        factorize(0)

    # below the bound squared trial division ends the search, as it always did
    def refuse(n):
        raise AssertionError(f"is_prime({n}) below the bound squared")

    monkeypatch.setattr(ntheory, "is_prime", refuse)
    assert factorize(1000003 * 1000033) == {1000003: 1, 1000033: 1}
    assert 1000003 * 1000033 < bound * bound


def test_iroot_and_prime_power():
    for n in range(3000):
        for k in range(1, 13):
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k
    for n in range(2, 20_000):
        fac = factorize(n)
        assert prime_power(n) == (next(iter(fac.items())) if len(fac) == 1 else None)
    assert prime_power(3**40) == (3, 40)
    assert prime_power((2**61 - 1) ** 2) == (2**61 - 1, 2)
    assert prime_power(1) is None


@pytest.mark.parametrize("n, expected", [
    (2**4000, (2, 4000)),
    (3**200, (3, 200)),
    ((2**61 - 1) ** 3, (2**61 - 1, 3)),
    (1031**1000, (1031, 1000)),  # no prime factor below the trial bound
    ((1031 * 1033) ** 3, None),
    (2**4000 * 3, None),
    ((2**61 - 1) ** 2 * (2**31 - 1), None),  # a witness shows the root composite
])
def test_prime_power_large(n, expected):
    assert prime_power(n) == expected


def test_prime_power_refuses_long_roots_quickly():
    import time

    start = time.perf_counter()
    with pytest.raises(AlgebraError):
        prime_power(2**2203 - 1)  # a Mersenne prime; one test round takes seconds
    with pytest.raises(AlgebraError):
        prime_power((2**89 - 1) ** 5)  # a prime root beyond the deterministic test
    assert time.perf_counter() - start < 1
