"""Number-theoretic predicates and the unit-group classification results.

Two families of results live here: the q-rooted-prime equivalences (three
independently computed conditions that provably agree), and the
classification of fields, group algebras, and join algebras in which every
unit u satisfies u^(p^r) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import gcd, prod

from . import oracle
from .errors import (
    AlgebraError,
    EnumerationCapError,
    InternalConsistencyError,
)
from .ffield import parse_field
from .groups import FiniteGroup, cyclic
from .groupring import wedderburn_abelian
from .joinring import JoinShape, join_unit_count, thm_unit_count_rooted
from .ntheory import (
    is_fermat_prime,
    is_mersenne_prime,
    is_prime,
    is_q_rooted,
    prime_power,
)
from .zeta import zeta_join

# ---------------------------------------------------------------------------
# rooted primes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootedReport:
    """Three equivalent conditions on primes p_1..p_d relative to base q.

    Each condition is computed by an independent code path; disagreement is
    a fatal internal error, never a report outcome.
    """

    primes: tuple[int, ...]
    q: int
    rooted_flags: tuple[bool, ...]
    all_rooted: bool
    pole_order: int
    pole_matches: bool  # pole order of the join zeta equals d + 1
    unit_count: int
    formula_value: int
    formula_matches: bool
    agree: bool = field(init=False)

    def __post_init__(self):
        verdicts = {self.all_rooted, self.pole_matches, self.formula_matches}
        if len(verdicts) != 1:
            raise InternalConsistencyError(
                f"rooted-prime conditions disagree for primes={self.primes}, "
                f"q={self.q}: rooted={self.all_rooted}, "
                f"pole={self.pole_matches}, count={self.formula_matches}"
            )
        object.__setattr__(self, "agree", verdicts.pop())

    def to_json(self) -> dict:
        return {
            "primes": list(self.primes),
            "q": self.q,
            "conditions": {
                "all_rooted": {
                    "value": self.all_rooted,
                    "per_prime": list(self.rooted_flags),
                },
                "pole_order": {
                    "value": self.pole_matches,
                    "pole": self.pole_order,
                    "expected": len(self.primes) + 1,
                },
                "unit_count": {
                    "value": self.formula_matches,
                    "count": self.unit_count,
                    "formula": self.formula_value,
                },
            },
            "verdict": self.agree,
        }


def rooted_equivalence_report(primes, q: int) -> RootedReport:
    """Evaluate the three equivalent rooted-prime conditions independently.

    (1) every p_i satisfies ord_{p_i}(q) = p_i - 1;
    (2) the join zeta function has a pole of order exactly d + 1 at s = 0;
    (3) the unit count of the join ring equals
        prod(q^{p_i - 1} - 1) * prod_{i<d}(q^d - q^i).
    """
    primes = tuple(primes)
    if not primes:
        raise AlgebraError("the rooted conditions need at least one prime")
    if len(set(primes)) != len(primes):
        raise AlgebraError(f"primes must be distinct, got {primes}")
    pp = prime_power(q)
    if pp is None:
        raise AlgebraError(f"q must be a prime power, got {q}")
    char = pp[0]
    for p in primes:
        if not is_prime(p):
            raise AlgebraError(f"{p} is not prime")
        if p % char == 0:
            raise AlgebraError(f"prime {p} equals the characteristic of F_{q}")

    # cyclic(p) refuses a prime above the group order cap before any flag
    shape = JoinShape([cyclic(p) for p in primes], parse_field(f"F{q}"))
    rooted_flags = tuple(is_q_rooted(p, q) for p in primes)
    d = len(primes)

    pole = zeta_join(shape).pole_order_at_zero()
    count = join_unit_count(shape)
    formula = thm_unit_count_rooted(shape)

    return RootedReport(
        primes=primes,
        q=q,
        rooted_flags=rooted_flags,
        all_rooted=all(rooted_flags),
        pole_order=pole,
        pole_matches=(pole == d + 1),
        unit_count=count,
        formula_value=formula,
        formula_matches=(count == formula),
    )


def trivial_unit_count_of_order_p(p: int, q: int) -> int:
    """Count trivial units a*g of order exactly p in F_q[Z/p], by enumeration.

    A trivial unit is a nonzero scalar times a group element; its p-th power
    is a^p, so the count is p * #{a in F_q^x : a^p = 1} minus the identity.
    Enumerated literally rather than via that closed form.
    """
    _check_prime_pair(p, q)
    ctx = parse_field(f"F{q}")
    count = 0
    for a in range(1, q):
        for g in range(p):
            if ctx.pow(a, p) == 1 and not (a == 1 and g == 0):
                count += 1
    return count


def units_of_order_p_expected(p: int, q: int) -> int:
    """Count of units u != 1 with u^p = 1 in F_q[Z/p], from the group structure.

    The unit group is the product over the components (1, t, a) of
    :func:`wedderburn_abelian` of (F_{q^t}^x)^a, cyclic groups of order
    q^t - 1, each with gcd(p, q^t - 1) elements u with u^p = 1.
    """
    _check_prime_pair(p, q)
    structure = wedderburn_abelian(cyclic(p), parse_field(f"F{q}"))
    return prod(gcd(p, q**t - 1) ** a for _, t, a in structure.components) - 1


def _check_prime_pair(p: int, q: int) -> None:
    if not is_prime(p) or not is_prime(q):
        raise AlgebraError(f"expected distinct primes, got p={p}, q={q}")
    if p == q:
        raise AlgebraError(f"p must differ from the characteristic, got p=q={p}")


# ---------------------------------------------------------------------------
# Delta_{p^r} classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaClassification:
    """Verdict on whether every unit of the subject satisfies u^(p^r) = 1.

    verdict None means the deciding exponent is beyond the enumeration cap.
    strict_n, when set, is the least n such that every unit satisfies
    u^n = 1 (only populated where the classification pins it down).
    """

    subject: str
    p: int
    r: int
    verdict: bool | None
    case: str
    strict_n: int | None = None
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _field_case(q: int, p: int, r: int):
    """Case analysis for F_q: returns (verdict, label, strict_n)."""
    if q == 2:
        return True, "q = 2 (unit group trivial)", 1
    fermat, n = is_fermat_prime(q)
    if fermat and p == 2 and r >= 2**n:
        return True, f"Fermat prime q = 2^(2^{n}) + 1", q - 1
    mersenne, a = is_mersenne_prime(p)
    if mersenne and q == p + 1:
        return True, f"Mersenne prime p = 2^{a} - 1, q = p + 1", p
    if p == 2 and q == 9 and r >= 3:
        return True, "q = 9, r >= 3", 8
    return False, "no case", None


def classify_field_delta(q: int, p: int, r: int) -> DeltaClassification:
    """Decide whether F_q is a Delta_{p^r} field, with the matching case.

    The case analysis (Fermat / Mersenne / q=9 / q=2, the only solutions of
    the underlying Catalan equation) is cross-checked against raw
    divisibility (q - 1) | p^r.
    """
    _check_delta_args(q, p, r)
    verdict, label, strict_n = _field_case(q, p, r)
    raw = pow(p, r, q - 1) == 0
    if verdict != raw:
        raise InternalConsistencyError(
            f"field case analysis ({verdict}) disagrees with divisibility "
            f"({raw}) for q={q}, p={p}, r={r}"
        )
    return DeltaClassification(
        subject=f"F{q}",
        p=p,
        r=r,
        verdict=verdict,
        case=label,
        strict_n=strict_n,
        evidence={"divides": raw, "q_minus_1": q - 1},
    )


def classify_group_algebra_delta(
    q: int, group: FiniteGroup, p: int, r: int, cap: int = oracle.DEFAULT_CAP
) -> DeltaClassification:
    """Decide whether F_q[G] is a Delta_{p^r} ring.

    Matches the six-way case analysis (Fermat / Mersenne over F_{p+1} /
    Mersenne over F_2 / q=3 with exponent 4 or 8 / q=9 / modular
    characteristic-2 case), or q = 2 with G trivial, then cross-checks
    against an independently computed unit-group exponent wherever one is
    available.  The modular
    case q = p = 2 with G non-abelian defers to exhaustive enumeration and
    reports verdict None when that is infeasible.
    """
    _check_delta_args(q, p, r)
    char = prime_power(q)[0]
    subject = f"F{q}[{group.name}]"

    if not group.is_p_group(p):
        return DeltaClassification(
            subject, p, r, False, "no case (G is not a p-group)",
            evidence={"group_exponent": group.exponent()},
        )

    exp_g = group.exponent()

    if p == char:
        # modular case: only q = 2 can work
        if q != 2:
            return DeltaClassification(subject, p, r, False, "no case (characteristic p with q > 2)",
                                       evidence={"q_minus_1": q - 1})
        if group.is_abelian:
            # every normalized unit's order divides exp(G), and G embeds
            e, label = exp_g, "q = p = 2, abelian (exponent of G decides)"
        else:
            try:
                e = oracle.exp_U1(group, parse_field("F2"), cap)
            except EnumerationCapError:
                return DeltaClassification(
                    subject, p, r, None,
                    "unknown (enumeration infeasible)",
                    evidence={"size": 2**group.order, "cap": cap},
                )
            label = "q = p = 2 (normalized-unit exponent by enumeration)"
        verdict = pow(p, r, e) == 0
        return DeltaClassification(subject, p, r, verdict, label, e if verdict else None, {"exp_U1": e})

    # coprime case: semisimple
    if not group.is_abelian:
        # non-commutative semisimple algebras always have a matrix block
        return DeltaClassification(
            subject, p, r, False, "no case (G non-abelian, (p, q) != (2, 2))",
        )

    unit_exp = wedderburn_abelian(group, parse_field(f"F{q}")).exponent()
    reference = pow(p, r, unit_exp) == 0

    verdict, label = _group_algebra_case(q, p, r, exp_g)
    if verdict != reference:
        raise InternalConsistencyError(
            f"case analysis ({verdict}) disagrees with the unit-group "
            f"exponent {unit_exp} for {subject}, p={p}, r={r}"
        )
    return DeltaClassification(
        subject, p, r, verdict, label,
        strict_n=unit_exp if verdict else None,
        evidence={"unit_group_exponent": unit_exp, "group_exponent": exp_g},
    )


def _group_algebra_case(q: int, p: int, r: int, exp_g: int):
    """Case analysis for abelian p-groups in the coprime case: the six
    cases, then F_2[1] = F_2, whose one unit satisfies every u^n = 1."""
    fermat, n = is_fermat_prime(q)
    if fermat and p == 2 and r >= 2**n and (q - 1) % exp_g == 0:
        return True, f"Fermat prime q = 2^(2^{n}) + 1, exp(G) | 2^(2^{n})"
    mersenne, a = is_mersenne_prime(p)
    elementary = exp_g in (1, p)
    if mersenne and q == p + 1 and elementary:
        return True, f"Mersenne prime p = 2^{a} - 1, q = p + 1, G elementary abelian"
    if mersenne and q == 2 and elementary:
        return True, f"Mersenne prime p = 2^{a} - 1, q = 2, G elementary abelian"
    if p == 2 and q == 3 and r >= 3 and exp_g in (4, 8):
        return True, "q = 3, r >= 3, exp(G) in {4, 8}"
    if p == 2 and q == 9 and r >= 3 and exp_g in (1, 2, 4, 8):
        return True, "q = 9, r >= 3, exp(G) <= 8"
    if q == 2 and exp_g == 1:
        return True, "q = 2, G trivial (unit group trivial)"
    return False, "no case"


def classify_join_delta(
    shape: JoinShape, p: int, r: int, cap: int = oracle.DEFAULT_CAP
) -> DeltaClassification:
    """Decide whether a join ring with d >= 2 blocks is a Delta_{p^r} ring.

    Conjunction of four conditions over the shape's field F_q: p = q = 2;
    every block group a 2-group; at most one trivial block; 2^r divisible
    by the unit-group exponent E, which is computed only under the first
    three.  d = 1 delegates to the group algebra classifier.

    E is the largest exp_U1(G_i) over the nontrivial blocks, raised to 4
    when a trivial block t is present.  Under the first three conditions,
    x -> (x_t, eps(x_i)) is a ring map onto F_2^d, since every |G_k| other
    than 1 is even, so the radical J is its kernel, U = 1 + J, and
    (1 + x)^(2^m) = 1 + x^(2^m) in characteristic 2.  For x in J, x^2 has
    diagonal blocks x_i^2 + a_it a_ti (all-ones) and off-diagonal scalars
    a_it a_tj, and x^3 is diagonal with blocks x_i^3; without a trivial
    block x^2 is already diagonal.  So the largest nilpotency index in J
    is the blocks' largest, and at least 3 when a trivial block is
    present: the unit whose embedding is [[1,1,1],[1,1,0],[1,0,1]] in
    join(trivial,C2;F2) has order 4.  Each exp_U1 is exp(G) for abelian G
    and enumerated otherwise; the join itself is never enumerated.
    """
    q = shape.ctx.q
    _check_delta_args(q, p, r)
    if shape.d == 1:
        return classify_group_algebra_delta(q, shape.groups[0], p, r, cap)
    subject = repr(shape)

    conditions = {"p_q_both_2": p == 2 and q == 2}
    conditions["blocks_2_groups"] = all(g.is_p_group(2) for g in shape.groups)
    trivial_count = sum(1 for g in shape.groups if g.order == 1)
    conditions["at_most_one_trivial"] = trivial_count <= 1

    exponents = exponent = None
    if conditions["p_q_both_2"] and conditions["blocks_2_groups"]:
        # a group met in several blocks is classified, and enumerated, once
        classified = {g: classify_group_algebra_delta(2, g, 2, r, cap)
                      for g in dict.fromkeys(shape.groups)}
        blocks = [classified[g] for g in shape.groups]
        if any(block.verdict is None for block in blocks):
            return DeltaClassification(
                subject, p, r, None,
                "unknown (block enumeration infeasible)",
                evidence={"conditions": conditions},
            )
        exponents = [block.evidence["exp_U1"] for block in blocks]
        if conditions["at_most_one_trivial"]:  # else E is not the unit exponent
            exponent = max(exponents)  # powers of 2, so also their lcm; a trivial block's is 1
            if trivial_count:
                exponent = max(exponent, 4)
    conditions["exponent_bound"] = exponent is not None and pow(2, r, exponent) == 0

    verdict = all(conditions.values())
    if verdict:
        label = "q = p = 2 join of 2-groups"
    else:
        failed = [k for k, v in conditions.items() if not v]
        label = "no case (failed: " + ", ".join(failed) + ")"
    evidence = {"conditions": conditions, "trivial_blocks": trivial_count}
    if exponents is not None:
        evidence["block_U1_exponents"] = exponents
    if exponent is not None:
        evidence["unit_group_exponent"] = exponent
    return DeltaClassification(subject, p, r, verdict, label, exponent if verdict else None, evidence)


def _check_delta_args(q: int, p: int, r: int) -> None:
    if prime_power(q) is None:
        raise AlgebraError(f"q must be a prime power, got {q}")
    if not is_prime(p):
        raise AlgebraError(f"p must be prime, got {p}")
    if r < 1:
        raise AlgebraError(f"r must be >= 1, got {r}")
