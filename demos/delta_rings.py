"""Rings in which every unit satisfies u^(p^r) = 1.

For a finite field this is just (q-1) | p^r, but solving that Diophantine
condition produces a striking case list: Fermat primes, Mersenne primes,
q = 9, and q = 2.  Group algebras and join rings inherit refined versions
of the same cases.
"""

from joinrings import (
    classify_field_delta,
    classify_group_algebra_delta,
    classify_join_delta,
    parse_group_spec,
    parse_shape_spec,
)

print("fields F_q with every unit satisfying u^(p^r) = 1:")
for q, p, r in ((4, 3, 1), (8, 7, 1), (9, 2, 3), (17, 2, 4), (5, 2, 2),
                (5, 3, 2), (2, 13, 1)):
    c = classify_field_delta(q, p, r)
    verdict = "yes" if c.verdict else "no "
    extra = f" (strict exponent {c.strict_n})" if c.strict_n else ""
    print(f"  F_{q:<3} p={p:<2} r={r}:  {verdict} {c.case}{extra}")

print("\ngroup algebras (a Mersenne-prime detector):")
print("  p is Mersenne iff F_2[(Z/p)^s] has all unit orders dividing p:")
for p in (3, 7, 31, 5, 11, 13):
    c = classify_group_algebra_delta(2, parse_group_spec(f"C{p}"), p, 1)
    print(f"    p = {p:>2}: {'yes' if c.verdict else 'no'}")

print("\nmore group algebras:")
for q, g, p, r in ((3, "C2xC2", 2, 1), (2, "C4", 2, 1), (2, "C4", 2, 2),
                   (9, "C2xC8", 2, 3), (2, "Q8", 2, 2)):
    c = classify_group_algebra_delta(q, parse_group_spec(g), p, r)
    print(f"  F_{q}[{g}] p={p} r={r}: {'yes' if c.verdict else 'no'} — {c.case}")

print("\njoin rings (d >= 2 forces p = q = 2):")
for spec, p, r in (("join(C2,C2;F2)", 2, 1), ("join(C2,C4;F2)", 2, 2),
                   ("join(trivial,trivial;F2)", 2, 4), ("join(C2,C2;F3)", 2, 1)):
    shape = parse_shape_spec(spec)
    c = classify_join_delta(shape, p, r)
    print(f"  {spec:28} p={p} r={r}: {'yes' if c.verdict else 'no'} — {c.case}")
