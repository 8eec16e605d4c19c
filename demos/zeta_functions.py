"""Zeta functions of group rings and join rings.

The zeta function of a finite algebra R is a finite product of factors
(1 - q^{-ns})^{-1}, one for each simple component of R/J with centre
F_{q^n}.  Its pole order at s = 0 counts the simple components.
"""

from joinrings import (
    cyclic,
    parse_field,
    parse_group_spec,
    parse_shape_spec,
    zeta_group_ring,
    zeta_join,
    zeta_semimagic,
)

F2 = parse_field("F2")

print("group rings over F_2:")
for n in (3, 5, 6, 7, 15):
    z = zeta_group_ring(cyclic(n), F2)
    print(f"  F_2[Z/{n:>2}]: {z.pretty():45}  pole order {z.pole_order_at_zero()}")

print("\nS3 (p-regular classes under C -> C^q, the Witt-Berman theorem):")
for field in ("F5", "F2"):
    z = zeta_group_ring(parse_group_spec("S3"), parse_field(field))
    print(f"  {field}[S3]: {z.pretty():20}  pole order {z.pole_order_at_zero()}")

print("\njoin rings (blocks of 2-rooted primes give pole order d+1):")
for spec in ("join(C3;F2)", "join(C3,C5;F2)", "join(C3,C5,C11;F2)",
             "join(C7;F2)", "join(C3,C7;F2)"):
    z = zeta_join(parse_shape_spec(spec))
    print(f"  {spec:22} pole order {z.pole_order_at_zero()}")

print("\nsemimagic squares (all row and column sums equal):")
for n in (1, 2, 3, 4):
    for q in (2, 3):
        z = zeta_semimagic(n, q)
        print(f"  SM_{n}(F_{q}): {z.pretty()}")
