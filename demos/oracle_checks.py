"""Brute-force replay of the closed-form results.

Every formula in the library can be checked by exhaustively enumerating a
small ring.  This script replays unit counts, unit-group exponents, the
Jacobson radical, and the unit-count factorization |R^x| = |Rad| * |image|.
"""

from joinrings import cyclic, gr_unit_count, parse_field, parse_shape_spec
from joinrings.oracle import (
    GroupRingEnum,
    JoinRingEnum,
    enumerate_units,
    jacobson_radical,
    semimagic_ring,
    semisimple_unit_factorization,
    unit_group_exponent,
    unit_orders,
)

F2 = parse_field("F2")
F3 = parse_field("F3")

print("unit counts: formula vs exhaustive enumeration")
for n in (3, 5, 7, 9):
    ring = GroupRingEnum(cyclic(n), F2)
    print(f"  F_2[Z/{n}]: formula {gr_unit_count(cyclic(n), F2):>4}, "
          f"enumerated {enumerate_units(ring):>4}")

shape = parse_shape_spec("join(C3,C5;F2)")
ring = JoinRingEnum(shape)
print(f"\n{shape!r}: {enumerate_units(ring)} units among {ring.size} elements")

print("\nunit-group exponents:")
for n in (2, 4, 8):
    ring = GroupRingEnum(cyclic(n), F2)
    print(f"  F_2[Z/{n}]: exponent {unit_group_exponent(unit_orders(ring))}")

print("\nJacobson radical via quasi-regularity:")
for ring in (GroupRingEnum(cyclic(3), F2), GroupRingEnum(cyclic(4), F2),
             semimagic_ring(3, F2)):
    rad = jacobson_radical(ring)
    units, rsize, image = semisimple_unit_factorization(ring)
    print(f"  {ring!r}: |Rad| = {len(rad)}, "
          f"|R^x| = {units} = {rsize} * {image}")
