"""Join rings of group rings over finite fields.

Exact arithmetic in F_{p^k}, finite groups as Cayley tables, group rings
with the circulant embedding, join rings with block multiplication, zeta
functions, rooted-prime equivalences, unit-group classification, and
brute-force enumeration oracles that replay every closed form.
"""

from .arith import (
    DeltaClassification,
    RootedReport,
    classify_field_delta,
    classify_group_algebra_delta,
    classify_join_delta,
    rooted_equivalence_report,
    trivial_unit_count_of_order_p,
    units_of_order_p_expected,
)
from .errors import (
    AlgebraError,
    ContextMismatchError,
    EnumerationCapError,
    InternalConsistencyError,
    NotInvertibleError,
    NotNormalError,
    NotSubgroupError,
    ParseError,
)
from .ffield import FieldCtx, parse_field
from .groupring import (
    GroupRingElem,
    Structure,
    augmentation,
    circulant_rows,
    format_element,
    gr_decompose,
    gr_inverse,
    gr_is_unit,
    gr_unit_count,
    idempotent_eH,
    parse_element,
    wedderburn_abelian,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    abelian,
    abelian_groups_of_order,
    cyclic,
    from_table,
    parse_group_spec,
    quaternion,
    symmetric,
    trivial,
)
from .joinring import (
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
    join_mul,
    join_unembed,
    join_unit_count,
    parse_join_element,
    parse_shape_spec,
    random_join_element,
    thm_unit_count_rooted,
)
from .ntheory import (
    euler_phi,
    factorize,
    is_fermat_prime,
    is_mersenne_prime,
    is_prime,
    is_q_rooted,
    ord_mod,
    prime_power,
)
from .zeta import (
    ZetaFunction,
    zeta_field,
    zeta_group_ring,
    zeta_join,
    zeta_matrix_ring,
    zeta_semimagic,
)

__version__ = "0.1.0"
