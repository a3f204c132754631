"""z-classes (conjugacy classes of centralizers) in finite Coxeter groups."""

from .closed_form import (
    ZCountResult,
    z_count,
    z_count_bc,
    z_count_d,
    z_count_dihedral,
    z_count_exceptional,
)
from .combinatorics import (
    Partition,
    SignedPartition,
    delta_prime_set,
    delta_set,
    even_sum_tuple_count,
    partitions_of,
    signed_partitions_of,
    zeta,
)
from .errors import (
    CoxeterParseError,
    CoxeterRankError,
    OrderCapExceeded,
    UnsupportedGroupError,
    ZClassError,
)
from .families import CoxeterType, IrreducibleType, parse_coxeter_type
from .signed_perm import (
    SignedClassLabel,
    SignedPermutation,
    centralizer_order_bc,
    class_representative,
    dn_conjugacy_classes,
    signed_cycle_type,
    z_classes_bc,
    z_classes_dn,
)

__all__ = [
    "CoxeterParseError",
    "CoxeterRankError",
    "CoxeterType",
    "IrreducibleType",
    "OrderCapExceeded",
    "Partition",
    "SignedClassLabel",
    "SignedPartition",
    "SignedPermutation",
    "UnsupportedGroupError",
    "ZClassError",
    "ZCountResult",
    "centralizer_order_bc",
    "class_representative",
    "delta_prime_set",
    "delta_set",
    "dn_conjugacy_classes",
    "even_sum_tuple_count",
    "parse_coxeter_type",
    "partitions_of",
    "signed_cycle_type",
    "signed_partitions_of",
    "z_classes_bc",
    "z_classes_dn",
    "z_count",
    "z_count_bc",
    "z_count_d",
    "z_count_dihedral",
    "z_count_exceptional",
    "zeta",
]
