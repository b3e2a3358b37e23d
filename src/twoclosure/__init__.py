"""2-closure computations for finite permutation groups.

Core objects: permutations and generator-given groups with deterministic
stabilizer chains, orbital partitions with definitional closure membership,
an exact 2-closure engine, faithful-action constructions, witness
certificates for non-2-closed groups, and the classification of finite
nilpotent groups that are 2-closed in every faithful representation.
"""

from .actions import (
    ActionHom,
    ActionSpace,
    CosetAction,
    DisjointUnionAction,
    EmbeddedAction,
    ProductSplit,
    QuotientAction,
    action_hom,
    coset_action,
    disjoint_union_action,
    product_action,
    quotient_action,
    universal_embedding,
)
from .catalog import (
    FamilySpec,
    faithful_representations,
    parse_family,
    realize,
    realize_name,
    subgroup_lattice,
)
from .classify import (
    CenterTest,
    CoprimeCertification,
    Verdict,
    center_cyclic_test,
    certify_coprime_product,
    classify_nilpotent,
    is_generalized_quaternion,
    not_two_closed_witness,
)
from .errors import (
    ConstructionFailure,
    CycleParseError,
    GuardExceeded,
    InternalDefect,
    PreconditionError,
)
from .group import (
    ENUMERATION_GUARD,
    PermGroup,
    SubgroupHandle,
    as_subgroup,
    build_group,
    center,
    centralizer,
    core,
    is_cyclic,
    is_nilpotent,
    is_normal,
    order_and_membership,
    order_profile,
    orbits_and_stabilizer,
    sylow_decomposition,
    trivial_group,
)
from .orbital import (
    CLOSURE_DEGREE_GUARD,
    MembershipEvidence,
    OrbitalPartition,
    is_in_two_closure,
    is_two_closed_on,
    membership_evidence,
    orbital_partition,
    two_closure,
    two_equivalent,
)
from .perm import Permutation, from_cycles, identity, parse_cycles
from .witnesses import (
    CERTIFICATE_DEGREE_GUARD,
    WitnessCertificate,
    abelian_basis,
    abelian_p_witness,
    center_witness,
    check_certificate,
    odd_p_witness,
    semidirect_witness,
    two_group_witness,
)

__version__ = "0.1.0"
