"""Exact computational engine for ordered modules over finite group rings.

Builds finite groups from tables, does arithmetic in their integral group
rings and coset modules, orders direct sums of coset modules by the
coordinatewise cone, and connects that order theory to symbolic graded
matricial rings: class groups, graded isomorphism, realization of groups and
of positive class maps by ring data, decomposition and unperforation
witnesses, kernel-controlled factorizations, sequential towers with
horizon-bounded colimit queries, and ordered extensions by a coset module.
"""

from .errors import (
    DeltaMismatch,
    DeltaNotNormal,
    EngineError,
    GroupMismatch,
    IndexOutOfRange,
    InternalVerificationFailed,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotEquivariant,
    NotInCone,
    NotOrderUnit,
    NotPositive,
    NotPositiveMap,
    NotRealizable,
    PreorderViolated,
    ProductNotInCone,
    RelationNotZero,
    SchemaError,
    ShapeMismatch,
    SumMismatch,
    TargetLacksSdp,
    UnitMismatch,
    UnitNotPreserved,
)
from .finite_group import (
    CosetSpace,
    FiniteGroup,
    Subgroup,
    coset_space,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_table,
    klein_four_group,
    normal_closure,
    subgroup_closure,
    trivial_subgroup,
)
from .group_ring import GroupRingElt, lift_vector
from .ordered_simplicial import (
    GammaVector,
    SimplicialGroup,
    group_stabilizer,
    interpolate,
    is_order_unit,
    leq,
    riesz_refine,
)
from .gamma_maps import (
    GammaLinearMap,
    identity_map,
    is_positive_map,
    kernel_lattice,
    kernels_equal,
    map_apply,
    map_compose,
    map_matrix,
    map_new,
)
from .sdp_engine import (
    M1Undecided,
    SdpWitness,
    Verdict,
    sdp_witness,
    search_unperforation_witness_m1,
    unperforation_witness,
    verify_sdp_witness,
    verify_unperforation_witness,
)
from .shen import ShenFactorization, shen_step
from .limits import (
    ColimitAnswer,
    ColimitElt,
    Tower,
    colimit_eq,
    colimit_positive,
    tower_new,
)
from .graded_matricial import (
    MatricialComponent,
    MatricialRingDesc,
    graded_iso,
    homog_dim,
    k0_of_matricial,
    matricial_ring,
)
from .hom_realization import (
    CopyEmbedding,
    HomSpec,
    RealizedSimplicial,
    RealizedTower,
    hom_compose,
    hom_realizable,
    realize_simplicial,
    realize_tower,
    verify_hom_spec,
)
from .extension import (
    ExtendedGroup,
    ext_sdp_witness,
    extend_tower,
)

__version__ = "0.1.0"
