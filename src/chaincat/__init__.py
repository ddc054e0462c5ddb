"""Order-preserving transformation semigroups on a finite chain, the
categories built from their principal ideals, and the cone semigroups over
them, with exhaustive desk-scale verification."""

from .chain import (
    BlockMap,
    OPMap,
    OrderedPartition,
    SubMap,
    Subset,
    compose,
    enumerate_oxn,
    green,
    green_class,
    idempotent_for_image,
    idempotent_for_kernel,
    image,
    kernel,
    restrict,
    retraction_for_inclusion,
    separator_idempotent,
)
from .cones import Cone, cone_mul, cone_semigroup, enumerate_normal_cones, mset, validate_cone
from .ideals import (
    LCategory,
    RCategory,
    factorize_pi,
    l_morphism_from_triple,
    phi_representation,
    r_morphism_from_triple,
)
from .partitions import PartitionCategory
from .powerset import PowersetCategory, cone_to_opmap
from .semigroups import (
    ElementMap,
    FiniteSemigroup,
    build,
    find_isomorphism,
    green_oracle,
    is_homomorphism,
    is_regular,
)

__version__ = "0.1.0"
