"""Frozen copy of the chaincat package, the benchmark's control.

The benchmark makes each call of a workload with this copy and with the live
``src/chaincat`` back to back, and reports the live time as a ratio to it, so
that drift in the host's speed cancels.  Never edit these files: a
change here moves every figure the benchmark reports.

Original package docstring: order-preserving transformation semigroups on a
finite chain, the categories built from their principal ideals, and the cone
semigroups over them, with exhaustive desk-scale verification."""

from .chain import (
    BlockMap,
    OPMap,
    OrderedPartition,
    SubMap,
    Subset,
    compose,
    enumerate_oxn,
    green,
    idempotent_for_image,
    idempotent_for_kernel,
    image,
    kernel,
    restrict,
    retraction_for_inclusion,
    separator_idempotent,
)
from .cones import Cone, Functor, cone_mul, cone_semigroup, enumerate_normal_cones, is_normal, mset, validate_cone
from .ideals import (
    LCategory,
    LMorphism,
    LObject,
    RCategory,
    RMorphism,
    RObject,
    l_compose,
    l_morphism_from_triple,
    l_normal_factorize,
    phi_representation,
    r_compose,
    r_morphism_from_triple,
)
from .partitions import (
    BarElement,
    PartitionCategory,
    PiMorphism,
    PiObject,
    factorize_pi,
    functor_g,
    pi_compose,
    pi_inclusion_and_retraction,
    pi_leq,
)
from .powerset import PowersetCategory, cone_to_opmap, functor_f
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
