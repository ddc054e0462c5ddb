"""The category of proper subsets of the chain with monotone maps between
them, and the reading of its normal cones back as whole-chain maps.

It is the left-ideal category with every hom-set enumerated instead of
computed from sandwich sets; the F-iso check compares the two sources."""

from __future__ import annotations

from .chain import OPMap, SubMap, Subset, submaps_between
from .cones import Cone, mset
from .ideals import LCategory


class PowersetCategory(LCategory):
    """Proper nonempty subsets of 1..n with all monotone maps as morphisms;
    subobjects are set inclusions.

    The left-ideal category with each hom-set enumerated combinatorially
    instead of computed from sandwich sets.
    """

    def _compute_hom(self, a: Subset, b: Subset):
        return submaps_between(a, b)

    def morphism_label(self, f: SubMap) -> str:
        return str(f)


def cone_to_opmap(gamma: Cone) -> OPMap:
    """Read a normal cone back off as a whole-chain map via its components at
    singletons."""
    cat = gamma.category
    if not isinstance(cat, PowersetCategory):
        raise ValueError("expected a cone over the powerset category")
    if not mset(gamma):
        raise ValueError("cone is not normal")
    return _read_opmap(gamma)


def _read_opmap(gamma: Cone) -> OPMap:
    """``cone_to_opmap`` for a cone already known to be a normal cone over
    the powerset category, such as an element of a cone semigroup."""
    n = gamma.category.n
    return OPMap(tuple(gamma.component(Subset(n, (x,)))(x) for x in range(1, n + 1)))
