"""The category of proper subsets of the chain with monotone maps between
them, and its vertex cones.

It is the left-ideal category with every hom-set enumerated instead of
computed from sandwich sets; the F-iso check compares the two sources."""

from __future__ import annotations

from .chain import OPMap, SubMap, Subset, image, submaps_between
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

    def vertex_cone(self, a: Subset, u: OPMap) -> Cone:
        """The cone at vertex a whose components restrict a map u that fixes
        a pointwise and lands inside it; its vertex component is the
        identity, so it is idempotent under cone multiplication.  The two
        conditions make a the image of u, so this is the principal cone of u."""
        if any(u(x) != x for x in a):
            raise ValueError(f"{u} does not fix {a} pointwise")
        if not image(u).issubset(a):
            raise ValueError(f"image of {u} is not contained in {a}")
        return self.principal_cone(u)


def cone_to_opmap(gamma: Cone) -> OPMap:
    """Read a normal cone back off as a whole-chain map via its components at
    singletons."""
    cat = gamma.category
    if not isinstance(cat, PowersetCategory):
        raise ValueError("expected a cone over the powerset category")
    if not mset(gamma):
        raise ValueError("cone is not normal")
    n = cat.n
    values = tuple(gamma.component(Subset(n, (x,)))(x) for x in range(1, n + 1))
    return OPMap(values)

