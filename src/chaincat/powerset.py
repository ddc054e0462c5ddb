"""The category of proper subsets of the chain with monotone maps between
them, its vertex cones, and the functor identifying it with the left-ideal
category."""

from __future__ import annotations

from .chain import (
    OPMap,
    SubMap,
    Subset,
    check_chain_size,
    factorize_submap,
    idempotent_for_image,
    image,
    proper_subsets,
    restrict,
    retraction_for_inclusion,
    submaps_between,
)
from .cones import Cone, FiniteCategory, Functor, mset
from .ideals import LCategory, LMorphism


class PowersetCategory(FiniteCategory):
    """Proper nonempty subsets of 1..n with all monotone maps as morphisms;
    subobjects are set inclusions."""

    def __init__(self, n: int):
        super().__init__()
        self.n = check_chain_size(n)

    def _compute_objects(self):
        return list(proper_subsets(self.n))

    def _compute_hom(self, a: Subset, b: Subset):
        return submaps_between(a, b)

    def compose(self, f: SubMap, g: SubMap) -> SubMap:
        return f.then(g)

    def identity(self, a: Subset) -> SubMap:
        return SubMap.identity(a)

    def leq(self, a: Subset, b: Subset) -> bool:
        return a.issubset(b)

    def inclusion(self, a: Subset, b: Subset) -> SubMap:
        return SubMap.inclusion(a, b)

    def retraction(self, a: Subset, b: Subset) -> SubMap:
        return retraction_for_inclusion(a, b)

    def normal_factorize(self, f: SubMap):
        return factorize_submap(f)

    def is_isomorphism(self, f: SubMap) -> bool:
        return f.is_bijective()

    def idempotent_cone(self, vertex: Subset) -> Cone:
        return self.vertex_cone(vertex, idempotent_for_image(vertex))

    def object_sort_key(self, a: Subset):
        return (-len(a), a.elements)

    def object_label(self, a: Subset) -> str:
        return str(a)

    def morphism_label(self, f: SubMap) -> str:
        return str(f)

    def vertex_cone(self, a: Subset, u: OPMap) -> Cone:
        """The cone at vertex a whose components restrict a map u that fixes
        a pointwise and lands inside it; its vertex component is the
        identity, so it is idempotent under cone multiplication."""
        if any(u(x) != x for x in a):
            raise ValueError(f"{u} does not fix {a} pointwise")
        if not image(u).issubset(a):
            raise ValueError(f"image of {u} is not contained in {a}")
        components = {b: restrict(u, b, codomain=a) for b in self.objects()}
        return Cone(self, a, components)

    def cone_from_map(self, alpha: OPMap) -> Cone:
        """The cone with vertex the image of alpha whose components are the
        restrictions of alpha."""
        if not alpha.is_singular():
            raise ValueError("only singular maps induce cones here")
        vertex = image(alpha)
        components = {b: restrict(alpha, b, codomain=vertex) for b in self.objects()}
        return Cone(self, vertex, components)


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


def functor_f(n: int, source: LCategory | None = None, target: PowersetCategory | None = None) -> Functor:
    """The functor from the left-ideal category sending an ideal to its image
    subset and a translation to its restriction."""
    check_chain_size(n)
    src = source if source is not None else LCategory(n)
    tgt = target if target is not None else PowersetCategory(n)

    def map_morphism(m: LMorphism) -> SubMap:
        return m.action

    return Functor(src, tgt, {obj: obj.image for obj in src.objects()}, map_morphism)
