"""The categories of principal left and right ideals of the singular
order-preserving maps.

Left-ideal objects are keyed by the image subset and right-ideal objects by
the kernel partition, since the ideal depends only on those; morphisms are
kept in canonical form (the restriction submap, respectively the induced
block map), and hom-sets are computed honestly from semigroup elements
rather than assumed combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import (
    BlockMap,
    OPMap,
    OrderedPartition,
    SubMap,
    Subset,
    check_chain_size,
    enumerate_oxn,
    factorize_block_map,
    factorize_submap,
    idempotent_for_image,
    idempotent_for_kernel,
    image,
    kernel,
    ordered_partitions,
    proper_subsets,
    restrict,
    retraction_for_inclusion,
)
from .cones import Cone, FiniteCategory, cone_semigroup
from .semigroups import ElementMap, build as build_semigroup
from .chain import compose as compose_maps


@dataclass(frozen=True)
class LObject:
    """A principal left ideal, identified by the common image of its
    generating idempotents."""

    image: Subset

    def __post_init__(self):
        if not self.image.is_proper():
            raise ValueError(f"left-ideal object needs a proper subset, got {self.image}")

    def __str__(self) -> str:
        return str(self.image)


@dataclass(frozen=True)
class LMorphism:
    """A partial right translation between principal left ideals, in its
    canonical form: the restriction of the translating element to the source
    image."""

    source: LObject
    target: LObject
    action: SubMap

    def __post_init__(self):
        if self.action.domain != self.source.image or self.action.codomain != self.target.image:
            raise ValueError("action does not match the source/target images")

    def __str__(self) -> str:
        return f"rho({self.source} -> {self.target}: {self.action})"


def l_morphism_from_triple(e_a: OPMap, u: OPMap, e_b: OPMap) -> LMorphism:
    """Canonicalize a right-translation triple.

    Requires e_a, e_b idempotent and u in the sandwich set e_a*S*e_b, checked
    as e_a*u = u = u*e_b.  Triples with the same restriction to the source
    image canonicalize to the same morphism.
    """
    if not e_a.is_idempotent() or not e_b.is_idempotent():
        raise ValueError("e_a and e_b must be idempotent")
    if compose_maps(e_a, u) != u or compose_maps(u, e_b) != u:
        raise ValueError(f"{u} is not in the sandwich set e_a*S*e_b")
    a, b = image(e_a), image(e_b)
    return LMorphism(LObject(a), LObject(b), restrict(u, a, codomain=b))


def l_compose(r1: LMorphism, r2: LMorphism) -> LMorphism:
    if r1.target != r2.source:
        raise ValueError(f"cannot compose {r1} with {r2}")
    return LMorphism(r1.source, r2.target, r1.action.then(r2.action))


def l_normal_factorize(r: LMorphism) -> tuple[LMorphism, LMorphism, LMorphism]:
    """Retraction onto the minimum-representative cross-section of the action
    kernel, the induced bijection onto the action image, and the image
    inclusion."""
    q, u, j = factorize_submap(r.action)
    mid = LObject(q.codomain)
    img = LObject(u.codomain)
    return (
        LMorphism(r.source, mid, q),
        LMorphism(mid, img, u),
        LMorphism(img, r.target, j),
    )


class LCategory(FiniteCategory):
    """The category of principal left ideals of the singular monotone maps
    on a chain of size n."""

    def __init__(self, n: int):
        super().__init__()
        self.n = check_chain_size(n)

    def _compute_objects(self):
        return [LObject(a) for a in proper_subsets(self.n)]

    def _compute_hom(self, a: LObject, b: LObject):
        """hom(a, b) as the canonical forms of the sandwich set e_a*S*e_b,
        in order of first occurrence over the singular maps.

        Fills the whole row hom(a, .) at once from the distinct one-sided
        products e_a*s, which are dropped afterwards.
        """
        e_a = idempotent_for_image(a.image)
        left = dict.fromkeys([compose_maps(e_a, s) for s in enumerate_oxn(self.n)])
        for c in self.objects():
            e_c = idempotent_for_image(c.image)
            row = dict.fromkeys(
                [LMorphism(a, c, restrict(compose_maps(x, e_c), a.image, codomain=c.image)) for x in left]
            )
            self._hom_cache.setdefault((a, c), tuple(row))
        return self._hom_cache[(a, b)]

    def compose(self, f, g):
        return l_compose(f, g)

    def identity(self, a: LObject) -> LMorphism:
        return LMorphism(a, a, SubMap.identity(a.image))

    def leq(self, a: LObject, b: LObject) -> bool:
        return a.image.issubset(b.image)

    def inclusion(self, a: LObject, b: LObject) -> LMorphism:
        return LMorphism(a, b, SubMap.inclusion(a.image, b.image))

    def retraction(self, a: LObject, b: LObject) -> LMorphism:
        return LMorphism(b, a, retraction_for_inclusion(a.image, b.image))

    def normal_factorize(self, f: LMorphism):
        return l_normal_factorize(f)

    def is_isomorphism(self, f: LMorphism) -> bool:
        return f.action.is_bijective()

    def idempotent_cone(self, vertex: LObject) -> Cone:
        return self.principal_cone(idempotent_for_image(vertex.image))

    def object_sort_key(self, a: LObject):
        return (-len(a.image), a.image.elements)

    def object_label(self, a: LObject) -> str:
        return str(a.image)

    def morphism_label(self, f: LMorphism) -> str:
        return str(f)

    def principal_cone(self, alpha: OPMap) -> Cone:
        """The cone whose component at each object restricts alpha there."""
        if not alpha.is_singular():
            raise ValueError("principal cones are generated by singular maps")
        vertex = LObject(image(alpha))
        components = {
            obj: LMorphism(obj, vertex, restrict(alpha, obj.image, codomain=vertex.image))
            for obj in self.objects()
        }
        return Cone(self, vertex, components)


@dataclass(frozen=True)
class RObject:
    """A principal right ideal, identified by the common kernel partition of
    its generating idempotents."""

    partition: OrderedPartition

    def __post_init__(self):
        if not self.partition.is_non_identity():
            raise ValueError(f"right-ideal object needs a non-identity partition, got {self.partition}")

    def __str__(self) -> str:
        return str(self.partition)


@dataclass(frozen=True)
class RMorphism:
    """A partial left translation between principal right ideals, in its
    canonical form: the induced block map from the target kernel back to the
    source kernel."""

    source: RObject
    target: RObject
    eta: BlockMap

    def __post_init__(self):
        if self.eta.source != self.target.partition or self.eta.target != self.source.partition:
            raise ValueError("eta must map the target partition into the source partition")

    def __str__(self) -> str:
        return f"lambda({self.source} -> {self.target}: {self.eta})"


def r_morphism_from_triple(e: OPMap, v: OPMap, f: OPMap) -> RMorphism:
    """Canonicalize a left-translation triple.

    Requires e, f idempotent and v in the sandwich set f*S*e, checked as
    f*v = v = v*e.  The canonical block map sends each block of ker f to the
    e-fiber of its v-image.
    """
    if not e.is_idempotent() or not f.is_idempotent():
        raise ValueError("e and f must be idempotent")
    if compose_maps(f, v) != v or compose_maps(v, e) != v:
        raise ValueError(f"{v} is not in the sandwich set f*S*e")
    return _r_canonical(RObject(kernel(e)), RObject(kernel(f)), v)


def _r_canonical(a: RObject, b: RObject, v: OPMap) -> RMorphism:
    """The canonical form of v in the sandwich set between the kernels a
    and b: each block of b goes to the block of a holding its v-image."""
    images = tuple(a.partition.block_of(v(block[0])) for block in b.partition.blocks)
    return RMorphism(a, b, BlockMap(b.partition, a.partition, images))


def r_compose(m1: RMorphism, m2: RMorphism) -> RMorphism:
    """Left translations compose contravariantly on the block maps."""
    if m1.target != m2.source:
        raise ValueError(f"cannot compose {m1} with {m2}")
    return RMorphism(m1.source, m2.target, m2.eta.then(m1.eta))


class RCategory(FiniteCategory):
    """The category of principal right ideals of the singular monotone maps
    on a chain of size n, carried by block maps between kernel partitions."""

    def __init__(self, n: int):
        super().__init__()
        self.n = check_chain_size(n)

    def _compute_objects(self):
        return [RObject(p) for p in ordered_partitions(self.n)]

    def representative_idempotent(self, a: RObject) -> OPMap:
        return idempotent_for_kernel(a.partition)

    def _compute_hom(self, a: RObject, b: RObject):
        """hom(a, b) as the canonical forms of the sandwich set f*S*e (f, e
        the representative idempotents of b, a), in order of first
        occurrence over the singular maps.

        Fills the whole column hom(., b) at once from the distinct one-sided
        products f*s, which are dropped afterwards.
        """
        f = self.representative_idempotent(b)
        right = dict.fromkeys([compose_maps(f, s) for s in enumerate_oxn(self.n)])
        for c in self.objects():
            e = self.representative_idempotent(c)
            column = dict.fromkeys([_r_canonical(c, b, compose_maps(y, e)) for y in right])
            self._hom_cache.setdefault((c, b), tuple(column))
        return self._hom_cache[(a, b)]

    def compose(self, m1, m2):
        return r_compose(m1, m2)

    def identity(self, a: RObject) -> RMorphism:
        return RMorphism(a, a, BlockMap.identity(a.partition))

    def leq(self, a: RObject, b: RObject) -> bool:
        return b.partition.refines(a.partition)

    def inclusion(self, a: RObject, b: RObject) -> RMorphism:
        return RMorphism(a, b, BlockMap.containment(b.partition, a.partition))

    def retraction(self, a: RObject, b: RObject) -> RMorphism:
        eta = BlockMap(
            a.partition,
            b.partition,
            tuple(b.partition.block_of(block[0]) for block in a.partition.blocks),
        )
        return RMorphism(b, a, eta)

    def normal_factorize(self, m: RMorphism):
        zeta, u, v = factorize_block_map(m.eta)
        mid, img = RObject(zeta.source), RObject(v.target)
        return (
            RMorphism(m.source, mid, zeta),
            RMorphism(mid, img, u),
            RMorphism(img, m.target, v),
        )

    def is_isomorphism(self, m: RMorphism) -> bool:
        return m.eta.is_bijective()

    def idempotent_cone(self, vertex: RObject) -> Cone:
        return self.dual_principal_cone(idempotent_for_kernel(vertex.partition))

    def object_sort_key(self, a: RObject):
        return (-a.partition.num_blocks, a.partition.block_sizes)

    def object_label(self, a: RObject) -> str:
        return str(a.partition)

    def morphism_label(self, m: RMorphism) -> str:
        return str(m)

    def dual_principal_cone(self, alpha: OPMap) -> Cone:
        """The cone induced by left translation with alpha: the component at
        each object sends a kernel block of alpha to the object block holding
        its alpha-image."""
        if not alpha.is_singular():
            raise ValueError("dual principal cones are generated by singular maps")
        ker = kernel(alpha)
        vertex = RObject(ker)
        components = {}
        for obj in self.objects():
            images = tuple(obj.partition.block_of(alpha(block[0])) for block in ker.blocks)
            components[obj] = RMorphism(obj, vertex, BlockMap(ker, obj.partition, images))
        return Cone(self, vertex, components)


def phi_representation(
    n: int,
    category: RCategory | None = None,
    source_semigroup=None,
) -> ElementMap:
    """Represent each singular map by its dual principal cone.

    The image is closed under cone multiplication, but products reverse
    (cone_mul(phi(a), phi(b)) = phi(b*a)), so the representation is an
    injective anti-homomorphism onto its image.
    """
    cat = category if category is not None else RCategory(n)
    elements = enumerate_oxn(n)
    ox = source_semigroup if source_semigroup is not None else build_semigroup(elements, compose_maps)
    if list(ox.elements) != list(elements):
        raise ValueError("source semigroup must enumerate the singular maps in order")
    cones = [cat.dual_principal_cone(a) for a in elements]
    distinct = list(dict.fromkeys(cones))
    target = cone_semigroup(cat, distinct)
    return ElementMap(ox, target, tuple(target.index[c] for c in cones))
