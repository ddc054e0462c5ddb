"""The category of non-identity ordered partitions of the chain.

An object stands for the family of monotone maps from its block chain into
the chain, and a morphism is precomposition with a block map running the
other way; the category is carried entirely by the block maps, with the
represented families materialized only for extensionality testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .chain import (
    BlockMap,
    OPMap,
    OrderedPartition,
    block_maps_between,
    check_chain_size,
    factorize_block_map,
    idempotent_for_kernel,
    kernel,
    ordered_partitions,
)
from .cones import Cone, FiniteCategory, Functor
from .ideals import RCategory, RMorphism


@dataclass(frozen=True)
class PiObject:
    """Stands for all monotone maps from the partition's block chain into
    the chain."""

    partition: OrderedPartition

    def __post_init__(self):
        if not self.partition.is_non_identity():
            raise ValueError(f"objects need a non-identity partition, got {self.partition}")

    def __str__(self) -> str:
        return str(self.partition)


@dataclass(frozen=True)
class PiMorphism:
    """Precomposition with eta, a block map from the target partition back to
    the source partition."""

    source: PiObject
    target: PiObject
    eta: BlockMap

    def __post_init__(self):
        if self.eta.source != self.target.partition or self.eta.target != self.source.partition:
            raise ValueError("eta must map the target partition into the source partition")

    def __str__(self) -> str:
        return f"eta({self.source} -> {self.target}: {self.eta})"


@dataclass(frozen=True)
class BarElement:
    """A monotone map from a partition's block chain into the chain, stored
    as one value per block."""

    partition: OrderedPartition
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.partition.num_blocks:
            raise ValueError("need one value per block")
        prev = 1
        for v in self.values:
            if not 1 <= v <= self.partition.n or v < prev:
                raise ValueError(f"values {self.values} not monotone into the chain")
            prev = v


def bar_elements(p: OrderedPartition) -> tuple[BarElement, ...]:
    return tuple(
        BarElement(p, values)
        for values in combinations_with_replacement(range(1, p.n + 1), p.num_blocks)
    )


def precompose(m: PiMorphism, alpha: BarElement) -> BarElement:
    """Apply the morphism to a represented element: first eta, then alpha."""
    if alpha.partition != m.source.partition:
        raise ValueError("element does not belong to the morphism's source")
    return BarElement(m.target.partition, tuple(alpha.values[j] for j in m.eta.images))


def pi_compose(m1: PiMorphism, m2: PiMorphism) -> PiMorphism:
    """Precompositions compose contravariantly on the block maps."""
    if m1.target != m2.source:
        raise ValueError(f"cannot compose {m1} with {m2}")
    return PiMorphism(m1.source, m2.target, m2.eta.then(m1.eta))


def pi_leq(p: PiObject, q: PiObject) -> bool:
    """p is below q exactly when q's partition refines p's."""
    return q.partition.refines(p.partition)


def pi_inclusion_and_retraction(p: PiObject, q: PiObject) -> tuple[PiMorphism, PiMorphism]:
    """The inclusion p -> q carried by block containment, and the retraction
    q -> p picking for each block of p the q-block holding its minimum."""
    if not pi_leq(p, q):
        raise ValueError(f"{p} is not below {q}")
    inclusion = PiMorphism(p, q, BlockMap.containment(q.partition, p.partition))
    zeta = BlockMap(
        p.partition,
        q.partition,
        tuple(q.partition.block_of(block[0]) for block in p.partition.blocks),
    )
    return inclusion, PiMorphism(q, p, zeta)


def factorize_pi(m: PiMorphism) -> tuple[PiMorphism, PiMorphism, PiMorphism]:
    """Normal factorization through the fiber coarsening and the image
    absorption of the underlying block map."""
    zeta, u, v = factorize_block_map(m.eta)
    mid, img = PiObject(zeta.source), PiObject(v.target)
    return (
        PiMorphism(m.source, mid, zeta),
        PiMorphism(mid, img, u),
        PiMorphism(img, m.target, v),
    )


class PartitionCategory(FiniteCategory):
    """Non-identity ordered partitions of 1..n with precomposition morphisms;
    finer partitions sit higher in the subobject order."""

    def __init__(self, n: int):
        super().__init__()
        self.n = check_chain_size(n)

    def _compute_objects(self):
        return [PiObject(p) for p in ordered_partitions(self.n)]

    def _compute_hom(self, p: PiObject, q: PiObject):
        return [
            PiMorphism(p, q, eta) for eta in block_maps_between(q.partition, p.partition)
        ]

    def compose(self, m1, m2):
        return pi_compose(m1, m2)

    def identity(self, p: PiObject) -> PiMorphism:
        return PiMorphism(p, p, BlockMap.identity(p.partition))

    def leq(self, p: PiObject, q: PiObject) -> bool:
        return pi_leq(p, q)

    def inclusion(self, p: PiObject, q: PiObject) -> PiMorphism:
        return pi_inclusion_and_retraction(p, q)[0]

    def retraction(self, p: PiObject, q: PiObject) -> PiMorphism:
        return pi_inclusion_and_retraction(p, q)[1]

    def normal_factorize(self, m: PiMorphism):
        return factorize_pi(m)

    def is_isomorphism(self, m: PiMorphism) -> bool:
        return m.eta.is_bijective()

    def idempotent_cone(self, vertex: PiObject) -> Cone:
        return self.idempotent_pi_cone(vertex, idempotent_for_kernel(vertex.partition))

    def object_sort_key(self, p: PiObject):
        return (-p.partition.num_blocks, p.partition.block_sizes)

    def object_label(self, p: PiObject) -> str:
        return str(p.partition)

    def morphism_label(self, m: PiMorphism) -> str:
        return str(m.eta)

    def idempotent_pi_cone(self, vertex: PiObject, u: OPMap) -> Cone:
        """The cone at the vertex induced by a map u that is constant on each
        vertex block and whose image is a cross-section of the vertex
        partition; the vertex component is the identity."""
        pi = vertex.partition
        reps = []
        for block in pi.blocks:
            value = u(block[0])
            if any(u(x) != value for x in block):
                raise ValueError(f"{u} is not constant on block {block}")
            if value not in block:
                raise ValueError(f"image of {u} is not a cross-section of {pi}")
            reps.append(value)
        components = {}
        for obj in self.objects():
            images = tuple(obj.partition.block_of(r) for r in reps)
            components[obj] = PiMorphism(obj, vertex, BlockMap(pi, obj.partition, images))
        return Cone(self, vertex, components)

    def cone_from_map(self, alpha: OPMap) -> Cone:
        """The dual principal cone transported into this category: the
        component at each object sends a kernel block of alpha to the object
        block holding its alpha-image."""
        if not alpha.is_singular():
            raise ValueError("only singular maps induce cones here")
        ker = kernel(alpha)
        vertex = PiObject(ker)
        components = {}
        for obj in self.objects():
            images = tuple(obj.partition.block_of(alpha(block[0])) for block in ker.blocks)
            components[obj] = PiMorphism(obj, vertex, BlockMap(ker, obj.partition, images))
        return Cone(self, vertex, components)


def functor_g(n: int, source: RCategory | None = None, target: PartitionCategory | None = None) -> Functor:
    """The functor from the right-ideal category sending an ideal to its
    kernel partition and a translation to its block map."""
    check_chain_size(n)
    src = source if source is not None else RCategory(n)
    tgt = target if target is not None else PartitionCategory(n)
    object_map = {obj: PiObject(obj.partition) for obj in src.objects()}

    def map_morphism(m: RMorphism) -> PiMorphism:
        return PiMorphism(object_map[m.source], object_map[m.target], m.eta)

    return Functor(src, tgt, object_map, map_morphism)
