"""The category of non-identity ordered partitions of the chain.

An object stands for the family of monotone maps from its block chain into
the chain, and a morphism is precomposition with a block map running the
other way; the category is carried entirely by the block maps, with the
represented families materialized only for extensionality testing.  It is
the right-ideal category with every hom-set enumerated instead of computed
from sandwich sets; the G-iso check compares the two sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .chain import OPMap, OrderedPartition, block_maps_between
from .cones import Cone
from .ideals import RCategory, RMorphism
from .ideals import factorize_pi  # noqa: F401  re-exported: the normal factorization here


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


def precompose(m: RMorphism, alpha: BarElement) -> BarElement:
    """Apply the morphism to a represented element: first eta, then alpha."""
    if alpha.partition != m.source:
        raise ValueError("element does not belong to the morphism's source")
    return BarElement(m.target, tuple(alpha.values[j] for j in m.eta.images))


class PartitionCategory(RCategory):
    """Non-identity ordered partitions of 1..n with precomposition morphisms;
    finer partitions sit higher in the subobject order.

    The right-ideal category with each hom-set enumerated combinatorially
    instead of computed from sandwich sets.
    """

    def _compute_hom(self, p: OrderedPartition, q: OrderedPartition):
        return [RMorphism(eta) for eta in block_maps_between(q, p)]

    def morphism_label(self, m: RMorphism) -> str:
        return str(m.eta)

    def idempotent_pi_cone(self, vertex: OrderedPartition, u: OPMap) -> Cone:
        """The cone at the vertex induced by a map u that is constant on each
        vertex block and whose image is a cross-section of the vertex
        partition; the vertex component is the identity.  The two conditions
        make the vertex the kernel of u, so this is the dual principal cone
        of u."""
        for block in vertex.blocks:
            value = u(block[0])
            if any(u(x) != value for x in block):
                raise ValueError(f"{u} is not constant on block {block}")
            if value not in block:
                raise ValueError(f"image of {u} is not a cross-section of {vertex}")
        return self.dual_principal_cone(u)

