"""The category of non-identity ordered partitions of the chain.

A morphism p -> q is a ``BlockMap``: an order-preserving map from the
blocks of q back to the blocks of p, read as precomposition on the monotone
maps from a partition's block chain into the chain.  It is the right-ideal
category with every hom-set enumerated instead of computed from sandwich
sets; the G-iso check compares the two sources.
"""

from __future__ import annotations

from .chain import BlockMap, OrderedPartition, block_maps_between
from .ideals import RCategory
from .ideals import factorize_pi  # noqa: F401  re-exported: the normal factorization here


class PartitionCategory(RCategory):
    """Non-identity ordered partitions of 1..n with precomposition morphisms;
    finer partitions sit higher in the subobject order.

    The right-ideal category with each hom-set enumerated combinatorially
    instead of computed from sandwich sets.
    """

    def _compute_hom(self, p: OrderedPartition, q: OrderedPartition):
        return block_maps_between(p, q)

    def morphism_label(self, m: BlockMap) -> str:
        return str(m)
