"""The categories of principal left and right ideals of the singular
order-preserving maps.

A left-ideal object is its image subset and a right-ideal object its kernel
partition, since the ideal depends only on those.  Morphisms are kept in
canonical form: the restriction ``SubMap``, respectively the induced
``BlockMap``, whose images run from the target kernel's blocks back to the
source kernel's.  Hom-sets come honestly from the distinct elements of
semigroup sandwich sets, read off one column of right products per
object and each canonicalized once; the powerset and
partition categories reuse both classes but enumerate their hom-sets.
"""

from __future__ import annotations

from itertools import repeat

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
from .semigroups import ElementMap, _reader, build as build_semigroup
from .chain import compose as compose_maps


def l_morphism_from_triple(e_a: OPMap, u: OPMap, e_b: OPMap) -> SubMap:
    """Canonicalize a right-translation triple to the restriction of u to
    the image of e_a, into the image of e_b.

    Requires e_a, e_b singular idempotents and u in the sandwich set
    e_a*S*e_b, checked as e_a*u = u = u*e_b.  Triples with the same
    restriction to the source image canonicalize to the same morphism.
    """
    if not e_a.is_idempotent() or not e_b.is_idempotent():
        raise ValueError("e_a and e_b must be idempotent")
    if compose_maps(e_a, u) != u or compose_maps(u, e_b) != u:
        raise ValueError(f"{u} is not in the sandwich set e_a*S*e_b")
    a, b = image(e_a), image(e_b)
    if not a.is_proper() or not b.is_proper():
        raise ValueError("left-ideal objects need proper subsets")
    return restrict(u, a, codomain=b)


def _sandwich_sets(category, e: OPMap, idempotent):
    """Each object c with the distinct elements of e*S*idempotent(c), in order
    of first occurrence over the singular maps.

    The elements are the shared maps of ``enumerate_oxn``.  For a singular
    e, each e*s is itself a singular map s', so (e*s)*e_c = s'*e_c is an
    entry of c's column of right products: the positions of s'*e_c for
    every singular s', kept on the category and filled on first use.  The
    position of each singular map is kept on the category too, made by
    the first call, so columns and positions live exactly as long as the
    category.  A fill makes the products
    e*s once, as positions, and reads every sandwich set off the columns;
    filling all rows makes 2*|objects|*|OX_n| products in all.
    """
    elements = enumerate_oxn(category.n)
    position = category._oxn_positions
    if position is None:
        position = category._oxn_positions = {s: k for k, s in enumerate(elements)}
    left = dict.fromkeys(map(position.__getitem__, map(compose_maps, repeat(e), elements)))
    columns = category._columns
    for c in category.objects():
        column = columns.get(c)
        if column is None:
            products = map(compose_maps, elements, repeat(idempotent(c)))
            column = columns[c] = list(map(position.__getitem__, products))
        yield c, map(elements.__getitem__, dict.fromkeys(map(column.__getitem__, left)))


class _IdealCategory(FiniteCategory):
    """What both ideal categories on a chain of size n share: the objects
    ``objects(n)``, the columns of right products their hom-sets are read
    from, with the positions of the singular maps the columns hold (see
    ``_sandwich_sets``), the bijections as isomorphisms and each object
    labelled by its str."""

    def __init__(self, n: int, objects):
        self.n = check_chain_size(n)
        super().__init__(objects(n))
        self._columns: dict = {}
        self._oxn_positions: dict | None = None

    def is_isomorphism(self, f) -> bool:
        return f.is_bijective()

    def object_label(self, a) -> str:
        return str(a)


class LCategory(_IdealCategory):
    """The category of principal left ideals of the singular monotone maps
    on a chain of size n: proper subsets as objects, submaps as morphisms,
    hom(a, b) the canonical forms of the sandwich set e_a*S*e_b."""

    def __init__(self, n: int):
        super().__init__(n, proper_subsets)

    def _compute_hom(self, a: Subset, b: Subset):
        """hom(a, b) as the canonical forms of the sandwich set e_a*S*e_b,
        in order of first occurrence over the singular maps, filling the
        whole row hom(a, .) at once from the category's columns (see
        ``_sandwich_sets``).  Each distinct p in e_a*S*e_c is restricted
        once: p = e_a*p, so p is fixed by its values on a, read by one
        reader for the row.  As in ``restrict``, every value must lie in
        c, checked once per hom-set.
        """
        read = _reader([x - 1 for x in a.elements])
        for c, sandwich in _sandwich_sets(self, idempotent_for_image(a), idempotent_for_image):
            values = [read(p.images) for p in sandwich]
            if not set().union(*values).issubset(c.elements):
                raise ValueError(f"a value of the sandwich set from {a} lies outside {c}")
            self._hom_cache.setdefault((a, c), tuple([SubMap._trusted(a, c, v) for v in values]))
        return self._hom_cache[(a, b)]

    def compose(self, f: SubMap, g: SubMap) -> SubMap:
        return f.then(g)

    def identity(self, a: Subset) -> SubMap:
        return SubMap.identity(a)

    def leq(self, a: Subset, b: Subset) -> bool:
        return a.issubset(b)

    def _compute_inclusion(self, a: Subset, b: Subset) -> SubMap:
        """Carried by set inclusion."""
        return SubMap.inclusion(a, b)

    def retraction(self, a: Subset, b: Subset) -> SubMap:
        return retraction_for_inclusion(a, b)

    def normal_factorize(self, f: SubMap):
        """Retraction onto the minimum-representative cross-section of the
        kernel, the induced bijection onto the image, and the image
        inclusion."""
        return factorize_submap(f)

    def idempotent_cone(self, vertex: Subset) -> Cone:
        return self.principal_cone(idempotent_for_image(vertex))

    def morphism_label(self, f: SubMap) -> str:
        return f"rho({f.domain} -> {f.codomain}: {f})"

    def principal_cone(self, alpha: OPMap) -> Cone:
        """The cone with vertex the image of alpha whose component at each
        object restricts alpha there."""
        if not alpha.is_singular():
            raise ValueError("principal cones are generated by singular maps")
        vertex = image(alpha)
        components = {obj: restrict(alpha, obj, codomain=vertex) for obj in self.objects()}
        return Cone(self, vertex, components)


def r_morphism_from_triple(e: OPMap, v: OPMap, f: OPMap) -> BlockMap:
    """Canonicalize a left-translation triple.

    Requires e, f singular idempotents and v in the sandwich set f*S*e,
    checked as f*v = v = v*e.  The canonical block map sends each block of
    ker f to the e-fiber of its v-image.
    """
    if not e.is_idempotent() or not f.is_idempotent():
        raise ValueError("e and f must be idempotent")
    if compose_maps(f, v) != v or compose_maps(v, e) != v:
        raise ValueError(f"{v} is not in the sandwich set f*S*e")
    a, b = kernel(e), kernel(f)
    if not a.is_non_identity() or not b.is_non_identity():
        raise ValueError("right-ideal objects need non-identity partitions")
    return r_canonical(a, b, v)


def r_canonical(a: OrderedPartition, b: OrderedPartition, v: OPMap) -> BlockMap:
    """The canonical form a -> b of v in the sandwich set between the
    kernels a and b: each block of b goes to the block of a holding its
    v-image.

    Once a, b and v are known to share one chain, the block map is valid
    (v and block lookup are monotone, block indices in range), so it is
    built without re-validation.
    """
    if not a.n == b.n == v.n:
        raise ValueError(f"{a}, {b} and {v} do not live on one chain")
    return BlockMap._trusted(a, b, tuple([a.block_of(v(block[0])) for block in b.blocks]))


def factorize_pi(m: BlockMap) -> tuple[BlockMap, BlockMap, BlockMap]:
    """Normal factorization through the image absorption and the fiber
    coarsening of the block map.

    The same as ``factorize_block_map``, but a function of its own rather
    than an alias: the perfbench tracer wraps ``partitions.factorize_pi``
    and ``chain.factorize_block_map`` by name and counts the calls of each.
    """
    return factorize_block_map(m)


class RCategory(_IdealCategory):
    """The category of principal right ideals of the singular monotone maps
    on a chain of size n: non-identity ordered partitions as objects, block
    maps as morphisms, hom(a, b) the canonical forms of the sandwich set
    f*S*e."""

    def __init__(self, n: int):
        super().__init__(n, ordered_partitions)

    def fill_unit(self, x):
        """The column hom(., x), in objects() order: ``_compute_hom`` fills
        a whole column at once."""
        return zip(self._objects, repeat(x))

    def _compute_hom(self, a: OrderedPartition, b: OrderedPartition):
        """hom(a, b) as the canonical forms of the sandwich set f*S*e (f, e
        the representative idempotents of b, a), in order of first
        occurrence over the singular maps, filling the whole column
        hom(., b) at once from the category's columns of right products
        (see ``_sandwich_sets``).  Each distinct v in f*S*e_c is
        canonicalized once, as ``r_canonical`` does: v = f*v = v*e_c, so v
        is fixed by its values at the block minima of b, read by one
        reader for the column, and those values are block minima of c,
        whose blocks they name.
        """
        read = _reader([block[0] - 1 for block in b.blocks])
        for c, sandwich in _sandwich_sets(self, idempotent_for_kernel(b), idempotent_for_kernel):
            block_of = (None,) + c._block_index
            hom = [BlockMap._trusted(c, b, tuple(map(block_of.__getitem__, read(v.images)))) for v in sandwich]
            self._hom_cache.setdefault((c, b), tuple(hom))
        return self._hom_cache[(a, b)]

    def compose(self, m1: BlockMap, m2: BlockMap) -> BlockMap:
        return m1.then(m2)

    def identity(self, a: OrderedPartition) -> BlockMap:
        return BlockMap.identity(a)

    def leq(self, a: OrderedPartition, b: OrderedPartition) -> bool:
        """a is below b exactly when b refines a."""
        return b.refines(a)

    def _compute_inclusion(self, a: OrderedPartition, b: OrderedPartition) -> BlockMap:
        """Carried by block containment of b in a."""
        return BlockMap.containment(a, b)

    def retraction(self, a: OrderedPartition, b: OrderedPartition) -> BlockMap:
        """Picks for each block of a the block of b holding its minimum;
        b must refine a."""
        if not b.refines(a):
            raise ValueError(f"{b} does not refine {a}")
        return BlockMap._at_minima(b, a)

    def normal_factorize(self, m: BlockMap):
        return factorize_pi(m)

    def idempotent_cone(self, vertex: OrderedPartition) -> Cone:
        return self.dual_principal_cone(idempotent_for_kernel(vertex))

    def morphism_label(self, m: BlockMap) -> str:
        return f"lambda({m.source} -> {m.target}: {m})"

    def dual_principal_cone(self, alpha: OPMap) -> Cone:
        """The cone induced by left translation with alpha: the component at
        each object sends a kernel block of alpha to the object block holding
        its alpha-image."""
        if not alpha.is_singular():
            raise ValueError("dual principal cones are generated by singular maps")
        vertex = kernel(alpha)
        return Cone(self, vertex, {obj: r_canonical(obj, vertex, alpha) for obj in self.objects()})


def phi_representation(category: RCategory, source_semigroup=None) -> ElementMap:
    """Represent each singular map on the chain of ``category`` by its dual
    principal cone in ``category``.

    The image is closed under cone multiplication, but products reverse
    (cone_mul(phi(a), phi(b)) = phi(b*a)), so the representation is an
    injective anti-homomorphism onto its image.  ``source_semigroup`` is
    OX_n, built here when not given; ValueError unless it lists
    ``enumerate_oxn(category.n)`` in order.
    """
    elements = enumerate_oxn(category.n)
    ox = source_semigroup if source_semigroup is not None else build_semigroup(elements, compose_maps)
    if list(ox.elements) != list(elements):
        raise ValueError("source semigroup must enumerate the singular maps in order")
    cones = [category.dual_principal_cone(a) for a in elements]
    target = cone_semigroup(dict.fromkeys(cones))
    return ElementMap(ox, target, tuple(target.index[c] for c in cones))
