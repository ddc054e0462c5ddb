"""The finite chain, its order-preserving self-maps, and the combinatorial
data attached to them: images, interval kernels, subsets, submaps and block
maps.  Everything downstream works pointwise on the values stored here.

Submaps and block maps carry the morphisms of the four categories; a block
map p -> q is carried by a map back from the blocks of q to those of p.

Values built from outside are validated on construction, their entries by
one check, ``_check_monotone``; a carrier value taken as an argument at the
public boundary must have exactly its class, by one check, ``_check_type``.
The hot paths ``compose``, both ``then`` methods, ``image``, ``kernel``,
``green_class``, ``factorize_submap`` and ``factorize_block_map`` trust
their arguments instead.  Values the library builds from valid ones
(composites, images, kernels, factors, enumerated hom-sets, the maps of
``enumerate_oxn``) go through the one trusted constructor,
``_TupleValue._trusted``, and skip the check; subsets and partitions built
that way go through ``Subset._shared`` and ``OrderedPartition._shared``,
which keep one instance per value.  Likewise ``compose`` returns the
instance ``enumerate_oxn`` built when the composite is one of its maps, so
a product reuses that map's cached image and kernel; only a product no
enumeration has made (the identity, or a map of a chain size not yet
enumerated) is a fresh value."""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, combinations_with_replacement, groupby
from math import comb
from operator import itemgetter

MIN_CHAIN = 3
MAX_CHAIN = 12

GREEN_RELATIONS = ("R", "L", "H", "J")


def _check_type(value, cls: type) -> None:
    """Reject a value whose type is not exactly cls.  Every carrier value is
    a tuple, so a bare tuple passes for none of them, nor a value for a
    bare tuple."""
    if type(value) is not cls:
        raise ValueError(f"expected {cls.__name__}, got {value!r}")


def _check_tuple(values: tuple, n: int = 0) -> None:
    """Reject a sequence that is not a tuple, or a chain size n that is not
    an int.  The caller checks each entry is an int; bools are refused too,
    though Python counts them as ints."""
    _check_type(values, tuple)
    if type(n) is not int:
        raise ValueError(f"chain size must be an int, got {n!r}")


def _check_monotone(values: tuple, allowed, what: str) -> None:
    """Reject a sequence with an entry that is not an int in ``allowed``
    (a bool is not, though Python counts it as one) or that is below the
    entry before it; ``what`` names the sequence in the message."""
    for v in values:
        if type(v) is not int or v not in allowed:
            raise ValueError(f"{what} {values}: {v!r} is not an int in {allowed}")
    if values != tuple(sorted(values)):
        raise ValueError(f"{what} {values} not monotone")


def _check_point(x: int, n: int) -> None:
    """Reject x unless it is an int point of the chain 1..n; a bool is not."""
    if type(x) is not int or not 1 <= x <= n:
        raise ValueError(f"{x!r} is not a point of the chain 1..{n}")


def _runs(values: tuple) -> tuple[tuple[int, ...], tuple]:
    """The maximal runs of equal entries in a sequence: their lengths and
    their values.  For a monotone sequence these are its fibers, in order."""
    lengths, heads = [], []
    for v, run in groupby(values):
        heads.append(v)
        lengths.append(len(list(run)))
    return tuple(lengths), tuple(heads)


def check_chain_size(n: int) -> int:
    """Validate a chain size; small chains are degenerate, huge ones explode."""
    if not isinstance(n, int) or not MIN_CHAIN <= n <= MAX_CHAIN:
        raise ValueError(f"chain size must be an integer in {MIN_CHAIN}..{MAX_CHAIN}, got {n!r}")
    return n


class _TupleValue:
    """What the five carrier classes below (``OPMap``, ``Subset``,
    ``OrderedPartition``, ``SubMap`` and ``BlockMap``) share beyond tuple.

    Each value is a ``namedtuple`` subclass, so hashing and equality are
    tuple's, run in C.  It refuses attribute assignment and deletion;
    ``cached_property`` writes to an instance ``__dict__`` directly and
    still works.  ``x + y``, ``x * k`` and ``k * x`` raise ``TypeError``
    where tuple would concatenate or repeat (``f * g`` composes two
    ``OPMap``s); ``t + x`` with a bare tuple t on the left still
    concatenates, since tuple's own ``+`` runs first.  Ordering is tuple
    ordering on the layout, iteration yields the fields and ``len`` counts
    them, unless a class says otherwise.  ``_make``, which ``_replace``
    calls, validates like the class's constructor; ``_trusted`` builds
    from the layout without validation.

    A value equals the bare tuple of its layout, and the layouts keep the
    classes apart: no value equals, or hashes like, a value of another
    carrier class (see ``OrderedPartition`` for the one layout that had to
    differ from the field order).
    """

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @classmethod
    def _trusted(cls, *layout):
        """Build from the layout without validation, for values known to be valid."""
        return tuple.__new__(cls, layout)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __add__(self, other):
        return NotImplemented

    def __mul__(self, other):
        return NotImplemented

    def __rmul__(self, other):
        return NotImplemented


class OPMap(_TupleValue, namedtuple("OPMap", "images")):
    """A total order-preserving self-map of the chain 1..n.

    Stored as its image sequence: ``images[x-1]`` is the value of the map at
    ``x``.  Composition is left to right, so ``(f * g)(x) = g(f(x))``.
    Built from outside, the sequence is validated; composites built inside
    the library are built trusted and skip the check.

    The map is the 1-tuple ``(images,)`` and behaves as ``_TupleValue``
    says: it hashes as ``hash((images,))`` and equals every other OPMap
    with the same images and the bare tuple ``(images,)``, and nothing
    else.  ``len`` is 1, iteration yields ``images`` and ordering is the
    lexicographic order of the images, the order of ``enumerate_oxn``.
    The image and kernel are cached in its ``__dict__``.
    """

    def __new__(cls, images: tuple[int, ...]) -> OPMap:
        _check_tuple(images)
        if not images:
            raise ValueError("empty image sequence")
        _check_monotone(images, range(1, len(images) + 1), "image sequence")
        return tuple.__new__(cls, (images,))

    @classmethod
    def identity(cls, n: int) -> OPMap:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def constant(cls, n: int, value: int) -> OPMap:
        return cls((value,) * n)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        images = self.images
        _check_point(x, len(images))
        return images[x - 1]

    def __mul__(self, other: OPMap) -> OPMap:
        if type(other) is not OPMap:
            return NotImplemented
        return compose(self, other)

    def is_identity(self) -> bool:
        return all(v == x for x, v in enumerate(self.images, start=1))

    def is_singular(self) -> bool:
        """True when the map belongs to the singular semigroup, i.e. is not the identity."""
        return not self.is_identity()

    def is_idempotent(self) -> bool:
        return compose(self, self) == self

    def rank(self) -> int:
        return len(set(self.images))

    @cached_property
    def _image(self) -> Subset:
        return Subset._shared(self.n, _runs(self.images)[1])

    @cached_property
    def _kernel(self) -> OrderedPartition:
        return OrderedPartition._shared(self.n, _runs(self.images)[0])

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.images)) + "]"


class Subset(_TupleValue, namedtuple("Subset", "n elements")):
    """A nonempty subset of the chain 1..n, kept as a strictly increasing tuple.

    The value is the 2-tuple ``(n, elements)`` and behaves as
    ``_TupleValue`` says; it hashes as ``hash((n, elements))``.  ``len``
    counts the elements and ``in`` tests membership of an int point (a
    bool or float is in no subset), although
    iteration yields the two fields ``n`` and ``elements``.  Ordering is
    lexicographic on ``(n, elements)``, not inclusion: use ``issubset``.
    """

    def __new__(cls, n: int, elements: tuple[int, ...]) -> Subset:
        _check_tuple(elements, n)
        if not elements:
            raise ValueError("subset must be nonempty")
        _check_monotone(elements, range(1, n + 1), "elements")
        if len(set(elements)) < len(elements):
            raise ValueError(f"elements {elements} not strictly increasing")
        return tuple.__new__(cls, (n, elements))

    @staticmethod
    @lru_cache(maxsize=None)
    def _shared(n: int, elements: tuple[int, ...]) -> Subset:
        """The one trusted instance for elements known to be valid, so its
        positions are computed once per process."""
        return Subset._trusted(n, elements)

    @classmethod
    def of(cls, n: int, elements) -> Subset:
        """The subset of the given points, in any order; entries are sorted
        only when all are ints, so that the entry check names any other."""
        elements = tuple(elements)
        return cls(n, tuple(sorted(set(elements))) if all(type(x) is int for x in elements) else elements)

    @classmethod
    def full(cls, n: int) -> Subset:
        return cls(n, tuple(range(1, n + 1)))

    def is_proper(self) -> bool:
        return len(self.elements) < self.n

    def issubset(self, other: Subset) -> bool:
        _check_type(other, Subset)
        return self.n == other.n and self._positions.keys() <= other._positions.keys()

    @cached_property
    def _positions(self) -> dict[int, int]:
        """Each element's position in ``elements``."""
        return {x: i for i, x in enumerate(self.elements)}

    def __contains__(self, x: int) -> bool:
        return type(x) is int and x in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"


class OrderedPartition(_TupleValue, namedtuple("OrderedPartition", "block_sizes n")):
    """A partition of 1..n into consecutive intervals, stored by block sizes.

    Storing sizes makes the interval property structural: the i-th block is
    always the run of ``block_sizes[i]`` elements after the first i runs.

    The value is the 2-tuple ``(block_sizes, n)`` and behaves as
    ``_TupleValue`` says.  The sizes come first so that no partition equals
    a ``Subset``: ``(n, elements)`` would make the one-block partition
    ``(3,)`` of 1..3 equal the subset ``{3}``.  It is built, pickled,
    copied and printed as ``OrderedPartition(n, block_sizes)`` all the
    same, and hashes as ``hash((block_sizes, n))``.  Ordering compares the
    block sizes first, not refinement: use ``refines``.
    """

    def __new__(cls, n: int, block_sizes: tuple[int, ...]) -> OrderedPartition:
        _check_tuple(block_sizes, n)
        if not block_sizes or any(type(k) is not int or k <= 0 for k in block_sizes):
            raise ValueError(f"block sizes must be positive ints, got {block_sizes}")
        if sum(block_sizes) != n:
            raise ValueError(f"block sizes {block_sizes} do not sum to {n}")
        return tuple.__new__(cls, (block_sizes, n))

    @classmethod
    def _make(cls, fields) -> OrderedPartition:
        block_sizes, n = fields
        return cls(n, block_sizes)

    def __getnewargs__(self):
        return self.n, self.block_sizes

    def __repr__(self) -> str:
        return f"OrderedPartition(n={self.n!r}, block_sizes={self.block_sizes!r})"

    @classmethod
    def identity(cls, n: int) -> OrderedPartition:
        return cls(n, (1,) * n)

    @staticmethod
    @lru_cache(maxsize=None)
    def _shared(n: int, block_sizes: tuple[int, ...]) -> OrderedPartition:
        """The one trusted instance for block sizes known to be valid, so
        its blocks, cuts and block index are computed once per process."""
        return OrderedPartition._trusted(block_sizes, n)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    def is_non_identity(self) -> bool:
        """True when some block has more than one element."""
        return self.num_blocks < self.n

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out, start = [], 1
        for size in self.block_sizes:
            out.append(tuple(range(start, start + size)))
            start += size
        return tuple(out)

    @cached_property
    def _block_index(self) -> tuple[int, ...]:
        idx = [0] * self.n
        for i, block in enumerate(self.blocks):
            for x in block:
                idx[x - 1] = i
        return tuple(idx)

    def block_of(self, x: int) -> int:
        """0-based index of the block containing the point x."""
        _check_point(x, self.n)
        return self._block_index[x - 1]

    @cached_property
    def _ends(self) -> tuple[int, ...]:
        """The last element of each block, in order."""
        return tuple(accumulate(self.block_sizes))

    @cached_property
    def cuts(self) -> frozenset[int]:
        """Positions after which a block ends (excluding n)."""
        return frozenset(self._ends[:-1])

    def refines(self, other: OrderedPartition) -> bool:
        """True when every block of self lies inside a block of other."""
        _check_type(other, OrderedPartition)
        return self.n == other.n and other.cuts <= self.cuts

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.block_sizes)) + ")"


class SubMap(_TupleValue, namedtuple("SubMap", "domain codomain values")):
    """An order-preserving map between two subsets of the same chain.

    ``values[i]`` is the image of ``domain.elements[i]`` and must lie in the
    codomain.  The value is the 3-tuple ``(domain, codomain, values)`` and
    behaves as ``_TupleValue`` says; it hashes as
    ``hash((domain, codomain, values))``.
    """

    __slots__ = ()

    def __new__(cls, domain: Subset, codomain: Subset, values: tuple[int, ...]) -> SubMap:
        _check_type(domain, Subset)
        _check_type(codomain, Subset)
        _check_tuple(values)
        if domain.n != codomain.n:
            raise ValueError("domain and codomain live on different chains")
        if len(values) != len(domain):
            raise ValueError(f"need {len(domain)} values, got {len(values)}")
        _check_monotone(values, codomain.elements, "values")
        return tuple.__new__(cls, (domain, codomain, values))

    @classmethod
    def identity(cls, a: Subset) -> SubMap:
        _check_type(a, Subset)
        return cls._trusted(a, a, a.elements)

    @classmethod
    def inclusion(cls, a: Subset, b: Subset) -> SubMap:
        _check_type(a, Subset)
        if not a.issubset(b):
            raise ValueError(f"{a} is not a subset of {b}")
        return cls._trusted(a, b, a.elements)

    @property
    def source(self) -> Subset:
        return self.domain

    @property
    def target(self) -> Subset:
        return self.codomain

    def __call__(self, x: int) -> int:
        i = self.domain._positions.get(x) if type(x) is int else None
        if i is None:
            raise ValueError(f"{x!r} is not in the domain {self.domain}")
        return self.values[i]

    def then(self, other: SubMap) -> SubMap:
        if self.codomain != other.domain:
            raise ValueError(f"cannot compose: codomain {self.codomain} != domain {other.domain}")
        positions, values = other.domain._positions, other.values
        return SubMap._trusted(self.domain, other.codomain, tuple([values[positions[v]] for v in self.values]))

    def is_identity(self) -> bool:
        return self.domain == self.codomain and self.values == self.domain.elements

    def is_bijective(self) -> bool:
        return len(set(self.values)) == len(self.values) == len(self.codomain)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.values)) + "]"


class BlockMap(_TupleValue, namedtuple("BlockMap", "source target images")):
    """A morphism source -> target between two ordered partitions of one
    chain: an order-preserving map back from the blocks of target to those
    of source, so composition is contravariant on the images.  Block
    indices are 0-based; ``images[i]`` is the block of source that block i
    of target goes to.  The value is the 3-tuple ``(source, target,
    images)`` and behaves as ``_TupleValue`` says; it hashes as
    ``hash((source, target, images))``."""

    __slots__ = ()

    def __new__(cls, source: OrderedPartition, target: OrderedPartition, images: tuple[int, ...]) -> BlockMap:
        _check_type(source, OrderedPartition)
        _check_type(target, OrderedPartition)
        _check_tuple(images)
        if source.n != target.n:
            raise ValueError("source and target partition different chains")
        if len(images) != target.num_blocks:
            raise ValueError(f"need {target.num_blocks} block images, got {len(images)}")
        _check_monotone(images, range(source.num_blocks), "block images")
        return tuple.__new__(cls, (source, target, images))

    @classmethod
    def identity(cls, p: OrderedPartition) -> BlockMap:
        _check_type(p, OrderedPartition)
        return cls._trusted(p, p, tuple(range(p.num_blocks)))

    @classmethod
    def _at_minima(cls, source: OrderedPartition, target: OrderedPartition) -> BlockMap:
        """Send each block of target to the block of source holding its
        least element.  For two partitions of one chain those images are
        monotone and in range, so the map is built without re-validation."""
        return cls._trusted(source, target, tuple([source.block_of(block[0]) for block in target.blocks]))

    @classmethod
    def containment(cls, coarser: OrderedPartition, finer: OrderedPartition) -> BlockMap:
        """The morphism coarser -> finer sending each block of the finer
        partition to the block containing it."""
        _check_type(finer, OrderedPartition)
        if not finer.refines(coarser):
            raise ValueError(f"{finer} does not refine {coarser}")
        return cls._at_minima(coarser, finer)

    def then(self, other: BlockMap) -> BlockMap:
        if self.target != other.source:
            raise ValueError(f"cannot compose: target {self.target} != source {other.source}")
        return BlockMap._trusted(self.source, other.target, tuple([self.images[j] for j in other.images]))

    def is_identity(self) -> bool:
        return self.source == self.target and self.images == tuple(range(self.source.num_blocks))

    def is_bijective(self) -> bool:
        return len(set(self.images)) == len(self.images) == self.source.num_blocks

    def __str__(self) -> str:
        return "[" + ",".join(str(j + 1) for j in self.images) + "]"


# ---------------------------------------------------------------------------
# operations on whole-chain maps

def compose(f: OPMap, g: OPMap) -> OPMap:
    """Left-to-right composition: apply f, then g.

    A composite of two monotone maps of one chain is monotone with values in
    range, so it is built without validation.  When it is one of the maps
    ``enumerate_oxn`` has built, that instance is returned.
    """
    fi, gi = f.images, g.images
    if len(fi) != len(gi):
        raise ValueError(f"cannot compose maps on chains of size {len(fi)} and {len(gi)}")
    if len(fi) == 1:
        return g
    # itemgetter reads the values 1-based from g's images behind a pad slot;
    # with one index it would return a bare value, hence the case above.
    # The fresh value is OPMap._trusted inline, saving a Python frame.
    images = itemgetter(*fi)((0,) + gi)
    return _ENUMERATED.get(images) or tuple.__new__(OPMap, (images,))


def image(f: OPMap) -> Subset:
    """The image of f, computed once per map."""
    return f._image


def kernel(f: OPMap) -> OrderedPartition:
    """The partition of the chain into fibers of f; monotone fibers are
    intervals.  Computed once per map."""
    return f._kernel


def green_class(f: OPMap, relation: str):
    """The key of f's class under a Green's relation, by the image/kernel
    characterization: R by kernel, L by image, H by f itself (H is
    trivial) and J by rank."""
    if relation == "R":
        return kernel(f)
    if relation == "L":
        return image(f)
    if relation == "H":
        return f
    if relation == "J":
        return f.rank()
    raise ValueError(f"unknown Green relation {relation!r}, expected one of {GREEN_RELATIONS}")


def green(f: OPMap, g: OPMap, relation: str) -> bool:
    """Whether f and g are Green-related: their green_class keys agree."""
    _check_type(f, OPMap)
    _check_type(g, OPMap)
    if f.n != g.n:
        raise ValueError(f"maps on chains of size {f.n} and {g.n} are not comparable")
    return green_class(f, relation) == green_class(g, relation)


# Every map enumerate_oxn has built, keyed by its images, for compose to
# return in place of an equal fresh value.
_ENUMERATED: dict[tuple[int, ...], OPMap] = {}


@lru_cache(maxsize=None)
def enumerate_oxn(n: int) -> tuple[OPMap, ...]:
    """All non-identity order-preserving self-maps of 1..n, lexicographically.
    Built trusted: the tuples ``combinations_with_replacement`` yields are
    monotone and in range.  Each map is recorded for ``compose`` to share."""
    check_chain_size(n)
    identity = tuple(range(1, n + 1))
    maps = tuple(
        OPMap._trusted(seq)
        for seq in combinations_with_replacement(range(1, n + 1), n)
        if seq != identity
    )
    _ENUMERATED.update((f.images, f) for f in maps)
    return maps


def oxn_order(n: int) -> int:
    """Closed form for the number of singular monotone self-maps."""
    return comb(2 * n - 1, n - 1) - 1


@lru_cache(maxsize=None)
def proper_subsets(n: int) -> tuple[Subset, ...]:
    """All proper nonempty subsets of 1..n, by size then lexicographically."""
    check_chain_size(n)
    out = []
    for size in range(1, n):
        for elems in combinations(range(1, n + 1), size):
            out.append(Subset._shared(n, elems))
    return tuple(out)


def _cut_after(n: int, cuts: tuple[int, ...]) -> OrderedPartition:
    """The partition of 1..n whose blocks end after each of the increasing
    positions ``cuts``, all in 1..n-1, and at n."""
    return OrderedPartition._shared(n, tuple([b - a for a, b in zip((0,) + cuts, cuts + (n,))]))


@lru_cache(maxsize=None)
def ordered_partitions(n: int) -> tuple[OrderedPartition, ...]:
    """All non-identity ordered partitions of 1..n (compositions of n other
    than all ones), coarsest block counts first."""
    check_chain_size(n)
    return tuple(_cut_after(n, cuts) for k in range(1, n) for cuts in combinations(range(1, n), k - 1))


def idempotent_for_image(a: Subset) -> OPMap:
    """The step idempotent with image exactly ``a``.

    Sends x to the least element of a that is >= x within the gap structure:
    x <= a1 goes to a1, a_{i-1} < x <= a_i goes to a_i, x >= a_k goes to a_k.
    """
    _check_type(a, Subset)
    if not a.is_proper():
        raise ValueError("image must be a proper subset; the full chain gives the identity")
    values, prev = [], 0
    for v in a.elements:
        values += [v] * (v - prev)
        prev = v
    values += [prev] * (a.n - prev)
    return OPMap._trusted(tuple(values))


def idempotent_for_kernel(p: OrderedPartition) -> OPMap:
    """The idempotent with the given interval kernel, fixing each block's minimum."""
    _check_type(p, OrderedPartition)
    if not p.is_non_identity():
        raise ValueError("kernel must be a non-identity partition")
    return OPMap._trusted(tuple([block[0] for block in p.blocks for _ in block]))


def retraction_for_inclusion(a_sub: Subset, a: Subset) -> SubMap:
    """The left-endpoint retraction a -> a_sub splitting the inclusion a_sub -> a.

    Elements of a_sub stay fixed; an element of a strictly between consecutive
    elements of a_sub drops to the lower one; elements outside the span clamp
    to the nearest end.
    """
    _check_type(a_sub, Subset)
    if not a_sub.issubset(a):
        raise ValueError(f"{a_sub} is not a subset of {a}")
    values, low = [], a_sub.elements[0]
    for x in a.elements:
        if x in a_sub:
            low = x
        values.append(low)
    return SubMap._trusted(a, a_sub, tuple(values))


def separator_idempotent(x_i: int, n: int) -> OPMap:
    """The two-block step idempotent splitting the chain after ``x_i``.

    Sends everything up to x_i to x_i and everything above to x_i + 1.  Right
    multiplication by it distinguishes any two kernel-equivalent maps whose
    first differing image values straddle x_i.
    """
    if type(x_i) is not int or type(n) is not int or not 1 <= x_i < n:
        raise ValueError(f"separator position must be an int with 1 <= x_i < n, got {x_i!r} for n={n!r}")
    return OPMap._trusted((x_i,) * x_i + (x_i + 1,) * (n - x_i))


def restrict(f: OPMap, a: Subset, codomain: Subset) -> SubMap:
    """The restriction of f to a, into the given codomain.

    A monotone map read along an increasing domain gives monotone values,
    so the submap is built without re-validation; only the codomain is
    checked to hold every value.
    """
    _check_type(f, OPMap)
    _check_type(a, Subset)
    _check_type(codomain, Subset)
    if a.n != f.n or codomain.n != f.n:
        raise ValueError(f"cannot restrict a map on 1..{f.n} to subsets of another chain")
    images = f.images
    values = tuple([images[x - 1] for x in a.elements])
    if not set(values).issubset(codomain.elements):
        raise ValueError(f"values {values} not all in codomain {codomain}")
    return SubMap._trusted(a, codomain, values)


def extend_by_idempotent(f: SubMap) -> OPMap:
    """Extend a submap to a whole-chain map by precomposing with the step
    idempotent onto its domain.  The extension restricts back to f."""
    _check_type(f, SubMap)
    e = idempotent_for_image(f.domain)
    return OPMap(tuple(f(e(x)) for x in range(1, f.domain.n + 1)))


def submaps_between(a: Subset, b: Subset) -> tuple[SubMap, ...]:
    """All order-preserving maps a -> b, lexicographically by value sequence.
    Each value sequence is monotone and in b by construction, so only the
    arguments' types and chain are checked."""
    _check_type(a, Subset)
    _check_type(b, Subset)
    if a.n != b.n:
        raise ValueError(f"{a} and {b} live on different chains")
    return tuple(
        SubMap._trusted(a, b, values)
        for values in combinations_with_replacement(b.elements, len(a))
    )


def block_maps_between(p: OrderedPartition, q: OrderedPartition) -> tuple[BlockMap, ...]:
    """All block maps p -> q, lexicographically by image sequence.  Each
    image sequence is monotone and in range by construction, so only the
    arguments' types and chain are checked."""
    _check_type(p, OrderedPartition)
    _check_type(q, OrderedPartition)
    if p.n != q.n:
        raise ValueError(f"{p} and {q} partition different chains")
    return tuple(
        BlockMap._trusted(p, q, images)
        for images in combinations_with_replacement(range(p.num_blocks), q.num_blocks)
    )


# ---------------------------------------------------------------------------
# canonical factorizations of submaps and block maps

def factorize_submap(f: SubMap) -> tuple[SubMap, SubMap, SubMap]:
    """Split f: A -> B as retraction, bijection, inclusion.

    The runs of f's values are its fibers.  The retraction collapses A onto
    the first element of each fiber, the bijection is f on that
    cross-section, and the inclusion embeds the image into B.  All three
    choices are canonical, so the output is deterministic, and all three
    maps are valid by construction.
    """
    lengths, values = _runs(f.values)
    elements = f.domain.elements
    firsts = tuple(elements[i] for i in accumulate(lengths[:-1], initial=0))
    cross = Subset._shared(f.domain.n, firsts)
    img = Subset._shared(f.domain.n, values)
    q = SubMap._trusted(f.domain, cross, tuple(x for x, k in zip(firsts, lengths) for _ in range(k)))
    u = SubMap._trusted(cross, img, values)
    j = SubMap._trusted(img, f.codomain, values)
    return q, u, j


def factorize_block_map(m: BlockMap) -> tuple[BlockMap, BlockMap, BlockMap]:
    """Split m: p1 -> p2 as retraction, bijection, inclusion (q, u, j),
    with m = q then u then j.

    Mirrors factorize_submap on the block level, and reads everything off
    the runs of m.images.  The image absorption gamma of p1 lets each hit
    block absorb the unhit blocks since the previous hit one, and the last
    hit block the tail, so it is cut after each hit block but the last.  The
    fiber coarsening sigma of p2 merges the blocks of each run, so it is cut
    where each run but the last ends.  q picks out the hit blocks, u is the
    bijection gamma -> sigma, and j sends each block of p2 to its run; all
    three maps are valid by construction.
    """
    lengths, hit = _runs(m.images)
    p1, p2 = m.source, m.target
    gamma = _cut_after(p1.n, tuple([p1._ends[j] for j in hit[:-1]]))
    sigma = _cut_after(p2.n, tuple([p2._ends[k - 1] for k in accumulate(lengths[:-1])]))
    q = BlockMap._trusted(p1, gamma, hit)
    u = BlockMap._trusted(gamma, sigma, tuple(range(len(hit))))
    j = BlockMap._trusted(sigma, p2, tuple([r for r, k in enumerate(lengths) for _ in range(k)]))
    return q, u, j
