"""Finite categories with subobjects, cones over them, and the semigroup of
normal cones.

A category here is a provider object enumerating objects and hom-sets and
supplying composition, designated inclusions with their retractions, and a
deterministic normal factorization.  Every axiom is checked exhaustively.  A
valid cone is determined by its components at the maximal objects, so a cone
holds only those, each as its code, an int position in the category's cone
table for the vertex; cone hashing, equality and products work on a few
small ints, and the other components are derived when asked for.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from types import MappingProxyType
from typing import Mapping

from .semigroups import FiniteSemigroup, build


class FiniteCategory(ABC):
    """Category with subobjects, explicit enough for exhaustive checking.

    Morphism values must be hashable and expose ``source`` and ``target``
    attributes naming objects of the category.  Objects, hom-sets and cone
    tables are computed on first use and cached on the instance.
    """

    def __init__(self):
        self._objects: tuple | None = None
        self._positions: dict = {}
        self._hom_cache: dict = {}
        self._cone_frame: tuple | None = None
        self._cone_tables: dict = {}

    # -- enumeration ------------------------------------------------------

    def objects(self) -> tuple:
        if self._objects is None:
            self._objects = tuple(self._compute_objects())
            self._positions = {a: k for k, a in enumerate(self._objects)}
        return self._objects

    def position(self, a) -> int:
        """The index of an object in objects(); ValueError for a non-object."""
        self.objects()
        k = self._positions.get(a)
        if k is None:
            raise ValueError(f"{a!r} is not an object of this category")
        return k

    def hom(self, a, b) -> tuple:
        """The morphisms a -> b; ValueError unless both are objects, checked
        only on a cache miss."""
        key = (a, b)
        if key not in self._hom_cache:
            self.position(a)
            self.position(b)
            self._hom_cache[key] = tuple(self._compute_hom(a, b))
        return self._hom_cache[key]

    def subobject_pairs(self) -> list:
        """All ordered pairs (a, b) of distinct objects with a below b."""
        objs = self.objects()
        return [(a, b) for a in objs for b in objs if a != b and self.leq(a, b)]

    def cone_table(self, vertex) -> "ConeTable":
        """The coding of the cones with the given vertex (see ``ConeTable``),
        built on first use; the maximal objects and their inclusions are
        found once and shared by every vertex.  ValueError for a vertex
        that is not an object."""
        table = self._cone_tables.get(vertex)
        if table is None:
            self.position(vertex)
            if self._cone_frame is None:
                self._cone_frame = self._maximal_frame()
            members, starts = [], [0]
            for obj in self.objects():
                members.extend(self.hom(obj, vertex))
                starts.append(len(members))
            table = self._cone_tables[vertex] = ConeTable(self, tuple(members), tuple(starts), *self._cone_frame)
        return table

    def _maximal_frame(self) -> tuple:
        """``(maximal, below, ancestor, inclusions)`` as described in
        ``ConeTable``, with ``inclusions[i]`` the inclusions of the objects
        of ``below[i]`` into ``maximal[i]``."""
        objs = self.objects()
        order = sorted(range(len(objs)), key=lambda k: self.object_sort_key(objs[k]))
        maximal = [m for m in order if not any(b != objs[m] and self.leq(objs[m], b) for b in objs)]
        lower = [x for x in order if x not in maximal]
        below = [tuple([x for x in lower if self.leq(objs[x], objs[m])]) for m in maximal]
        ancestor: list = [None] * len(objs)
        for i, m in enumerate(maximal):
            ancestor[m] = (i, None)
        for i, xs in enumerate(below):
            for slot, x in enumerate(xs):
                if ancestor[x] is None:
                    ancestor[x] = (i, slot)
        inclusions = tuple(
            tuple([self.inclusion(objs[x], objs[m]) for x in xs]) for m, xs in zip(maximal, below)
        )
        return tuple(maximal), tuple(below), tuple(ancestor), inclusions

    @abstractmethod
    def _compute_objects(self):
        ...

    @abstractmethod
    def _compute_hom(self, a, b):
        ...

    # -- structure --------------------------------------------------------

    @abstractmethod
    def compose(self, f, g):
        """Diagram-order composition: f first, then g."""

    @abstractmethod
    def identity(self, a):
        ...

    @abstractmethod
    def leq(self, a, b) -> bool:
        """The designated subobject order."""

    @abstractmethod
    def inclusion(self, a, b):
        """The designated inclusion morphism a -> b, defined when leq(a, b)."""

    @abstractmethod
    def retraction(self, a, b):
        """The canonical retraction b -> a splitting inclusion(a, b)."""

    @abstractmethod
    def normal_factorize(self, f) -> tuple:
        """A deterministic (retraction, isomorphism, inclusion) splitting of f."""

    @abstractmethod
    def is_isomorphism(self, f) -> bool:
        ...

    @abstractmethod
    def idempotent_cone(self, vertex) -> "Cone":
        """A normal cone at the vertex whose vertex component is the identity."""

    @abstractmethod
    def object_sort_key(self, a):
        """Sort key putting larger objects first, ties broken lexicographically."""

    @abstractmethod
    def object_label(self, a) -> str:
        ...

    @abstractmethod
    def morphism_label(self, f) -> str:
        ...


def _code(table: "ConeTable", k: int, f):
    """The code of f as the component at ``objects()[k]``: its index in the
    vertex's cone table when f is in that object's hom-set into the vertex,
    else f itself, which no valid cone holds.  None marks a missing component."""
    c = table.codes.get(f) if f is not None else None
    if c is not None and table.starts[k] <= c < table.starts[k + 1]:
        return c
    return f


class ConeTable:
    """The coding of the cones with one vertex.

    ``members`` concatenates hom(obj, vertex) over the objects in objects()
    order, ``codes`` maps each member to its index there, its code, and the
    members with source ``objects()[k]`` fill
    ``members[starts[k]:starts[k + 1]]``.  The numbering follows the hom-set
    order, so two separately built copies of a category code their cones
    alike.

    A cone is determined by its components at the maximal objects, those
    with no object strictly above them (see ``enumerate_normal_cones``).
    ``maximal`` holds their positions in objects(), in ``object_sort_key``
    order, and ``below[i]`` the positions of the other objects below
    ``maximal[i]``, in the same order.  ``ancestor[k]`` is ``(i, slot)``
    when ``maximal[i]`` is the first maximal object above object k and
    ``below[i][slot]`` is k, and ``(i, None)`` when k is ``maximal[i]``.
    ``restrictions(i, c)`` gives the codes of j(x, maximal[i])·f for the
    member f with code c and each x in ``below[i]``; a member's row is
    composed the first time it is asked for and kept with the table.
    """

    __slots__ = ("category", "members", "codes", "starts", "maximal", "below", "ancestor", "_inclusions", "_rows")

    def __init__(self, category, members, starts, maximal, below, ancestor, inclusions):
        self.category = category
        self.members = members
        self.codes = {f: i for i, f in enumerate(members)}
        self.starts = starts
        self.maximal = maximal
        self.below = below
        self.ancestor = ancestor
        self._inclusions = inclusions
        self._rows: dict = {}

    def member(self, code):
        return self.members[code] if type(code) is int else code

    def restrictions(self, i: int, code) -> tuple:
        row = self._rows.get(code)
        if row is None:
            f, compose = self.member(code), self.category.compose
            row = tuple([_code(self, x, compose(j, f)) for x, j in zip(self.below[i], self._inclusions[i])])
            if type(code) is int:
                self._rows[code] = row
        return row

    def code_at(self, codes: tuple, k: int):
        """The code at ``objects()[k]`` of the cone whose codes at the
        maximal objects are ``codes``."""
        i, slot = self.ancestor[k]
        c = codes[i]
        return c if slot is None or c is None else self.restrictions(i, c)[slot]


class Cone:
    """An assignment of one morphism into a fixed vertex per object,
    compatible with inclusions.

    Immutable: a cone holds the codes of its components at the maximal
    objects (see ``ConeTable``), and ``component`` and ``components`` derive
    the others by restriction; ``components`` is a read-only mapping built
    on each access.  Cones over two separately built copies of a category
    compare and hash equal when their maximal components do; cones over
    categories of different classes never compare equal.

    A cone built from a mapping is held to its independence guard: every
    given component must equal the one derived from the maximal components,
    so a wrong restriction table cannot agree with itself.  A mapping that
    is incomplete, has a component outside its hom-set or disagrees with a
    derived component is kept as given, and such a cone fails
    ``validate_cone``.
    """

    __slots__ = ("category", "vertex", "_at", "_table", "_codes", "_given")

    def __init__(self, category: FiniteCategory, vertex, components: Mapping):
        at = category.position(vertex)
        for obj in components:
            category.position(obj)
        table = category.cone_table(vertex)
        given = tuple([_code(table, k, components.get(obj)) for k, obj in enumerate(category.objects())])
        codes = tuple([given[k] for k in table.maximal])
        derived = all(type(c) is int for c in codes) and all(table.code_at(codes, k) == c for k, c in enumerate(given))
        self._set(category, vertex, at, table, codes, None if derived else given)

    @classmethod
    def _coded(cls, category, vertex, at: int, table: ConeTable, codes: tuple) -> "Cone":
        cone = cls.__new__(cls)
        cone._set(category, vertex, at, table, codes, None)
        return cone

    def _set(self, category, vertex, at, table, codes, given):
        init = object.__setattr__
        init(self, "category", category)
        init(self, "vertex", vertex)
        init(self, "_at", at)
        init(self, "_table", table)
        init(self, "_codes", codes)
        init(self, "_given", given)

    def __setattr__(self, name, value):
        raise AttributeError("cones are immutable")

    def _code_at(self, k: int):
        if self._given is not None:
            return self._given[k]
        return self._table.code_at(self._codes, k)

    def _all_codes(self) -> tuple:
        """The code at every object, in objects() order."""
        if self._given is not None:
            return self._given
        return tuple([self._table.code_at(self._codes, k) for k in range(len(self.category.objects()))])

    def component(self, obj):
        code = self._code_at(self.category.position(obj))
        if code is None:
            raise KeyError(obj)
        return self._table.member(code)

    @property
    def components(self) -> Mapping:
        """A read-only mapping from each object to its component."""
        member = self._table.member
        return MappingProxyType(
            {obj: member(c) for obj, c in zip(self.category.objects(), self._all_codes()) if c is not None}
        )

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return (
            self._codes == other._codes
            and self.vertex == other.vertex
            and self._given == other._given
            and type(self.category) is type(other.category)
        )

    def __hash__(self):
        return hash((self.vertex, self._codes))

    def __repr__(self):
        present = sum(c is not None for c in self._all_codes())
        return f"Cone(vertex={self.category.object_label(self.vertex)}, {present} components)"

    def __str__(self):
        """The vertex and the components at the maximal objects, which
        determine a valid cone; a cone kept as given reads as its repr."""
        if self._given is not None:
            return repr(self)
        cat, member = self.category, self._table.member
        return f"{cat.object_label(self.vertex)}: " + " ".join([cat.morphism_label(member(c)) for c in self._codes])


def validate_cone(cone: Cone) -> bool:
    """Check both cone axioms: components land in the vertex hom-sets and
    restrict correctly along every inclusion.

    A cone kept as given fails.  Otherwise the components at the maximal
    objects must lie in their hom-sets, and at every other object the
    restrictions from all its maximal ancestors must agree and lie in its
    hom-set; by the argument in ``enumerate_normal_cones`` these are all the
    cone conditions.
    """
    if cone._given is not None or not all(type(c) is int for c in cone._codes):
        return False
    table = cone._table
    rows = [table.restrictions(i, c) for i, c in enumerate(cone._codes)]
    for row, below in zip(rows, table.below):
        for code, k in zip(row, below):
            i, slot = table.ancestor[k]
            if type(code) is not int or code != rows[i][slot]:
                return False
    return True


def _mset_unchecked(cone: Cone) -> frozenset:
    cat = cone.category
    return frozenset(obj for obj, f in cone.components.items() if cat.is_isomorphism(f))


def mset(cone: Cone) -> frozenset:
    """The objects at which the cone component is an isomorphism."""
    if not validate_cone(cone):
        raise ValueError("not a cone: the component family violates the cone axioms")
    return _mset_unchecked(cone)


class _Products:
    """The cone products of one semigroup build, by code.

    ``steps[v][s]`` is the step of the second cone's component with code
    ``s`` in the cone table of vertex position ``v``: the epimorphic part of
    that component, shared by every component with the same epimorphic part,
    with its target vertex and ``products``, the code of each maximal
    first-cone component composed with it.
    """

    __slots__ = ("steps", "by_epi")

    def __init__(self):
        self.steps: dict = {}
        self.by_epi: dict = {}


def cone_mul(gamma: Cone, sigma: Cone, memo: _Products | None = None) -> Cone:
    """Multiply two normal cones: compose every component of the first with
    the epimorphic part of the second's component at the first vertex.

    Only the components at the maximal objects are composed; the product
    derives the others from them.  ``memo`` carries factorizations and
    component products from one call to the next; every entry is computed by
    the category's ``normal_factorize`` and ``compose``.
    """
    if gamma.category is not sigma.category:
        raise ValueError("cones live over different categories")
    cat = gamma.category
    if memo is None:
        memo = _Products()
    steps = memo.steps.get(sigma._at)
    if steps is None:
        steps = memo.steps[sigma._at] = {}
    s = sigma._code_at(gamma._at)
    step = steps.get(s)
    if step is None:
        if s is None:
            raise KeyError(gamma.vertex)
        q, u, _ = cat.normal_factorize(sigma._table.member(s))
        epi = cat.compose(q, u)
        step = memo.by_epi.get(epi)
        if step is None:
            v = epi.target
            step = memo.by_epi[epi] = (epi, v, cat.position(v), cat.cone_table(v), {})
        steps[s] = step
    epi, vertex, at, table, products = step
    member = gamma._table.member
    codes = []
    for k, c in zip(table.maximal, gamma._codes):
        p = products.get(c)
        if p is None and c is not None:
            p = _code(table, k, cat.compose(member(c), epi))
            if type(c) is int:
                products[c] = p
        codes.append(p)
    return Cone._coded(cat, vertex, at, table, tuple(codes))


def cone_semigroup(category: FiniteCategory, cones) -> FiniteSemigroup:
    """The semigroup of the given normal cones under cone multiplication.

    Every input cone is validated, and closure failures surface the escaping
    product.  Products share one memo for the length of the build.
    """
    cones = list(cones)
    for c in cones:
        if not validate_cone(c) or not _mset_unchecked(c):
            raise ValueError(f"input {c!r} is not a normal cone")
    memo = _Products()
    return build(cones, lambda gamma, sigma: cone_mul(gamma, sigma, memo))


def enumerate_normal_cones(category: FiniteCategory, vertex) -> list[Cone]:
    """All normal cones with the given vertex, by backtracking over the
    maximal objects with forward checking.

    Only the maximal objects (those with no object strictly above them)
    branch, each over all of hom(m, vertex).  Every other object x takes the
    component j(x, m)·comp[m] from its first maximal ancestor m, and as each
    later maximal ancestor m' is assigned, j(x, m')·comp[m'] must equal it or
    the branch is pruned.

    Why the survivors are exactly the cones: for x ≤ b ≤ m with m maximal,
    comp[b] is j(b, m)·comp[m], so j(x, b)·comp[b] = j(x, b)·j(b, m)·comp[m]
    = j(x, m)·comp[m] by the inclusion-composition axiom (which the
    factorize checks verify).  Every cone condition therefore reduces to the
    maximal ancestors of each object agreeing, and every cone arises from
    the branch given by its maximal components.  The search compares the
    codes of the restrictions in the vertex's cone table, composed once per
    member of hom(m, vertex).

    Uses only ``hom``, ``leq``, ``inclusion``, ``compose`` and
    ``is_isomorphism``, so it stays independent of any principal cones.
    Cones come out in lexicographic order of their maximal components, the
    maximal objects taken in ``object_sort_key`` order.
    """
    table = category.cone_table(vertex)
    at = category.position(vertex)
    ancestor, member = table.ancestor, table.member
    # rows[i] pairs the code of each f in hom(maximal[i], vertex) with the
    # codes of its restrictions; sets[i] / checks[i] hold the (slot, object)
    # pairs of below[i] whose first / a later maximal ancestor is maximal[i].
    rows = [
        [(c, table.restrictions(i, c)) for c in range(table.starts[m], table.starts[m + 1])]
        for i, m in enumerate(table.maximal)
    ]
    sets = [[(slot, k) for slot, k in enumerate(xs) if ancestor[k][0] == i] for i, xs in enumerate(table.below)]
    checks = [[(slot, k) for slot, k in enumerate(xs) if ancestor[k][0] != i] for i, xs in enumerate(table.below)]
    lower = [k for k, (_, slot) in enumerate(ancestor) if slot is not None]
    current: list = [None] * len(ancestor)
    chosen: list = [None] * len(rows)
    found: list[Cone] = []

    def assign(i: int):
        if i == len(rows):
            codes = chosen + [current[k] for k in lower]
            if any(category.is_isomorphism(member(c)) for c in codes):
                found.append(Cone._coded(category, vertex, at, table, tuple(chosen)))
            return
        for c, row in rows[i]:
            if any(row[slot] != current[k] for slot, k in checks[i]):
                continue
            for slot, k in sets[i]:
                current[k] = row[slot]
            chosen[i] = c
            assign(i + 1)

    assign(0)
    assert len(set(found)) == len(found)
    return found


def cone_json(cone: Cone) -> dict:
    cat = cone.category
    return {
        "vertex": cat.object_label(cone.vertex),
        "components": {
            cat.object_label(obj): cat.morphism_label(f) for obj, f in cone.components.items()
        },
    }


# ---------------------------------------------------------------------------
# whole-category checks

def check_normal_category_axioms(category: FiniteCategory, on_factorization=None) -> tuple[bool, dict, dict | None]:
    """Verify the normal-category axioms exhaustively.

    Checks that the subobject order is a partial order realized by composable
    inclusions, that every inclusion splits via its canonical retraction, that
    every morphism's normal factorization has the right shape and recomposes,
    and that every object carries an idempotent normal cone.  Each morphism
    f is factorized once; ``on_factorization(f, q, u, j)``, when given, is
    called with every factorization that passes, so a caller can compare
    it with something else without factorizing again.
    Returns (ok, counts, witness).
    """
    objs = category.objects()
    counts = {"objects": len(objs), "inclusions": 0, "morphisms": 0, "cones": 0}

    def fail(axiom: str, **info):
        witness = {"axiom": axiom}
        witness.update(info)
        return False, counts, witness

    for a in objs:
        if not category.leq(a, a):
            return fail("order-reflexive", object=category.object_label(a))
        if category.inclusion(a, a) != category.identity(a):
            return fail("identity-inclusion", object=category.object_label(a))
        if category.identity(a) not in category.hom(a, a):
            return fail("identity-membership", object=category.object_label(a))
    pairs = category.subobject_pairs()
    for a, b in pairs:
        if category.leq(b, a):
            return fail("order-antisymmetric", pair=[category.object_label(a), category.object_label(b)])
    for a, b in pairs:
        for c in objs:
            if category.leq(b, c) and not category.leq(a, c):
                return fail(
                    "order-transitive",
                    chain=[category.object_label(x) for x in (a, b, c)],
                )
            if b != c and category.leq(b, c):
                left = category.compose(category.inclusion(a, b), category.inclusion(b, c))
                if left != category.inclusion(a, c):
                    return fail(
                        "inclusion-composition",
                        chain=[category.object_label(x) for x in (a, b, c)],
                    )
    for a, b in pairs:
        counts["inclusions"] += 1
        j = category.inclusion(a, b)
        q = category.retraction(a, b)
        if j not in category.hom(a, b) or q not in category.hom(b, a):
            return fail(
                "inclusion-membership",
                pair=[category.object_label(a), category.object_label(b)],
            )
        if category.compose(j, q) != category.identity(a):
            return fail(
                "inclusion-splits",
                pair=[category.object_label(a), category.object_label(b)],
            )
    for a in objs:
        for b in objs:
            for f in category.hom(a, b):
                counts["morphisms"] += 1
                q, u, j = category.normal_factorize(f)
                c1, d1 = q.target, u.target
                if q.source != a or u.source != c1 or j.source != d1 or j.target != b:
                    return fail("factorization-shape", morphism=category.morphism_label(f))
                if not (category.leq(c1, a) and category.leq(d1, b)):
                    return fail("factorization-subobjects", morphism=category.morphism_label(f))
                if (
                    q not in category.hom(a, c1)
                    or u not in category.hom(c1, d1)
                    or j not in category.hom(d1, b)
                ):
                    return fail("factorization-membership", morphism=category.morphism_label(f))
                if category.compose(category.inclusion(c1, a), q) != category.identity(c1):
                    return fail("factorization-retraction", morphism=category.morphism_label(f))
                if not category.is_isomorphism(u):
                    return fail("factorization-isomorphism", morphism=category.morphism_label(f))
                if j != category.inclusion(d1, b):
                    return fail("factorization-inclusion", morphism=category.morphism_label(f))
                if category.compose(category.compose(q, u), j) != f:
                    return fail("factorization-recompose", morphism=category.morphism_label(f))
                if on_factorization is not None:
                    on_factorization(f, q, u, j)
    for a in objs:
        counts["cones"] += 1
        gamma = category.idempotent_cone(a)
        if gamma.vertex != a or not validate_cone(gamma):
            return fail("idempotent-cone-valid", object=category.object_label(a))
        if not _mset_unchecked(gamma):
            return fail("idempotent-cone-normal", object=category.object_label(a))
        if gamma.component(a) != category.identity(a):
            return fail("idempotent-cone-identity", object=category.object_label(a))
    return True, counts, None


def check_functor_isomorphism(source: FiniteCategory, target: FiniteCategory) -> tuple[bool, dict, dict | None]:
    """Verify that two hom sources of one carrier give the same category.

    Precondition: ``target`` is ``source``'s carrier with only its hom-sets
    computed another way, so the two share objects, composition, identities,
    order, inclusions, retractions, normal factorization and the isomorphism
    test (``PowersetCategory`` over ``LCategory``, ``PartitionCategory`` over
    ``RCategory``).  The identity on objects and morphisms is then an
    isomorphism of categories exactly when the object lists are equal and
    every hom-set is the same set, without duplicates, from both sources;
    that is all this compares.
    Returns (ok, counts, witness).
    """
    objs = source.objects()
    counts = {"source_objects": len(objs), "target_objects": len(target.objects()), "hom_pairs": 0, "morphisms": 0}

    def fail(reason: str, a, b, **info):
        return False, counts, {"reason": reason, "pair": [source.object_label(a), source.object_label(b)], **info}

    if objs != target.objects():
        return False, counts, {"reason": "objects-not-bijective"}
    for a in objs:
        for b in objs:
            counts["hom_pairs"] += 1
            hs, ht = source.hom(a, b), target.hom(a, b)
            if len(hs) != len(ht):
                return fail("hom-count-mismatch", a, b, source=len(hs), target=len(ht))
            if len(set(hs)) != len(hs) or set(hs) != set(ht):
                return fail("hom-not-bijective", a, b)
            counts["morphisms"] += len(hs)
    return True, counts, None
