"""Finite categories with subobjects, cones over them, and the semigroup of
normal cones.

A category here is a provider object enumerating objects and hom-sets and
supplying composition, designated inclusions with their retractions, and a
deterministic normal factorization.  Cones are dense component tables, so
every axiom can be checked exhaustively.  A cone holds each component as its
code, an int position in the category's cone table for the vertex, so cone
hashing, equality and products work on small ints.
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
        self._subobject_pairs: list | None = None
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
        key = (a, b)
        if key not in self._hom_cache:
            self._hom_cache[key] = tuple(self._compute_hom(a, b))
        return self._hom_cache[key]

    def subobject_pairs(self) -> list:
        """All ordered pairs (a, b) of distinct objects with a below b."""
        if self._subobject_pairs is None:
            objs = self.objects()
            self._subobject_pairs = [
                (a, b) for a in objs for b in objs if a != b and self.leq(a, b)
            ]
        return self._subobject_pairs

    def cone_table(self, vertex) -> tuple:
        """Every morphism into the vertex, numbered for coding cone components.

        Returns ``(members, codes, starts)``: ``members`` concatenates
        hom(obj, vertex) over the objects in objects() order, ``codes`` maps
        each member to its index there, and the members with source
        ``objects()[k]`` fill ``members[starts[k]:starts[k + 1]]``.  The
        numbering follows the hom-set order, so two separately built copies of
        a category code their cones alike.
        """
        table = self._cone_tables.get(vertex)
        if table is None:
            members, starts = [], [0]
            for obj in self.objects():
                members.extend(self.hom(obj, vertex))
                starts.append(len(members))
            codes = {f: i for i, f in enumerate(members)}
            table = self._cone_tables[vertex] = (tuple(members), codes, tuple(starts))
        return table

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


def _code(table: tuple, k: int, f):
    """The code of f as the component at ``objects()[k]``: its index in the
    vertex's cone table when f is in that object's hom-set into the vertex,
    else f itself, which no valid cone holds.  None marks a missing component."""
    c = table[1].get(f) if f is not None else None
    if c is not None and table[2][k] <= c < table[2][k + 1]:
        return c
    return f


class Cone:
    """An assignment of one morphism into a fixed vertex per object,
    compatible with inclusions.

    Immutable: the components are held as a tuple of codes in objects()
    order (see ``FiniteCategory.cone_table``), and ``components`` returns a
    read-only mapping built on each access.  Cones over two separately built
    copies of a category compare and hash equal when their components do;
    cones over categories of different classes never compare equal.
    An incomplete mapping or a component outside its hom-set is kept as
    given, and such a cone fails ``validate_cone``.
    """

    __slots__ = ("category", "vertex", "_at", "_table", "_codes", "_hash")

    def __init__(self, category: FiniteCategory, vertex, components: Mapping):
        at = category.position(vertex)
        for obj in components:
            category.position(obj)
        table = category.cone_table(vertex)
        codes = tuple([_code(table, k, components.get(obj)) for k, obj in enumerate(category.objects())])
        self._set(category, vertex, at, table, codes)

    @classmethod
    def _coded(cls, category, vertex, at: int, table: tuple, codes: tuple) -> "Cone":
        cone = cls.__new__(cls)
        cone._set(category, vertex, at, table, codes)
        return cone

    def _set(self, category, vertex, at, table, codes):
        init = object.__setattr__
        init(self, "category", category)
        init(self, "vertex", vertex)
        init(self, "_at", at)
        init(self, "_table", table)
        init(self, "_codes", codes)
        init(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("cones are immutable")

    def _member(self, code):
        return self._table[0][code] if type(code) is int else code

    def component(self, obj):
        code = self._codes[self.category.position(obj)]
        if code is None:
            raise KeyError(obj)
        return self._member(code)

    @property
    def components(self) -> Mapping:
        """A read-only mapping from each object to its component."""
        return MappingProxyType(
            {obj: self._member(c) for obj, c in zip(self.category.objects(), self._codes) if c is not None}
        )

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return (
            self._codes == other._codes
            and self.vertex == other.vertex
            and type(self.category) is type(other.category)
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.vertex, self._codes)))
        return self._hash

    def __repr__(self):
        present = sum(c is not None for c in self._codes)
        return f"Cone(vertex={self.category.object_label(self.vertex)}, {present} components)"


def validate_cone(cone: Cone) -> bool:
    """Check both cone axioms: components land in the vertex hom-sets and
    restrict correctly along every inclusion."""
    if not all(type(c) is int for c in cone._codes):
        return False
    cat = cone.category
    components = cone.components
    for a, b in cat.subobject_pairs():
        if cat.compose(cat.inclusion(a, b), components[b]) != components[a]:
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


def is_normal(cone: Cone) -> bool:
    return bool(mset(cone))


class _Products:
    """The cone products of one semigroup build, by code.

    ``steps[v][s]`` is the step of the second cone's component with code
    ``s`` in the cone table of vertex position ``v``: the epimorphic part of
    that component, shared by every component with the same epimorphic part,
    with its target vertex and ``products``, the code of each first-cone
    component composed with it.
    """

    __slots__ = ("steps", "by_epi")

    def __init__(self):
        self.steps: dict = {}
        self.by_epi: dict = {}


def cone_mul(gamma: Cone, sigma: Cone, memo: _Products | None = None) -> Cone:
    """Multiply two normal cones: compose every component of the first with
    the epimorphic part of the second's component at the first vertex.

    ``memo`` carries factorizations and component products from one call to
    the next; every entry is computed by the category's ``normal_factorize``
    and ``compose``.
    """
    if gamma.category is not sigma.category:
        raise ValueError("cones live over different categories")
    cat = gamma.category
    if memo is None:
        memo = _Products()
    steps = memo.steps.get(sigma._at)
    if steps is None:
        steps = memo.steps[sigma._at] = {}
    s = sigma._codes[gamma._at]
    step = steps.get(s)
    if step is None:
        if s is None:
            raise KeyError(gamma.vertex)
        q, u, _ = cat.normal_factorize(sigma._member(s))
        epi = cat.compose(q, u)
        step = memo.by_epi.get(epi)
        if step is None:
            v = epi.target
            step = memo.by_epi[epi] = (epi, v, cat.position(v), cat.cone_table(v), {})
        steps[s] = step
    epi, vertex, at, table, products = step
    members = gamma._table[0]
    codes = []
    for k, c in enumerate(gamma._codes):
        p = products.get(c)
        if p is None and c is not None:
            p = _code(table, k, cat.compose(members[c] if type(c) is int else c, epi))
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
    the branch given by its maximal components.  The restriction of each
    f in hom(m, vertex) to every object below m is composed once, up front,
    and the search compares small ints standing for those restrictions.

    Uses only ``hom``, ``leq``, ``inclusion``, ``compose`` and
    ``is_isomorphism``, so it stays independent of any principal cones.
    Cones come out in lexicographic order of their maximal components, the
    maximal objects taken in ``object_sort_key`` order.
    """
    objs = sorted(category.objects(), key=category.object_sort_key)
    maximal = [m for m in objs if not any(b != m and category.leq(m, b) for b in objs)]
    lower = [x for x in objs if x not in maximal]
    # sets[i] / checks[i]: the lower objects whose first / a later maximal
    # ancestor is maximal[i], as (slot in the rows of maximal[i], index into
    # lower); rows[i] pairs each f in hom(maximal[i], vertex) with the ids
    # of its restrictions.
    sets: list[list[tuple[int, int]]] = [[] for _ in maximal]
    checks: list[list[tuple[int, int]]] = [[] for _ in maximal]
    placed: set[int] = set()
    ids: dict = {}
    rows: list[list[tuple]] = []
    for i, m in enumerate(maximal):
        below = [(k, category.inclusion(x, m)) for k, x in enumerate(lower) if category.leq(x, m)]
        for slot, (k, _) in enumerate(below):
            (checks if k in placed else sets)[i].append((slot, k))
            placed.add(k)
        rows.append([
            (f, tuple([ids.setdefault(category.compose(j, f), len(ids)) for _, j in below]))
            for f in category.hom(m, vertex)
        ])
    morphisms = list(ids)
    current: list[int | None] = [None] * len(lower)
    chosen: list = [None] * len(maximal)
    found: list[Cone] = []

    def assign(i: int):
        if i == len(maximal):
            components = dict(zip(maximal, chosen))
            components.update((x, morphisms[c]) for x, c in zip(lower, current))
            if any(category.is_isomorphism(f) for f in components.values()):
                found.append(Cone(category, vertex, components))
            return
        for f, row in rows[i]:
            if any(row[slot] != current[k] for slot, k in checks[i]):
                continue
            for slot, k in sets[i]:
                current[k] = row[slot]
            chosen[i] = f
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

def check_normal_category_axioms(category: FiniteCategory) -> tuple[bool, dict, dict | None]:
    """Verify the normal-category axioms exhaustively.

    Checks that the subobject order is a partial order realized by composable
    inclusions, that every inclusion splits via its canonical retraction, that
    every morphism's normal factorization has the right shape and recomposes,
    and that every object carries an idempotent normal cone.
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
