"""Finite categories with subobjects, cones over them, and the semigroup of
normal cones.

A category here is a provider object enumerating objects and hom-sets and
supplying composition, designated inclusions with their retractions, and a
deterministic normal factorization.  Cones are dense component tables, so
every axiom can be checked exhaustively.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Mapping

from .semigroups import FiniteSemigroup, build


class FiniteCategory(ABC):
    """Category with subobjects, explicit enough for exhaustive checking.

    Morphism values must be hashable and expose ``source`` and ``target``
    attributes naming objects of the category.
    """

    def __init__(self):
        self._objects: tuple | None = None
        self._hom_cache: dict = {}
        self._subobject_pairs: list | None = None

    # -- enumeration ------------------------------------------------------

    def objects(self) -> tuple:
        if self._objects is None:
            self._objects = tuple(self._compute_objects())
        return self._objects

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


class Cone:
    """An assignment of one morphism into a fixed vertex per object,
    compatible with inclusions."""

    __slots__ = ("category", "vertex", "components", "_hash")

    def __init__(self, category: FiniteCategory, vertex, components: Mapping):
        self.category = category
        self.vertex = vertex
        self.components = dict(components)
        self._hash: int | None = None

    def component(self, obj):
        return self.components[obj]

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return self.vertex == other.vertex and self.components == other.components

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vertex, frozenset(self.components.items())))
        return self._hash

    def __repr__(self):
        return f"Cone(vertex={self.category.object_label(self.vertex)}, {len(self.components)} components)"


def validate_cone(cone: Cone) -> bool:
    """Check both cone axioms: components land in the vertex hom-sets and
    restrict correctly along every inclusion."""
    cat = cone.category
    objs = cat.objects()
    if set(cone.components) != set(objs):
        return False
    for obj in objs:
        f = cone.components[obj]
        if f.source != obj or f.target != cone.vertex:
            return False
        if f not in cat.hom(obj, cone.vertex):
            return False
    for a, b in cat.subobject_pairs():
        if cat.compose(cat.inclusion(a, b), cone.components[b]) != cone.components[a]:
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


def cone_mul(gamma: Cone, sigma: Cone) -> Cone:
    """Multiply two normal cones: compose every component of the first with
    the epimorphic part of the second's component at the first vertex."""
    if gamma.category is not sigma.category:
        raise ValueError("cones live over different categories")
    cat = gamma.category
    f = sigma.components[gamma.vertex]
    q, u, _ = cat.normal_factorize(f)
    epi = cat.compose(q, u)
    components = {obj: cat.compose(g, epi) for obj, g in gamma.components.items()}
    return Cone(cat, epi.target, components)


def cone_semigroup(category: FiniteCategory, cones, seed: int = 0) -> FiniteSemigroup:
    """The semigroup of the given normal cones under cone multiplication.

    Every input cone is validated, and closure failures surface the escaping
    product.
    """
    cones = list(cones)
    for c in cones:
        if not validate_cone(c) or not _mset_unchecked(c):
            raise ValueError(f"input {c!r} is not a normal cone")
    return build(cones, cone_mul, seed=seed)


def enumerate_normal_cones(category: FiniteCategory, vertex) -> list[Cone]:
    """All normal cones with the given vertex, by exhaustive backtracking.

    Objects are assigned in decreasing subobject order, so each non-maximal
    object's component is forced by any already-assigned object above it;
    conflicting forcings prune the branch.
    """
    objs = sorted(category.objects(), key=category.object_sort_key)
    parents: list[list[int]] = [
        [j for j in range(i) if category.leq(objs[i], objs[j])] for i in range(len(objs))
    ]
    found: list[Cone] = []
    components: dict = {}

    def assign(i: int):
        if i == len(objs):
            cone = Cone(category, vertex, components)
            if _mset_unchecked(cone):
                found.append(cone)
            return
        obj = objs[i]
        if parents[i]:
            first = parents[i][0]
            forced = category.compose(category.inclusion(obj, objs[first]), components[objs[first]])
            for p in parents[i][1:]:
                if category.compose(category.inclusion(obj, objs[p]), components[objs[p]]) != forced:
                    return
            components[obj] = forced
            assign(i + 1)
            del components[obj]
        else:
            for f in category.hom(obj, vertex):
                components[obj] = f
                assign(i + 1)
            components.pop(obj, None)

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
        if gamma.components[a] != category.identity(a):
            return fail("idempotent-cone-identity", object=category.object_label(a))
    return True, counts, None


@dataclass
class Functor:
    """Functor data between two finite categories: an object dictionary and a
    morphism translation."""

    source: FiniteCategory
    target: FiniteCategory
    object_map: dict
    morphism_map: Callable

    def apply_object(self, a):
        return self.object_map[a]

    def apply(self, f):
        return self.morphism_map(f)


def check_functor_isomorphism(functor: Functor, exhaustive: bool = True) -> tuple[bool, dict, dict | None]:
    """Verify a functor is an isomorphism of categories.

    Exhaustive mode checks object/hom bijections, identities, inclusions,
    order preservation and composition; counts mode only compares object and
    hom-set cardinalities.
    Returns (ok, counts, witness).
    """
    src, tgt = functor.source, functor.target
    objs_s, objs_t = src.objects(), tgt.objects()
    counts = {"source_objects": len(objs_s), "target_objects": len(objs_t), "hom_pairs": 0, "morphisms": 0}

    def fail(reason: str, **info):
        witness = {"reason": reason}
        witness.update(info)
        return False, counts, witness

    mapped_objs = [functor.apply_object(a) for a in objs_s]
    if len(set(mapped_objs)) != len(objs_s) or set(mapped_objs) != set(objs_t):
        return fail("objects-not-bijective")
    for a in objs_s:
        for b in objs_s:
            counts["hom_pairs"] += 1
            hs = src.hom(a, b)
            ht = tgt.hom(functor.apply_object(a), functor.apply_object(b))
            if len(hs) != len(ht):
                return fail(
                    "hom-count-mismatch",
                    pair=[src.object_label(a), src.object_label(b)],
                    source=len(hs),
                    target=len(ht),
                )
            counts["morphisms"] += len(hs)
    if not exhaustive:
        return True, counts, None

    for a in objs_s:
        fa = functor.apply_object(a)
        if functor.apply(src.identity(a)) != tgt.identity(fa):
            return fail("identity-not-preserved", object=src.object_label(a))
        for b in objs_s:
            fb = functor.apply_object(b)
            if src.leq(a, b) != tgt.leq(fa, fb):
                return fail("order-not-preserved", pair=[src.object_label(a), src.object_label(b)])
            if a != b and src.leq(a, b):
                if functor.apply(src.inclusion(a, b)) != tgt.inclusion(fa, fb):
                    return fail("inclusion-not-preserved", pair=[src.object_label(a), src.object_label(b)])
            mapped = [functor.apply(f) for f in src.hom(a, b)]
            ht = tgt.hom(fa, fb)
            if len(set(mapped)) != len(mapped) or set(mapped) != set(ht):
                return fail("hom-not-bijective", pair=[src.object_label(a), src.object_label(b)])
    for a in objs_s:
        for b in objs_s:
            for f in src.hom(a, b):
                ff = functor.apply(f)
                for c in objs_s:
                    for g in src.hom(b, c):
                        if functor.apply(src.compose(f, g)) != tgt.compose(ff, functor.apply(g)):
                            return fail(
                                "composition-not-preserved",
                                morphisms=[src.morphism_label(f), src.morphism_label(g)],
                            )
    return True, counts, None
