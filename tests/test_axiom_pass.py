"""The axiom pass against a reference that checks every factor of every
morphism, on categories with one planted wrong factor.

``check_normal_category_axioms`` checks each distinct retraction,
isomorphism and inclusion once.  Each test here plants one wrong factor
value, shared by several morphisms, through ``normal_factorize`` of L(4) or
Pi(4), and asserts that the pass returns exactly what the reference loop
below returns, and that the witness names the first morphism, in hom-set
order, whose factorization holds the planted factor.
"""

import pytest

from chaincat.cones import check_normal_category_axioms
from chaincat.ideals import LCategory
from chaincat.partitions import PartitionCategory


def reference_pass(category):
    """The axiom pass as it was before the factor memo, for categories whose
    order, inclusions and idempotent cones are sound: every check on every
    factor of every morphism, in the same order."""
    objs = category.objects()
    counts = {"objects": len(objs), "inclusions": len(category.subobject_pairs()), "morphisms": 0, "cones": 0}

    def fail(axiom, f):
        return False, counts, {"axiom": axiom, "morphism": category.morphism_label(f)}

    for a in objs:
        for b in objs:
            for f in category.hom(a, b):
                counts["morphisms"] += 1
                q, u, j = category.normal_factorize(f)
                c1, d1 = q.target, u.target
                if q.source != a or u.source != c1 or j.source != d1 or j.target != b:
                    return fail("factorization-shape", f)
                if not (category.leq(c1, a) and category.leq(d1, b)):
                    return fail("factorization-subobjects", f)
                if (
                    q not in category.hom(a, c1)
                    or u not in category.hom(c1, d1)
                    or j not in category.hom(d1, b)
                ):
                    return fail("factorization-membership", f)
                if category.compose(category.inclusion(c1, a), q) != category.identity(c1):
                    return fail("factorization-retraction", f)
                if not category.is_isomorphism(u):
                    return fail("factorization-isomorphism", f)
                if j != category.inclusion(d1, b):
                    return fail("factorization-inclusion", f)
                if category.compose(category.compose(q, u), j) != f:
                    return fail("factorization-recompose", f)
    counts["cones"] = len(objs)
    return True, counts, None


ROLES = {"q": 0, "u": 1, "j": 2}


def _outside_hom(cat, x):
    """x's source and target with its images reversed: not order-preserving,
    so in no hom-set.  None when that gives x back or a member."""
    wrong = type(x)._trusted(x.source, x.target, tuple(reversed(x[2])))
    return None if wrong == x or wrong in cat.hom(x.source, x.target) else wrong


def _first_in_hom(test):
    def pick(cat, x):
        return next((g for g in cat.hom(x.source, x.target) if test(cat, g)), None)

    return pick


WRONG = {
    "membership": _outside_hom,
    "retraction": _first_in_hom(
        lambda cat, g: cat.compose(cat.inclusion(g.target, g.source), g) != cat.identity(g.target)
    ),
    "isomorphism": _first_in_hom(lambda cat, g: not cat.is_isomorphism(g)),
    "inclusion": _first_in_hom(lambda cat, g: g != cat.inclusion(g.source, g.target)),
}

CASES = [
    ("membership", "q"),
    ("membership", "u"),
    ("membership", "j"),
    ("retraction", "q"),
    ("isomorphism", "u"),
    ("inclusion", "j"),
]


def _plant(base, n, role, defect, late):
    """A category of class base on n points whose ``normal_factorize``
    swaps one factor value for a wrong one.  The factor is shared by several
    morphisms and has a wrong counterpart of the defect's kind; it is the
    one of them that first appears earliest in hom order, or with ``late``
    the one that first appears last.  Returns the category, the label of
    the morphism where the factor first appears and that morphism's
    position in hom order as a fraction of all morphisms."""
    honest = base(n)
    objs = honest.objects()
    morphisms = [f for a in objs for b in objs for f in honest.hom(a, b)]
    first, uses = {}, {}
    for i, f in enumerate(morphisms):
        x = honest.normal_factorize(f)[ROLES[role]]
        first.setdefault(x, i)
        uses[x] = uses.get(x, 0) + 1
    candidates = [x for x in first if uses[x] > 1 and WRONG[defect](honest, x) is not None]
    target = candidates[-1] if late else candidates[0]
    wrong = WRONG[defect](honest, target)
    k = ROLES[role]

    class Planted(base):
        def normal_factorize(self, f):
            factors = list(super().normal_factorize(f))
            if factors[k] == target:
                factors[k] = wrong
            return tuple(factors)

    return Planted(n), honest.morphism_label(morphisms[first[target]]), first[target] / len(morphisms)


@pytest.mark.parametrize("late", [False, True], ids=["early", "late"])
@pytest.mark.parametrize("defect, role", CASES, ids=[f"{d}-{r}" for d, r in CASES])
@pytest.mark.parametrize("base", [LCategory, PartitionCategory], ids=["L4", "Pi4"])
def test_planted_factor_gives_the_reference_result(base, defect, role, late):
    planted, morphism, _ = _plant(base, 4, role, defect, late)
    expected = reference_pass(planted)
    assert check_normal_category_axioms(planted) == expected
    assert expected[2] == {"axiom": f"factorization-{defect}", "morphism": morphism}


@pytest.mark.parametrize("base", [LCategory, PartitionCategory], ids=["L4", "Pi4"])
def test_a_late_planted_retraction_first_appears_after_most_morphisms(base):
    """The memo has seen most retractions before this one, so a pass that
    skipped unseen factors would miss it."""
    assert _plant(base, 4, "q", "retraction", late=True)[2] > 0.85


@pytest.mark.parametrize("base", [LCategory, PartitionCategory], ids=["L4", "Pi4"])
def test_sound_category_gives_the_reference_result(base):
    assert check_normal_category_axioms(base(4)) == reference_pass(base(4))


def test_each_distinct_factor_is_checked_once():
    """On Pi(4) the morphism loop composes once per distinct retraction (its
    retraction axiom), once per distinct (q, u) pair and once per morphism
    (the recomposition), and tests each distinct u once for being an
    isomorphism."""
    composed, tested = [], []

    class Counting(PartitionCategory):
        in_loop = False

        def normal_factorize(self, f):
            self.in_loop = True
            return super().normal_factorize(f)

        def idempotent_cone(self, vertex):
            self.in_loop = False
            return super().idempotent_cone(vertex)

        def compose(self, f, g):
            if self.in_loop:
                composed.append((f, g))
            return super().compose(f, g)

        def is_isomorphism(self, f):
            if self.in_loop:
                tested.append(f)
            return super().is_isomorphism(f)

    cat = Counting(4)
    objs = cat.objects()
    factors = [cat.normal_factorize(f) for a in objs for b in objs for f in cat.hom(a, b)]
    cat.in_loop = False
    ok, counts, _ = check_normal_category_axioms(cat)
    assert ok and counts["morphisms"] == len(factors) == 229
    retractions = {q for q, _, _ in factors}
    through = {(q, u) for q, u, _ in factors}
    assert len(retractions) + len(through) < len(factors)
    assert len(composed) == len(retractions) + len(through) + len(factors)
    assert sorted(map(tuple, tested)) == sorted(map(tuple, {u for _, u, _ in factors}))
