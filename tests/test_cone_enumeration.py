"""The normal-cone enumerator against references it does not share code with.

The enumerator branches only on maximal objects and prunes on disagreeing
maximal ancestors.  At n=3 it is held to a brute-force search over every
family of morphisms into the vertex; at n=5 the right-side categories have
a known answer, the dual principal cones; and a category with one hom-set
damaged at a maximal object must make cones-principal fail.
"""

from itertools import product

import pytest

from chaincat import verify
from chaincat.chain import Subset, enumerate_oxn
from chaincat.cones import Cone, enumerate_normal_cones, mset, validate_cone
from chaincat.ideals import LCategory, RCategory
from chaincat.partitions import PartitionCategory
from chaincat.powerset import PowersetCategory


def _brute_force(cat, vertex) -> set:
    objs = cat.objects()
    families = (Cone(cat, vertex, dict(zip(objs, choice))) for choice in product(*(cat.hom(x, vertex) for x in objs)))
    return {c for c in families if validate_cone(c) and mset(c)}


@pytest.mark.parametrize("category", [LCategory, PowersetCategory, RCategory, PartitionCategory])
def test_matches_brute_force_at_3(category):
    cat = category(3)
    total = 0
    for vertex in cat.objects():
        found = enumerate_normal_cones(cat, vertex)
        assert len(found) == len(set(found))
        assert set(found) == _brute_force(cat, vertex)
        total += len(found)
    assert total == {LCategory: 9, PowersetCategory: 9, RCategory: 14, PartitionCategory: 14}[category]


@pytest.mark.parametrize("build", [verify.right_category, verify.partition_category])
def test_right_side_normal_cones_at_5_are_the_dual_principal_cones(build):
    cat = build(5)
    found = [c for vertex in cat.objects() for c in enumerate_normal_cones(cat, vertex)]
    assert len(found) == 125
    assert set(found) == {cat.dual_principal_cone(a) for a in enumerate_oxn(5)}


VERTEX = Subset(4, (1, 2, 3))
MAXIMAL = Subset(4, (1, 2, 4))


class DroppedHom(LCategory):
    """The left-ideal category with the bijection {1,2,4} -> {1,2,3} missing
    from its hom-set; the principal cones of [1,2,2,3] and [1,2,3,3] have
    that bijection as their component at {1,2,4}."""

    def hom(self, a, b):
        hom = super().hom(a, b)
        return tuple(f for f in hom if not f.is_bijective()) if (a, b) == (MAXIMAL, VERTEX) else hom


def test_dropped_hom_morphism_fails_cones_principal(fresh_builds, monkeypatch):
    planted = DroppedHom(4)
    assert len(planted.hom(MAXIMAL, VERTEX)) == len(LCategory(4).hom(MAXIMAL, VERTEX)) - 1
    assert not any(planted.leq(MAXIMAL, x) for x in planted.objects() if x != MAXIMAL)
    monkeypatch.setattr(verify, "left_category", lambda n: planted)

    report = verify.run_check("cones-principal", 4)
    assert report.status == "fail"
    assert report.witness["missing"] >= 1 and report.witness["extra"] == 0
    cone = report.witness["cone"]
    assert cone["vertex"] == "{1,2,3}"
    assert cone["components"]["{1,2,4}"] == "rho({1,2,4} -> {1,2,3}: [1,2,3])"
