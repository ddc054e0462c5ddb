import pytest

from chaincat.chain import OPMap, SubMap, Subset, enumerate_oxn
from chaincat.cones import (
    check_functor_isomorphism,
    check_normal_category_axioms,
    cone_mul,
    enumerate_normal_cones,
    validate_cone,
)
from chaincat.ideals import l_morphism_from_triple
from chaincat.chain import compose, extend_by_idempotent, idempotent_for_image
from chaincat.powerset import cone_to_opmap
from chaincat.verify import check_f_iso, left_category, powerset_category


def sub(n, *elems):
    return Subset.of(n, elems)


class TestProvider:
    def test_object_count(self):
        assert len(powerset_category(3).objects()) == 6
        assert len(powerset_category(4).objects()) == 14

    def test_hom_count_frozen(self):
        cat = powerset_category(3)
        hom = cat.hom(sub(3, 1, 2), sub(3, 1, 3))
        assert len(hom) == 3
        assert {m.values for m in hom} == {(1, 1), (1, 3), (3, 3)}

    def test_retraction_example(self):
        cat = powerset_category(3)
        r = cat.retraction(sub(3, 1), sub(3, 1, 2))
        assert r.values == (1, 1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_normal_category_axioms(self, n):
        ok, counts, witness = check_normal_category_axioms(powerset_category(n))
        assert ok, witness

    def test_any_cross_section_factorizes(self):
        """The minimum-representative cross-section is a free choice: the
        maximum-representative one also splits every morphism."""
        cat = powerset_category(4)
        for a in cat.objects():
            for b in cat.objects():
                for f in cat.hom(a, b):
                    fiber_max = {}
                    for x in a.elements:
                        fiber_max[f(x)] = x
                    cross = Subset.of(4, fiber_max.values())
                    q2 = SubMap(a, cross, tuple(fiber_max[f(x)] for x in a.elements))
                    img = Subset.of(4, f.values)
                    u2 = SubMap(cross, img, tuple(f(x) for x in cross.elements))
                    j2 = SubMap.inclusion(img, b)
                    assert q2.then(u2).then(j2) == f
                    assert SubMap.inclusion(cross, a).then(q2) == SubMap.identity(cross)
                    assert u2.is_bijective()


class TestVertexCone:
    """The principal cones of idempotents: each has the image as vertex and
    the identity there, and squares to itself."""

    def test_frozen_example(self):
        cat = powerset_category(3)
        c = cat.principal_cone(OPMap((1, 3, 3)))
        assert c.vertex == sub(3, 1, 3)
        assert c.components[sub(3, 2)].values == (3,)
        assert c.components[sub(3, 1, 2)].values == (1, 3)
        assert c.components[sub(3, 1, 3)].is_identity()
        assert validate_cone(c)

    def test_singleton_vertex(self):
        cat = powerset_category(3)
        c = cat.principal_cone(OPMap((2, 2, 2)))
        assert c.vertex == sub(3, 2)
        assert all(set(m.values) == {2} for m in c.components.values())

    def test_idempotent_under_cone_mul(self):
        cat = powerset_category(3)
        c = cat.principal_cone(OPMap((1, 2, 2)))
        assert cone_mul(c, c) == c


class TestConeToOPMap:
    def test_frozen_examples(self):
        cat = powerset_category(3)
        a = OPMap((1, 2, 2))
        assert cone_to_opmap(cat.principal_cone(a)) == a
        assert cone_to_opmap(cat.principal_cone(OPMap((2, 2, 3)))) == OPMap((2, 2, 3))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_roundtrip(self, n):
        cat = powerset_category(n)
        for a in enumerate_oxn(n):
            assert cone_to_opmap(cat.principal_cone(a)) == a

    def test_non_normal_rejected(self):
        cat = powerset_category(3)
        vertex = sub(3, 1, 2)
        constant = {b: SubMap(b, vertex, (2,) * len(b)) for b in cat.objects()}
        from chaincat.cones import Cone

        c = Cone(cat, vertex, constant)
        assert validate_cone(c)
        with pytest.raises(ValueError, match="normal"):
            cone_to_opmap(c)

    def test_wrong_category_rejected(self):
        lcat = left_category(3)
        with pytest.raises(ValueError, match="powerset"):
            cone_to_opmap(lcat.principal_cone(OPMap((1, 1, 2))))


class TestFunctorF:
    """F is the identity from the left-ideal category to the powerset
    category, so it is an isomorphism exactly when the two hom sources agree."""

    def test_identity_preserved(self):
        lcat, pocat = left_category(3), powerset_category(3)
        a = lcat.objects()[3]
        assert lcat.identity(a) == pocat.identity(a)
        assert pocat.identity(a) in lcat.hom(a, a) and pocat.identity(a) in pocat.hom(a, a)

    def test_fullness_witness(self):
        # a subset-level map pulled back through the sandwich construction
        f = SubMap(sub(3, 1, 3), sub(3, 2, 3), (2, 3))
        e_a = idempotent_for_image(sub(3, 1, 3))
        e_b = idempotent_for_image(sub(3, 2, 3))
        u_hat = extend_by_idempotent(f)
        assert compose(e_a, u_hat) == u_hat and compose(u_hat, e_b) == u_hat
        m = l_morphism_from_triple(e_a, u_hat, e_b)
        assert m == f
        assert m in left_category(3).hom(f.source, f.target)
        assert f in powerset_category(3).hom(f.source, f.target)

    @pytest.mark.parametrize("n", [3, 4])
    def test_isomorphism_exhaustive(self, n):
        ok, counts, witness = check_functor_isomorphism(left_category(n), powerset_category(n))
        assert ok, witness

    def test_isomorphism_n5(self):
        ok, counts, witness = check_f_iso(5)
        assert ok, witness
        assert counts["source_objects"] == counts["target_objects"] == 30
        assert counts["exhaustive"] == 1

    def test_morphism_totals_agree(self):
        lcat, pocat = left_category(3), powerset_category(3)
        total_l = sum(len(lcat.hom(a, b)) for a in lcat.objects() for b in lcat.objects())
        total_p = sum(len(pocat.hom(a, b)) for a in pocat.objects() for b in pocat.objects())
        assert total_l == total_p == 63


@pytest.mark.parametrize("n", [3, 4])
def test_all_normal_cones_come_from_maps(n):
    cat = powerset_category(n)
    total = []
    for v in cat.objects():
        total.extend(enumerate_normal_cones(cat, v))
    assert len(total) == len(enumerate_oxn(n))
    assert set(total) == {cat.principal_cone(a) for a in enumerate_oxn(n)}


def test_principal_cone_requires_singular():
    with pytest.raises(ValueError):
        powerset_category(3).principal_cone(OPMap.identity(3))
