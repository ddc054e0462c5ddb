import pytest

from chaincat.chain import OPMap, OrderedPartition, Subset, enumerate_oxn, image
from chaincat.cones import (
    Cone,
    cone_json,
    cone_mul,
    cone_semigroup,
    enumerate_normal_cones,
    mset,
    validate_cone,
)
from chaincat.ideals import LCategory, RCategory
from chaincat.partitions import PartitionCategory
from chaincat.powerset import PowersetCategory
from chaincat.powerset import cone_to_opmap
from chaincat.semigroups import ClosureError, is_regular
from chaincat.verify import left_category, powerset_category


@pytest.fixture(scope="module")
def lcat3():
    return left_category(3)


@pytest.fixture(scope="module")
def pocat3():
    return powerset_category(3)


class TestValidate:
    def test_principal_cones_validate(self, lcat3, pocat3):
        for cat in (lcat3, pocat3):
            for a in enumerate_oxn(3):
                assert validate_cone(cat.principal_cone(a))

    def test_overwritten_component_fails(self, lcat3):
        cone = lcat3.principal_cone(OPMap((1, 1, 2)))
        obj = next(o for o in lcat3.objects() if o.elements == (1, 3))
        bad = dict(cone.components)
        # a genuine morphism into the vertex that does not restrict correctly
        bad[obj] = next(m for m in lcat3.hom(obj, cone.vertex) if m != cone.components[obj])
        corrupted = Cone(lcat3, cone.vertex, bad)
        assert not validate_cone(corrupted)
        with pytest.raises(ValueError):
            mset(corrupted)


class TestImmutability:
    def test_components_cannot_be_changed_in_place(self, lcat3):
        # a cone's hash is cached, so a component changed after hashing would
        # leave the cone filed under its old hash in every set and dict
        c = lcat3.principal_cone(OPMap((1, 1, 2)))
        d = lcat3.principal_cone(OPMap((1, 1, 2)))
        cones = {c}
        obj = next(o for o in lcat3.objects() if o.elements == (1, 3))
        other = next(m for m in lcat3.hom(obj, c.vertex) if m != c.component(obj))
        with pytest.raises(TypeError):
            c.components[obj] = other
        with pytest.raises(AttributeError):
            c.vertex = obj
        assert c.component(obj) != other and c.components[obj] != other
        assert d in cones and c == d and hash(c) == hash(d)

    @pytest.mark.parametrize("make", [LCategory, RCategory])
    def test_equal_over_separately_built_categories(self, make):
        first, second = make(3), make(3)
        cone = first.principal_cone if make is LCategory else first.dual_principal_cone
        other = second.principal_cone if make is LCategory else second.dual_principal_cone
        maps = enumerate_oxn(3)
        # the second category meets its vertices in the reverse order
        ours = [cone(a) for a in maps]
        theirs = [other(a) for a in reversed(maps)][::-1]
        for x, y in zip(ours, theirs):
            assert x == y and hash(x) == hash(y)
            assert dict(x.components) == dict(y.components)
        assert len(set(ours) | set(theirs)) == len(set(ours))

    def test_unequal_across_category_classes(self, lcat3, pocat3):
        # the same components over the same objects, but only the powerset
        # cone reads back as a map
        for a in enumerate_oxn(3):
            ours, theirs = lcat3.principal_cone(a), pocat3.principal_cone(a)
            assert dict(ours.components) == dict(theirs.components)
            assert ours != theirs and theirs != ours
            assert cone_to_opmap(theirs) == a
            with pytest.raises(ValueError):
                cone_to_opmap(ours)

    def test_incomplete_mapping_is_kept_and_invalid(self, lcat3):
        cone = lcat3.principal_cone(OPMap((1, 1, 2)))
        partial = dict(cone.components)
        missing = next(iter(partial))
        del partial[missing]
        c = Cone(lcat3, cone.vertex, partial)
        assert dict(c.components) == partial and c != cone
        assert not validate_cone(c)
        assert str(c) == repr(c) == "Cone(vertex={1,2}, 5 components)"
        with pytest.raises(KeyError):
            c.component(missing)

    def test_non_object_rejected(self, lcat3, pocat3):
        cone = lcat3.principal_cone(OPMap((1, 1, 2)))
        with pytest.raises(ValueError):
            Cone(lcat3, Subset.full(3), {})
        with pytest.raises(ValueError):
            Cone(lcat3, cone.vertex, {RCategory(3).objects()[0]: cone.component(cone.vertex)})


@pytest.mark.parametrize("category", [LCategory, PowersetCategory, RCategory, PartitionCategory])
def test_hom_and_cone_table_reject_non_objects(category):
    """The full chain, the all-singleton partition and an object of the
    other side are no objects of any of the four categories."""
    cat = category(3)
    obj = cat.objects()[0]
    for non in (Subset.full(3), OrderedPartition.identity(3), Subset(3, (1,)), OrderedPartition(3, (2, 1))):
        if non in cat.objects():
            continue
        for act in (
            lambda: cat.hom(non, obj),
            lambda: cat.hom(obj, non),
            lambda: cat.hom(non, non),
            lambda: cat.cone_table(non),
            lambda: enumerate_normal_cones(cat, non),
        ):
            with pytest.raises(ValueError, match="is not an object"):
                act()
    assert all(a in cat.objects() and b in cat.objects() for a, b in cat._hom_cache)
    assert set(cat._cone_tables) <= set(cat.objects())
    assert cat.hom(obj, obj) and enumerate_normal_cones(cat, obj)


@pytest.mark.parametrize("category", [LCategory, PowersetCategory, RCategory, PartitionCategory])
def test_tables_cones_and_inclusions_have_one_owner(category):
    """Each cone table knows its vertex and the vertex's position, every
    cone carries its table's category and vertex, and each designated
    inclusion is built once per pair."""
    cat = category(3)
    for k, vertex in enumerate(cat.objects()):
        table = cat.cone_table(vertex)
        assert table.category is cat and table.vertex == vertex and table.at == k == cat.position(vertex)
        for cone in enumerate_normal_cones(cat, vertex) + [cat.idempotent_cone(vertex)]:
            assert cone._table is table and cone.category is table.category and cone.vertex is table.vertex
    for a in cat.objects():
        for b in cat.objects():
            if cat.leq(a, b):
                assert cat.inclusion(a, b) is cat.inclusion(a, b)


class TestMSet:
    def test_kernel_cross_sections(self, lcat3):
        ms = mset(lcat3.principal_cone(OPMap((1, 1, 2))))
        assert {obj.elements for obj in ms} == {(1, 3), (2, 3)}

    def test_constant_map_gives_singletons(self, lcat3):
        ms = mset(lcat3.principal_cone(OPMap((2, 2, 2))))
        assert {obj.elements for obj in ms} == {(1,), (2,), (3,)}

    def test_normal_iff_mset_nonempty(self, lcat3):
        for a in enumerate_oxn(3):
            assert mset(lcat3.principal_cone(a))


class TestConeMul:
    def test_frozen_product(self, lcat3):
        a, b = OPMap((1, 1, 2)), OPMap((2, 2, 3))
        assert cone_mul(lcat3.principal_cone(a), lcat3.principal_cone(b)) == lcat3.principal_cone(OPMap((2, 2, 2)))

    def test_matches_composition_exhaustively(self, lcat3):
        for a in enumerate_oxn(3):
            for b in enumerate_oxn(3):
                assert cone_mul(lcat3.principal_cone(a), lcat3.principal_cone(b)) == lcat3.principal_cone(a * b)

    def test_idempotent_cone_squares_to_itself(self, lcat3):
        for a in enumerate_oxn(3):
            if a.is_idempotent():
                c = lcat3.principal_cone(a)
                assert cone_mul(c, c) == c

    def test_idempotence_criterion(self, lcat3):
        for a in enumerate_oxn(3):
            c = lcat3.principal_cone(a)
            squares = cone_mul(c, c) == c
            vertex_identity = c.components[c.vertex] == lcat3.identity(c.vertex)
            assert squares == vertex_identity == a.is_idempotent()

    def test_iso_component_keeps_second_vertex(self, lcat3):
        # when the second cone's component at the first vertex is an
        # isomorphism, the epimorphic part is the whole morphism and the
        # product lands at the second vertex
        for a in enumerate_oxn(3):
            ca = lcat3.principal_cone(a)
            for b in enumerate_oxn(3):
                cb = lcat3.principal_cone(b)
                if lcat3.is_isomorphism(cb.components[ca.vertex]):
                    assert cone_mul(ca, cb).vertex == cb.vertex

    def test_different_categories_rejected(self, lcat3, pocat3):
        a = OPMap((1, 1, 2))
        with pytest.raises(ValueError):
            cone_mul(lcat3.principal_cone(a), pocat3.principal_cone(a))


class TestConeSemigroup:
    def test_all_principal_cones_regular(self, lcat3):
        s = cone_semigroup([lcat3.principal_cone(a) for a in enumerate_oxn(3)])
        assert s.order == 9 and is_regular(s)

    def test_idempotent_cones_alone_not_closed(self, lcat3):
        idem = [lcat3.principal_cone(a) for a in enumerate_oxn(3) if a.is_idempotent()]
        with pytest.raises(ClosureError) as info:
            cone_semigroup(idem)
        escaped = info.value.product
        assert escaped not in idem

    def test_singleton_idempotent(self, lcat3):
        c = lcat3.principal_cone(OPMap((2, 2, 2)))
        s = cone_semigroup([c])
        assert s.order == 1 and s.table == [[0]]

    def test_invalid_input_rejected(self, lcat3):
        cone = lcat3.principal_cone(OPMap((1, 1, 2)))
        broken = Cone(lcat3, cone.vertex, {})
        with pytest.raises(ValueError):
            cone_semigroup([broken])

    @pytest.mark.parametrize("other", [PowersetCategory, LCategory])
    def test_cones_over_two_categories_rejected(self, lcat3, other):
        # the cones carry their categories; the last one lives over another
        # category, of another class or a second copy of L(3)
        *rest, last = enumerate_oxn(3)
        cones = [lcat3.principal_cone(a) for a in rest] + [other(3).principal_cone(last)]
        with pytest.raises(ValueError, match="cones live over different categories"):
            cone_semigroup(cones)


class TestEnumeration:
    def test_powerset_vertex_count_matches_image_classes(self, pocat3):
        v = Subset.of(3, [1, 2])
        found = enumerate_normal_cones(pocat3, v)
        expected = [a for a in enumerate_oxn(3) if image(a) == v]
        assert len(found) == len(expected) == 2
        assert set(found) == {pocat3.principal_cone(a) for a in expected}

    def test_left_category_total(self, lcat3):
        total = []
        for v in lcat3.objects():
            total.extend(enumerate_normal_cones(lcat3, v))
        assert len(total) == 9
        assert set(total) == {lcat3.principal_cone(a) for a in enumerate_oxn(3)}

    def test_powerset_total_matches_maps(self, pocat3):
        total = []
        for v in pocat3.objects():
            total.extend(enumerate_normal_cones(pocat3, v))
        assert len(total) == 9
        assert set(total) == {pocat3.principal_cone(a) for a in enumerate_oxn(3)}


def test_cone_json_shape(lcat3):
    data = cone_json(lcat3.principal_cone(OPMap((1, 1, 2))))
    assert data["vertex"] == "{1,2}"
    assert set(data["components"]) == {"{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2,3}"}
    assert data["components"]["{1,3}"].startswith("rho(")


def test_cone_label_names_the_maximal_components(lcat3, pocat3):
    a = OPMap((1, 1, 2))
    assert str(lcat3.principal_cone(a)) == (
        "{1,2}: rho({1,2} -> {1,2}: [1,1]) rho({1,3} -> {1,2}: [1,2]) rho({2,3} -> {1,2}: [1,2])"
    )
    assert str(pocat3.principal_cone(a)) == "{1,2}: [1,1] [1,2] [1,2]"


def test_rebuilt_category_gives_identical_tables():
    # the factorization choices are deterministic, so two fresh builds agree
    # element for element
    from chaincat.ideals import LCategory

    first, second = LCategory(3), LCategory(3)
    for x, y in zip(first.objects(), second.objects()):
        assert x == y
        assert first.hom(x, y) == second.hom(x, y)
    s1 = cone_semigroup([first.principal_cone(a) for a in enumerate_oxn(3)])
    s2 = cone_semigroup([second.principal_cone(a) for a in enumerate_oxn(3)])
    assert s1.table == s2.table and s1.elements == s2.elements
