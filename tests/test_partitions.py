import pytest

from chaincat.chain import (
    BlockMap,
    OPMap,
    OrderedPartition,
    enumerate_oxn,
    kernel,
)
from chaincat.cones import (
    check_functor_isomorphism,
    check_normal_category_axioms,
    cone_mul,
    cone_semigroup,
    mset,
    validate_cone,
)
from chaincat.partitions import factorize_pi
from chaincat.semigroups import find_isomorphism, is_regular, opposite
from chaincat.verify import oxn_semigroup, partition_category, right_category


def pobj(n, *sizes):
    return OrderedPartition(n, sizes)


def morphism(p, q, *images):
    return BlockMap(p, q, images)


class TestPiCompose:
    @pytest.mark.parametrize("build", [right_category, partition_category])
    def test_hom_sets_hold_block_maps(self, build):
        cat = build(4)
        objs = cat.objects()
        for a in objs:
            for b in objs:
                for m in cat.hom(a, b):
                    assert type(m) is BlockMap
                    assert (m.source, m.target) == (a, b) and len(m.images) == b.num_blocks

    def test_block_maps_compose_reversed(self):
        p1, p2, p3 = pobj(4, 1, 1, 2), pobj(4, 2, 2), pobj(4, 4)
        m1 = morphism(p1, p2, 0, 2)
        m2 = morphism(p2, p3, 1)
        out = partition_category(4).compose(m1, m2)
        assert out.source == p1 and out.target == p3
        assert out.images == tuple(m1.images[j] for j in m2.images)
        assert out.images == (2,)

    def test_identity_neutral(self):
        cat = partition_category(3)
        for a in cat.objects():
            for b in cat.objects():
                for m in cat.hom(a, b):
                    assert cat.compose(cat.identity(a), m) == m
                    assert cat.compose(m, cat.identity(b)) == m

    def test_constants_compose_to_constant(self):
        p1, p2, p3 = pobj(4, 1, 1, 2), pobj(4, 2, 2), pobj(4, 4)
        m1 = morphism(p1, p2, 0, 0)
        m2 = morphism(p2, p3, 0)
        assert partition_category(4).compose(m1, m2).images == (0,)

    def test_mismatch_rejected(self):
        p1, p2 = pobj(4, 1, 1, 2), pobj(4, 2, 2)
        m = morphism(p1, p2, 0, 2)
        with pytest.raises(ValueError):
            partition_category(4).compose(m, m)


class TestPiOrder:
    def test_refinement_examples(self):
        cat = partition_category(4)
        assert cat.leq(pobj(4, 4), pobj(4, 2, 2))
        assert cat.leq(pobj(4, 2, 2), pobj(4, 2, 2))
        assert not cat.leq(pobj(4, 1, 3), pobj(4, 3, 1))
        assert not cat.leq(pobj(4, 3, 1), pobj(4, 1, 3))

    def test_inclusion_and_retraction_frozen(self):
        cat = partition_category(4)
        p, q = pobj(4, 4), pobj(4, 2, 2)
        incl, retr = cat.inclusion(p, q), cat.retraction(p, q)
        assert incl.images == (0, 0)
        assert retr.images == (0,)
        assert cat.compose(incl, retr) == BlockMap.identity(p)

    def test_min_block_rule(self):
        cat = partition_category(4)
        p, q = pobj(4, 2, 2), pobj(4, 1, 1, 2)
        incl, retr = cat.inclusion(p, q), cat.retraction(p, q)
        assert incl.images == (0, 0, 1)
        assert retr.images == (0, 2)

    def test_equal_objects_give_identities(self):
        cat = partition_category(4)
        p = pobj(4, 2, 2)
        incl, retr = cat.inclusion(p, p), cat.retraction(p, p)
        assert incl.is_identity() and retr.is_identity()

    def test_not_below_rejected(self):
        with pytest.raises(ValueError):
            partition_category(4).inclusion(pobj(4, 2, 2), pobj(4, 4))


class TestFactorizePi:
    def test_frozen_example(self):
        p1, p2 = pobj(4, 1, 1, 2), pobj(4, 2, 2)
        m = morphism(p1, p2, 0, 2)
        q, u, v = factorize_pi(m)
        assert q.target.block_sizes == (1, 3)
        assert v.source.block_sizes == (2, 2)
        assert q.images == (0, 2)
        assert u.is_bijective()
        cat = partition_category(4)
        assert cat.compose(cat.compose(q, u), v) == m

    def test_constant_absorbs_everything(self):
        p1, p2 = pobj(4, 1, 1, 2), pobj(4, 2, 2)
        m = morphism(p1, p2, 0, 0)
        q, u, v = factorize_pi(m)
        assert q.target.block_sizes == (4,)
        assert v.source.block_sizes == (4,)

    def test_identity_factors_trivially(self):
        p = pobj(4, 2, 2)
        m = BlockMap.identity(p)
        q, u, v = factorize_pi(m)
        assert q.is_identity() and v.is_identity() and u.is_identity()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_all_morphisms(self, n):
        cat = partition_category(n)
        for a in cat.objects():
            for b in cat.objects():
                for m in cat.hom(a, b):
                    q, u, v = factorize_pi(m)
                    assert cat.compose(cat.compose(q, u), v) == m
                    assert u.is_bijective()
                    assert v == cat.inclusion(v.source, v.target)
                    assert cat.compose(cat.inclusion(q.target, a), q) == cat.identity(q.target)
                    # coarsenings are valid interval partitions by construction
                    assert sum(q.target.block_sizes) == n
                    assert sum(v.source.block_sizes) == n


class TestIdempotentPiCone:
    """The dual principal cones of idempotents: each has the kernel as
    vertex and the identity there, and squares to itself."""

    def test_frozen_example(self):
        cat = partition_category(3)
        vertex = pobj(3, 2, 1)
        c = cat.dual_principal_cone(OPMap((1, 1, 3)))
        assert c.vertex == vertex
        assert c.components[pobj(3, 3)].images == (0, 0)
        assert c.components[vertex].is_identity()
        assert c.components[pobj(3, 1, 2)].images == (0, 1)
        assert validate_cone(c) and mset(c)

    def test_constant_vertex(self):
        cat = partition_category(3)
        c = cat.dual_principal_cone(OPMap((2, 2, 2)))
        assert c.vertex == pobj(3, 3)
        assert all(len(set(m.images)) == 1 for m in c.components.values())

    def test_squares_to_itself(self):
        cat = partition_category(3)
        c = cat.dual_principal_cone(OPMap((1, 1, 3)))
        assert cone_mul(c, c) == c

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_all_vertex_idempotent_pairs(self, n):
        cat = partition_category(n)
        for u in enumerate_oxn(n):
            if u.is_idempotent():
                c = cat.dual_principal_cone(u)
                assert c.vertex == kernel(u)
                assert validate_cone(c) and mset(c)
                assert c.components[c.vertex].is_identity()
                assert cone_mul(c, c) == c

    @pytest.mark.parametrize("n", [3, 4])
    def test_normal_category_axioms(self, n):
        ok, counts, witness = check_normal_category_axioms(partition_category(n))
        assert ok, witness


class TestFunctorG:
    """G is the identity from the right-ideal category to the partition
    category, so it is an isomorphism exactly when the two hom sources agree."""

    def test_object_mapping_frozen(self):
        rcat, picat = right_category(3), partition_category(3)
        e = OPMap((1, 1, 3))
        src_obj = next(o for o in rcat.objects() if o == kernel(e))
        assert src_obj == pobj(3, 2, 1)
        assert src_obj in picat.objects()

    def test_identity_preserved(self):
        rcat, picat = right_category(3), partition_category(3)
        a = rcat.objects()[0]
        assert rcat.identity(a) == picat.identity(a)
        assert picat.identity(a) in rcat.hom(a, a) and picat.identity(a) in picat.hom(a, a)

    @pytest.mark.parametrize("n", [3, 4])
    def test_isomorphism_exhaustive(self, n):
        ok, counts, witness = check_functor_isomorphism(right_category(n), partition_category(n))
        assert ok, witness

    def test_hom_cardinalities_agree_n3(self):
        rcat, picat = right_category(3), partition_category(3)
        assert rcat.objects() == picat.objects()
        for a in rcat.objects():
            for b in rcat.objects():
                assert len(rcat.hom(a, b)) == len(picat.hom(a, b))


class TestTransportedImage:
    @pytest.mark.parametrize("n", [3, 4])
    def test_transported_cones_match_functor_image(self, n):
        rcat, picat = right_category(n), partition_category(n)
        for alpha in enumerate_oxn(n):
            dual = rcat.dual_principal_cone(alpha)
            transported = picat.dual_principal_cone(alpha)
            assert transported.vertex == dual.vertex
            for obj, m in dual.components.items():
                assert transported.components[obj] == m

    @pytest.mark.parametrize("n", [3, 4])
    def test_closed_subsemigroup_opposite_copy(self, n):
        picat = partition_category(n)
        cones = [picat.dual_principal_cone(a) for a in enumerate_oxn(n)]
        assert len(set(cones)) == len(cones)
        tpi = cone_semigroup(cones)
        assert is_regular(tpi)
        ox = oxn_semigroup(n)
        assert find_isomorphism(opposite(ox), tpi) is not None
        if n == 3:
            assert find_isomorphism(ox, tpi) is None


class TestFullRightConeSemigroups:
    """The complete normal-cone semigroups over the right-side categories:
    strictly larger than the translation image at n=3, and still closed,
    regular and mutually isomorphic."""

    @pytest.mark.parametrize("n,total", [(3, 14), (4, 34)])
    def test_enumeration_counts_and_structure(self, n, total):
        from chaincat.cones import enumerate_normal_cones
        from chaincat.verify import right_category

        rcat, picat = right_category(n), partition_category(n)
        r_cones = [c for v in rcat.objects() for c in enumerate_normal_cones(rcat, v)]
        p_cones = [c for v in picat.objects() for c in enumerate_normal_cones(picat, v)]
        assert len(r_cones) == len(p_cones) == total
        duals = {rcat.dual_principal_cone(a) for a in enumerate_oxn(n)}
        assert duals <= set(r_cones)
        tr = cone_semigroup(r_cones)
        tp = cone_semigroup(p_cones)
        assert is_regular(tr) and is_regular(tp)
        assert find_isomorphism(tr, tp) is not None

    def test_non_translation_cone_witness(self):
        """At n=3 a normal cone at the one-block vertex may hit different
        blocks at the two finer objects, which no single map can induce."""
        from chaincat.chain import BlockMap, OrderedPartition
        from chaincat.cones import Cone, mset, validate_cone
        from chaincat.verify import right_category

        rcat = right_category(3)
        vertex = OrderedPartition(3, (3,))
        components = {}
        for obj in rcat.objects():
            sizes = obj.block_sizes
            if sizes == (1, 2):
                images = (0,)
            elif sizes == (2, 1):
                images = (1,)
            else:
                images = (0,)
            components[obj] = BlockMap(obj, vertex, images)
        cone = Cone(rcat, vertex, components)
        assert validate_cone(cone) and mset(cone)
        assert all(cone != rcat.dual_principal_cone(a) for a in enumerate_oxn(3))
