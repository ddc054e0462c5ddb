import pytest

from chaincat.chain import (
    BlockMap,
    OPMap,
    OrderedPartition,
    SubMap,
    Subset,
    compose,
    enumerate_oxn,
    extend_by_idempotent,
    idempotent_for_image,
    idempotent_for_kernel,
    image,
    kernel,
    proper_subsets,
)
from chaincat.cones import cone_mul, mset, validate_cone
from chaincat.ideals import (
    RCategory,
    l_morphism_from_triple,
    phi_representation,
    r_morphism_from_triple,
)
from chaincat.semigroups import (
    build,
    find_isomorphism,
    is_antihomomorphism,
    is_homomorphism,
    opposite,
)
from chaincat.verify import (
    left_category,
    oxn_semigroup,
    partition_category,
    phi_into_tr,
    powerset_category,
    right_category,
)


def sub(n, *elems):
    return Subset.of(n, elems)


def idempotents_with_image(n, a):
    return [e for e in enumerate_oxn(n) if e.is_idempotent() and image(e) == a]


class TestLMorphismFromTriple:
    def test_frozen_example(self):
        # the natural representative of this class is e_a*u = [2,3,3]
        m = l_morphism_from_triple(OPMap((1, 3, 3)), OPMap((2, 3, 3)), OPMap((2, 2, 3)))
        assert m.source.elements == (1, 3)
        assert m.target.elements == (2, 3)
        assert m.values == (2, 3)

    def test_sandwich_membership_enforced(self):
        # [2,2,3] itself satisfies e_a*u != u, so the triple is rejected
        with pytest.raises(ValueError, match="sandwich"):
            l_morphism_from_triple(OPMap((1, 3, 3)), OPMap((2, 2, 3)), OPMap((2, 2, 3)))

    def test_identity_triple(self):
        e = OPMap((1, 3, 3))
        m = l_morphism_from_triple(e, e, e)
        assert m.source == m.target and m.is_identity()

    def test_constant_triple(self):
        m = l_morphism_from_triple(OPMap((1, 3, 3)), OPMap((2, 2, 2)), OPMap((2, 2, 2)))
        assert m.values == (2, 2)

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError, match="idempotent"):
            l_morphism_from_triple(OPMap((1, 1, 2)), OPMap((1, 1, 2)), OPMap((1, 1, 3)))

    @pytest.mark.parametrize("n", [3, 4])
    def test_triple_equality_matches_translation_oracle(self, n):
        """Triples canonicalize together exactly when the underlying
        right-translation functions on the principal ideal agree, across all
        choices of representative idempotents; equivalently when the second
        element is the first pushed through the other source idempotent."""
        from itertools import product

        maps = enumerate_oxn(n)
        for a in proper_subsets(n):
            ideal = [w for w in maps if image(w).issubset(a)]
            for b in proper_subsets(n):
                reps = list(product(idempotents_with_image(n, a), idempotents_with_image(n, b)))
                sandwiches = {
                    (e_a, e_b): sorted(
                        {compose(compose(e_a, s), e_b) for s in maps}, key=lambda m: m.images
                    )
                    for e_a, e_b in reps
                }
                for e_a, e_b in reps:
                    morphisms1 = [
                        (u, l_morphism_from_triple(e_a, u, e_b)) for u in sandwiches[(e_a, e_b)]
                    ]
                    for e_a2, e_b2 in reps:
                        for u, mu in morphisms1:
                            for v in sandwiches[(e_a2, e_b2)]:
                                same_morphism = mu == l_morphism_from_triple(e_a2, v, e_b2)
                                same_translation = all(
                                    compose(w, u) == compose(w, v) for w in ideal
                                )
                                same_pushed = v == compose(e_a2, u)
                                assert same_morphism == same_translation == same_pushed


class TestLCompose:
    def test_frozen_example(self):
        m1 = SubMap(sub(3, 1, 3), sub(3, 2, 3), (2, 3))
        m2 = SubMap(sub(3, 2, 3), sub(3, 1, 2), (1, 2))
        assert left_category(3).compose(m1, m2).values == (1, 2)

    def test_identity_neutral(self):
        cat = left_category(3)
        for a in cat.objects():
            for b in cat.objects():
                for m in cat.hom(a, b):
                    assert cat.compose(cat.identity(a), m) == m
                    assert cat.compose(m, cat.identity(b)) == m

    def test_inclusion_then_map(self):
        incl = SubMap.inclusion(sub(3, 1), sub(3, 1, 3))
        m = SubMap(sub(3, 1, 3), sub(3, 2, 3), (2, 3))
        assert left_category(3).compose(incl, m).values == (2,)

    def test_mismatch_rejected(self):
        cat = left_category(3)
        a, b = cat.objects()[0], cat.objects()[1]
        with pytest.raises(ValueError):
            cat.compose(cat.hom(a, b)[0], cat.hom(a, b)[0])


class TestLNormalFactorize:
    def test_frozen_example(self):
        cat = left_category(4)
        m = SubMap(sub(4, 1, 2, 4), sub(4, 1, 3, 4), (3, 3, 4))
        q, u, j = cat.normal_factorize(m)
        assert q.target.elements == (1, 4)
        assert q.values == (1, 1, 4)
        assert u.values == (3, 4)
        assert j.is_identity() is False and j.values == (3, 4)
        assert cat.compose(cat.compose(q, u), j) == m

    def test_iso_case(self):
        m = SubMap(sub(3, 1, 2), sub(3, 1, 3), (1, 3))
        q, u, j = left_category(3).normal_factorize(m)
        assert q.is_identity() and j.is_identity() and u == m

    def test_constant_case(self):
        m = SubMap(sub(3, 1, 2), sub(3, 2), (2, 2))
        q, u, j = left_category(3).normal_factorize(m)
        assert len(u.source) == len(u.target) == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_all_morphisms_recompose(self, n):
        cat = left_category(n)
        for a in cat.objects():
            for b in cat.objects():
                for m in cat.hom(a, b):
                    q, u, j = cat.normal_factorize(m)
                    assert cat.compose(cat.compose(q, u), j) == m
                    assert u.is_bijective()
                    assert j == cat.inclusion(j.source, j.target)
                    assert cat.compose(cat.inclusion(q.target, a), q) == cat.identity(q.target)

    def test_matches_sandwich_triple_form(self):
        """The three factors agree with the canonical triples built from the
        choices: g the idempotent with the action's extended kernel and the
        minimum cross-section image, h the step idempotent on the action
        image."""
        n = 3
        cat = left_category(n)
        for a in cat.objects():
            for b in cat.objects():
                e_a = idempotent_for_image(a)
                e_b = idempotent_for_image(b)
                for m in cat.hom(a, b):
                    q, u, j = cat.normal_factorize(m)
                    u_hat = extend_by_idempotent(m)
                    fiber_min = {}
                    for y in a.elements:
                        fiber_min.setdefault(m(y), y)
                    g = OPMap(tuple(fiber_min[u_hat(x)] for x in range(1, n + 1)))
                    h = idempotent_for_image(u.target)
                    assert g.is_idempotent()
                    assert l_morphism_from_triple(e_a, g, g) == q
                    assert l_morphism_from_triple(g, compose(g, u_hat), h) == u
                    assert l_morphism_from_triple(h, compose(h, e_b), e_b) == j


class TestPrincipalCone:
    def test_frozen_components(self):
        cat = left_category(3)
        c = cat.principal_cone(OPMap((1, 1, 2)))
        assert c.vertex.elements == (1, 2)
        at_3 = c.components[sub(3, 3)]
        assert at_3.values == (2,)
        at_13 = c.components[sub(3, 1, 3)]
        assert at_13.values == (1, 2)

    def test_idempotent_gives_idempotent_cone(self):
        cat = left_category(3)
        c = cat.principal_cone(OPMap((1, 1, 3)))
        assert c.components[c.vertex].is_identity()
        assert cone_mul(c, c) == c

    def test_constant_map(self):
        cat = left_category(3)
        c = cat.principal_cone(OPMap((2, 2, 2)))
        assert all(m.values == (2,) * len(m.source) for m in c.components.values())

    def test_identity_map_rejected(self):
        with pytest.raises(ValueError):
            left_category(3).principal_cone(OPMap.identity(3))

    @pytest.mark.parametrize("n", [3, 4])
    def test_mset_is_kernel_cross_sections(self, n):
        cat = left_category(n)
        for alpha in enumerate_oxn(n):
            ms = mset(cat.principal_cone(alpha))
            expected = {
                image(e)
                for e in enumerate_oxn(n)
                if e.is_idempotent() and kernel(e) == kernel(alpha)
            }
            assert ms == expected


class TestRMorphisms:
    def test_frozen_triple(self):
        e, f = OPMap((1, 1, 3)), OPMap((1, 2, 2))
        v = compose(compose(f, OPMap((1, 3, 3))), e)
        assert v.images == (1, 3, 3)
        m = r_morphism_from_triple(e, v, f)
        assert m.source.block_sizes == (2, 1)
        assert m.target.block_sizes == (1, 2)
        assert m.images == (0, 1)

    def test_identity_triple(self):
        e = OPMap((1, 1, 3))
        m = r_morphism_from_triple(e, e, e)
        assert m.source == m.target and m.is_identity()

    def test_constant_triple(self):
        e, f = OPMap((1, 1, 3)), OPMap((1, 2, 2))
        v = compose(compose(f, OPMap((1, 1, 1))), e)
        m = r_morphism_from_triple(e, v, f)
        assert m.images == (0, 0)

    def test_inclusion_built_once_per_pair(self):
        cat = RCategory(4)
        for a, b in cat.subobject_pairs():
            m = cat.inclusion(a, b)
            assert m == BlockMap.containment(a, b)
            assert cat.inclusion(a, b) is m
        with pytest.raises(ValueError):
            cat.inclusion(*reversed(cat.subobject_pairs()[0]))

    def test_sandwich_membership_enforced(self):
        with pytest.raises(ValueError, match="sandwich"):
            r_morphism_from_triple(OPMap((1, 1, 3)), OPMap((2, 2, 3)), OPMap((1, 2, 2)))

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError, match="idempotent"):
            r_morphism_from_triple(OPMap((1, 1, 2)), OPMap((1, 1, 1)), OPMap((1, 1, 3)))

    def test_compose_mismatch(self):
        cat = right_category(3)
        a, b = cat.objects()[0], cat.objects()[1]
        m = cat.hom(a, b)[0]
        with pytest.raises(ValueError):
            cat.compose(m, m)

    def test_composition_reverses_block_maps(self):
        cat = right_category(3)
        for a in cat.objects():
            for b in cat.objects():
                for m1 in cat.hom(a, b):
                    for c in cat.objects():
                        for m2 in cat.hom(b, c):
                            out = cat.compose(m1, m2)
                            assert (out.source, out.target) == (a, c)
                            assert out.images == tuple(m1.images[j] for j in m2.images)

    def test_homs_independent_of_representative_idempotents(self):
        """The morphism set between two ideals does not depend on which
        idempotent generates each; recomputing with maximum-representative
        idempotents gives the same canonical block maps."""
        n = 3
        cat = right_category(n)

        def max_rep_idempotent(p):
            values = []
            for block in p.blocks:
                values.extend([block[-1]] * len(block))
            return OPMap(tuple(values))

        for a in cat.objects():
            for b in cat.objects():
                e, f = max_rep_idempotent(a), max_rep_idempotent(b)
                assert e.is_idempotent() and f.is_idempotent()
                alt = {
                    r_morphism_from_triple(e, compose(compose(f, s), e), f)
                    for s in enumerate_oxn(n)
                }
                assert alt == set(cat.hom(a, b))


class TestDualPrincipalCone:
    def test_frozen_vertex(self):
        cat = right_category(3)
        c = cat.dual_principal_cone(OPMap((1, 1, 2)))
        assert c.vertex.block_sizes == (2, 1)

    def test_idempotent_gives_idempotent_cone(self):
        cat = right_category(3)
        c = cat.dual_principal_cone(OPMap((1, 1, 3)))
        assert c.components[c.vertex].is_identity()
        assert cone_mul(c, c) == c

    def test_constant_map(self):
        cat = right_category(3)
        c = cat.dual_principal_cone(OPMap((2, 2, 2)))
        assert c.vertex.block_sizes == (3,)
        for m in c.components.values():
            assert len(set(m.images)) == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_all_validate_and_normal(self, n):
        cat = right_category(n)
        for alpha in enumerate_oxn(n):
            c = cat.dual_principal_cone(alpha)
            assert validate_cone(c) and mset(c)

    def test_matches_sandwich_triples(self):
        """Each component is the canonical form of lambda(e, alpha*e, f) for
        f an idempotent sharing alpha's kernel."""
        n = 3
        cat = right_category(n)
        for alpha in enumerate_oxn(n):
            f = idempotent_for_kernel(kernel(alpha))
            c = cat.dual_principal_cone(alpha)
            for obj, m in c.components.items():
                e = idempotent_for_kernel(obj)
                assert m == r_morphism_from_triple(e, compose(alpha, e), f)

    @pytest.mark.parametrize("n", [3, 4])
    def test_products_reverse(self, n):
        cat = right_category(n)
        for a in enumerate_oxn(n)[:12]:
            for b in enumerate_oxn(n)[:12]:
                prod = cone_mul(cat.dual_principal_cone(a), cat.dual_principal_cone(b))
                assert prod == cat.dual_principal_cone(compose(b, a))


class TestPhiRepresentation:
    @pytest.mark.parametrize("n", [3, 4])
    def test_injective_closed_antihomomorphism(self, n):
        phi = phi_into_tr(n)
        assert phi.source.order == phi.target.order == len(enumerate_oxn(n))
        assert phi.is_bijective()
        assert is_antihomomorphism(phi)
        assert not is_homomorphism(phi)

    def test_image_is_opposite_copy(self):
        # the image realizes the opposite algebra: isomorphic to the reversed
        # semigroup, provably not to the semigroup itself
        phi = phi_into_tr(3)
        ox = oxn_semigroup(3)
        assert find_isomorphism(opposite(ox), phi.target) is not None
        assert find_isomorphism(ox, phi.target) is None

    @pytest.mark.parametrize("n", [3, 4])
    def test_image_semigroup_regular(self, n):
        from chaincat.semigroups import is_regular

        assert is_regular(phi_into_tr(n).target)

    def test_source_semigroup_must_list_the_singular_maps_in_order(self):
        cat = right_category(3)
        ox = oxn_semigroup(3)
        phi = phi_representation(cat, ox)
        assert phi.source is ox
        assert phi_representation(cat).assignment == phi.assignment
        reordered = build(enumerate_oxn(3)[::-1], compose)
        for wrong in (reordered, oxn_semigroup(4)):
            with pytest.raises(ValueError, match="singular maps in order"):
                phi_representation(cat, wrong)

    def test_distinct_kernels_distinct_vertices(self):
        cat = right_category(3)
        for a in enumerate_oxn(3):
            for b in enumerate_oxn(3):
                if kernel(a) != kernel(b):
                    ca = cat.dual_principal_cone(a)
                    cb = cat.dual_principal_cone(b)
                    assert ca.vertex != cb.vertex

    def test_separator_witness_frozen(self):
        cat = right_category(3)
        a, b = OPMap((1, 1, 2)), OPMap((1, 1, 3))
        e = OPMap((2, 2, 3))
        obj = kernel(e)
        ca, cb = cat.dual_principal_cone(a), cat.dual_principal_cone(b)
        assert ca.components[obj] != cb.components[obj]


@pytest.mark.parametrize(
    "build,a,b",
    [
        (left_category, Subset(4, (1, 3)), Subset(4, (2, 3))),
        (powerset_category, Subset(4, (1, 3)), Subset(4, (2, 3))),
        (right_category, OrderedPartition(4, (2, 2)), OrderedPartition(4, (1, 3))),
        (partition_category, OrderedPartition(4, (2, 2)), OrderedPartition(4, (1, 3))),
    ],
    ids=["L", "Po", "R", "Pi"],
)
def test_incomparable_objects_have_no_inclusion_or_retraction(build, a, b):
    cat = build(4)
    for x, y in ((a, b), (b, a)):
        assert not cat.leq(x, y)
        with pytest.raises(ValueError):
            cat.inclusion(x, y)
        with pytest.raises(ValueError):
            cat.retraction(x, y)
