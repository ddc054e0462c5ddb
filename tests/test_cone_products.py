"""Cone tables and honest hom-sets against their plain definitions, and the
checks resting on them failing when a defect is planted in a factorization
or a composed product."""

import pytest

from chaincat import cones, verify
from chaincat.cones import Cone, cone_json, cone_mul, cone_semigroup, validate_cone
from chaincat.chain import (
    BlockMap,
    OPMap,
    SubMap,
    Subset,
    compose,
    enumerate_oxn,
    idempotent_for_image,
    idempotent_for_kernel,
    image,
)
from chaincat.ideals import (
    LCategory,
    RCategory,
    l_morphism_from_triple,
    r_morphism_from_triple,
)
from chaincat.powerset import PowersetCategory
from chaincat.semigroups import ClosureError, build

TABLES = {
    "L": (verify.left_category, verify.tl_semigroup),
    "Po": (verify.powerset_category, verify.tpo_semigroup),
    "R": (verify.right_category, lambda n: verify.phi_into_tr(n).target),
    "Pi": (verify.partition_category, verify.tpi_semigroup),
}


def _plain_product(cat, gamma: dict, gamma_vertex, sigma: dict):
    """gamma * sigma by the definition: factorize sigma's component at
    gamma's vertex and compose every gamma component with q*u."""
    q, u, _ = cat.normal_factorize(sigma[gamma_vertex])
    epi = cat.compose(q, u)
    return epi.target, {obj: cat.compose(g, epi) for obj, g in gamma.items()}


@pytest.mark.parametrize("label,n", [(label, n) for label in TABLES for n in (3, 4)] + [("L", 5), ("R", 5)])
def test_cone_table_matches_plain_products(label, n):
    make_category, make_semigroup = TABLES[label]
    cat, s = make_category(n), make_semigroup(n)
    components = [dict(c.components) for c in s.elements]
    for i, gamma in enumerate(s.elements):
        for j in range(s.order):
            vertex, expected = _plain_product(cat, components[i], gamma.vertex, components[j])
            k = s.table[i][j]
            assert s.elements[k].vertex == vertex, (label, i, j)
            assert components[k] == expected, (label, i, j)


# ---------------------------------------------------------------------------
# shared product cones: a build's products are its own input cones

PRODUCT_CASES = [(label, n) for label in TABLES for n in (3, 4)]


def _inputs(label, n):
    """A category and the cones its semigroup in ``TABLES`` is built from."""
    make_category, make_semigroup = TABLES[label]
    return make_category(n), make_semigroup(n).elements


@pytest.mark.parametrize("label,n", PRODUCT_CASES)
def test_every_product_is_the_element_itself(label, n, monkeypatch):
    _, inputs = _inputs(label, n)
    products = []

    def recording_build(elements, mul_fn):
        def mul(a, b):
            products.append(mul_fn(a, b))
            return products[-1]

        return build(elements, mul)

    monkeypatch.setattr(cones, "build", recording_build)
    s = cone_semigroup(inputs)
    assert s.elements == inputs
    m = s.order
    assert len(products) == m * m
    for i, gamma in enumerate(s.elements):
        for j, sigma in enumerate(s.elements):
            product = products[i * m + j]
            assert product is s.elements[s.table[i][j]], (label, i, j)
            # a bare product, with a memo of its own, is a new cone equal
            # to the element
            bare = cone_mul(gamma, sigma)
            assert bare == product and bare is not product, (label, i, j)


def _plant_escaping_product(cat, inputs, monkeypatch):
    """Plant a wrong product of one maximal component with one epimorphic
    part, chosen so that the cone product through it leaves the inputs."""
    planted: dict = {}
    original = type(cat).compose

    def compose(self, f, g):
        wrong = planted.get((f, g))
        return original(self, f, g) if wrong is None else wrong

    monkeypatch.setattr(type(cat), "compose", compose)
    known = set(inputs)
    for gamma in inputs:
        g = gamma.component(cat.objects()[gamma._table.maximal[0]])
        for sigma in inputs:
            q, u, _ = cat.normal_factorize(sigma.component(gamma.vertex))
            epi = cat.compose(q, u)
            right = cat.compose(g, epi)
            for wrong in cat.hom(g.source, epi.target):
                if wrong == right:
                    continue
                planted[(g, epi)] = wrong
                if cone_mul(gamma, sigma) not in known:
                    return
                del planted[(g, epi)]
    raise AssertionError("no wrong component product escapes the inputs")


@pytest.mark.parametrize("label,n", PRODUCT_CASES)
def test_a_wrong_component_product_escapes_as_a_fresh_cone(label, n, fresh_builds, monkeypatch):
    # building the inputs' semigroup fills the cone tables' rows before
    # anything is planted
    cat, inputs = _inputs(label, n)
    _plant_escaping_product(cat, inputs, monkeypatch)
    with pytest.raises(ClosureError) as caught:
        cone_semigroup(inputs)
    exc = caught.value
    assert exc.product not in set(inputs)
    assert all(exc.product is not c for c in inputs)
    assert exc.product == cone_mul(exc.left, exc.right)
    monkeypatch.undo()
    assert exc.product != cone_mul(exc.left, exc.right)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_left_hom_sets_are_literal_sandwich_sets(n):
    cat = LCategory(n)
    objs = cat.objects()
    # column by column, so that row fills start from every position
    for b in objs:
        for a in objs:
            e_a, e_b = idempotent_for_image(a), idempotent_for_image(b)
            literal = dict.fromkeys(
                l_morphism_from_triple(e_a, compose(compose(e_a, s), e_b), e_b) for s in enumerate_oxn(n)
            )
            assert cat.hom(a, b) == tuple(literal), (a, b)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_right_hom_sets_are_literal_sandwich_sets(n):
    cat = RCategory(n)
    objs = cat.objects()
    # row by row, so that column fills start from every position
    for a in objs:
        for b in objs:
            e, f = idempotent_for_kernel(a), idempotent_for_kernel(b)
            literal = dict.fromkeys(
                r_morphism_from_triple(e, compose(compose(f, s), e), f) for s in enumerate_oxn(n)
            )
            assert cat.hom(a, b) == tuple(literal), (a, b)


# ---------------------------------------------------------------------------
# planted defects: each check must fail, with a witness, even though the
# products behind it are memoized


def _plant(monkeypatch, cls, attr, victim_args, damage):
    """Replace cls.attr so that the call on exactly victim_args returns a
    damaged result; returns the list recording each hit."""
    original = getattr(cls, attr)
    hits = []

    def planted(self, *args):
        result = original(self, *args)
        if args == victim_args:
            hits.append(args)
            return damage(result)
        return result

    monkeypatch.setattr(cls, attr, planted)
    return hits


def _assert_fails(name, n, hits):
    report = verify.run_check(name, n)
    assert hits, "the planted defect was never reached"
    assert report.status == "fail" and report.witness is not None
    return report


def test_tl_iso_fails_on_a_wrong_middle_factor(fresh_builds, monkeypatch):
    # the component of the cone of [1,3,3] at its own vertex {1,3}
    obj = Subset(3, (1, 3))
    victim = SubMap.identity(obj)

    def damage(factors):
        q, u, j = factors
        return q, SubMap(u.source, u.target, (u.target.elements[0],) * len(u.source)), j

    hits = _plant(monkeypatch, LCategory, "normal_factorize", (victim,), damage)
    report = _assert_fails("TL-iso", 3, hits)
    # the square of the cone of [1,1,3] passes through the victim and
    # escapes as the cone whose every component is constant at 1
    cat = LCategory(3)
    square = cone_json(cat.principal_cone(OPMap((1, 1, 3))))
    escaped = Cone(cat, obj, {a: SubMap(a, obj, (1,) * len(a)) for a in cat.objects()})
    assert report.witness["left"] == report.witness["right"] == square
    assert report.witness["product"] == cone_json(escaped)


def test_tl_iso_fails_on_a_product_inside_the_cone_set(fresh_builds, monkeypatch):
    # factorizing the identity on {1,3} as the constant map onto 3 sends
    # every affected product to the cone of the constant map 3: a wrong
    # table entry that is still a principal cone, so closure holds and a
    # later check must catch it
    cat = LCategory(3)
    obj = Subset(3, (1, 3))
    victim = cat.identity(obj)
    constant = SubMap(obj, obj, (3, 3))
    wrong = cat.normal_factorize(constant)

    hits = _plant(monkeypatch, LCategory, "normal_factorize", (victim,), lambda _: wrong)
    report = _assert_fails("TL-iso", 3, hits)
    assert "ClosureError" not in str(report.witness)
    triple = [cone_json(cat.principal_cone(OPMap(v))) for v in ((1, 1, 1), (1, 1, 3), (1, 1, 3))]
    assert report.witness["triple"] == triple


def test_phi_faithful_fails_on_a_wrong_middle_factor(fresh_builds, monkeypatch):
    # the component of the cone of [1,2,2] at its own vertex (1,2)
    cat = RCategory(3)
    alpha = OPMap((1, 2, 2))
    cone = cat.dual_principal_cone(alpha)
    victim = cone.component(cone.vertex)
    assert victim == cat.identity(cone.vertex)

    def damage(factors):
        q, u, j = factors
        return q, BlockMap(u.source, u.target, (0,) * u.target.num_blocks), j

    hits = _plant(monkeypatch, RCategory, "normal_factorize", (victim,), damage)
    report = _assert_fails("phi-faithful", 3, hits)
    # the square of the cone escapes as one sending both vertex blocks to
    # the first block everywhere
    escaped = Cone(cat, cone.vertex, {a: BlockMap(a, cone.vertex, (0, 0)) for a in cat.objects()})
    assert report.witness["left"] == report.witness["right"] == cone_json(cone)
    assert report.witness["product"] == cone_json(escaped)


def test_cone_regular_fails_on_one_wrong_product(fresh_builds, monkeypatch):
    # [1,1,2] at {1,3}, composed with the epimorphic part (the identity on
    # {1,2}) of the [1,2,2] cone's component at {1,2}
    cat = PowersetCategory(3)
    gamma = cat.principal_cone(OPMap((1, 1, 2)))
    sigma = cat.principal_cone(OPMap((1, 2, 2)))
    q, u, _ = cat.normal_factorize(sigma.component(gamma.vertex))
    epi = cat.compose(q, u)
    g = gamma.component(Subset(3, (1, 3)))
    right = cat.compose(g, epi)
    wrong = next(m for m in cat.hom(g.source, epi.target) if m != right)
    escaped = dict(cone_mul(gamma, sigma).components)
    escaped[g.source] = wrong
    # the product derives its component at {3}, whose first maximal ancestor
    # is {1,3}, by restricting the wrong one
    three = Subset(3, (3,))
    escaped[three] = cat.compose(cat.inclusion(three, g.source), wrong)

    hits = _plant(monkeypatch, PowersetCategory, "compose", (g, epi), lambda _: wrong)
    report = _assert_fails("cone-regular", 3, hits)
    assert report.witness["left"] == cone_json(gamma)
    assert report.witness["right"] == cone_json(sigma)
    assert report.witness["product"] == cone_json(Cone(cat, epi.target, escaped))
    assert report.witness["product"]["components"]["{3}"] == "[1]"


def test_cone_regular_names_the_first_failing_semigroup(fresh_builds, monkeypatch):
    # a wrong identity at every two-element subset breaks the idempotence
    # criterion in TL and in TPo alike; the witness names TL, checked first
    def planted(base):
        class Planted(base):
            def identity(self, a):
                ident = super().identity(a)
                if len(a) != 2:
                    return ident
                return next(f for f in self.hom(a, a) if f != ident)

        return Planted(3)

    for builder, base in (("left_category", LCategory), ("powerset_category", PowersetCategory)):
        monkeypatch.setattr(verify, builder, lambda n, cat=planted(base): cat)
    report = verify.run_check("cone-regular", 3)
    assert report.status == "fail"
    assert report.counts["TL_idempotence_criterion"] == report.counts["TPo_idempotence_criterion"] == 0
    assert report.witness["reason"] == "idempotence criterion fails"
    assert report.witness["semigroup"] == "TL"


def test_tl_iso_fails_on_a_wrong_restriction_code(fresh_builds):
    # one wrong restriction code in the cone table of {1,2}: {1} lies first
    # under {1,2}, and the restriction to {1} of the component of the
    # principal cone of [1,1,2] at {1,2} is coded as another member of
    # hom({1}, {1,2})
    cat = verify.left_category(3)
    alpha = OPMap((1, 1, 2))
    mapping = dict(cat.principal_cone(alpha).components)
    table = cat.cone_table(image(alpha))
    top, one = Subset(3, (1, 2)), Subset(3, (1,))
    i = next(i for i, m in enumerate(table.maximal) if cat.objects()[m] == top)
    slot = table.below[i].index(cat.position(one))
    assert table.ancestor[cat.position(one)] == (i, slot)
    code = table.codes[mapping[top]]
    row = table.restrictions(i, code)
    k = cat.position(one)
    wrong = next(c for c in range(table.starts[k], table.starts[k + 1]) if c != row[slot])
    table._rows[code] = row[:slot] + (wrong,) + row[slot + 1 :]

    # the mapping disagrees with the derived component, so it is kept as given
    cone = cat.principal_cone(alpha)
    assert dict(cone.components) == mapping
    assert not validate_cone(cone)
    report = verify.run_check("TL-iso", 3)
    assert report.status == "fail"
    assert report.witness == {"exception": "ValueError: input Cone(vertex={1,2}, 6 components) is not a normal cone"}
