"""Composites, containments, identities, inclusions, retractions,
idempotents, enumerated hom-sets, canonical forms, and the subsets of
submap factorizations, images and proper subsets built inside the library
skip validation, the subsets and partitions one shared instance per value;
these tests hold them to the validating constructors, the
unvalidated values to the size of validated ones, the cached kernels and
images to a fresh computation, and the factorization oracles to their
independence from what they check."""

import ast
import inspect
import tracemalloc
from itertools import groupby

import pytest
from hypothesis import given, strategies as st

from chaincat.chain import (
    BlockMap,
    OPMap,
    OrderedPartition,
    SubMap,
    Subset,
    block_maps_between,
    compose,
    enumerate_oxn,
    factorize_block_map,
    factorize_submap,
    idempotent_for_image,
    idempotent_for_kernel,
    image,
    kernel,
    ordered_partitions,
    oxn_order,
    proper_subsets,
    separator_idempotent,
    submaps_between,
)
from chaincat.ideals import r_canonical
from chaincat.verify import (
    _gamma_oracle,
    _sigma_oracle,
    left_category,
    partition_category,
    powerset_category,
    right_category,
)


def test_compose_equals_validated_map_on_ox4():
    maps = enumerate_oxn(4)
    for f in maps:
        for g in maps:
            h = compose(f, g)
            checked = OPMap(tuple(g(f(x)) for x in range(1, 5)))
            assert type(h) is OPMap
            assert h == checked and hash(h) == hash(checked)


def test_compose_on_a_one_point_chain():
    point = OPMap((1,))
    assert compose(point, point) == point


def _rebuilt(value):
    """The same map or subset, built again through its validating
    constructors."""
    if isinstance(value, OPMap):
        return OPMap(value.images)
    if isinstance(value, Subset):
        return Subset(value.n, value.elements)
    if isinstance(value, SubMap):
        return SubMap(_rebuilt(value.domain), _rebuilt(value.codomain), value.values)
    return BlockMap(value.source, value.target, value.images)


@pytest.mark.parametrize("build", [left_category, right_category, powerset_category, partition_category])
def test_then_equals_validated_morphism(build):
    cat = build(4)
    objs = cat.objects()
    pairs = 0
    for b in objs:
        into = [f for a in objs for f in cat.hom(a, b)]
        out_of = [g for c in objs for g in cat.hom(b, c)]
        for f in into:
            for g in out_of:
                h = cat.compose(f, g)
                checked = _rebuilt(h)
                assert h == checked and hash(h) == hash(checked)
                pairs += 1
    assert pairs == {14: 37096, 7: 8623}[len(objs)]


@pytest.mark.parametrize("build", [right_category, partition_category])
def test_containments_and_canonical_forms_equal_validated_ones(build):
    cat = build(4)
    objs = cat.objects()
    homs = [m for a in objs for b in objs for m in cat.hom(a, b)]
    built = [cat.inclusion(a, b) for a, b in cat.subobject_pairs()]
    built += [factor for m in homs for factor in cat.normal_factorize(m)]
    built += homs
    cones = [cat.dual_principal_cone(a) for a in enumerate_oxn(4)] + [cat.idempotent_cone(v) for v in objs]
    built += [m for cone in cones for m in cone.components.values()]
    for m in built:
        checked = _rebuilt(m)
        assert type(m) is BlockMap
        assert m == checked and hash(m) == hash(checked)
    assert len(built) == 12 + 4 * 229 + (34 + 7) * 7


@pytest.mark.parametrize("build", [left_category, right_category, powerset_category, partition_category])
def test_identities_inclusions_and_retractions_equal_validated_ones(build):
    cat = build(4)
    built = [cat.identity(a) for a in cat.objects()]
    built += [m for a, b in cat.subobject_pairs() for m in (cat.inclusion(a, b), cat.retraction(a, b))]
    for m in built:
        checked = _rebuilt(m)
        assert m == checked and hash(m) == hash(checked)
    assert len(built) == {14: 14 + 2 * 36, 7: 7 + 2 * 12}[len(cat.objects())]


def test_idempotents_equal_validated_maps():
    idempotents = [(idempotent_for_image(a), image, a) for a in left_category(4).objects()]
    idempotents += [(idempotent_for_kernel(p), kernel, p) for p in right_category(4).objects()]
    for e, key, obj in idempotents:
        checked = _rebuilt(e)
        assert e == checked and hash(e) == hash(checked)
        assert e.is_idempotent() and key(e) == obj
    for n in range(3, 8):
        for x in range(1, n):
            e = separator_idempotent(x, n)
            assert e == _rebuilt(e) and e.is_idempotent()


@pytest.mark.parametrize("n", range(3, 8))
def test_enumerated_oxn_equals_validated_maps(n):
    maps = enumerate_oxn(n)
    for f in maps:
        checked = _rebuilt(f)
        assert type(f) is OPMap
        assert f == checked and hash(f) == hash(checked)
    assert OPMap.identity(n) not in maps
    assert list(maps) == sorted(set(maps)) and len(maps) == oxn_order(n)


def test_enumerated_maps_and_submap_factors_equal_validated_ones():
    subsets = powerset_category(4).objects()
    submaps = [f for a in subsets for b in subsets for f in submaps_between(a, b)]
    partitions = partition_category(4).objects()
    factors = [factorize_submap(f) for f in submaps]
    built = submaps + [factor for triple in factors for factor in triple]
    built += [subset for _, u, _ in factors for subset in (u.domain, u.codomain)]
    built += [m for p in partitions for q in partitions for m in block_maps_between(p, q)]
    for m in built:
        checked = _rebuilt(m)
        assert type(m) is type(checked)
        assert m == checked and hash(m) == hash(checked)
        assert type(m) is not Subset or m is Subset._shared(m.n, m.elements)
    assert all(q.codomain is u.domain and u.codomain is j.domain for q, u, j in factors)
    assert len(built) == 6 * 660 + 229


@pytest.mark.parametrize(
    "a,b,v",
    [
        (OrderedPartition(3, (1, 2)), OrderedPartition(4, (1, 3)), OPMap((1, 1, 2))),
        (OrderedPartition(3, (1, 2)), OrderedPartition(3, (2, 1)), OPMap((1, 1, 2, 2))),
        (OrderedPartition(4, (1, 3)), OrderedPartition(4, (2, 2)), OPMap((1, 1, 2))),
    ],
    ids=["partitions", "map-longer", "map-shorter"],
)
def test_canonical_form_rejects_mixed_chains(a, b, v):
    with pytest.raises(ValueError):
        r_canonical(a, b, v)


def _bytes_each(make, count=5000) -> float:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = [make() for _ in range(count)]
        return (tracemalloc.get_traced_memory()[0] - before) / len(made)
    finally:
        tracemalloc.stop()


P, Q = OrderedPartition(4, (2, 2)), OrderedPartition(4, (1, 3))
A, B = Subset(4, (1, 2)), Subset(4, (1, 3))


@pytest.mark.parametrize(
    "validated,trusted",
    [
        (lambda: OPMap((1, 1, 2, 3)), lambda: OPMap._trusted((1, 1, 2, 3))),
        (lambda: SubMap(A, B, (1, 3)), lambda: SubMap._trusted(A, B, (1, 3))),
        (lambda: BlockMap(Q, P, (0, 1)), lambda: BlockMap._trusted(Q, P, (0, 1))),
        # a fresh instance each time, past the cache that shares them
        (lambda: Subset(4, (1, 3)), lambda: Subset._shared.__wrapped__(4, (1, 3))),
    ],
    ids=["opmap", "submap", "blockmap", "subset"],
)
def test_trusted_map_is_no_larger_than_a_validated_one(validated, trusted):
    # One byte per map of slack absorbs the allocator's own bookkeeping; a
    # materialized instance dict would add over 60.
    assert _bytes_each(trusted) <= _bytes_each(validated) + 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: OPMap((2, 1, 3)),
        lambda: OPMap((1, 2, 4)),
        lambda: OPMap((1, 1, 2))._replace(images=(2, 1, 3)),
        lambda: OPMap._make([(1, 2, 4)]),
        lambda: SubMap(Subset(3, (1, 2)), Subset(3, (1, 3)), (3, 1)),
        lambda: SubMap(Subset(3, (1, 2)), Subset(3, (1, 3)), (1, 2)),
        lambda: BlockMap(OrderedPartition(3, (1, 1, 1)), OrderedPartition(3, (1, 2)), (2, 1)),
        lambda: BlockMap(OrderedPartition(3, (2, 1)), OrderedPartition(3, (1, 2)), (0, 2)),
        lambda: submaps_between(Subset(3, (1, 2)), Subset(4, (1, 2))),
        lambda: block_maps_between(OrderedPartition(3, (1, 2)), OrderedPartition(4, (1, 3))),
        lambda: separator_idempotent(True, 3),
        lambda: separator_idempotent(2, 4.0),
    ],
    ids=[
        "opmap-order",
        "opmap-range",
        "opmap-replace",
        "opmap-make",
        "submap-order",
        "submap-range",
        "blockmap-order",
        "blockmap-range",
        "submaps-mixed-chains",
        "block-maps-mixed-chains",
        "separator-bool",
        "separator-float-chain",
    ],
)
def test_outside_construction_still_validates(make):
    with pytest.raises(ValueError):
        make()


def test_cached_kernel_and_image_match_a_fresh_computation():
    for n in range(3, 7):
        for f in enumerate_oxn(n) + (OPMap.identity(n),):
            fresh_image = Subset(n, tuple(sorted(set(f.images))))
            fresh_kernel = OrderedPartition(n, tuple(len(list(run)) for _, run in groupby(f.images)))
            assert image(f) == fresh_image and kernel(f) == fresh_kernel
            assert hash(image(f)) == hash(fresh_image) and hash(kernel(f)) == hash(fresh_kernel)
            assert image(f) is image(f) and kernel(f) is kernel(f)
            assert kernel(f) is OrderedPartition._shared(n, fresh_kernel.block_sizes)
            assert image(f) is Subset._shared(n, fresh_image.elements)


def test_block_factorization_partitions_are_shared_and_match_the_oracles():
    for n in range(3, 6):
        cat = partition_category(n)
        objs = cat.objects()
        for m in [f for a in objs for b in objs for f in cat.hom(a, b)]:
            q, u, j = factorize_block_map(m)
            assert q.target is u.source and u.target is j.source
            for p, oracle in ((u.source, _gamma_oracle), (u.target, _sigma_oracle)):
                checked = OrderedPartition(p.n, p.block_sizes)
                assert p == checked and hash(p) == hash(checked) and p.blocks == checked.blocks
                assert p is OrderedPartition._shared(p.n, p.block_sizes)
                assert p == oracle(m)


def test_ordered_partitions_are_shared_validated_instances():
    for n in range(3, 8):
        for p in ordered_partitions(n):
            assert p == OrderedPartition(n, p.block_sizes)
            assert p is OrderedPartition._shared(n, p.block_sizes)


def test_proper_subsets_are_shared_validated_instances():
    for n in range(3, 8):
        for a in proper_subsets(n):
            assert a == Subset(n, a.elements)
            assert a is Subset._shared(n, a.elements)


@pytest.mark.parametrize("oracle", [_sigma_oracle, _gamma_oracle])
def test_factorization_oracles_share_no_code_with_the_factorization(oracle):
    tree = ast.parse(inspect.getsource(oracle))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    forbidden = {
        "_runs",
        "_cut_after",
        "_trusted",
        "_shared",
        "_retraction_half",
        "_inclusion_half",
        "_block_retraction_half",
        "_block_inclusion_half",
        "factorize_block_map",
        "factorize_pi",
    }
    assert not named & forbidden


@st.composite
def partition_morphisms(draw, min_n=3, max_n=7):
    """A block map between two non-identity ordered partitions of one chain
    on 3..7 points: a morphism of Pi(n)."""
    n = draw(st.integers(min_n, max_n))

    def partition():
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 2)))
        return OrderedPartition(n, tuple(b - a for a, b in zip([0] + cuts, cuts + [n])))

    source, target = partition(), partition()
    images = draw(st.lists(st.integers(0, source.num_blocks - 1), min_size=target.num_blocks, max_size=target.num_blocks))
    return BlockMap(source, target, tuple(sorted(images)))


@given(partition_morphisms())
def test_sigma_oracle_reads_each_point_as_block_of_does(m):
    """The fiber coarsening read point by point through ``block_of``."""
    cls = [m.images[m.target.block_of(x)] for x in range(1, m.target.n + 1)]
    assert _sigma_oracle(m).block_sizes == tuple(len(list(run)) for _, run in groupby(cls))
