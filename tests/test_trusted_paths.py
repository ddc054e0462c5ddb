"""Composites built inside the library skip validation; these tests hold them
to the validating constructors, and the cached kernels and images to a fresh
computation."""

from itertools import groupby

import pytest

from chaincat.chain import (
    BlockMap,
    OPMap,
    OrderedPartition,
    SubMap,
    Subset,
    compose,
    enumerate_oxn,
    image,
    kernel,
)
from chaincat.verify import left_category, partition_category, powerset_category, right_category


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
    """The same morphism value, built again through its validating constructor."""
    if isinstance(value, SubMap):
        return SubMap(value.domain, value.codomain, value.values)
    return type(value)(BlockMap(value.eta.source, value.eta.target, value.eta.images))


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: OPMap((2, 1, 3)),
        lambda: OPMap((1, 2, 4)),
        lambda: SubMap(Subset(3, (1, 2)), Subset(3, (1, 3)), (3, 1)),
        lambda: SubMap(Subset(3, (1, 2)), Subset(3, (1, 3)), (1, 2)),
        lambda: BlockMap(OrderedPartition(3, (1, 2)), OrderedPartition(3, (1, 1, 1)), (2, 1)),
        lambda: BlockMap(OrderedPartition(3, (1, 2)), OrderedPartition(3, (2, 1)), (0, 2)),
    ],
    ids=["opmap-order", "opmap-range", "submap-order", "submap-range", "blockmap-order", "blockmap-range"],
)
def test_outside_construction_still_validates(make):
    with pytest.raises(ValueError):
        make()


def test_cached_kernel_and_image_match_a_fresh_computation():
    for f in enumerate_oxn(5):
        fresh_image = Subset(5, tuple(sorted(set(f.images))))
        fresh_kernel = OrderedPartition(5, tuple(len(list(run)) for _, run in groupby(f.images)))
        assert image(f) == fresh_image and kernel(f) == fresh_kernel
        assert image(f) is image(f) and kernel(f) is kernel(f)
