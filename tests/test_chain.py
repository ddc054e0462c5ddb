import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import chaincat
from chaincat.chain import (
    BlockMap,
    OPMap,
    OrderedPartition,
    SubMap,
    Subset,
    block_maps_between,
    check_chain_size,
    compose,
    enumerate_oxn,
    extend_by_idempotent,
    factorize_block_map,
    factorize_submap,
    green,
    green_class,
    idempotent_for_image,
    idempotent_for_kernel,
    image,
    kernel,
    ordered_partitions,
    oxn_order,
    proper_subsets,
    restrict,
    retraction_for_inclusion,
    separator_idempotent,
    submaps_between,
)


@st.composite
def monotone_maps(draw, min_n=3, max_n=7):
    n = draw(st.integers(min_n, max_n))
    values = sorted(draw(st.lists(st.integers(1, n), min_size=n, max_size=n)))
    return OPMap(tuple(values))


@st.composite
def monotone_submaps(draw, min_n=3, max_n=7):
    n = draw(st.integers(min_n, max_n))
    dom = Subset.of(n, draw(st.sets(st.integers(1, n), min_size=1)))
    cod = Subset.of(n, draw(st.sets(st.integers(1, n), min_size=1)))
    values = sorted(
        draw(st.lists(st.sampled_from(cod.elements), min_size=len(dom), max_size=len(dom)))
    )
    return SubMap(dom, cod, tuple(values))


def subset(n, *elems):
    return Subset.of(n, elems)


class TestOPMap:
    def test_compose_examples(self):
        assert (OPMap((1, 1, 2)) * OPMap((2, 2, 3))).images == (2, 2, 2)
        assert (OPMap((1, 2, 2)) * OPMap((1, 2, 2))).images == (1, 2, 2)

    def test_constant_absorbs(self):
        c = OPMap.constant(4, 3)
        for f in enumerate_oxn(4):
            assert f * c == c

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(OPMap((1, 1, 2)), OPMap((1, 1, 2, 2)))

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            OPMap((2, 1, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            OPMap((1, 2, 4))

    @pytest.mark.parametrize(
        "images",
        [(1, 1, 2.5), (1.0, 1, 2), (True, 1, 2), [1, 1, 2], "112"],
        ids=["float", "integral-float", "bool", "list", "str"],
    )
    def test_rejects_non_int_values(self, images):
        with pytest.raises(ValueError):
            OPMap(images)

    def test_identity_and_singular(self):
        assert OPMap.identity(4).images == (1, 2, 3, 4)
        assert not OPMap.identity(4).is_singular()
        assert OPMap((1, 1, 3)).is_singular()

    @given(monotone_maps(), monotone_maps())
    def test_composition_closed_and_singular(self, f, g):
        if f.n != g.n:
            return
        h = f * g
        assert h.n == f.n
        if f.is_singular() and g.is_singular():
            assert h.is_singular()

    @pytest.mark.parametrize("n", [3, 4])
    def test_closure_exhaustive(self, n):
        maps = set(enumerate_oxn(n))
        for f in maps:
            for g in maps:
                assert f * g in maps

    def test_str_literal(self):
        assert str(OPMap((1, 1, 2))) == "[1,1,2]"

    @pytest.mark.parametrize("x", [0, -1, 4, True, 1.0])
    def test_call_rejects_points_outside_the_chain(self, x):
        with pytest.raises(ValueError, match=r"not a point of the chain 1\.\.3"):
            OPMap((1, 1, 3))(x)


class TestOPMapValue:
    """An OPMap is the 1-tuple (images,): it hashes, compares, prints,
    pickles and copies as the frozen dataclass it replaced did."""

    def test_hash_is_the_hash_of_the_field_tuple(self):
        for f in enumerate_oxn(4):
            assert hash(f) == hash((f.images,))

    def test_equals_only_maps_and_its_field_tuple(self):
        f = OPMap((1, 1, 2))
        assert f == OPMap._trusted((1, 1, 2)) == ((1, 1, 2),)
        assert f != f.images
        assert f != OPMap((1, 2, 2))

    def test_repr(self):
        assert repr(OPMap((1, 1, 2))) == "OPMap(images=(1, 1, 2))"

    @pytest.mark.parametrize(
        "clone",
        [lambda f: pickle.loads(pickle.dumps(f)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips(self, clone):
        for f in enumerate_oxn(4):
            g = clone(f)
            assert type(g) is OPMap and g == f and hash(g) == hash(f)
            assert image(g) == image(f) and kernel(g) == kernel(f)

    def test_refuses_attribute_assignment_and_deletion(self):
        f = OPMap((1, 1, 2))
        kernel(f)
        for act in (
            lambda: setattr(f, "images", (1, 2, 2)),
            lambda: setattr(f, "other", 1),
            lambda: delattr(f, "images"),
            lambda: delattr(f, "_kernel"),
        ):
            with pytest.raises(AttributeError):
                act()
        assert f.images == (1, 1, 2) and kernel(f) == OrderedPartition(3, (2, 1))

    def test_refuses_tuple_concatenation_and_repetition(self):
        f, g = OPMap((1, 1, 2)), OPMap((2, 2, 3))
        for act in (lambda: f + g, lambda: f + (1,), lambda: 2 * f, lambda: True * f):
            with pytest.raises(TypeError):
                act()
        assert f * g == OPMap((2, 2, 2))
        assert len(f) == 1 and list(f) == [f.images] and sorted([g, f]) == [f, g]


def carrier_values(n: int) -> dict[type, list]:
    """Every value of the five carrier classes on the chain 1..n, identities,
    the full subset and the all-singleton partition included."""
    subsets = list(proper_subsets(n)) + [Subset.full(n)]
    partitions = list(ordered_partitions(n)) + [OrderedPartition.identity(n)]
    return {
        OPMap: list(enumerate_oxn(n)) + [OPMap.identity(n)],
        Subset: subsets,
        OrderedPartition: partitions,
        SubMap: [f for a in subsets for b in subsets for f in submaps_between(a, b)],
        BlockMap: [m for p in partitions for q in partitions for m in block_maps_between(p, q)],
    }


def fill_caches(x) -> None:
    """Compute every cached property of a carrier value, so its
    ``__dict__`` holds them when it is pickled or copied."""
    if type(x) is OPMap:
        image(x), kernel(x)
    elif type(x) is Subset:
        x._positions
    elif type(x) is OrderedPartition:
        x.blocks, x._block_index, x.cuts


# The fields of each class in the order of the frozen dataclass it
# replaced, whose hash was the hash of this tuple of fields.
DATACLASS_FIELDS = {
    OPMap: ("images",),
    Subset: ("n", "elements"),
    OrderedPartition: ("n", "block_sizes"),
    SubMap: ("domain", "codomain", "values"),
    BlockMap: ("source", "target", "images"),
}


def _bare(x):
    """x with every carrier value in it replaced by a bare tuple of its
    fields in dataclass order: the tuple whose hash the dataclass had."""
    if type(x) in DATACLASS_FIELDS:
        return tuple(_bare(getattr(x, f)) for f in DATACLASS_FIELDS[type(x)])
    return x


@pytest.mark.parametrize("n", [3, 4])
class TestCarrierValues:
    """The five carrier classes are namedtuple subclasses: equality and
    hashing are tuple's, values of different classes never meet, and the
    tuple operations the dataclasses lacked either raise or are pinned."""

    def test_no_value_meets_a_value_of_another_class(self, n):
        owner, hash_owner = {}, {}
        for cls, values in carrier_values(n).items():
            assert all(type(x) is cls for x in values)
            assert len(set(values)) == len(values), cls
            for x in values:
                assert owner.setdefault(x, cls) is cls, (x, owner[x])
                assert hash_owner.setdefault(hash(x), cls) is cls, (x, hash_owner[hash(x)])

    def test_the_one_block_partition_is_not_the_top_singleton(self, n):
        s, p = Subset(n, (n,)), OrderedPartition(n, (n,))
        assert s != p and p != s and hash(s) != hash(p)
        assert len({s: 0, p: 1}) == 2

    @pytest.mark.parametrize(
        "clone",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips_with_filled_caches(self, n, clone):
        for values in carrier_values(n).values():
            for x in values:
                fill_caches(x)
                y = clone(x)
                assert type(y) is type(x) and y == x and hash(y) == hash(x) and str(y) == str(x)
                assert vars(y) == vars(x) if hasattr(x, "__dict__") else not hasattr(y, "__dict__")

    def test_refuses_attribute_assignment_and_deletion(self, n):
        for values in carrier_values(n).values():
            x = values[0]
            fill_caches(x)
            before, cached = tuple(x), dict(getattr(x, "__dict__", {}))
            acts = [lambda f=f: setattr(x, f, None) for f in x._fields]
            acts += [lambda f=f: delattr(x, f) for f in x._fields]
            acts += [lambda: setattr(x, "other", 1)]
            acts += [lambda k=k: delattr(x, k) for k in cached]
            for act in acts:
                with pytest.raises(AttributeError):
                    act()
            assert tuple(x) == before and getattr(x, "__dict__", {}) == cached

    def test_hashes_are_the_dataclass_hashes_where_the_field_order_was_kept(self, n):
        for cls, values in carrier_values(n).items():
            for x in values:
                if cls is OrderedPartition:
                    # sizes first, so the partition hash changed, and with
                    # it the hashes of block maps
                    assert hash(x) == hash((x.block_sizes, x.n))
                else:
                    assert hash(x) == hash(tuple(getattr(x, f) for f in DATACLASS_FIELDS[cls]))
                if cls in (OPMap, Subset, SubMap):
                    assert hash(x) == hash(_bare(x))

    def test_equals_the_bare_tuple_of_its_layout(self, n):
        for values in carrier_values(n).values():
            for x in values:
                assert x == tuple(x) and tuple(x) == x and hash(x) == hash(tuple(x))
        p = OrderedPartition(n, (1, n - 1))
        assert p == ((1, n - 1), n) and p != (n, (1, n - 1))

    def test_refuses_tuple_concatenation_and_repetition(self, n):
        for values in carrier_values(n).values():
            x = values[-1]
            for act in (lambda: x + x, lambda: x + (1,), lambda: 2 * x, lambda: x * 2, lambda: True * x):
                with pytest.raises(TypeError):
                    act()
            assert (1,) + x == (1,) + tuple(x)

    def test_iteration_length_and_ordering_act_on_the_layout(self, n):
        for cls, values in carrier_values(n).items():
            for x in values:
                assert list(x) == [getattr(x, f) for f in x._fields]
                assert len(x) == (len(x.elements) if cls is Subset else len(x._fields))
            assert sorted(values) == sorted(values, key=tuple)
        # ordering is lexicographic on the layout, not inclusion or refinement
        assert Subset(n, (1, n)) < Subset(n, (2,)) and not Subset(n, (2,)).issubset(Subset(n, (1, n)))
        coarse, fine = OrderedPartition(n, (n,)), OrderedPartition.identity(n)
        assert fine < coarse and fine.refines(coarse)


class TestImageKernel:
    @pytest.mark.parametrize(
        "images,expected",
        [((1, 1, 2), (1, 2)), ((2, 2, 2), (2,)), ((1, 3, 3), (1, 3))],
    )
    def test_image_examples(self, images, expected):
        assert image(OPMap(images)).elements == expected

    @pytest.mark.parametrize(
        "images,expected",
        [((1, 1, 3), (2, 1)), ((2, 2, 2), (3,)), ((1, 2, 2, 4), (1, 2, 1))],
    )
    def test_kernel_examples(self, images, expected):
        assert kernel(OPMap(images)).block_sizes == expected

    @given(monotone_maps())
    def test_kernel_blocks_are_fibers(self, f):
        p = kernel(f)
        assert sum(p.block_sizes) == f.n
        for block in p.blocks:
            values = {f(x) for x in block}
            assert len(values) == 1

    @given(monotone_maps())
    def test_rank_is_image_size(self, f):
        assert f.rank() == len(image(f)) == kernel(f).num_blocks


class TestGreen:
    def test_examples(self):
        assert green(OPMap((1, 1, 2)), OPMap((2, 2, 3)), "R")
        assert green(OPMap((1, 1, 2)), OPMap((2, 3, 3)), "J")
        assert green(OPMap((1, 1, 2)), OPMap((1, 2, 2)), "L")
        assert not green(OPMap((1, 1, 2)), OPMap((1, 1, 3)), "L")

    @given(monotone_maps())
    def test_h_is_equality(self, f):
        assert green(f, f, "H")

    def test_h_differs(self):
        assert not green(OPMap((1, 1, 2)), OPMap((1, 2, 2)), "H")

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            green(OPMap((1, 1, 2)), OPMap((1, 1, 2)), "D")

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            green(OPMap((1, 1, 2)), OPMap((1, 1, 2, 2)), "R")

    def test_class_keys(self):
        f = OPMap((1, 1, 3))
        assert green_class(f, "R") == kernel(f) == OrderedPartition(3, (2, 1))
        assert green_class(f, "L") == image(f) == Subset(3, (1, 3))
        assert green_class(f, "H") == f
        assert green_class(f, "J") == 2
        with pytest.raises(ValueError):
            green_class(f, "D")


class TestEnumeration:
    def test_n3_frozen(self):
        assert [m.images for m in enumerate_oxn(3)] == [
            (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 3, 3),
            (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3),
        ]

    @pytest.mark.parametrize("n,count", [(3, 9), (4, 34), (5, 125), (6, 461), (7, 1715)])
    def test_counts(self, n, count):
        maps = enumerate_oxn(n)
        assert len(maps) == count == oxn_order(n)
        assert len(set(maps)) == len(maps)
        assert all(f.is_singular() for f in maps)
        assert sorted(f.images for f in maps) == [f.images for f in maps]

    def test_idempotent_count_n3(self):
        idem = [f for f in enumerate_oxn(3) if f.is_idempotent()]
        assert len(idem) == 7
        assert {f.images for f in idem} == {
            (1, 1, 1), (2, 2, 2), (3, 3, 3), (1, 1, 3), (1, 2, 2), (1, 3, 3), (2, 2, 3),
        }

    def test_chain_size_bounds(self):
        for bad in (2, 13, 0, -1):
            with pytest.raises(ValueError):
                check_chain_size(bad)
        with pytest.raises(ValueError):
            enumerate_oxn(2)

    def test_proper_subsets_count(self):
        assert len(proper_subsets(3)) == 6
        assert len(proper_subsets(4)) == 14

    def test_ordered_partitions_count(self):
        assert len(ordered_partitions(3)) == 3
        assert len(ordered_partitions(4)) == 7
        assert OrderedPartition.identity(4) not in ordered_partitions(4)


# Composes every pair of maps of a chain size the process has never
# enumerated, checks each composite pointwise and as a fresh valid value,
# then enumerates that size and checks the composites are shared from then on.
_NEVER_ENUMERATED = """
from itertools import combinations_with_replacement
from chaincat import chain
from chaincat.chain import OPMap, compose, enumerate_oxn

n = 5
assert not any(len(images) == n for images in chain._ENUMERATED)
maps = [OPMap(seq) for seq in combinations_with_replacement(range(1, n + 1), n)]
for f in maps:
    for g in maps:
        h = compose(f, g)
        assert type(h) is OPMap and h.images == tuple(g(f(x)) for x in range(1, n + 1))
        assert OPMap(h.images) == h and all(h is not k for k in maps)
ox = enumerate_oxn(n)
shared = {f.images: f for f in ox}
assert all(compose(f, g) is shared[compose(f, g).images] for f in ox for g in ox)
print("ok")
"""


class TestSharedComposites:
    """``compose`` returns the map ``enumerate_oxn`` built when the composite
    is one of its maps, and a fresh value otherwise."""

    def test_every_product_in_ox4_is_the_enumerated_instance(self):
        maps = enumerate_oxn(4)
        by_images = {f.images: f for f in maps}
        for f in maps:
            for g in maps:
                h = compose(f, g)
                assert h is by_images[h.images]
                assert h.images == tuple(g(f(x)) for x in range(1, 5))

    def test_identity_composite_is_fresh_and_valid(self):
        enumerate_oxn(4)
        e = OPMap.identity(4)
        h = compose(e, e)
        assert type(h) is OPMap and h is not e and h == e == OPMap(h.images)
        assert h not in enumerate_oxn(4) and image(h) == Subset.of(4, (1, 2, 3, 4))

    def test_a_size_never_enumerated_composes_correctly(self):
        # The shared maps live in one dict per process, so the size must be
        # one this process has never enumerated: a fresh interpreter.
        src = str(Path(chaincat.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", _NEVER_ENUMERATED], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"


class TestIdempotentForImage:
    @pytest.mark.parametrize(
        "n,elems,expected",
        [
            (3, (1, 3), (1, 3, 3)),
            (3, (2,), (2, 2, 2)),
            (5, (2, 4), (2, 2, 4, 4, 4)),
        ],
    )
    def test_examples(self, n, elems, expected):
        assert idempotent_for_image(subset(n, *elems)).images == expected

    def test_full_chain_rejected(self):
        with pytest.raises(ValueError):
            idempotent_for_image(Subset.full(3))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_idempotent_with_exact_image(self, n):
        for a in proper_subsets(n):
            e = idempotent_for_image(a)
            assert e.is_idempotent()
            assert image(e) == a


class TestIdempotentForKernel:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_idempotent_with_exact_kernel(self, n):
        for p in ordered_partitions(n):
            e = idempotent_for_kernel(p)
            assert e.is_idempotent()
            assert kernel(e) == p

    def test_identity_partition_rejected(self):
        with pytest.raises(ValueError):
            idempotent_for_kernel(OrderedPartition.identity(3))


class TestRetraction:
    def test_example(self):
        r = retraction_for_inclusion(subset(4, 1, 4), subset(4, 1, 2, 4))
        assert r.values == (1, 1, 4)

    def test_identity_when_equal(self):
        a = subset(4, 1, 3)
        assert retraction_for_inclusion(a, a).is_identity()

    def test_singleton_target(self):
        r = retraction_for_inclusion(subset(4, 2), subset(4, 1, 2, 3))
        assert r.values == (2, 2, 2)

    def test_not_a_subset(self):
        with pytest.raises(ValueError):
            retraction_for_inclusion(subset(4, 1, 3), subset(4, 1, 2))

    @pytest.mark.parametrize("n", range(3, 7))
    def test_splits_every_inclusion(self, n):
        subs = proper_subsets(n)
        for a in subs:
            for b in subs:
                if a != b and a.issubset(b):
                    r = retraction_for_inclusion(a, b)
                    assert SubMap.inclusion(a, b).then(r) == SubMap.identity(a)


class TestSeparator:
    def test_examples(self):
        assert separator_idempotent(2, 3).images == (2, 2, 3)
        assert separator_idempotent(2, 4).images == (2, 2, 3, 3)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            separator_idempotent(3, 3)
        with pytest.raises(ValueError):
            separator_idempotent(0, 3)

    def test_separation_witness(self):
        a, b = OPMap((1, 1, 2)), OPMap((1, 1, 3))
        e = separator_idempotent(2, 3)
        assert a * e != b * e
        assert (a * e).images == (2, 2, 2)
        assert (b * e).images == (2, 2, 3)

    def test_literal_max_image_variant_fails_to_separate(self):
        # The step-to-max-image alternative collapses to a constant here and
        # cannot distinguish the pair; kept as a regression for why the
        # two-block step map is the one implemented.
        a, b = OPMap((1, 1, 2)), OPMap((1, 1, 3))
        x_i, x_k = 2, 2
        literal = OPMap(tuple(x_i if x <= x_i else x_k for x in range(1, 4)))
        assert literal.images == (2, 2, 2)
        assert a * literal == b * literal

    @pytest.mark.parametrize("n", range(3, 7))
    def test_separates_all_kernel_sharing_pairs(self, n):
        by_kernel = {}
        for f in enumerate_oxn(n):
            by_kernel.setdefault(kernel(f), []).append(f)
        for ker, cls in by_kernel.items():
            reps = [blk[0] for blk in ker.blocks]
            for i, a in enumerate(cls):
                for b in cls[i + 1:]:
                    pos = next(x for x in reps if a(x) != b(x))
                    e = separator_idempotent(min(a(pos), b(pos)), n)
                    assert a * e != b * e


class TestRestrict:
    def test_examples(self):
        assert restrict(OPMap((1, 3, 3)), subset(3, 1, 2), subset(3, 1, 3)).values == (1, 3)
        assert restrict(OPMap((1, 2, 2)), subset(3, 1, 2), subset(3, 1, 2)).is_identity()
        assert restrict(OPMap((2, 2, 2)), subset(3, 1, 3), subset(3, 2)).values == (2, 2)

    def test_declared_codomain(self):
        r = restrict(OPMap((1, 3, 3)), subset(3, 1, 2), codomain=subset(3, 1, 2, 3))
        assert r.codomain.elements == (1, 2, 3)

    def test_declared_codomain_must_hold_every_value(self):
        with pytest.raises(ValueError):
            restrict(OPMap((1, 3, 3)), subset(3, 1, 2), codomain=subset(3, 1, 2))

    @pytest.mark.parametrize("codomain", [Subset(3, (1, 2, 3)), Subset(4, (1, 2, 3))])
    def test_subsets_of_another_chain(self, codomain):
        with pytest.raises(ValueError):
            restrict(OPMap((1, 3, 3)), Subset(4, (1, 2)), codomain=codomain)

    def test_codomain_on_another_chain(self):
        with pytest.raises(ValueError):
            restrict(OPMap((1, 3, 3)), Subset(3, (1, 2)), codomain=Subset(4, (1, 3)))

    def test_equals_the_validated_submap(self):
        for f in enumerate_oxn(4):
            for a in proper_subsets(4):
                values = tuple(f(x) for x in a.elements)
                r = restrict(f, a, Subset.of(4, values))
                checked = SubMap(a, Subset.of(4, values), values)
                assert r == checked and hash(r) == hash(checked)

    def test_extension_restricts_back(self):
        f = SubMap(subset(4, 1, 3), subset(4, 2, 4), (2, 4))
        ext = extend_by_idempotent(f)
        assert restrict(ext, f.domain, codomain=f.codomain) == f


class TestSubsetPartition:
    def test_subset_validation(self):
        with pytest.raises(ValueError):
            Subset(3, ())
        with pytest.raises(ValueError):
            Subset(3, (2, 2))
        with pytest.raises(ValueError):
            Subset(3, (0, 1))
        for n, elements in ((3, (1.0, 2)), (3, (1, 2.5)), (3, (True, 2)), (3, [1, 2]), (3.0, (1, 2)), (True, (1,))):
            with pytest.raises(ValueError):
                Subset(n, elements)
        assert not Subset.full(3).is_proper()
        assert subset(3, 1, 2).is_proper()

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            OrderedPartition(4, (2, 1))
        with pytest.raises(ValueError):
            OrderedPartition(4, (0, 4))
        for n, sizes in ((3, (1.5, 1.5)), (3, (2.0, 1)), (3, (True, 2)), (3, [2, 1]), (3.0, (2, 1)), (True, (1,))):
            with pytest.raises(ValueError):
                OrderedPartition(n, sizes)
        assert OrderedPartition(4, (1, 1, 1, 1)).is_non_identity() is False
        assert OrderedPartition(4, (2, 2)).is_non_identity()

    def test_blocks_and_lookup(self):
        p = OrderedPartition(4, (1, 2, 1))
        assert p.blocks == ((1,), (2, 3), (4,))
        assert [p.block_of(x) for x in (1, 2, 3, 4)] == [0, 1, 1, 2]
        assert str(p) == "(1,2,1)"
        for x in (0, -1, p.n + 1, True, 1.0):
            with pytest.raises(ValueError, match=r"not a point of the chain 1\.\.4"):
                p.block_of(x)

    def test_issubset_is_set_inclusion(self):
        subsets = list(proper_subsets(4)) + [Subset.full(4)]
        for a in subsets:
            for b in subsets:
                assert a.issubset(b) == (set(a.elements) <= set(b.elements))
        assert not Subset(3, (1, 2)).issubset(Subset(4, (1, 2, 3)))

    def test_refinement(self):
        assert OrderedPartition(4, (1, 1, 2)).refines(OrderedPartition(4, (2, 2)))
        assert not OrderedPartition(4, (2, 2)).refines(OrderedPartition(4, (1, 1, 2)))
        assert OrderedPartition(4, (2, 2)).refines(OrderedPartition(4, (2, 2)))


_A, _P, _F = Subset(3, (1, 2)), OrderedPartition(3, (2, 1)), OPMap((1, 1, 2))

# Each public entry point that takes a carrier value, with the class it
# takes there.
CARRIER_ARGUMENTS = {
    "SubMap": (Subset, lambda x: SubMap(x, _A, (1, 2))),
    "SubMap-codomain": (Subset, lambda x: SubMap(_A, x, (1, 2))),
    "BlockMap": (OrderedPartition, lambda x: BlockMap(x, _P, (0, 0))),
    "BlockMap-target": (OrderedPartition, lambda x: BlockMap(_P, x, (0, 0))),
    "Subset.issubset": (Subset, lambda x: _A.issubset(x)),
    "OrderedPartition.refines": (OrderedPartition, lambda x: _P.refines(x)),
    "SubMap.identity": (Subset, lambda x: SubMap.identity(x)),
    "BlockMap.identity": (OrderedPartition, lambda x: BlockMap.identity(x)),
    "idempotent_for_image": (Subset, lambda x: idempotent_for_image(x)),
    "idempotent_for_kernel": (OrderedPartition, lambda x: idempotent_for_kernel(x)),
    "SubMap.inclusion": (Subset, lambda x: SubMap.inclusion(x, _A)),
    "retraction_for_inclusion": (Subset, lambda x: retraction_for_inclusion(x, _A)),
    "BlockMap.containment": (OrderedPartition, lambda x: BlockMap.containment(_P, x)),
    "restrict": (OPMap, lambda x: restrict(x, _A, _A)),
    "restrict-domain": (Subset, lambda x: restrict(_F, x, _A)),
    "restrict-codomain": (Subset, lambda x: restrict(_F, _A, x)),
    "submaps_between": (Subset, lambda x: submaps_between(x, _A)),
    "submaps_between-target": (Subset, lambda x: submaps_between(_A, x)),
    "block_maps_between": (OrderedPartition, lambda x: block_maps_between(x, _P)),
    "block_maps_between-target": (OrderedPartition, lambda x: block_maps_between(_P, x)),
    "extend_by_idempotent": (SubMap, lambda x: extend_by_idempotent(x)),
    "green": (OPMap, lambda x: green(x, _F, "L")),
    "green-second": (OPMap, lambda x: green(_F, x, "L")),
}


class TestCarrierArguments:
    @pytest.mark.parametrize("entry", CARRIER_ARGUMENTS)
    def test_refuses_a_bare_tuple_or_the_other_carrier(self, entry):
        wanted, call = CARRIER_ARGUMENTS[entry]
        other = _P if wanted is Subset else _A
        for x in (tuple(_A), tuple(_P), (1, 2), other):
            with pytest.raises(ValueError, match=rf"^expected {wanted.__name__}, got "):
                call(x)

    def test_subset_membership_takes_int_points_only(self):
        a = Subset(3, (1, 2))
        assert [x in a for x in (0, 1, 2, 3)] == [False, True, True, False]
        for x in (True, 1.0, 2.0, "1", None):
            assert x not in a


class TestSubMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            SubMap(subset(3, 1, 2), subset(3, 1, 3), (1, 2))
        with pytest.raises(ValueError):
            SubMap(subset(3, 1, 2), subset(3, 1, 3), (3, 1))
        for values in ((1.0, 3), (1, 3.0), (True, 3), [1, 3], (1,), (1, 3, 3)):
            with pytest.raises(ValueError):
                SubMap(subset(3, 1, 2), subset(3, 1, 3), values)
        p, q = OrderedPartition(3, (2, 1)), OrderedPartition(3, (1, 2))
        assert BlockMap(q, p, (0, 1)).images == (0, 1)
        for images in ((0, 1.0), (0.0, 1), (False, True), [0, 1], (1, 0), (0, 2), (0,)):
            with pytest.raises(ValueError):
                BlockMap(q, p, images)

    def test_compose_and_identity(self):
        f = SubMap(subset(3, 1, 2), subset(3, 1, 3), (1, 3))
        g = SubMap(subset(3, 1, 3), subset(3, 2, 3), (2, 3))
        assert f.then(g).values == (2, 3)
        assert f.then(SubMap.identity(subset(3, 1, 3))) == f
        with pytest.raises(ValueError):
            g.then(f)

    def test_bijective(self):
        assert SubMap(subset(3, 1, 2), subset(3, 1, 3), (1, 3)).is_bijective()
        assert not SubMap(subset(3, 1, 2), subset(3, 1, 3), (1, 1)).is_bijective()

    def test_enumeration_count(self):
        assert len(submaps_between(subset(3, 1, 2), subset(3, 1, 3))) == 3

    def test_call_off_the_domain(self):
        f = SubMap(subset(4, 1, 3), subset(4, 2, 4), (2, 4))
        assert (f(1), f(3)) == (2, 4)
        for x in (2, 5, True, 1.0):
            with pytest.raises(ValueError, match=rf"^{x} is not in the domain \{{1,3\}}$"):
                f(x)


class TestFactorizations:
    def test_submap_example(self):
        f = SubMap(subset(4, 1, 2, 4), subset(4, 1, 3, 4), (3, 3, 4))
        q, u, j = factorize_submap(f)
        assert q.codomain.elements == (1, 4) and q.values == (1, 1, 4)
        assert u.values == (3, 4)
        assert j == SubMap.inclusion(subset(4, 3, 4), subset(4, 1, 3, 4))
        assert q.then(u).then(j) == f

    def test_submap_iso_case(self):
        f = SubMap(subset(3, 1, 2), subset(3, 1, 3), (1, 3))
        q, u, j = factorize_submap(f)
        assert q.is_identity() and j.is_identity() and u == f

    def test_retraction_agrees_with_left_endpoint_rule(self):
        for n in (3, 4):
            for a in proper_subsets(n):
                for b in proper_subsets(n):
                    for f in submaps_between(a, b):
                        q, _, _ = factorize_submap(f)
                        assert q == retraction_for_inclusion(q.codomain, a)

    def test_block_map_example(self):
        p1, p2 = OrderedPartition(4, (1, 1, 2)), OrderedPartition(4, (2, 2))
        m = BlockMap(p1, p2, (0, 2))
        q, u, j = factorize_block_map(m)
        assert q.target.block_sizes == (1, 3)
        assert j.source.block_sizes == (2, 2)
        assert q.images == (0, 2) and u.images == (0, 1)
        assert q.then(u).then(j) == m

    def test_block_map_constant(self):
        p1, p2 = OrderedPartition(4, (1, 1, 2)), OrderedPartition(4, (2, 2))
        m = BlockMap(p1, p2, (0, 0))
        q, u, j = factorize_block_map(m)
        assert q.target.block_sizes == (4,)
        assert j.source.block_sizes == (4,)

    def test_block_map_identity(self):
        p = OrderedPartition(4, (2, 2))
        q, u, j = factorize_block_map(BlockMap.identity(p))
        assert q.is_identity() and j.is_identity() and u.is_identity()

    @given(monotone_submaps())
    def test_submap_factorization_properties(self, f):
        q, u, j = factorize_submap(f)
        assert q.then(u).then(j) == f
        assert u.is_bijective()
        assert j == SubMap.inclusion(j.domain, j.codomain)
        assert SubMap.inclusion(q.codomain, q.domain).then(q) == SubMap.identity(q.codomain)
