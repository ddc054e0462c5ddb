"""check_functor_isomorphism streams the hom-sets: it walks them in the
order the source category fills them and releases each fill unit once it
is compared, while hom-sets cached before the check stay cached."""

import tracemalloc

import pytest

from chaincat.cones import check_functor_isomorphism
from chaincat.ideals import LCategory, RCategory
from chaincat.partitions import PartitionCategory
from chaincat.powerset import PowersetCategory

PAIRS = [(LCategory, PowersetCategory), (RCategory, PartitionCategory)]
IDS = ["F", "G"]


@pytest.mark.parametrize("source,target", PAIRS, ids=IDS)
def test_fresh_caches_are_empty_afterwards(source, target):
    s, t = source(5), target(5)
    ok, counts, witness = check_functor_isomorphism(s, t)
    assert ok, witness
    assert counts["hom_pairs"] == len(s.objects()) ** 2
    assert s._hom_cache == {} and t._hom_cache == {}


@pytest.mark.parametrize("source,target", PAIRS, ids=IDS)
def test_hom_sets_cached_before_stay_the_same_objects(source, target):
    s, t = source(5), target(5)
    objs = s.objects()
    # one pair in the middle of the walk on each side; on the ideal side
    # it fills a whole row or column, on the twin one hom-set
    for cat in (s, t):
        cat.hom(objs[3], objs[7])
        cat.hom(objs[-1], objs[0])
    kept = [dict(s._hom_cache), dict(t._hom_cache)]
    assert len(kept[0]) > len(kept[1]) == 2

    ok, _, witness = check_functor_isomorphism(s, t)
    assert ok, witness
    for cat, before in zip((s, t), kept):
        assert list(cat._hom_cache) == list(before)
        assert all(cat._hom_cache[key] is hom for key, hom in before.items())


def _counting(base):
    """A subclass of base that counts its ``_compute_hom`` calls."""

    class Counting(base):
        computed = 0

        def _compute_hom(self, a, b):
            self.computed += 1
            return super()._compute_hom(a, b)

    return Counting


@pytest.mark.parametrize("source,target", PAIRS, ids=IDS)
def test_each_fill_unit_is_computed_once(source, target):
    s = _counting(source)(5)
    ok, _, witness = check_functor_isomorphism(s, target(5))
    assert ok, witness
    assert s.computed == len(s.objects())


@pytest.mark.parametrize("source,target", PAIRS, ids=IDS)
def test_peak_holds_one_fill_unit_not_both_categories(source, target):
    # Kept whole, L(6) and Po(6) hold 55 363 morphisms each, about 17 MB
    # traced at the peak, and R(6) and Pi(6) about 7 MB.  A streamed check
    # holds one row or column of each plus the ideal side's columns of right
    # products: about 1.2 and 0.8 MB.
    s, t = source(6), target(6)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ok, _, witness = check_functor_isomorphism(s, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok, witness
    assert peak - start < 4 * 1024 * 1024
