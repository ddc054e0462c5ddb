"""The honest hom-sets of the ideal categories: their closed-form sizes, the
products a fill makes, and their content and order pinned at n=6."""

import hashlib
from math import comb

import pytest

from chaincat import ideals
from chaincat.chain import OPMap, Subset, oxn_order
from chaincat.ideals import LCategory, RCategory

TOTALS = {
    LCategory: {3: 63, 4: 660, 5: 6175, 6: 55363},
    RCategory: {3: 19, 4: 229, 5: 2345, 6: 22236},
}

# sha256 of every morphism label, one per line, over the pairs in object
# order and each hom-set in its own order, as the hom-sets were computed
# straight from the sandwich sets, one product pair per element.
DIGESTS_AT_6 = {
    LCategory: "b1b19447e63ef6cdd74ad66b3abe9adc4693cfa18355fe4f73381e12b59da801",
    RCategory: "8cb1abbdcbcb2be56dd02ca939665c21f73077398f4d3813eceb1861e3277fae",
}


def _closed_form(cat, a, b) -> int:
    """|L(A, B)| = C(|A|+|B|-1, |A|): the monotone maps A -> B.
    |R(p, q)| = C(k+l-1, l), with k and l the block counts of p and q: the
    monotone maps from the blocks of q back to those of p."""
    if isinstance(cat, LCategory):
        return comb(len(a) + len(b) - 1, len(a))
    k, l = a.num_blocks, b.num_blocks
    return comb(k + l - 1, l)


@pytest.mark.parametrize("cls", [LCategory, RCategory])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_hom_sizes_follow_the_closed_forms(cls, n):
    cat = cls(n)
    objs = cat.objects()
    sizes = {(a, b): len(cat.hom(a, b)) for a in objs for b in objs}
    assert sizes == {(a, b): _closed_form(cat, a, b) for a in objs for b in objs}
    assert sum(sizes.values()) == TOTALS[cls][n]


@pytest.mark.parametrize("cls", [LCategory, RCategory])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_full_fill_makes_two_products_per_object_and_map(cls, n, monkeypatch):
    calls = []
    compose = ideals.compose_maps

    def counted(f, g):
        calls.append(None)
        return compose(f, g)

    monkeypatch.setattr(ideals, "compose_maps", counted)
    cat = cls(n)
    objs = cat.objects()
    for a in objs:
        for b in objs:
            cat.hom(a, b)
    assert len(calls) == 2 * len(objs) * oxn_order(n)


@pytest.mark.parametrize("cls", [LCategory, RCategory])
def test_hom_sets_at_6_are_pinned_in_order(cls):
    cat = cls(6)
    digest = hashlib.sha256()
    for a in cat.objects():
        for b in cat.objects():
            for m in cat.hom(a, b):
                digest.update(cat.morphism_label(m).encode() + b"\n")
    assert digest.hexdigest() == DIGESTS_AT_6[cls]


def test_a_value_outside_the_target_is_refused(monkeypatch):
    # a planted sandwich set holding a map with a value outside {1}
    def planted(category, e, idempotent):
        for c in category.objects():
            yield c, [OPMap((3, 3, 3))]

    monkeypatch.setattr(ideals, "_sandwich_sets", planted)
    with pytest.raises(ValueError, match="outside"):
        LCategory(3).hom(Subset(3, (1,)), Subset(3, (1,)))
