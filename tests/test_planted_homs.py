"""F-iso and G-iso failing when one enumerated hom-set is planted wrong.

Each check compares the honest sandwich hom-sets of an ideal category with
the combinatorial ones of its powerset or partition twin.  A test-only
subclass of the twin damages exactly one hom-set, and the check must name
that pair in its witness.  The comparison decides the isomorphism only
while each twin inherits its objects and every structure map from its ideal
category, which the last test guards.
"""

import pytest

from chaincat import verify
from chaincat.chain import OrderedPartition, Subset
from chaincat.partitions import PartitionCategory
from chaincat.powerset import PowersetCategory


def _planted(base, pair, damage):
    """A subclass of base whose hom-set at pair is damage(category, hom)."""

    class Planted(base):
        def _compute_hom(self, a, b):
            hom = tuple(super()._compute_hom(a, b))
            return damage(self, hom) if (a, b) == pair else hom

    return Planted


def _drop_last(cat, hom):
    return hom[:-1]


def _swap_first_from(other):
    """Replace the first morphism with the first of hom(a, other)."""

    def damage(cat, hom):
        return (cat.hom(hom[0].source, other)[0],) + hom[1:]

    return damage


L_PAIR = (Subset(3, (1, 3)), Subset(3, (2, 3)))
R_PAIR = (OrderedPartition(3, (1, 2)), OrderedPartition(3, (2, 1)))
# The last pair each check walks: the last source row for F, the last
# target column for G.  A walk that stops early, or releases a unit before
# comparing it, misses a defect here.
L_LAST = (Subset(3, (2, 3)), Subset(3, (2, 3)))
R_LAST = (OrderedPartition(3, (2, 1)), OrderedPartition(3, (2, 1)))

CASES = {
    "F-drop": ("F-iso", "powerset_category", PowersetCategory, L_PAIR, _drop_last, "hom-count-mismatch"),
    "F-swap": (
        "F-iso", "powerset_category", PowersetCategory, L_PAIR,
        _swap_first_from(Subset(3, (1, 2))), "hom-not-bijective",
    ),
    "G-drop": ("G-iso", "partition_category", PartitionCategory, R_PAIR, _drop_last, "hom-count-mismatch"),
    "G-swap": (
        "G-iso", "partition_category", PartitionCategory, R_PAIR,
        _swap_first_from(OrderedPartition(3, (3,))), "hom-not-bijective",
    ),
    "F-last": ("F-iso", "powerset_category", PowersetCategory, L_LAST, _drop_last, "hom-count-mismatch"),
    "G-last": (
        "G-iso", "partition_category", PartitionCategory, R_LAST,
        _swap_first_from(OrderedPartition(3, (3,))), "hom-not-bijective",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_functor_check_names_the_planted_pair(case, fresh_builds, monkeypatch):
    check, builder, base, pair, damage, reason = CASES[case]
    planted = _planted(base, pair, damage)(3)
    honest = base(3).hom(*pair)
    assert planted.hom(*pair) != honest and len(honest) > 1
    monkeypatch.setattr(verify, builder, lambda n: planted)

    report = verify.run_check(check, 3)
    assert report.status == "fail"
    assert report.witness["reason"] == reason
    assert report.witness["pair"] == [planted.object_label(x) for x in pair]


@pytest.mark.parametrize("base,pair", [(PowersetCategory, L_LAST), (PartitionCategory, R_LAST)])
def test_last_cases_sit_at_the_end_of_the_walk(base, pair):
    cat = base(3)
    assert list(cat.fill_unit(cat.objects()[-1]))[-1] == pair


SHARED = (
    "compose",
    "identity",
    "leq",
    "inclusion",
    "retraction",
    "normal_factorize",
    "is_isomorphism",
    "_compute_inclusion",
    "fill_unit",
    "__init__",
)


@pytest.mark.parametrize("twin", [PowersetCategory, PartitionCategory])
def test_twins_inherit_the_category_structure(twin):
    assert not set(SHARED) & set(vars(twin))
