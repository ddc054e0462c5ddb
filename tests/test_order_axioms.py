"""The subobject order: planted defects in each order axiom, the number of
``leq`` calls one axiom pass makes, and the cone frame read off the order.

Each planted category damages one answer of ``leq`` at n=4, and the axiom
pass must name the damaged order axiom with its witness.
"""

import pytest

from chaincat import verify
from chaincat.chain import OrderedPartition, Subset
from chaincat.cones import check_normal_category_axioms
from chaincat.ideals import LCategory, RCategory
from chaincat.partitions import PartitionCategory
from chaincat.powerset import PowersetCategory


def damaged(base, pair, answer):
    """``base`` with ``leq`` answering ``answer`` on the one pair ``pair``."""

    class Damaged(base):
        def leq(self, a, b):
            return answer if (a, b) == pair else super().leq(a, b)

    return Damaged


def _l(*elements):
    return Subset(4, elements)


def _r(*sizes):
    return OrderedPartition(4, sizes)


ORDER_DEFECTS = {
    "reflexive": (LCategory, (_l(2), _l(2)), False, {"axiom": "order-reflexive", "object": "{2}"}),
    "antisymmetric": (
        LCategory, (_l(1, 2), _l(1)), True, {"axiom": "order-antisymmetric", "pair": ["{1}", "{1,2}"]},
    ),
    "transitive-L": (
        LCategory, (_l(1), _l(1, 2, 3)), False, {"axiom": "order-transitive", "chain": ["{1}", "{1,2}", "{1,2,3}"]},
    ),
    "transitive-R": (
        RCategory, (_r(4), _r(1, 1, 2)), False, {"axiom": "order-transitive", "chain": ["(4)", "(1,3)", "(1,1,2)"]},
    ),
}


@pytest.mark.parametrize("defect", ORDER_DEFECTS, ids=list(ORDER_DEFECTS))
def test_a_damaged_order_answer_fails_its_axiom(defect):
    base, pair, answer, witness = ORDER_DEFECTS[defect]
    cat = damaged(base, pair, answer)(4)
    assert cat.leq(*pair) is answer != base(4).leq(*pair)
    assert check_normal_category_axioms(cat)[::2] == (False, witness)


def test_a_damaged_order_answer_fails_factorize_po(fresh_builds, monkeypatch):
    _, pair, answer, witness = ORDER_DEFECTS["transitive-L"]
    planted = damaged(PowersetCategory, pair, answer)(4)
    monkeypatch.setattr(verify, "powerset_category", lambda n: planted)
    report = verify.run_check("factorize-Po", 4)
    assert report.status == "fail"
    assert report.witness == {"category": "Po", **witness}


@pytest.mark.parametrize("base,n,bound", [(LCategory, 5, 1800), (RCategory, 5, 450)], ids=["L5", "R5"])
def test_one_axiom_pass_reads_the_order_once(base, n, bound):
    """The pass reads the order off one up-set table, built with one leq
    call per ordered pair of distinct objects, so it stays within
    2·|objects|² calls (11 304 on L(5) and 2 209 on R(5) when every
    subobject pair scanned every object)."""

    class Counting(base):
        calls = 0

        def leq(self, a, b):
            Counting.calls += 1
            return super().leq(a, b)

    cat = Counting(n)
    assert check_normal_category_axioms(cat)[0]
    assert 2 * len(cat.objects()) ** 2 == bound
    assert Counting.calls <= bound


OLD_SORT_KEYS = {
    LCategory: lambda a: (-len(a), a.elements),
    PowersetCategory: lambda a: (-len(a), a.elements),
    RCategory: lambda a: (-a.num_blocks, a.block_sizes),
    PartitionCategory: lambda a: (-a.num_blocks, a.block_sizes),
}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("base", list(OLD_SORT_KEYS), ids=["L", "Po", "R", "Pi"])
def test_cone_frame_keeps_the_sorted_maximal_order(base, n):
    """The maximal objects come in objects() order, which is the order of
    the larger-first, then lexicographic sort key each category once
    supplied, so cones keep their order and labels; each ``below[i]`` is
    the set of objects a direct leq scan puts strictly below ``maximal[i]``."""
    cat = base(n)
    objs = cat.objects()
    strictly_below = [[k for k, x in enumerate(objs) if x != m and cat.leq(x, m)] for m in objs]
    maximal = [k for k, a in enumerate(objs) if not any(b != a and cat.leq(a, b) for b in objs)]
    table = cat.cone_table(objs[-1])
    assert list(table.maximal) == sorted(maximal, key=lambda k: OLD_SORT_KEYS[base](objs[k]))
    assert [set(xs) for xs in table.below] == [set(strictly_below[m]) for m in table.maximal]
