"""The normal factorizations share their retraction and inclusion halves,
and factorize-Pi asks each coarsening oracle once per distinct input.

The reference functions below build all three factors of every morphism
afresh, as ``factorize_submap`` and ``factorize_block_map`` did before the
halves were shared; the shared factors must equal them on every morphism of
L, Po, R and Pi at n = 3..5."""

from collections import Counter
from itertools import accumulate, groupby

import pytest

from chaincat import verify
from chaincat.chain import BlockMap, OrderedPartition, SubMap, Subset
from chaincat.ideals import LCategory, RCategory
from chaincat.partitions import PartitionCategory
from chaincat.powerset import PowersetCategory
from chaincat.verify import run_check


def _runs(values):
    lengths, heads = [], []
    for v, run in groupby(values):
        heads.append(v)
        lengths.append(len(list(run)))
    return tuple(lengths), tuple(heads)


def _cut_after(n, cuts):
    return OrderedPartition(n, tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,))))


def reference_factorize_submap(f):
    """Retraction onto the first element of each fiber, f on that
    cross-section, and the image inclusion, each built for this f."""
    lengths, values = _runs(f.values)
    elements = f.domain.elements
    firsts = tuple(elements[i] for i in accumulate(lengths[:-1], initial=0))
    cross = Subset(f.domain.n, firsts)
    img = Subset(f.domain.n, values)
    q = SubMap(f.domain, cross, tuple(x for x, k in zip(firsts, lengths) for _ in range(k)))
    u = SubMap(cross, img, values)
    j = SubMap(img, f.codomain, values)
    return q, u, j


def reference_factorize_block_map(m):
    """Through the image absorption gamma of the source and the fiber
    coarsening sigma of the target, each built for this m."""
    lengths, hit = _runs(m.images)
    p1, p2 = m.source, m.target
    gamma = _cut_after(p1.n, tuple(p1._ends[j] for j in hit[:-1]))
    sigma = _cut_after(p2.n, tuple(p2._ends[k - 1] for k in accumulate(lengths[:-1])))
    q = BlockMap(p1, gamma, hit)
    u = BlockMap(gamma, sigma, tuple(range(len(hit))))
    j = BlockMap(sigma, p2, tuple(r for r, k in enumerate(lengths) for _ in range(k)))
    return q, u, j


CATEGORIES = [
    (LCategory, reference_factorize_submap),
    (PowersetCategory, reference_factorize_submap),
    (RCategory, reference_factorize_block_map),
    (PartitionCategory, reference_factorize_block_map),
]


def _morphisms(cat):
    objs = cat.objects()
    return [f for a in objs for b in objs for f in cat.hom(a, b)]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("category,reference", CATEGORIES, ids=["L", "Po", "R", "Pi"])
def test_shared_halves_equal_the_per_morphism_factors(category, reference, n):
    cat = category(n)
    morphisms = _morphisms(cat)
    shared_q, shared_j = {}, {}
    for f in morphisms:
        factors = cat.normal_factorize(f)
        expected = reference(f)
        assert factors == expected and list(map(type, factors)) == list(map(type, expected))
        q, u, j = factors
        assert q.target is u.source and u.target is j.source
        assert shared_q.setdefault(q, q) is q
        assert shared_j.setdefault(j, j) is j
    assert len(shared_q) < len(morphisms) and len(shared_j) < len(morphisms)


def _sigma_key(m):
    return m.target, m.images


def test_each_oracle_is_asked_once_per_distinct_input(fresh_builds, monkeypatch):
    asked = {"sigma": Counter(), "gamma": Counter()}
    sigma_oracle, gamma_oracle = verify._sigma_oracle, verify._gamma_oracle

    def sigma(m):
        asked["sigma"][_sigma_key(m)] += 1
        return sigma_oracle(m)

    def gamma(m):
        asked["gamma"][m.source, frozenset(m.images)] += 1
        return gamma_oracle(m)

    monkeypatch.setattr(verify, "_sigma_oracle", sigma)
    monkeypatch.setattr(verify, "_gamma_oracle", gamma)
    report = run_check("factorize-Pi", 4)
    assert report.status == "pass"
    morphisms = _morphisms(verify.partition_category(4))
    assert set(asked["sigma"]) == {_sigma_key(m) for m in morphisms}
    assert set(asked["gamma"]) == {(m.source, frozenset(m.images)) for m in morphisms}
    assert set(asked["sigma"].values()) == set(asked["gamma"].values()) == {1}
    assert len(asked["sigma"]) < len(morphisms) and len(asked["gamma"]) < len(morphisms)


def test_an_oracle_wrong_on_one_input_names_its_first_morphism(fresh_builds, monkeypatch):
    """The planted key is shared by several morphisms, the first of them
    not the first morphism of Pi(4); the witness is that first one, and
    once the oracle is restored the check passes again, so no answer
    outlives the call that asked for it."""
    morphisms = _morphisms(verify.partition_category(4))
    keys = Counter(map(_sigma_key, morphisms))
    victim = next(m for m in morphisms[1:] if keys[_sigma_key(m)] > 1 and _sigma_key(m) != _sigma_key(morphisms[0]))
    key = _sigma_key(victim)
    sigma_oracle = verify._sigma_oracle
    right = sigma_oracle(victim)
    wrong = next(p for p in verify.partition_category(4).objects() if p != right)

    monkeypatch.setattr(verify, "_sigma_oracle", lambda m: wrong if _sigma_key(m) == key else sigma_oracle(m))
    report = run_check("factorize-Pi", 4)
    assert report.status == "fail"
    assert report.witness == {"reason": "fiber coarsening disagrees with oracle", "morphism": str(victim)}

    monkeypatch.setattr(verify, "_sigma_oracle", sigma_oracle)
    assert run_check("factorize-Pi", 4).status == "pass"
