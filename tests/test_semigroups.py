import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from chaincat.chain import OPMap, compose, enumerate_oxn, green
from chaincat.semigroups import (
    AssociativityError,
    ClosureError,
    EXHAUSTIVE_ASSOC_LIMIT,
    SAMPLED_ASSOC_TRIPLES,
    ElementMap,
    FiniteSemigroup,
    _check_rows_associative,
    _generator_stages,
    build,
    find_isomorphism,
    green_oracle,
    is_antihomomorphism,
    is_homomorphism,
    is_regular,
    opposite,
)
from chaincat.verify import oxn_semigroup, phi_into_tr, tl_semigroup


def test_build_ox3():
    s = build(enumerate_oxn(3), compose)
    assert s.order == 9
    assert all(0 <= v < 9 for row in s.table for v in row)
    a, b = OPMap((1, 1, 2)), OPMap((2, 2, 3))
    assert s.elements[s.table[s.index[a]][s.index[b]]] == OPMap((2, 2, 2))


def test_build_one_element():
    s = build(["c"], lambda a, b: "c")
    assert s.order == 1 and s.table == [[0]]


def test_build_ox4():
    assert build(enumerate_oxn(4), compose).order == 34


def test_build_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        build(["a", "a"], lambda x, y: "a")


def test_closure_error_names_witness():
    with pytest.raises(ClosureError) as info:
        build(["a"], lambda x, y: "b")
    assert info.value.left == "a" and info.value.product == "b"


def _first_nonassociative_triple(m, mul):
    """The first (i, j, k) in order with (i*j)*k != i*(j*k), by the triple loop."""
    table = [[mul(x, y) for y in range(m)] for x in range(m)]
    return next(
        (
            (i, j, k)
            for i in range(m)
            for j in range(m)
            for k in range(m)
            if table[table[i][j]][k] != table[i][table[j][k]]
        ),
        None,
    )


def test_associativity_error_names_witness():
    # x*y = 1-y is closed but not associative: (x*y)*z = 1-z, x*(y*z) = z
    with pytest.raises(AssociativityError) as info:
        build([0, 1], lambda x, y: 1 - y)
    assert len(info.value.witness) == 3
    assert info.value.witness == _first_nonassociative_triple(2, lambda x, y: 1 - y)


@pytest.mark.parametrize(
    "m,mul,expected",
    [
        # a left-zero band with z*z moved off z, z = 4: first fails on (z, 0, z)
        (9, lambda x, y: 5 if x == y == 4 else x, (4, 0, 4)),
        (5, lambda x, y: (x - y) % 5, (0, 0, 1)),
        # x*y = max(x, y) but 3*3 = 0: (1*3)*3 = 0 while 1*(3*3) = 1
        (EXHAUSTIVE_ASSOC_LIMIT, lambda x, y: 0 if x == y == 3 else max(x, y), (1, 3, 3)),
    ],
    ids=["planted-band", "difference", "planted-semilattice-at-limit"],
)
def test_exhaustive_associativity_names_the_first_failing_triple(m, mul, expected):
    assert _first_nonassociative_triple(m, mul) == expected
    with pytest.raises(AssociativityError) as info:
        build(range(m), mul)
    assert info.value.witness == expected


# Associative multiplications on range(m), for any m.
_ASSOCIATIVE = {
    "cyclic-group": lambda m, x, y: (x + y) % m,
    "truncated-sum": lambda m, x, y: min(x + y, m - 1),
    "max": lambda m, x, y: max(x, y),
    "min": lambda m, x, y: min(x, y),
    "left-zero": lambda m, x, y: x,
    "right-zero": lambda m, x, y: y,
    "null": lambda m, x, y: 0,
}


@st.composite
def closed_tables(draw):
    """A closed table on 1 to 5 elements: either drawn entry by entry, or a
    relabelled associative one with up to two entries redrawn."""
    m = draw(st.integers(1, 5))
    points = st.integers(0, m - 1)
    if draw(st.booleans()):
        return draw(st.lists(st.lists(points, min_size=m, max_size=m), min_size=m, max_size=m))
    mul = _ASSOCIATIVE[draw(st.sampled_from(sorted(_ASSOCIATIVE)))]
    label = draw(st.permutations(range(m)))
    table = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            table[label[x]][label[y]] = label[mul(m, x, y)]
    for _ in range(draw(st.integers(0, 2))):
        table[draw(points)][draw(points)] = draw(points)
    return table


@settings(max_examples=500, deadline=None)
@given(closed_tables())
def test_build_raises_exactly_on_the_first_failing_triple(table):
    m = len(table)
    expected = _first_nonassociative_triple(m, lambda x, y: table[x][y])
    if expected is None:
        assert build(range(m), lambda x, y: table[x][y]).table == table
    else:
        with pytest.raises(AssociativityError) as info:
            build(range(m), lambda x, y: table[x][y])
        assert info.value.witness == expected


@pytest.mark.parametrize("n", [4, 5, 6])
def test_planted_defect_off_the_generators_is_caught(n):
    # Move one product a*b of OX_n, a and b generators neither of the true
    # table nor of the planted one, so that Light's test can catch it only
    # through the rows it reads, never at a row or column of its own.  At
    # n = 6 the table has 461 elements, all below the exhaustive limit.
    s = oxn_semigroup(n)
    rng = random.Random(n)
    gens = {g for g, _ in _generator_stages(s)}
    plain = [a for a in range(s.order) if a not in gens]
    caught = 0
    while caught < 5:
        i, j = rng.choice(plain), rng.choice(plain)
        v = rng.choice([v for v in range(s.order) if v != s.table[i][j]])
        table = [list(row) for row in s.table]
        table[i][j] = v
        if {i, j} & {g for g, _ in _generator_stages(FiniteSemigroup(s.elements, table, s.index))}:
            continue
        a, b, p = s.elements[i], s.elements[j], s.elements[v]

        def mul(x, y):
            return p if (x, y) == (a, b) else compose(x, y)

        with pytest.raises(AssociativityError) as info:
            build(s.elements, mul)
        x, y, z = info.value.witness
        assert mul(mul(x, y), z) != mul(x, mul(y, z))
        if n == 4:
            first = _first_nonassociative_triple(s.order, lambda k, l: table[k][l])
            assert info.value.witness == tuple(s.elements[k] for k in first)
        else:  # the pair scan names the first failing triple in (i, j, k) order
            with pytest.raises(AssociativityError) as scan:
                _check_rows_associative(s.elements, table)
            assert info.value.witness == scan.value.witness
        caught += 1


def _reached_by_hand(table, gens) -> set:
    """The closure of gens under right products by gens."""
    reached, todo = set(gens), list(gens)
    while todo:
        x = todo.pop()
        for h in gens:
            y = table[x][h]
            if y not in reached:
                reached.add(y)
                todo.append(y)
    return reached


@pytest.mark.parametrize(
    "make,size",
    [
        (lambda: oxn_semigroup(3), 4),
        (lambda: oxn_semigroup(4), 6),
        (lambda: oxn_semigroup(5), 8),
        (lambda: tl_semigroup(4), None),
        (lambda: opposite(oxn_semigroup(4)), None),
        # closed but not associative: x*y = 1-y
        (lambda: FiniteSemigroup([0, 1], [[1, 0], [1, 0]], {0: 0, 1: 1}), None),
    ],
    ids=["ox3", "ox4", "ox5", "tl4", "ox4-opposite", "not-associative"],
)
def test_light_generators_reach_every_element(make, size):
    s = make()
    stages = _generator_stages(s)
    gens = [g for g, _ in stages]
    assert _reached_by_hand(s.table, gens) == set(range(s.order))
    placed: list = []
    for count, (g, derived) in enumerate(stages, 1):
        placed.append(g)
        for x, parent, h in derived:
            assert s.table[parent][h] == x and parent in placed and h in gens[:count]
            placed.append(x)
    assert sorted(placed) == list(range(s.order))
    assert size is None or len(gens) == size
    assert _generator_stages(s) is stages


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_oxn_greedy_generators_are_the_top_idempotents(n):
    # The 2(n-1) idempotents of rank n-1 generate OX_n (Howie 1971); taking
    # idempotents first among equal |aS|, the greedy set is exactly them.
    s = oxn_semigroup(n)
    top = {f for f in s.elements if f.rank() == n - 1 and compose(f, f) == f}
    assert len(top) == 2 * (n - 1)
    assert {s.elements[g] for g, _ in _generator_stages(s)} == top


def test_build_leaves_its_light_generators_for_the_isomorphism_search():
    s = build(enumerate_oxn(4), compose)
    stages = s._stages
    assert stages is not None and _generator_stages(s) is stages
    assert find_isomorphism(s, oxn_semigroup(4)) is not None and s._stages is stages


def _reference_triples(m):
    rng = random.Random(0)
    for _ in range(SAMPLED_ASSOC_TRIPLES):
        yield rng.randrange(m), rng.randrange(m), rng.randrange(m)


def test_sampled_associativity_draws_the_randrange_triples():
    # Past the exhaustive limit; x*y = y+1 (mod m) fails on every triple, so
    # the witness is the first triple drawn.
    m = EXHAUSTIVE_ASSOC_LIMIT + 50
    with pytest.raises(AssociativityError) as info:
        build(range(m), lambda x, y: (y + 1) % m)
    assert info.value.witness == next(_reference_triples(m))


def test_sampled_associativity_reaches_deep_into_the_draws():
    # A left-zero band with z*z moved off z fails exactly on the triples
    # (z, y, z).  Taking z from the first reference triple with i == k puts
    # the witness hundreds of draws into the stream.
    m = EXHAUSTIVE_ASSOC_LIMIT + 50
    position, witness = next((t, (i, j, k)) for t, (i, j, k) in enumerate(_reference_triples(m)) if i == k)
    z = witness[0]
    assert position > 10
    with pytest.raises(AssociativityError) as info:
        build(range(m), lambda x, y: (z + 1) % m if x == y == z else x)
    assert info.value.witness == witness


def test_is_regular():
    assert is_regular(oxn_semigroup(3))
    assert is_regular(oxn_semigroup(4))
    null2 = build(["a", "z"], lambda x, y: "z")
    assert not is_regular(null2)


def _related(s, a, b, relation):
    labels = green_oracle(s, relation)
    return labels[s.index[a]] == labels[s.index[b]]


def _ideal_oracle(s):
    """Green's relations by equality of principal ideals, pair by pair, with
    J from the two-sided ideals S^1aS^1 rather than from D: the reference
    for the oracle's labels."""
    m, table = s.order, s.table
    left = [frozenset(table[x][a] for x in range(m)) | {a} for a in range(m)]
    right = [frozenset(table[a]) | {a} for a in range(m)]
    both = []
    for a in range(m):
        ideal = set(left[a]) | right[a]
        for x in range(m):
            ideal.update(table[table[x][a]])
        both.append(frozenset(ideal))

    def related(i, j, relation):
        if relation == "H":
            return related(i, j, "L") and related(i, j, "R")
        ideals = {"L": left, "R": right, "J": both}[relation]
        return ideals[i] == ideals[j]

    return related


def _three_element_semigroups() -> list[FiniteSemigroup]:
    """The 113 semigroups on {0, 1, 2}, one per associative table."""
    semigroups = []
    for flat in itertools.product(range(3), repeat=9):
        t = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
        if _associative(t):
            semigroups.append(FiniteSemigroup([0, 1, 2], t, {0: 0, 1: 1, 2: 2}))
    return semigroups


def _classes(s, relation):
    groups: dict = {}
    for i, label in enumerate(green_oracle(s, relation)):
        groups.setdefault(label, set()).add(i)
    return sorted(map(sorted, groups.values()))


class TestGreenOracle:
    def test_frozen_examples(self):
        s = oxn_semigroup(3)
        assert _related(s, OPMap((1, 1, 2)), OPMap((2, 2, 3)), "R")
        assert _related(s, OPMap((1, 1, 2)), OPMap((1, 2, 2)), "L")
        assert not _related(s, OPMap((1, 1, 2)), OPMap((1, 1, 3)), "L")

    def test_reflexive(self):
        s = oxn_semigroup(3)
        for a in s.elements:
            for rel in "RLHJ":
                assert _related(s, a, a, rel)

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            green_oracle(oxn_semigroup(3), "X")

    def test_one_label_per_element_cached(self):
        s = oxn_semigroup(4)
        for rel in "RLHJ":
            assert len(green_oracle(s, rel)) == s.order
            assert green_oracle(s, rel) is green_oracle(s, rel)

    @pytest.mark.parametrize("n", [3, 4])
    def test_agrees_with_characterization(self, n):
        s = oxn_semigroup(n)
        for a in s.elements:
            for b in s.elements:
                for rel in "RLHJ":
                    assert green(a, b, rel) == _related(s, a, b, rel)

    @pytest.mark.parametrize(
        "semigroups",
        [
            pytest.param(lambda: [oxn_semigroup(3)], id="3"),
            pytest.param(lambda: [oxn_semigroup(4)], id="4"),
            pytest.param(lambda: [oxn_semigroup(5)], id="5"),
            pytest.param(lambda: [tl_semigroup(3)], id="TL3"),
            pytest.param(lambda: [phi_into_tr(3).target], id="TR3"),
            pytest.param(lambda: [opposite(oxn_semigroup(4))], id="OX4-op"),
            pytest.param(_three_element_semigroups, id="all-order-3"),
        ],
    )
    def test_agrees_with_the_ideal_oracle(self, semigroups):
        for s in semigroups():
            related = _ideal_oracle(s)
            for rel in "RLHJ":
                labels = green_oracle(s, rel)
                for i in range(s.order):
                    for j in range(s.order):
                        assert (labels[i] == labels[j]) == related(i, j, rel), (s.table, i, j, rel)

    def test_left_zero_band(self):
        # x*y = x: S^1 a = S, so L and J are universal; aS^1 = {a}
        s = build(range(3), lambda x, y: x)
        assert _classes(s, "L") == _classes(s, "J") == [[0, 1, 2]]
        assert _classes(s, "R") == _classes(s, "H") == [[0], [1], [2]]

    def test_min_semilattice(self):
        # every principal ideal of a chain under min is its own down-set
        s = build(range(3), min)
        for rel in "RLHJ":
            assert _classes(s, rel) == [[0], [1], [2]]


class TestElementMap:
    def test_identity_is_homomorphism(self):
        s = oxn_semigroup(3)
        phi = ElementMap(s, s, tuple(range(9)))
        assert is_homomorphism(phi) and phi.is_bijective()

    def test_constant_to_non_idempotent_fails(self):
        s = oxn_semigroup(3)
        target = s.index[OPMap((1, 1, 2))]
        assert not OPMap((1, 1, 2)).is_idempotent()
        phi = ElementMap(s, s, (target,) * 9)
        assert not is_homomorphism(phi)

    def test_validation(self):
        s = oxn_semigroup(3)
        with pytest.raises(ValueError):
            ElementMap(s, s, (0,) * 8)
        with pytest.raises(ValueError):
            ElementMap(s, s, (0,) * 8 + (9,))

    @pytest.mark.parametrize("entry", [True, 1.0])
    def test_non_int_entry_refused(self, entry):
        s = oxn_semigroup(3)
        with pytest.raises(ValueError, match="must be ints"):
            ElementMap(s, s, (0, entry) + tuple(range(2, 9)))

    def test_apply(self):
        s = oxn_semigroup(3)
        phi = ElementMap(s, s, tuple(range(9)))
        assert phi.apply(OPMap((1, 1, 2))) == OPMap((1, 1, 2))


class TestFindIsomorphism:
    def test_self_gives_identity(self):
        s = oxn_semigroup(3)
        phi = find_isomorphism(s, s)
        assert phi is not None and phi.assignment == tuple(range(9))

    def test_left_zero_not_isomorphic(self):
        s = oxn_semigroup(3)
        lz = build(list(range(9)), lambda x, y: x)
        assert find_isomorphism(s, lz) is None

    def test_relabelled_copy_found(self):
        s = oxn_semigroup(3)
        shuffled = list(reversed(s.elements))
        t = build(shuffled, compose)
        phi = find_isomorphism(s, t)
        assert phi is not None and is_homomorphism(phi) and phi.is_bijective()

    def test_opposite_not_isomorphic(self):
        # constants are right zeros but not left zeros, so the opposite
        # semigroup is a genuinely different algebra
        s = oxn_semigroup(3)
        assert find_isomorphism(s, opposite(s)) is None

    def test_order_mismatch(self):
        assert find_isomorphism(oxn_semigroup(3), oxn_semigroup(4)) is None

    def test_all_three_element_semigroups_against_brute_force(self):
        semigroups = _three_element_semigroups()
        assert len(semigroups) == 113
        perms = list(itertools.permutations(range(3)))
        for a in semigroups:
            for b in semigroups:
                brute = any(
                    all(p[a.table[i][j]] == b.table[p[i]][p[j]] for i in range(3) for j in range(3))
                    for p in perms
                )
                phi = find_isomorphism(a, b)
                assert (phi is not None) == brute
                if phi is not None:
                    assert is_homomorphism(phi) and phi.is_bijective()

    def test_search_needs_no_deep_recursion(self):
        s = oxn_semigroup(5)
        t = build(s.elements[::-1], compose)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            phi = find_isomorphism(s, t)
        finally:
            sys.setrecursionlimit(limit)
        assert phi is not None and is_homomorphism(phi) and phi.is_bijective()

    def test_two_swapped_products_are_not_isomorphic(self):
        # Swap two entries of one row of a relabelled OX_4 so that every
        # element keeps its idempotence, |aS^1| and |S^1a|: the colours
        # cannot tell the tables apart, and the swap breaks associativity,
        # so no isomorphism with OX_4 exists.
        s = oxn_semigroup(4)
        t = build(s.elements[::-1], compose)
        colors = _colors_by_hand(t.table)
        for i, row in enumerate(t.table):
            for j, k in itertools.combinations(range(t.order), 2):
                if row[j] == row[k]:
                    continue
                table = [list(r) for r in t.table]
                table[i][j], table[i][k] = row[k], row[j]
                if _colors_by_hand(table) == colors and not _associative(table):
                    planted = FiniteSemigroup(t.elements, table, t.index)
                    assert find_isomorphism(s, planted) is None
                    return
        pytest.fail("no colour-preserving swap breaks associativity")

    def test_empty_and_one_element(self):
        empty = build([], lambda a, b: a)
        phi = find_isomorphism(empty, empty)
        assert phi is not None and phi.assignment == ()
        one = build(["c"], lambda a, b: "c")
        phi = find_isomorphism(one, one)
        assert phi is not None and phi.assignment == (0,)


def _associative(table) -> bool:
    m = len(table)
    return all(table[table[i][j]][k] == table[i][table[j][k]] for i in range(m) for j in range(m) for k in range(m))


def _colors_by_hand(table) -> Counter:
    """Idempotence, |aS^1| and |S^1a| of every element, as a multiset."""
    m = len(table)
    return Counter(
        (table[a][a] == a, len({a} | {table[a][x] for x in range(m)}), len({a} | {table[x][a] for x in range(m)}))
        for a in range(m)
    )


def test_opposite_and_antihomomorphism():
    s = oxn_semigroup(3)
    op = opposite(s)
    identity = ElementMap(s, op, tuple(range(9)))
    assert is_antihomomorphism(identity)
    assert not is_homomorphism(identity)
    assert op.elements == s.elements
    for i in range(s.order):
        for j in range(s.order):
            assert op.table[i][j] == s.table[j][i]


def test_cayley_json_roundtrip():
    import io
    import json

    s = oxn_semigroup(3)
    fh = io.StringIO()
    assert s.to_json(fh) is None
    data = json.loads(fh.getvalue())
    assert data["order"] == 9
    assert data["elements"][0] == "[1,1,1]"
    assert data["table"] == s.table
