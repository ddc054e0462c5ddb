"""Finite semigroups as explicit Cayley tables: construction with closure and
associativity checking, regularity, a Green's oracle read off the principal
ideals, homomorphism checking and an isomorphism search over the images
of a generating set."""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import itemgetter
from typing import Callable, Sequence, TextIO

EXHAUSTIVE_ASSOC_LIMIT = 500
SAMPLED_ASSOC_TRIPLES = 100_000


class ClosureError(ValueError):
    """A product escaped the element set; carries the offending pair and product."""

    def __init__(self, left, right, product):
        self.left, self.right, self.product = left, right, product
        super().__init__(f"product {left} * {right} = {product} is not in the element set")


class AssociativityError(ValueError):
    """Associativity failed; carries the witness triple."""

    def __init__(self, a, b, c):
        self.witness = (a, b, c)
        super().__init__(f"associativity fails on ({a}, {b}, {c})")


@dataclass
class FiniteSemigroup:
    """Elements plus a full multiplication table of element indices."""

    elements: list
    table: list[list[int]]
    index: dict = field(repr=False)

    def __post_init__(self):
        self._green_labels: dict = {}
        self._stages: list | None = None  # _generator_stages, once computed

    @property
    def order(self) -> int:
        return len(self.elements)

    def to_json(self, fh: TextIO) -> None:
        """Write ``{"order", "elements", "table"}`` as JSON into the text
        file fh, one table row at a time, so no more than one row is held
        as text.  The bytes are those of ``json.dumps`` on that dict."""
        names = [str(k) for k in range(self.order)]
        labels = json.dumps([str(x) for x in self.elements])
        fh.write(f'{{"order": {self.order}, "elements": {labels}, "table": [')
        sep = ""
        for row in self.table:
            fh.write(sep + "[" + ", ".join(map(names.__getitem__, row)) + "]")
            sep = ", "
        fh.write("]}")


def build(elements: Sequence, mul_fn: Callable) -> FiniteSemigroup:
    """Tabulate a multiplication and verify closure and associativity.

    Associativity is checked on every triple up to EXHAUSTIVE_ASSOC_LIMIT
    elements, by Light's test (see ``_check_associative``): every table up
    to n = 6, OX_6 and its cone semigroups with 461 elements included.
    Beyond that, OX_7 with 1715 elements among them, it is checked on
    SAMPLED_ASSOC_TRIPLES random triples, drawn from a fixed seed.  The
    draws are the ones ``randrange(m)`` makes on ``random.Random(0)``:
    ``m.bit_length()`` random bits, redrawn while the value is not below m.  An exhaustive failure names the first failing
    triple in (i, j, k) order.
    """
    elements = list(elements)
    index: dict = {}
    for i, x in enumerate(elements):
        if x in index:
            raise ValueError(f"duplicate element {x}")
        index[x] = i
    m = len(elements)
    table = []
    for a in elements:
        row = []
        for b in elements:
            p = mul_fn(a, b)
            k = index.get(p)
            if k is None:
                raise ClosureError(a, b, p)
            row.append(k)
        table.append(row)
    s = FiniteSemigroup(elements, table, index)
    if m <= EXHAUSTIVE_ASSOC_LIMIT:
        _check_associative(s)
    else:
        draws = filter(m.__gt__, map(random.Random(0).getrandbits, repeat(m.bit_length())))
        for i, j, k in islice(zip(draws, draws, draws), SAMPLED_ASSOC_TRIPLES):
            if table[table[i][j]][k] != table[i][table[j][k]]:
                raise AssociativityError(elements[i], elements[j], elements[k])
    return s


def _reader(positions: Sequence[int]):
    """A function reading a sequence at the given positions into a tuple,
    by one ``itemgetter``; with one position it would return a bare value,
    hence the case of its own."""
    if len(positions) == 1:
        (k,) = positions
        return lambda seq: (seq[k],)
    return itemgetter(*positions)


def _check_associative(s: FiniteSemigroup) -> None:
    """Light's test on the generators G of ``_generator_stages(s)``: for each
    g in G and each x, the row of x*g must equal row x read through row g,
    ``(x*g)*y = x*(g*y)`` for every y at once, m*|G| row comparisons in all.
    On a failure the table is scanned by ``_check_rows_associative``, which
    raises at the first failing triple in (i, j, k) order.

    This is exhaustive.  The elements a with ``(x*a)*y = x*(a*y)`` for all x
    and y are closed under products: for two of them a and b,
    ``(x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y)``.
    They contain G, and every element is g*h1*...*hk, bracketed from the
    left, for a g and hi in G, since every element the stages do not reach
    becomes a generator; so they are all of s.
    """
    rows = [tuple(row) for row in s.table]
    for g, _ in _generator_stages(s):
        through = _reader(rows[g])
        for row in rows:
            if through(row) != rows[row[g]]:  # a failing triple, so the scan raises
                _check_rows_associative(s.elements, s.table)


def _check_rows_associative(elements: list, table: list[list[int]]) -> None:
    """Raise AssociativityError at the first (i, j, k) in order with
    ``(i*j)*k != i*(j*k)``, comparing whole rows at a time."""
    m = len(table)
    rows = [tuple(row) for row in table]
    # through[j] reads a row at the entries of row j: row i through it is
    # i*(j*k) over k.
    through = [_reader(row) for row in rows]
    for i, ti in enumerate(rows):
        for j, t_ij in enumerate(ti):
            if through[j](ti) != rows[t_ij]:
                tj, lhs = rows[j], rows[t_ij]
                k = next(k for k in range(m) if lhs[k] != ti[tj[k]])
                raise AssociativityError(elements[i], elements[j], elements[k])


def is_regular(s: FiniteSemigroup) -> bool:
    """True when every element a has some x with a*x*a = a."""
    m = s.order
    for a in range(m):
        ta = s.table[a]
        if not any(s.table[ta[x]][a] == a for x in range(m)):
            return False
    return True


def _least_index_labels(keys) -> tuple[int, ...]:
    """Label each index by the first index with an equal key."""
    first: dict = {}
    return tuple([first.setdefault(key, a) for a, key in enumerate(keys)])


def green_oracle(s: FiniteSemigroup, relation: str) -> tuple:
    """Green's classes read off the Cayley table, with no knowledge of what
    the elements are: one class label per element index, cached on s.

    By definition a R b when aS^1 = bS^1, and aS^1 is a with row a; a L b
    when S^1a = S^1b, and S^1a is a with column a.  H is the pair of the L
    and R labels.  In a finite semigroup J = D = L∘R, so the J-class of a is
    the union of the R-classes met by the L-class of a, and its least index
    is the least R label over that L-class.  A label is the least element
    index of its class (a pair of those for H).
    """
    if relation not in ("R", "L", "H", "J"):
        raise ValueError(f"unknown Green relation {relation!r}")
    labels = s._green_labels
    if not labels:
        rs = _least_index_labels(frozenset(row).union((a,)) for a, row in enumerate(s.table))
        ls = _least_index_labels(frozenset(column).union((a,)) for a, column in enumerate(zip(*s.table)))
        least_r: dict = {}  # L label -> least R label over the L-class
        for x, y in zip(ls, rs):
            least_r[x] = min(least_r.get(x, y), y)
        labels.update(R=rs, L=ls, H=tuple(zip(ls, rs)), J=tuple([least_r[x] for x in ls]))
    return labels[relation]


@dataclass
class ElementMap:
    """A total map between two finite semigroups, as an index assignment:
    one int per source element, a bool refused as every carrier refuses one."""

    source: FiniteSemigroup
    target: FiniteSemigroup
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != self.source.order:
            raise ValueError("assignment must cover every source element")
        if any(type(t) is not int for t in self.assignment):
            raise ValueError("assignment entries must be ints")
        if any(not 0 <= t < self.target.order for t in self.assignment):
            raise ValueError("assignment hits indices outside the target")

    def apply(self, a):
        return self.target.elements[self.assignment[self.source.index[a]]]

    def is_bijective(self) -> bool:
        return (
            self.source.order == self.target.order
            and len(set(self.assignment)) == self.source.order
        )


def is_homomorphism(phi: ElementMap) -> bool:
    src, tgt, f = phi.source, phi.target, phi.assignment
    m = src.order
    for i in range(m):
        row = src.table[i]
        trow = tgt.table[f[i]]
        for j in range(m):
            if f[row[j]] != trow[f[j]]:
                return False
    return True


def is_antihomomorphism(phi: ElementMap) -> bool:
    """True when phi reverses products: phi(a*b) = phi(b)*phi(a)."""
    return is_homomorphism(ElementMap(phi.source, opposite(phi.target), phi.assignment))


def opposite(s: FiniteSemigroup) -> FiniteSemigroup:
    """The same elements under the reversed multiplication."""
    m = s.order
    table = [[s.table[j][i] for j in range(m)] for i in range(m)]
    return FiniteSemigroup(s.elements, table, s.index)


# ---------------------------------------------------------------------------
# isomorphism search over the images of a greedy generating set

def _colors(s: FiniteSemigroup) -> list[tuple[bool, int, int]]:
    """Isomorphism invariants of each element: idempotence, |aS^1|, |S^1a|."""
    columns = list(zip(*s.table))
    return [(row[a] == a, len({a, *row}), len({a, *columns[a]})) for a, row in enumerate(s.table)]


def _stage_products(placed: list[int], start: int, gens: list[int]):
    """The pairs (x, h) whose products a new generator gens[-1] brings in: x
    placed before ``start`` times it, then x from ``start`` on, those
    appended meanwhile included, times every generator."""
    for x in placed[:start]:
        yield x, gens[-1]
    for y in islice(placed, start, None):
        for h in gens:
            yield y, h


def _generator_stages(s: FiniteSemigroup) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """A greedy generating set, largest image |aS| first and, among equal
    images, idempotents first, one stage per generator g: g and a triple
    (x, parent, h), x = parent*h, h a generator, for each element g makes
    newly reachable.  Each stage closes the reached set under right
    products by all generators so far: O(m*|gens|) reads.  Computed once
    per semigroup and cached on it.

    Idempotents come first because a small set of them often generates:
    the 2(n-1) idempotents of rank n-1 generate OX_n (Howie 1971), and on
    OX_n the greedy set is exactly those, 4, 6, 8, 10 and 12 generators
    for n = 3..7, where largest |aS| alone would pick 5, 9, 14, 20 and 27.
    Light's test and the isomorphism search both cost in proportion to
    |G|."""
    if s._stages is not None:
        return s._stages
    table = s.table
    reached = [False] * s.order
    gens: list[int] = []
    placed: list[int] = []  # reached elements, in the order they were reached
    stages = []
    for g in sorted(range(s.order), key=lambda a: (-len(set(table[a])), table[a][a] != a, a)):
        if not reached[g]:
            start, derived = len(placed), []
            gens.append(g)
            reached[g] = True
            placed.append(g)
            for parent, h in _stage_products(placed, start, gens):
                x = table[parent][h]
                if not reached[x]:
                    reached[x] = True
                    placed.append(x)
                    derived.append((x, parent, h))
            stages.append((g, derived))
    s._stages = stages
    return stages


def find_isomorphism(s: FiniteSemigroup, t: FiniteSemigroup) -> ElementMap | None:
    """Search for a bijective homomorphism, or return None.

    Branches on the image of each generator of ``_generator_stages(s)``
    among the unused elements of t of its colour, on an explicit stack, and
    derives the images its stage reaches, image[parent*h] =
    image[parent]*image[h].  A branch is cut on a used or off-colour
    derived image, or on a product of ``_stage_products`` that disagrees.

    Complete: an isomorphism keeps colours, passes every cut and is fixed
    by its generator images, which are tried in every combination.  Sound:
    a map that passes every stage is injective, so bijective, and has
    image[x*h] = image[x]*image[h] for every x and generator h.  For a word
    w = h1...hk in the generators, induction on k gives image[x*w] =
    image[x]*image[h1]...image[hk], with x = h1 also image[w] =
    image[h1]...image[hk]; so image[x*w] = image[x]*image[w] when s and t
    are associative.  Each full map is checked on every product all the
    same, and the search goes on past one that fails, which only a table
    that is not associative can bring about.
    """
    s_colors, t_colors = _colors(s), _colors(t)
    if Counter(s_colors) != Counter(t_colors):  # also when the orders differ
        return None
    by_color: dict = {}
    for b, c in enumerate(t_colors):
        by_color.setdefault(c, []).append(b)
    stages = _generator_stages(s)
    gens = [g for g, _ in stages]
    image, used = [-1] * s.order, [False] * t.order
    placed: list[int] = []  # elements with an image, stage by stage
    stack: list = []  # per open stage: its candidates left, len(placed) at its start
    ok = True  # the newest stage passed its checks
    while True:
        if ok and len(stack) == len(stages):
            phi = ElementMap(s, t, tuple(image))
            if is_homomorphism(phi):  # fails only on a table that is not associative
                assert phi.is_bijective()
                return phi
        elif ok:
            stack.append((iter(by_color[s_colors[gens[len(stack)]]]), len(placed)))
        elif not stack:
            return None
        candidates, start = stack[-1]
        while len(placed) > start:  # only placed elements' images are read
            used[image[placed.pop()]] = False
        b = next(candidates, None)
        ok = b is not None and not used[b]
        if b is None:
            stack.pop()
        if not ok:
            continue
        g, derived = stages[len(stack) - 1]
        image[g], used[b] = b, True
        placed.append(g)
        for x, parent, h in derived:
            v = t.table[image[parent]][image[h]]
            if used[v] or t_colors[v] != s_colors[x]:
                ok = False
                break
            image[x], used[v] = v, True
            placed.append(x)
        pairs = _stage_products(placed, start, gens[: len(stack)])
        ok = ok and all(image[s.table[x][h]] == t.table[image[x]][image[h]] for x, h in pairs)
