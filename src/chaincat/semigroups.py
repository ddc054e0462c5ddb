"""Finite semigroups as explicit Cayley tables: construction with closure and
associativity checking, regularity, an ideal-theoretic Green's oracle,
homomorphism checking and backtracking isomorphism search."""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Callable, Sequence

EXHAUSTIVE_ASSOC_LIMIT = 200
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
        self._ideal_cache: dict = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def mul_elements(self, a, b):
        return self.elements[self.table[self.index[a]][self.index[b]]]

    def idempotent_indices(self) -> list[int]:
        return [i for i in range(self.order) if self.table[i][i] == i]

    def to_json(self) -> str:
        return json.dumps(
            {
                "order": self.order,
                "elements": [str(x) for x in self.elements],
                "table": self.table,
            }
        )


def build(elements: Sequence, mul_fn: Callable) -> FiniteSemigroup:
    """Tabulate a multiplication and verify closure and associativity.

    Associativity is checked on every triple up to EXHAUSTIVE_ASSOC_LIMIT
    elements and on SAMPLED_ASSOC_TRIPLES random triples, drawn from a
    fixed seed, beyond that.  The draws are the ones ``randrange(m)`` makes
    on ``random.Random(0)``: ``m.bit_length()`` random bits, redrawn while
    the value is not below m.
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
    if m <= EXHAUSTIVE_ASSOC_LIMIT:
        for i in range(m):
            ti = table[i]
            for j in range(m):
                t_ij = table[ti[j]]
                tj = table[j]
                for k in range(m):
                    if t_ij[k] != ti[tj[k]]:
                        raise AssociativityError(elements[i], elements[j], elements[k])
    else:
        draws = filter(m.__gt__, map(random.Random(0).getrandbits, repeat(m.bit_length())))
        for i, j, k in islice(zip(draws, draws, draws), SAMPLED_ASSOC_TRIPLES):
            if table[table[i][j]][k] != table[i][table[j][k]]:
                raise AssociativityError(elements[i], elements[j], elements[k])
    return FiniteSemigroup(elements, table, index)


def is_regular(s: FiniteSemigroup) -> bool:
    """True when every element a has some x with a*x*a = a."""
    m = s.order
    for a in range(m):
        ta = s.table[a]
        if not any(s.table[ta[x]][a] == a for x in range(m)):
            return False
    return True


def _left_ideal(s: FiniteSemigroup, a: int) -> frozenset[int]:
    key = ("L", a)
    if key not in s._ideal_cache:
        s._ideal_cache[key] = frozenset(s.table[x][a] for x in range(s.order)) | {a}
    return s._ideal_cache[key]


def _right_ideal(s: FiniteSemigroup, a: int) -> frozenset[int]:
    key = ("R", a)
    if key not in s._ideal_cache:
        s._ideal_cache[key] = frozenset(s.table[a]) | {a}
    return s._ideal_cache[key]


def _two_sided_ideal(s: FiniteSemigroup, a: int) -> frozenset[int]:
    key = ("J", a)
    if key not in s._ideal_cache:
        out = set(_left_ideal(s, a)) | set(_right_ideal(s, a))
        for x in range(s.order):
            out.update(s.table[s.table[x][a]])
        s._ideal_cache[key] = frozenset(out)
    return s._ideal_cache[key]


def green_oracle(s: FiniteSemigroup, a, b, relation: str) -> bool:
    """Green's relations computed from principal ideals, with no knowledge of
    what the elements are."""
    i, j = s.index[a], s.index[b]
    if relation == "L":
        return _left_ideal(s, i) == _left_ideal(s, j)
    if relation == "R":
        return _right_ideal(s, i) == _right_ideal(s, j)
    if relation == "H":
        return green_oracle(s, a, b, "L") and green_oracle(s, a, b, "R")
    if relation == "J":
        return _two_sided_ideal(s, i) == _two_sided_ideal(s, j)
    raise ValueError(f"unknown Green relation {relation!r}")


@dataclass
class ElementMap:
    """A total map between two finite semigroups, as an index assignment."""

    source: FiniteSemigroup
    target: FiniteSemigroup
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != self.source.order:
            raise ValueError("assignment must cover every source element")
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
    src, tgt, f = phi.source, phi.target, phi.assignment
    m = src.order
    for i in range(m):
        row = src.table[i]
        for j in range(m):
            if f[row[j]] != tgt.table[f[j]][f[i]]:
                return False
    return True


def opposite(s: FiniteSemigroup) -> FiniteSemigroup:
    """The same elements under the reversed multiplication."""
    m = s.order
    table = [[s.table[j][i] for j in range(m)] for i in range(m)]
    return FiniteSemigroup(s.elements, table, s.index)


# ---------------------------------------------------------------------------
# isomorphism search: joint iterated refinement of element invariants, then
# backtracking restricted to matching invariant classes.

def _initial_colors(s: FiniteSemigroup) -> list:
    return [
        (s.table[a][a] == a, len(_right_ideal(s, a)), len(_left_ideal(s, a)))
        for a in range(s.order)
    ]


def _joint_refine(s: FiniteSemigroup, t: FiniteSemigroup) -> tuple[list[int], list[int]]:
    """Refine invariant classes of both semigroups against one shared palette,
    so equal colors mean equal invariants across the two."""

    def signatures(g: FiniteSemigroup, colors: list) -> list:
        sigs = []
        for a in range(g.order):
            row = g.table[a]
            profile = sorted(
                (colors[b], colors[row[b]], colors[g.table[b][a]]) for b in range(g.order)
            )
            sigs.append((colors[a], tuple(profile)))
        return sigs

    palette0 = {sig: c for c, sig in enumerate(sorted(set(_initial_colors(s) + _initial_colors(t))))}
    cs = [palette0[sig] for sig in _initial_colors(s)]
    ct = [palette0[sig] for sig in _initial_colors(t)]
    while True:
        sig_s, sig_t = signatures(s, cs), signatures(t, ct)
        palette = {sig: c for c, sig in enumerate(sorted(set(sig_s + sig_t)))}
        new_s = [palette[sig] for sig in sig_s]
        new_t = [palette[sig] for sig in sig_t]
        if len(set(new_s + new_t)) == len(set(cs + ct)):
            return new_s, new_t
        cs, ct = new_s, new_t


def find_isomorphism(s: FiniteSemigroup, t: FiniteSemigroup) -> ElementMap | None:
    """Search for a bijective homomorphism, or return None.

    Backtracks over assignments that respect the refined invariant classes,
    checking every already-determined product along the way.
    """
    if s.order != t.order:
        return None
    s_colors, t_colors = _joint_refine(s, t)
    if Counter(s_colors) != Counter(t_colors):
        return None
    by_color: dict[int, list[int]] = {}
    for ti, c in enumerate(t_colors):
        by_color.setdefault(c, []).append(ti)
    candidates = [by_color[c] for c in s_colors]
    order = sorted(range(s.order), key=lambda i: (len(candidates[i]), i))

    m = s.order
    assignment: list[int | None] = [None] * m
    used = [False] * t.order
    assigned: list[int] = []

    def consistent(i: int) -> bool:
        ti = assignment[i]
        for j in assigned:
            tj = assignment[j]
            pij, pji = s.table[i][j], s.table[j][i]
            qij = assignment[pij]
            if qij is not None and t.table[ti][tj] != qij:
                return False
            qji = assignment[pji]
            if qji is not None and t.table[tj][ti] != qji:
                return False
        return True

    def extend(pos: int) -> bool:
        if pos == m:
            return True
        i = order[pos]
        for ti in candidates[i]:
            if used[ti]:
                continue
            assignment[i] = ti
            used[ti] = True
            assigned.append(i)
            if consistent(i) and extend(pos + 1):
                return True
            assigned.pop()
            used[ti] = False
            assignment[i] = None
        return False

    if not extend(0):
        return None
    phi = ElementMap(s, t, tuple(assignment))
    assert phi.is_bijective() and is_homomorphism(phi)
    return phi
