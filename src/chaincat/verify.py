"""Named verification checks over the whole library.

Each check rebuilds the structures it needs (memoized per chain size),
verifies one theorem-sized claim exhaustively, and reports counts plus a
structured witness on failure.  The CLI and the acceptance tests both run
these.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable

from . import chain
from .chain import BlockMap, OPMap, OrderedPartition, check_chain_size
from .cones import (
    Cone,
    check_functor_isomorphism,
    check_normal_category_axioms,
    cone_json,
    cone_semigroup,
    enumerate_normal_cones,
)
from .ideals import LCategory, RCategory, phi_representation
from .partitions import PartitionCategory
from .powerset import PowersetCategory, cone_to_opmap
from .semigroups import (
    AssociativityError,
    ClosureError,
    ElementMap,
    FiniteSemigroup,
    build,
    find_isomorphism,
    green_oracle,
    is_antihomomorphism,
    is_homomorphism,
    is_regular,
)

EXPORT_ORDER_LIMIT = 2000


class ResourceLimit(ValueError):
    """An export was refused because the table would be too large."""


# ---------------------------------------------------------------------------
# memoized structures

@lru_cache(maxsize=None)
def oxn_semigroup(n: int) -> FiniteSemigroup:
    return build(chain.enumerate_oxn(n), chain.compose)


@lru_cache(maxsize=None)
def left_category(n: int) -> LCategory:
    return LCategory(n)


@lru_cache(maxsize=None)
def right_category(n: int) -> RCategory:
    return RCategory(n)


@lru_cache(maxsize=None)
def powerset_category(n: int) -> PowersetCategory:
    return PowersetCategory(n)


@lru_cache(maxsize=None)
def partition_category(n: int) -> PartitionCategory:
    return PartitionCategory(n)


@lru_cache(maxsize=None)
def tl_semigroup(n: int) -> FiniteSemigroup:
    cat = left_category(n)
    return cone_semigroup(cat, [cat.principal_cone(a) for a in chain.enumerate_oxn(n)])


@lru_cache(maxsize=None)
def tpo_semigroup(n: int) -> FiniteSemigroup:
    cat = powerset_category(n)
    return cone_semigroup(cat, [cat.principal_cone(a) for a in chain.enumerate_oxn(n)])


@lru_cache(maxsize=None)
def phi_into_tr(n: int) -> ElementMap:
    return phi_representation(n, category=right_category(n), source_semigroup=oxn_semigroup(n))


@lru_cache(maxsize=None)
def tpi_semigroup(n: int) -> FiniteSemigroup:
    cat = partition_category(n)
    distinct = dict.fromkeys(cat.dual_principal_cone(a) for a in chain.enumerate_oxn(n))
    return cone_semigroup(cat, list(distinct))


# ---------------------------------------------------------------------------
# reports

@dataclass
class CheckReport:
    check: str
    n: int
    status: str
    counts: dict
    witness: dict | None
    elapsed_ms: int

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# the checks; each returns (ok, counts, witness)

def check_counts(n: int):
    maps = chain.enumerate_oxn(n)
    expected = chain.oxn_order(n)
    counts = {"oxn": len(maps), "expected": expected}
    if len(maps) != expected:
        return False, counts, {"reason": "enumeration does not match the closed form"}
    if len(set(maps)) != len(maps):
        return False, counts, {"reason": "duplicate maps in the enumeration"}
    if any(not f.is_singular() for f in maps):
        return False, counts, {"reason": "identity map slipped into the enumeration"}
    return True, counts, None


def _same_partition(keys: list, labels: tuple) -> bool:
    """Whether two labelings of the same elements group them alike: the
    key-label pairs are exactly as many as the keys and as the labels."""
    return len(set(keys)) == len(set(labels)) == len(set(zip(keys, labels)))


def check_green(n: int):
    """The image/kernel characterization of Green's relations against the
    principal-ideal oracle, compared as partitions of OX_n.

    Only a relation whose partitions differ is rescanned pair by pair, in
    (a, b, relation) order, for the first pair the two sides disagree on.
    """
    s = oxn_semigroup(n)
    counts = {"elements": s.order, "pairs": s.order * s.order, "relations": 4}
    keys = {rel: [chain.green_class(a, rel) for a in s.elements] for rel in chain.GREEN_RELATIONS}
    labels = {rel: green_oracle(s, rel) for rel in chain.GREEN_RELATIONS}
    failing = [rel for rel in chain.GREEN_RELATIONS if not _same_partition(keys[rel], labels[rel])]
    if not failing:
        return True, counts, None
    m = s.order
    i, j, rel = next(
        (i, j, rel)
        for i in range(m)
        for j in range(m)
        for rel in failing
        if (keys[rel][i] == keys[rel][j]) != (labels[rel][i] == labels[rel][j])
    )
    return False, counts, {
        "a": str(s.elements[i]),
        "b": str(s.elements[j]),
        "relation": rel,
        "characterization": keys[rel][i] == keys[rel][j],
        "oracle": labels[rel][i] == labels[rel][j],
    }


def _axioms_for(label: str, category, on_factorization=None) -> tuple[bool, dict, dict | None]:
    ok, counts, witness = check_normal_category_axioms(category, on_factorization)
    counts = {f"{label}_{k}": v for k, v in counts.items()}
    if witness is not None:
        witness = {"category": label, **witness}
    return ok, counts, witness


def check_factorize_l(n: int):
    ok_l, counts_l, wit_l = _axioms_for("L", left_category(n))
    if not ok_l:
        return False, counts_l, wit_l
    ok_r, counts_r, wit_r = _axioms_for("R", right_category(n))
    counts = {**counts_l, **counts_r}
    return ok_r, counts, wit_r


def check_factorize_po(n: int):
    return _axioms_for("Po", powerset_category(n))


def _sigma_oracle(m: BlockMap) -> OrderedPartition:
    """Recompute the fiber coarsening of m's target element by element."""
    n = m.target.n

    def cls(x: int) -> int:
        return m.images[m.target.block_of(x)]

    sizes, run = [], 1
    for x in range(2, n + 1):
        if cls(x) == cls(x - 1):
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    return OrderedPartition(n, tuple(sizes))


def _gamma_oracle(m: BlockMap) -> OrderedPartition:
    """Recompute the image absorption of m's source from cut positions: a
    cut survives exactly after each hit source block except the last."""
    ends, pos = [], 0
    for size in m.source.block_sizes:
        pos += size
        ends.append(pos)
    hit = sorted(set(m.images))
    boundaries = sorted(ends[i] for i in hit[:-1]) + [m.source.n]
    sizes, prev = [], 0
    for b in boundaries:
        sizes.append(b - prev)
        prev = b
    return OrderedPartition(m.source.n, tuple(sizes))


def _check_pi_factorization(cat: PartitionCategory, m: BlockMap, q: BlockMap, j: BlockMap) -> dict | None:
    """Compare the middle objects of m's normal factorization (q, u, j)
    with the two independent oracles; the axiom pass that made it has
    already checked that it recomposes and has the right kinds of factors."""

    def fail(reason: str) -> dict:
        return {"reason": reason, "morphism": cat.morphism_label(m)}

    if j.source != _sigma_oracle(m):
        return fail("fiber coarsening disagrees with oracle")
    if q.target != _gamma_oracle(m):
        return fail("image absorption disagrees with oracle")
    return None


def check_factorize_pi(n: int):
    """The axioms on Pi, and each factorization the axiom pass makes
    against the oracles.  An axiom failure is reported first; otherwise
    the first morphism, in hom-set order, whose factorization disagrees
    with an oracle."""
    cat = partition_category(n)
    disagreement = None

    def compare(m, q, _, j):
        nonlocal disagreement
        if disagreement is None:
            disagreement = _check_pi_factorization(cat, m, q, j)

    ok, counts, witness = _axioms_for("Pi", cat, compare)
    if not ok:
        return False, counts, witness
    if disagreement is not None:
        return False, counts, disagreement
    counts["Pi_factorizations"] = counts["Pi_morphisms"]
    return True, counts, None


def check_cones_principal(n: int):
    cat = left_category(n)
    enumerated = []
    for vertex in cat.objects():
        enumerated.extend(enumerate_normal_cones(cat, vertex))
    principal = [cat.principal_cone(a) for a in chain.enumerate_oxn(n)]
    counts = {"enumerated": len(enumerated), "principal": len(principal)}
    extra = set(enumerated) - set(principal)
    missing = set(principal) - set(enumerated)
    if extra or missing:
        sample = next(iter(extra or missing))
        return False, counts, {
            "reason": "enumerated normal cones differ from principal cones",
            "extra": len(extra),
            "missing": len(missing),
            "cone": cone_json(sample),
        }
    if len(set(enumerated)) != len(enumerated):
        return False, counts, {"reason": "duplicate cones in the enumeration"}
    return True, counts, None


def _cone_iso_counts(ox: FiniteSemigroup, cones: FiniteSemigroup) -> tuple[dict, bool]:
    """Check a -> principal_cone(a) explicitly and search for an isomorphism
    of ox with the cone semigroup: the counts, and whether both succeeded.

    The cone semigroup is built from principal_cone(a) over the singular
    maps a in ``enumerate_oxn`` order, the order of ox, and ``build``
    rejects a repeated element, so a non-injective principal_cone never
    gets here and the i-th cone is principal_cone(ox.elements[i]): the
    explicit map is the identity on indices."""
    phi = ElementMap(ox, cones, tuple(range(ox.order)))
    hom_ok, bij_ok = is_homomorphism(phi), phi.is_bijective()
    found = find_isomorphism(ox, cones)
    counts = {
        "cones": cones.order,
        "explicit_homomorphism": int(hom_ok),
        "explicit_bijective": int(bij_ok),
        "search_found": int(found is not None),
    }
    return counts, hom_ok and bij_ok and found is not None


def check_tl_iso(n: int):
    counts, ok = _cone_iso_counts(oxn_semigroup(n), tl_semigroup(n))
    if not ok:
        return False, counts, {"reason": "explicit or searched isomorphism with the cone semigroup failed"}
    return True, counts, None


def check_tpo_iso(n: int):
    ox, cones = oxn_semigroup(n), tpo_semigroup(n)
    counts, ok = _cone_iso_counts(ox, cones)
    unread = next(((a, c) for a, c in zip(ox.elements, cones.elements) if cone_to_opmap(c) != a), None)
    counts["roundtrip"] = int(unread is None)
    if unread is not None:
        return False, counts, {
            "reason": "a principal cone does not read back as its map",
            "map": str(unread[0]),
            "cone": cone_json(unread[1]),
        }
    if not ok:
        return False, counts, {"reason": "cone semigroup over the subset category is not an isomorphic copy"}
    return True, counts, None


def check_f_iso(n: int):
    ok, counts, witness = check_functor_isomorphism(left_category(n), powerset_category(n))
    return ok, {**counts, "exhaustive": 1}, witness


def check_g_iso(n: int):
    ok, counts, witness = check_functor_isomorphism(right_category(n), partition_category(n))
    return ok, {**counts, "exhaustive": 1}, witness


def _separator_witnesses_ok(n: int, phi: ElementMap) -> dict | None:
    """Every kernel-sharing pair must be split by its corrected separator
    idempotent, both in the semigroup and at the cone component level."""
    by_kernel: dict[OrderedPartition, list[OPMap]] = {}
    for a in chain.enumerate_oxn(n):
        by_kernel.setdefault(chain.kernel(a), []).append(a)
    cat = right_category(n)
    for ker, cls in by_kernel.items():
        reps = [block[0] for block in ker.blocks]
        for i, a in enumerate(cls):
            for b in cls[i + 1 :]:
                pos = next(k for k in reps if a(k) != b(k))
                x = min(a(pos), b(pos))
                e = chain.separator_idempotent(x, n)
                if chain.compose(a, e) == chain.compose(b, e):
                    return {"reason": "separator fails in the semigroup", "a": str(a), "b": str(b), "e": str(e)}
                obj = chain.kernel(e)
                if phi.apply(a).component(obj) == phi.apply(b).component(obj):
                    return {"reason": "separator fails at the cone component", "a": str(a), "b": str(b), "e": str(e)}
    return None


def check_phi_faithful(n: int):
    phi = phi_into_tr(n)
    injective = phi.is_bijective()
    anti = is_antihomomorphism(phi)
    literal = is_homomorphism(phi)
    counts = {
        "elements": phi.source.order,
        "image_cones": phi.target.order,
        "injective": int(injective),
        "image_closed": 1,
        "antihomomorphism": int(anti),
        "homomorphism_literal": int(literal),
    }
    if not injective:
        return False, counts, {"reason": "representation is not injective"}
    if not anti:
        return False, counts, {"reason": "representation does not reverse products consistently"}
    wit = _separator_witnesses_ok(n, phi)
    if wit is not None:
        return False, counts, wit
    return True, counts, None


def check_cone_regular(n: int):
    results = {}
    ok, witness = True, None
    for label, s, cat in (
        ("TL", tl_semigroup(n), left_category(n)),
        ("TPo", tpo_semigroup(n), powerset_category(n)),
    ):
        regular = is_regular(s)
        wrong = next(
            (
                cone
                for i, cone in enumerate(s.elements)
                if (s.table[i][i] == i) != (cone.component(cone.vertex) == cat.identity(cone.vertex))
            ),
            None,
        )
        results[f"{label}_order"] = s.order
        results[f"{label}_regular"] = int(regular)
        results[f"{label}_idempotence_criterion"] = int(wrong is None)
        ok = ok and regular and wrong is None
        if wrong is not None and witness is None:
            witness = {"reason": "idempotence criterion fails", "semigroup": label, "cone": cone_json(wrong)}
    if not ok and witness is None:
        witness = {"reason": "a cone semigroup is not regular"}
    return ok, results, witness


# ---------------------------------------------------------------------------
# registry and runner

@dataclass(frozen=True)
class CheckDef:
    fn: Callable
    min_n: int
    max_n: int


CHECKS: dict[str, CheckDef] = {
    "counts": CheckDef(check_counts, 3, 7),
    "green": CheckDef(check_green, 3, 5),
    "factorize-L": CheckDef(check_factorize_l, 3, 5),
    "factorize-Po": CheckDef(check_factorize_po, 3, 5),
    "factorize-Pi": CheckDef(check_factorize_pi, 3, 6),
    "cones-principal": CheckDef(check_cones_principal, 3, 6),
    "TL-iso": CheckDef(check_tl_iso, 3, 5),
    "F-iso": CheckDef(check_f_iso, 3, 6),
    "G-iso": CheckDef(check_g_iso, 3, 6),
    "TPo-iso": CheckDef(check_tpo_iso, 3, 5),
    "phi-faithful": CheckDef(check_phi_faithful, 3, 5),
    "cone-regular": CheckDef(check_cone_regular, 3, 4),
}


def _build_error_elements(exc: Exception) -> dict:
    """The elements a failed semigroup build names, cones as cone_json."""

    def describe(x):
        return cone_json(x) if isinstance(x, Cone) else str(x)

    if isinstance(exc, ClosureError):
        return {"left": describe(exc.left), "right": describe(exc.right), "product": describe(exc.product)}
    if isinstance(exc, AssociativityError):
        return {"triple": [describe(x) for x in exc.witness]}
    return {}


def run_check(name: str, n: int) -> CheckReport:
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}, all")
    d = CHECKS[name]
    check_chain_size(n)
    if not d.min_n <= n <= d.max_n:
        raise ValueError(f"check {name!r} supports n in {d.min_n}..{d.max_n}, got {n}")
    start = time.perf_counter()
    try:
        ok, counts, witness = d.fn(n)
    except Exception as exc:  # surface as a failed report, never a crash
        ok, counts = False, {}
        witness = {"exception": f"{type(exc).__name__}: {exc}", **_build_error_elements(exc)}
    elapsed = int((time.perf_counter() - start) * 1000)
    if not ok and witness is None:
        witness = {"reason": "check failed without detail"}
    return CheckReport(name, n, "pass" if ok else "fail", counts, witness, elapsed)


def run_all(n: int) -> list[CheckReport]:
    """Run every registered check, capping each at its own maximum size."""
    check_chain_size(n)
    reports = []
    for name, d in CHECKS.items():
        effective = min(n, d.max_n)
        report = run_check(name, effective)
        if effective != n:
            report.counts["capped_from"] = n
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# exports

# Looked up by name at call time, so a builder patched on this module is
# the one exported.
EXPORTS: dict[str, Callable[[int], FiniteSemigroup]] = {
    "oxn": lambda n: oxn_semigroup(n),
    "TL": lambda n: tl_semigroup(n),
    "TR": lambda n: phi_into_tr(n).target,
    "TPo": lambda n: tpo_semigroup(n),
    "TPi": lambda n: tpi_semigroup(n),
}
SELECTORS = tuple(EXPORTS)


def export_cayley(selector: str, n: int, path: str) -> str:
    """Write the selected Cayley table as JSON, refusing oversized tables."""
    if selector not in EXPORTS:
        raise ValueError(f"unknown selector {selector!r}; known: {', '.join(SELECTORS)}")
    check_chain_size(n)
    order = chain.oxn_order(n)
    if order > EXPORT_ORDER_LIMIT:
        raise ResourceLimit(
            f"{selector} at n={n} has order {order}, over the export limit {EXPORT_ORDER_LIMIT}"
        )
    s = EXPORTS[selector](n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(s.to_json())
        fh.write("\n")
    return path
