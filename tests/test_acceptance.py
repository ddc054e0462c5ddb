"""Acceptance suite: one check per criterion at its stated sizes and time
budget, printing one pass/fail line each.  Run `pytest -s` to see the lines.
"""

import time

import pytest

from chaincat.cones import check_normal_category_axioms
from chaincat.semigroups import is_antihomomorphism, is_homomorphism
from chaincat.verify import (
    left_category,
    partition_category,
    phi_into_tr,
    powerset_category,
    right_category,
    run_check,
)


def _line(criterion: str, ok: bool, detail: str, elapsed_ms: int) -> None:
    status = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail}; {elapsed_ms} ms)")


def _run(name: str, ns) -> tuple[bool, str, int]:
    reports = [run_check(name, n) for n in ns]
    ok = all(r.status == "pass" for r in reports)
    elapsed = sum(r.elapsed_ms for r in reports)
    detail = ", ".join(f"n={r.n}:{r.status}" for r in reports)
    failing = [r.witness for r in reports if r.witness]
    if failing:
        detail += f" witness={failing[0]}"
    return ok, f"{name} {detail}", elapsed


def test_criterion_01_cardinalities():
    ok, detail, elapsed = _run("counts", range(3, 8))
    _line("1-cardinalities", ok, detail, elapsed)
    assert ok
    assert elapsed < 1_000


def test_criterion_02_green_relations_vs_ideal_oracle():
    ok, detail, elapsed = _run("green", (3, 4, 5, 6))
    _line("2-green-relations", ok, detail, elapsed)
    assert ok
    assert elapsed < 30_000


def test_criterion_03_normal_category_axioms():
    categories = {
        "L": left_category,
        "Po": powerset_category,
        "R": right_category,
        "Pi": partition_category,
    }
    all_ok, details, per_category = True, [], {}
    for label, make in categories.items():
        start = time.perf_counter()
        ok = True
        witness = None
        for n in (3, 4, 5, 6):
            good, _, wit = check_normal_category_axioms(make(n))
            if not good:
                ok, witness = False, wit
        per_category[label] = int((time.perf_counter() - start) * 1000)
        all_ok &= ok
        details.append(f"{label}:{'ok' if ok else witness}")
    _line("3-normal-category-axioms", all_ok, " ".join(details), sum(per_category.values()))
    assert all_ok
    assert all(ms < 60_000 for ms in per_category.values()), per_category


def test_criterion_04_all_normal_cones_principal():
    ok, detail, elapsed = _run("cones-principal", (3, 4, 5, 6))
    _line("4-cones-principal", ok, detail, elapsed)
    assert ok
    assert elapsed < 60_000


def test_criterion_05_cone_semigroups_isomorphic():
    ok_tl, detail_tl, t1 = _run("TL-iso", (3, 4, 5, 6))
    ok_tpo, detail_tpo, t2 = _run("TPo-iso", (3, 4, 5, 6))
    ok = ok_tl and ok_tpo
    _line("5-cone-semigroup-isomorphisms", ok, f"{detail_tl} | {detail_tpo}", t1 + t2)
    assert ok
    assert t1 + t2 < 60_000


def test_criterion_06_category_isomorphisms():
    ok_f, detail_f, t1 = _run("F-iso", (3, 4, 5, 6, 7))
    ok_g, detail_g, t2 = _run("G-iso", (3, 4, 5, 6, 7, 8))
    ok = ok_f and ok_g
    _line("6-functor-isomorphisms", ok, f"{detail_f} | {detail_g}", t1 + t2)
    assert ok
    assert t1 + t2 < 60_000


def test_criterion_07_partition_factorization():
    ok, detail, elapsed = _run("factorize-Pi", (3, 4, 5, 6, 7))
    _line("7-partition-factorization", ok, detail, elapsed)
    assert ok
    assert elapsed < 120_000


def test_criterion_08_representation_injective_closed():
    ok, detail, elapsed = _run("phi-faithful", (3, 4, 5))
    anti = all(is_antihomomorphism(phi_into_tr(n)) for n in (3, 4, 5))
    _line(
        "8-representation",
        ok and anti,
        detail + f" | products reverse, antihomomorphism={anti}",
        elapsed,
    )
    assert ok and anti
    assert elapsed < 60_000


@pytest.mark.xfail(
    strict=True,
    reason="dual principal cones compose contravariantly: the product of the "
    "cones of a and b is the cone of b*a, so the representation into the "
    "right-ideal cone semigroup reverses products (it is an injective "
    "anti-homomorphism, and the target has no automorphism fixing that, "
    "since constants are right zeros but not left zeros); the covariant "
    "reading asserted here cannot hold",
)
def test_criterion_08_literal_homomorphism_clause():
    results = {n: is_homomorphism(phi_into_tr(n)) for n in (3, 4, 5)}
    ok = all(results.values())
    _line("8-representation-literal-homomorphism", ok, f"{results}", 0)
    assert ok


def test_criterion_09_cone_semigroup_algebra():
    ok, detail, elapsed = _run("cone-regular", (3, 4, 5))
    _line("9-cone-semigroup-algebra", ok, detail, elapsed)
    assert ok
    assert elapsed < 60_000
