"""The benchmark's workloads: fixed lists of ``chaincat-verify`` calls at fixed
chain sizes, and the correctness gate each call's output must pass.

The chain sizes are part of the workload definition.  A change that widens a
check's supported range does not change them, so figures stay comparable.
They are chosen so that one pass of a workload takes seconds, not tens of
seconds: the host's speed drifts by tens of percent over a minute, and only
the median of many passes per run keeps the figures steady.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

# The exported table, OX_6, and the sha256 of its canonical JSON (sorted keys,
# no whitespace).
EXPORT_ORDER = 461
EXPORT_DIGEST = "b2dc11f1835936c847b88d6157fd3c55acc51b0f09b753a7730b7c9610f07172"


@dataclass(frozen=True)
class Check:
    """``--check NAME --n N``; the report must pass and carry these counts."""

    name: str
    n: int
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Export:
    """``--export-cayley SELECTOR --n N --out PATH`` into the run's scratch area."""

    selector: str
    n: int


WORKLOADS: dict[str, tuple] = {
    # Cone products over both morphism carriers (SubMap via TL and TPo,
    # BlockMap via the right-ideal cones behind phi), four semigroup builds
    # with exhaustive associativity and one isomorphism search.  No
    # normal-cone enumeration and no Green work.
    "cone-semigroups": (
        Check("TL-iso", 4, {"cones": 34}),
        Check("phi-faithful", 4, {"elements": 34, "image_cones": 34}),
        Check("cone-regular", 4),
    ),
    # Hom-sets in all four categories, every factorization, the functor
    # checks and normal-cone backtracking.  No semigroup build and no cone
    # product, so a cone-table or associativity change must leave it alone.
    # factorize-Pi runs at n=5, where it samples its morphisms from the seed.
    "category-checks": (
        Check("factorize-L", 4),
        Check("factorize-Po", 4),
        Check("factorize-Pi", 5),
        Check("cones-principal", 4),
        Check("F-iso", 5),
        Check("G-iso", 5),
    ),
    # An OX_n table past the exhaustive-associativity limit (sampled
    # triples), its JSON write path, the Green oracle and the enumeration at
    # the largest size.  No category and no cone.
    "oxn-tables": (
        Export("oxn", 6),
        Check("green", 5),
        Check("counts", 7, {"oxn": 1715}),
    ),
}


def argument_lists(workload: str, seed: int, export_path: str) -> list[tuple[object, list[str]]]:
    """The workload's calls as (step, argv) pairs, in their fixed order.

    The seed reaches every check as ``--seed``; the sampled ones
    (``factorize-Pi`` at n=5) draw their inputs from it.
    """
    calls = []
    for step in WORKLOADS[workload]:
        if isinstance(step, Export):
            argv = ["--export-cayley", step.selector, "--n", str(step.n), "--out", export_path]
        else:
            argv = ["--check", step.name, "--n", str(step.n), "--seed", str(seed)]
        calls.append((step, argv + ["--format", "json"]))
    return calls


def canonical_digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_export(path: str) -> str | None:
    """Parse an OX_6 export and compare it with the recorded table.

    Returns a reason on failure, None when the table is the recorded one.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"export unreadable: {exc}"
    if not isinstance(payload, dict):
        return "export is not a JSON object"
    order, table = payload.get("order"), payload.get("table")
    if order != EXPORT_ORDER:
        return f"export has order {order}, expected {EXPORT_ORDER}"
    if len(payload.get("elements", ())) != EXPORT_ORDER:
        return f"export does not list {EXPORT_ORDER} elements"
    if not isinstance(table, list) or len(table) != EXPORT_ORDER or any(len(row) != EXPORT_ORDER for row in table):
        return f"export table is not {EXPORT_ORDER}x{EXPORT_ORDER}"
    digest = canonical_digest(payload)
    if digest != EXPORT_DIGEST:
        return f"export digest {digest} differs from the recorded one"
    return None


def check_output(step, rc, stdout: str, export_path: str) -> str | None:
    """Gate one call's exit code and printed output.

    Returns a reason on failure, None on success.  The export file itself is
    checked separately, after the timed pass.
    """
    if rc != 0:
        return f"exit code {rc}"
    if isinstance(step, Export):
        if stdout.strip() != export_path:
            return "export did not print its output path"
        return None
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if not isinstance(payload, dict):
        return "output is not a JSON object"
    reports = payload.get("reports", [])
    if payload.get("passed") is not True or len(reports) != 1 or reports[0].get("status") != "pass":
        return "report did not pass"
    counts = reports[0].get("counts", {})
    for key, want in step.expect.items():
        if counts.get(key) != want:
            return f"count {key}={counts.get(key)}, expected {want}"
    return None
