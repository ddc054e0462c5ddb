"""Self-checks of the benchmark's layer map and traced counters.

    python3 -m pytest perfbench

The traced tests make two traced passes of every workload (a few minutes).
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import worker  # noqa: E402
from tracer import Tracer, chaincat_modules, install, unwrapped_bindings  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
with open(worker.LAYERS, encoding="utf-8") as _fh:
    LAYERS = json.load(_fh)

# Closed forms counted by hand, |OX_4| = 34, |OX_5| = 125, |OX_6| = 461:
# cone-semigroups multiplies the TL, TR and TPo tables at n=4 (TL is built
# once and shared by TL-iso and cone-regular) and adds the OX_4 table; the
# oxn-tables products are the OX_6 and OX_5 tables.
PINNED = {
    "cone-semigroups": {"cones.cone_mul.calls": 3 * 34**2, "semigroups.build.products": 4 * 34**2},
    "category-checks": {"cones.cone_mul.calls": 0, "semigroups.build.products": 0},
    "oxn-tables": {"semigroups.build.products": 461**2 + 125**2},
}
MUST_BE_ZERO = {"verify.checks_failed"}
NOT_REPEATABLE = {"trace.overhead_s"}


def test_benchmark_json_matches_layer_map():
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == [(k, v["unit"]) for k, v in LAYERS.items()]
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for name, spec in LAYERS.items():
        assert set(spec["moves"]) <= end_to_end, name
        assert set(spec["workloads"]) <= set(WORKLOADS), name


def test_every_traced_binding_is_wrapped():
    worker.fresh_cli()
    tracer = Tracer()
    install(tracer)
    modules = chaincat_modules()
    assert unwrapped_bindings(modules, tracer.originals) == []
    for module, attr in [
        ("cones", "build"),
        ("ideals", "build_semigroup"),
        ("ideals", "compose_maps"),
        ("verify", "build"),
        ("verify", "run_check"),
        ("cli", "run_check"),
        ("cli", "export_cayley"),
        ("chaincat", "compose"),
    ]:
        assert hasattr(getattr(modules[module], attr), "__wrapped__"), f"{module}.{attr}"


def _traced_values(workload: str, seed: int) -> tuple[dict, int]:
    worker.OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="test-", dir=worker.OUT)
    try:
        run = worker.Run(workload, seed, scratch)
        tracer, _ = worker.traced_pass(run)
        run.check_exports()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {name: tracer.value(name) for name in LAYERS if name not in NOT_REPEATABLE}, run.failed


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_and_match_closed_forms(workload):
    first, failed_first = _traced_values(workload, seed=3)
    second, failed_second = _traced_values(workload, seed=3)
    assert failed_first == failed_second == 0
    counters = [name for name in first if LAYERS[name]["unit"] != "s"]
    assert {n: first[n] for n in counters} == {n: second[n] for n in counters}
    for name, value in first.items():
        if name in MUST_BE_ZERO:
            assert value == 0, name
        elif workload in LAYERS[name]["workloads"]:
            assert value > 0, f"{name} is zero on {workload}"
    for name, want in PINNED[workload].items():
        assert first[name] == want, name
