"""Run the benchmark ten times per workload, with seeds 1 to 10, and report
how much each end-to-end metric spreads.

    python3 perfbench/steadiness.py [--write]

Runs are sequential, one workload process at a time.  The spread of a metric
is the distance between the first and third quartiles of its values
(``statistics.quantiles(values, n=4)``) as a share of their median.  It must
stay within the metric's bound in ``BENCHMARK.json``, and a steady metric
keeps it below a third of that bound.  The exit code is nonzero when a spread
is wider than its bound or an operation failed.  ``--write`` records the
medians and quartiles in ``noise_floor.json``, keeping its notes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NOISE_FLOOR = HERE / "noise_floor.json"
SEEDS = range(1, 11)


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description="Measure the benchmark's run-to-run spread.")
    parser.add_argument("--write", action="store_true", help="record the result in noise_floor.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "runs": len(SEEDS),
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed operations", file=sys.stderr)
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            line = "  ".join(f"{n}={values[n][-1]:.4f} {units[n]}" for n in bounds)
            print(f"{workload} seed {seed}: {line}  failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {name: summarize(v) for name, v in values.items()}
        report["workloads"][workload] = summary
        for name, s in summary.items():
            if s["spread"] < bounds[name] / 3:
                verdict = "steady"
            elif s["spread"] <= bounds[name]:
                verdict = "within bound"
            else:
                verdict = "WIDE"
                steady = False
            print(
                f"  {workload:16} {name:12} median={s['median']:.4f} q1={s['q1']:.4f} q3={s['q3']:.4f} "
                f"spread={s['spread']:.4f} bound={bounds[name]} {verdict}",
                flush=True,
            )
    if args.write:
        with open(NOISE_FLOOR, encoding="utf-8") as fh:
            report["notes"] = json.load(fh).get("notes", {})
        with open(NOISE_FLOOR, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
