"""chaincat benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The workloads are in ``workloads.py``;
``BENCHMARK.json`` lists them with the metrics.  With ``--trace 0`` the run
reports the end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``),
timing ``src/chaincat`` against the frozen control copy in
``chaincat_control`` (see ``worker.py``); with ``--trace 1`` it reports the
per-layer metrics of ``layers.json`` from a separate traced pass, and writes
that pass's spans to ``perfbench/out/``.

The workload runs in a child process with a fixed ``PYTHONHASHSEED``; this
process waits for it and relays its result.  The exit code is 0 when a result
was printed, whether or not every correctness gate passed (see ``correct``
and ``failed`` in the result), and nonzero when no result could be measured.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one chaincat benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "chaincat" / "cli.py").is_file():
        print(f"error: no chaincat sources at {SRC}; run from a chaincat checkout", file=sys.stderr)
        return 2

    # Untimed warm-up: set-up is timed on compiled bytecode, as an installed
    # package runs, even where the environment turns writing bytecode off.
    # Compiling here keeps the compiler's memory out of the workload process.
    compileall.compile_dir(str(SRC / "chaincat"), quiet=1)
    compileall.compile_dir(str(HERE), maxlevels=1, quiet=1)

    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": pythonpath}
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        *("--workload", args.workload, "--seed", str(args.seed)),
        *("--seconds", str(args.seconds), "--trace", str(args.trace)),
    ]
    # A run ends about one pass after --seconds; this leaves room for slow
    # passes and still ends a run of --seconds 40 within 180 s.
    timeout_s = 2 * args.seconds + 90
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"error: the workload did not finish within {timeout_s} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: the workload process exited with code {proc.returncode}", file=sys.stderr)
        return 1
    print(json.dumps(json.loads(lines[-1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
