"""One benchmark run of one workload, in a process of its own.

``run.py`` starts this with a fixed ``PYTHONHASHSEED`` and the checkout's
``src`` on ``PYTHONPATH``.  It prints one JSON result line on stdout; every
diagnostic goes to stderr.

A pass is the workload's fixed list of ``cli.main`` calls, made in-process
with ``--format json``.  Each pass starts from a fresh import, so it pays
every memoized build, as one ``chaincat-verify`` invocation does.

The host's speed drifts by tens of percent over minutes, far more than any
change worth measuring.  So a timed run makes paired passes: both the live
package (``src/chaincat``) and a frozen copy of it (``chaincat_control``) are
imported afresh, and each call is made by one and then by the other, on the
same arguments.  The live time is reported as the median over the pairs of
the live/control ratio of their summed call times, times the control's
recorded time (``control_times.json``).  Calls made back to back see the same
host, so the drift cancels; a change to the live package moves the ratio.
The control is a copy kept in the benchmark's directory, not one extracted
from git history, because the benchmark must run in checkouts that are not
git repositories.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

from tracer import Tracer, install
from workloads import WORKLOADS, Export, argument_lists, check_export, check_output

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
LAYERS = HERE / "layers.json"
CONTROL_TIMES = HERE / "control_times.json"

LIVE = "chaincat"
CONTROL = "chaincat_control"
HOMES = {LIVE: SRC, CONTROL: HERE}

# Paired set-ups timed before the first pass; every paired pass adds the pair
# of set-ups it starts with, and setup_s comes from the median ratio.
SETUP_SAMPLES = 7


def drop_packages() -> None:
    """Drop every loaded module of both packages, so that the next import
    starts with empty memo caches, as in a new process, and no structure built
    by an earlier pass of either package stays alive."""
    for name in [n for n in sys.modules if n.partition(".")[0] in HOMES]:
        del sys.modules[name]


def import_cli(package: str):
    cli = importlib.import_module(package + ".cli")
    if not Path(cli.__file__).resolve().is_relative_to(HOMES[package]):
        raise RuntimeError(f"{package} was imported from {cli.__file__}, not from {HOMES[package]}")
    return cli


def fresh_cli(package: str = LIVE):
    """The package's CLI, imported with no module of either package loaded."""
    drop_packages()
    return import_cli(package)


def call_cli(cli, argv: list[str]) -> tuple[object, str]:
    """One in-process CLI call: its exit code (or the traceback of a crash,
    which the gate counts as a failed operation) and what it printed."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = "exception:\n" + traceback.format_exc()
    return rc, buf.getvalue()


class Run:
    """The workload's calls and the outcome of every live call made so far."""

    def __init__(self, workload: str, seed: int, scratch: str):
        self.workload, self.seed = workload, seed
        self.export_paths = {p: os.path.join(scratch, f"{p}-export.json") for p in (LIVE, CONTROL)}
        self.export_path = self.export_paths[LIVE]
        self.attempted = 0
        self.failed = 0
        self._export_shas: list = []  # raw digest of each live export that passed its call gate

    def setup(self, package: str):
        """Import the package and build the argument lists; the timed set-up.

        The caller drops the loaded modules first."""
        gc.collect()
        start = time.perf_counter()
        cli = import_cli(package)
        calls = argument_lists(self.workload, self.seed, self.export_paths[package])
        return time.perf_counter() - start, cli, calls

    def gate(self, package: str, calls: list, results: list) -> None:
        """Gate every call's outcome.  A live failure is counted and reported;
        a control failure means the control is broken, and ends the run."""
        for (step, argv), (rc, stdout) in zip(calls, results):
            reason = check_output(step, rc, stdout, self.export_paths[package])
            if package == CONTROL:
                if reason is not None:
                    raise RuntimeError(f"the control failed {' '.join(argv)}: {reason}")
                continue
            self.attempted += 1
            if reason is None and isinstance(step, Export):
                try:
                    self._export_shas.append(file_sha256(self.export_path))
                except OSError as exc:
                    reason = f"export unreadable: {exc}"
            if reason is not None:
                self.failed += 1
                print(f"gate failed for {' '.join(argv)}: {reason}", file=sys.stderr)

    def one_pass(self, install_tracer=None) -> float:
        """Make every call of the live package once from a fresh import and
        gate the outputs.  Returns the time from the first call to the last
        report."""
        drop_packages()
        _, cli, calls = self.setup(LIVE)
        if install_tracer is not None:
            install_tracer()
        start = time.perf_counter()
        results = [call_cli(cli, argv) for _, argv in calls]
        wall = time.perf_counter() - start
        self.gate(LIVE, calls, results)
        return wall

    def paired_pass(self, order: tuple[str, str]) -> dict[str, tuple[float, float]]:
        """Import both packages afresh and make each call with both, back to
        back, in the given order; then gate the outputs.

        Returns each package's set-up time and the summed time of its calls.
        Calls made back to back see the same host speed, so the ratio of the
        sums cancels the drift.

        Each call starts with every older object collected and frozen, so the
        collector's work in a call depends on that call alone, not on when
        the other package last triggered a full collection: unfrozen, that
        made the live/control ratio of a pair spread three times as wide."""
        drop_packages()
        setups = {package: self.setup(package) for package in order}
        walls = dict.fromkeys(order, 0.0)
        results: dict[str, list] = {package: [] for package in order}
        try:
            for i in range(len(setups[LIVE][2])):
                for package in order:
                    _, cli, calls = setups[package]
                    gc.collect()
                    gc.freeze()
                    start = time.perf_counter()
                    results[package].append(call_cli(cli, calls[i][1]))
                    walls[package] += time.perf_counter() - start
        finally:
            gc.unfreeze()
        for package in order:
            self.gate(package, setups[package][2], results[package])
        return {package: (setups[package][0], walls[package]) for package in order}

    def check_exports(self) -> None:
        """Gate the exported tables: every live pass wrote the same bytes, and
        the last file parses to the recorded table.

        Parsing the table takes far more memory than writing it, so this runs
        after the peak RSS is read."""
        if not self._export_shas:
            return
        reason = check_export(self.export_path)
        last = self._export_shas[-1]
        for sha in self._export_shas:
            why = reason if sha == last else "export differs from the run's last export"
            if why is not None:
                self.failed += 1
                print(f"gate failed for an export: {why}", file=sys.stderr)

    def live_passes(self, budget_s: float) -> list[float]:
        """Live passes until about budget_s has gone; always at least one.

        Another pass starts only while it is expected to end within the
        budget, so a run outlasts budget_s only when a single pass does."""
        walls = []
        begin = time.perf_counter()
        while True:
            walls.append(self.one_pass())
            if time.perf_counter() - begin + statistics.median(walls) > budget_s:
                return walls


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def timed_run(run: Run, seconds: int) -> dict:
    """One live pass, then paired passes until about ``seconds`` have gone.

    The peak RSS is read after the live pass, before any control structure
    has grown the heap.  The pairs alternate which package calls first."""
    control = load_json(CONTROL_TIMES)
    setup_ratios, wall_ratios, control_walls, pair_s = [], [], [], []
    for _ in range(SETUP_SAMPLES):
        drop_packages()
        live_s = run.setup(LIVE)[0]
        drop_packages()
        setup_ratios.append(live_s / run.setup(CONTROL)[0])
    begin = time.perf_counter()
    run.one_pass()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while True:
        started = time.perf_counter()
        timings = run.paired_pass((LIVE, CONTROL) if len(pair_s) % 2 == 0 else (CONTROL, LIVE))
        setup_ratios.append(timings[LIVE][0] / timings[CONTROL][0])
        wall_ratios.append(timings[LIVE][1] / timings[CONTROL][1])
        control_walls.append(timings[CONTROL][1])
        pair_s.append(time.perf_counter() - started)
        if time.perf_counter() - begin + statistics.median(pair_s) > seconds:
            break
    run.check_exports()
    wall_ratio, setup_ratio = statistics.median(wall_ratios), statistics.median(setup_ratios)
    print(
        f"pairs: {len(wall_ratios)}, live/control wall ratio {wall_ratio:.4f}, set-up ratio {setup_ratio:.4f}, "
        f"control pass {statistics.median(control_walls):.3f} s",
        file=sys.stderr,
    )
    return {
        "wall_s": {"value": wall_ratio * control["wall_s"][run.workload], "unit": "s"},
        "setup_s": {"value": setup_ratio * control["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
    }


def traced_pass(run: Run) -> tuple[Tracer, float]:
    """One live pass with the tracer installed on its fresh import."""
    tracer = Tracer()
    return tracer, run.one_pass(install_tracer=lambda: install(tracer))


def traced_run(run: Run, seconds: int) -> dict:
    """Untraced live passes for half the budget, then one traced pass.

    trace.overhead_s is the traced pass's wall time minus the median of the
    untraced ones."""
    walls = run.live_passes(seconds / 2)
    origin = time.perf_counter()
    tracer, traced_wall = traced_pass(run)
    run.check_exports()
    tracer.dump(str(OUT / f"trace-{run.workload}-seed{run.seed}.json"), origin)
    metrics = {name: {"value": tracer.value(name), "unit": spec["unit"]} for name, spec in load_json(LAYERS).items()}
    metrics["trace.overhead_s"]["value"] = traced_wall - statistics.median(walls)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One benchmark run of one chaincat workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        run = Run(args.workload, args.seed, scratch)
        fresh_cli(LIVE)  # untimed: loads the stdlib modules both packages import
        metrics = traced_run(run, args.seconds) if args.trace else timed_run(run, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
