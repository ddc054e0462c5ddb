"""Command-line harness: run named verification checks or export Cayley
tables.  Exit codes: 0 all pass, 1 verification failure, 2 usage error."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .verify import CHECKS, SELECTORS, CheckReport, ResourceLimit, export_cayley, run_all, run_check


def _render_text(reports: list[CheckReport]) -> str:
    lines = []
    for r in reports:
        counts = " ".join(f"{k}={v}" for k, v in r.counts.items())
        line = f"{r.status.upper():4}  {r.check:16} n={r.n}  {counts}  ({r.elapsed_ms} ms)"
        if r.witness is not None:
            line += f"\n      witness: {json.dumps(r.witness)}"
        lines.append(line)
    passed = sum(1 for r in reports if r.status == "pass")
    lines.append(f"{passed}/{len(reports)} checks passed")
    return "\n".join(lines)


def _render_json(reports: list[CheckReport]) -> str:
    payload = {
        "reports": [r.to_dict() for r in reports],
        "passed": all(r.status != "fail" for r in reports),
    }
    return json.dumps(payload, indent=2)


def _emit(text: str) -> None:
    """Print to stdout.  A reader that closed the pipe early (``| head``) is
    not an error: stdout is pointed at the null device, when it has a file
    descriptor, so that the interpreter's final flush does not raise again."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaincat-verify",
        description="Exhaustively verify the order-preserving transformation "
        "semigroup, its ideal categories and their cone semigroups at a given chain size.",
    )
    parser.add_argument("--check", metavar="NAME", help="check name, or 'all'")
    parser.add_argument(
        "--export-cayley",
        metavar="SELECTOR",
        help=f"write a Cayley table instead of checking ({', '.join(SELECTORS)})",
    )
    parser.add_argument("--n", type=int, help="chain size (3..12; per-check ranges are tighter)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="PATH", help="write output to this file as well")
    parser.add_argument("--seed", type=int, default=0, help="accepted for compatibility; has no effect")
    parser.add_argument("--list", action="store_true", help="list registered checks and exit")
    args = parser.parse_args(argv)

    if args.list:
        lines = [f"{name:16} n={d.min_n}..{d.max_n}" for name, d in CHECKS.items()]
        lines.append(f"{'all':16} runs every check in range for the given n")
        _emit("\n".join(lines))
        return 0

    if (args.check is None) == (args.export_cayley is None):
        parser.error("exactly one of --check or --export-cayley is required")
    if args.n is None:
        parser.error("--n is required")

    if args.export_cayley is not None:
        if args.out is None:
            parser.error("--out is required with --export-cayley")
        try:
            path = export_cayley(args.export_cayley, args.n, args.out)
        except (ResourceLimit, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _emit(path)
        return 0

    try:
        if args.check == "all":
            reports = run_all(args.n)
        else:
            reports = [run_check(args.check, args.n)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rendered = _render_json(reports) if args.format == "json" else _render_text(reports)
    _emit(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
            fh.write("\n")
    return 0 if all(r.status != "fail" for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
