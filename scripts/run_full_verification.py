#!/usr/bin/env python3
"""Run every verification suite back to back and summarize the outcome.

Thin driver over `python -m mimoaf verify`: each suite runs in sequence
with shared seed/tolerance settings, timings are collected, and the
per-check report lines can be concatenated into a single file.  Exits
with the CLI's codes: 2 if any suite refused its input (a usage or
validation error), otherwise 1 if any suite reports a failing check.

    python scripts/run_full_verification.py
    python scripts/run_full_verification.py --seed 3 --report /tmp/verify.txt
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

from mimoaf.cli import SUITES, main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="seed for the randomized suites")
    ap.add_argument("--probes", type=int, default=8, help="probe count for the psd suites")
    ap.add_argument("--report", default=None, help="write all report lines to this file")
    ap.add_argument(
        "--suite", action="append", default=None,
        help="run only this suite (repeatable); default: all of them",
    )
    args = ap.parse_args()

    names = args.suite or [s for s in SUITES if s != "all"]
    combined: list[str] = []
    failures: list[str] = []
    worst = 0
    t_total = time.perf_counter()
    for suite in names:
        argv = [
            "verify", "--suite", suite,
            "--seed", str(args.seed), "--probes", str(args.probes),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp) / "report.txt"
            t0 = time.perf_counter()
            code = cli_main(argv + ["--report", str(report)])
            elapsed = time.perf_counter() - t0
            # a suite that refuses its input leaves no report
            if report.exists():
                combined.extend(report.read_text().splitlines())
        status = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"# {suite}: {status} in {elapsed:.2f}s")
        if code != 0:
            failures.append(suite)
            worst = max(worst, code)

    print(f"# total: {len(names)} suites, {len(combined)} checks, "
          f"{time.perf_counter() - t_total:.2f}s")
    if args.report:
        try:
            Path(args.report).write_text("".join(ln + "\n" for ln in combined))
        except (OSError, MemoryError) as exc:
            # an unwritable report is a usage error, as in `mimoaf verify`
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"# report written to {args.report}")
    if failures:
        print(f"# failing suites: {', '.join(failures)}", file=sys.stderr)
    return worst


if __name__ == "__main__":
    sys.exit(main())
