"""Batch driver.

    verify --suite <name> --config <path> [--seed N] [--out <path>]
           [--format json|csv|text]

Exit codes: 0 all checks pass, 1 at least one check fails, 2 bad
configuration or unreadable input.
"""

from __future__ import annotations

import argparse
import sys

from .report import emit
from .scenario import FORMATS, SUITES, ScenarioError, parse_scenario
from .suites import run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run verification suites from a scenario file.")
    # one parser, so an option reads the same before and after ``verify``
    parser.add_argument("command", nargs="?", choices=("verify",),
                        help="run a named suite (the default)")
    parser.add_argument("--suite", choices=SUITES, default=None)
    parser.add_argument("--config", required=False, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=FORMATS, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.config is None:
        print("error: --config is required", file=sys.stderr)
        return 2
    try:
        cfg = parse_scenario(args.config)
        for name in ("suite", "seed", "out", "format"):
            if getattr(args, name) is not None:
                setattr(cfg, name, getattr(args, name))
        report = run_suite(cfg)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = emit(report, cfg.format)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
