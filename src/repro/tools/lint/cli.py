"""``repro-lint`` / ``python -m repro lint`` — run the invariant checker.

Usage::

    repro-lint src tests benchmarks          # human output, exit 1 on findings
    repro-lint src --format json             # machine-readable findings
    repro-lint src --select RL001,RL003      # a subset of rules
    repro-lint --list-rules                  # the rule catalogue

Exit codes: 0 clean, 1 findings, 2 usage error (an unknown rule code or
a path that does not exist).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.tools.lint.engine import all_rules, run_lint

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _codes(raw: str | None) -> list:
    if not raw:
        return []
    return [code.strip().upper() for code in raw.split(",") if code.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based checker for this repo's determinism, "
                    "seeding and ingest-format contracts "
                    "(docs/static_analysis.md).",
    )
    parser.add_argument("paths", nargs="*", default=None, metavar="PATH",
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("human", "json"),
                        default="human", dest="output_format",
                        help="findings as text lines or one JSON document")
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run exclusively")
    parser.add_argument("--ignore", default=None, metavar="CODES",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:24s} {rule.summary}")
        return EXIT_CLEAN

    known = {rule.code for rule in all_rules()} | {"RL000"}
    select, ignore = _codes(args.select), _codes(args.ignore)
    unknown = [c for c in select + ignore if c not in known]
    if unknown:
        print(f"unknown rule code(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known codes: {', '.join(sorted(known))}", file=sys.stderr)
        return EXIT_USAGE

    paths = args.paths or ["src"]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        for path in missing:
            print(f"no such file or directory: {path}", file=sys.stderr)
        return EXIT_USAGE
    result = run_lint(paths, select=select or None, ignore=ignore or None)

    if args.output_format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in result.findings:
            print(finding.render())
        suffix = "" if result.files_checked == 1 else "s"
        status = ("clean" if result.clean
                  else f"{len(result.findings)} finding"
                       f"{'' if len(result.findings) == 1 else 's'}")
        print(f"[reprolint: {result.files_checked} file{suffix} checked, "
              f"{status}]", file=sys.stderr)

    return EXIT_CLEAN if result.clean else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
