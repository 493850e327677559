"""``repro-trace`` — profile a recorded JSONL trace from the shell.

Renders a text flamegraph and a top-N hot-span table from a trace
produced by ``python -m repro <experiment> --trace out.jsonl`` or by the
:func:`repro.telemetry.recording` API.  Also reachable as
``python -m repro trace <file>``.

Examples::

    repro-trace trace.jsonl                      # summary + flamegraph + top-10
    repro-trace trace.jsonl --top 25 --no-flame  # just the hot-span table
    repro-trace trace.jsonl --min-percent 1 --max-depth 3
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.telemetry import (
    read_jsonl,
    render_flamegraph,
    render_hot_spans,
    trace_summary,
)


def positive_int(text: str) -> int:
    """An argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Render a flamegraph and hot-span report from a "
                    "JSONL telemetry trace.",
    )
    parser.add_argument("trace", help="JSONL trace file ('-' for stdin)")
    parser.add_argument("--top", type=positive_int, default=10, metavar="N",
                        help="rows in the hot-span table (default 10)")
    parser.add_argument("--max-depth", type=positive_int, default=None,
                        metavar="D", help="cap flamegraph nesting depth")
    parser.add_argument("--min-percent", type=float, default=0.0, metavar="P",
                        help="prune flamegraph spans below P%% of the "
                             "trace total (default 0: show everything)")
    parser.add_argument("--width", type=int, default=100,
                        help="flamegraph line width (default 100)")
    parser.add_argument("--no-flame", action="store_true",
                        help="skip the flamegraph, print only the table")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary + hot spans as JSON instead "
                             "of text reports")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        source = sys.stdin if args.trace == "-" else args.trace
        spans = read_jsonl(source)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 1
    if not spans:
        print("error: trace contains no completed spans", file=sys.stderr)
        return 1

    if args.json:
        from repro.telemetry import hot_spans
        payload = {"summary": trace_summary(spans),
                   "hot_spans": hot_spans(spans, top=args.top)}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    summary = trace_summary(spans)
    print(f"trace      : {args.trace}")
    print(f"spans      : {summary['spans']:,} "
          f"({summary['names']} names, {summary['roots']} roots)")
    print(f"total time : {summary['total_seconds']:.6f} simulated seconds")
    if not args.no_flame:
        print()
        print(render_flamegraph(spans, width=args.width,
                                max_depth=args.max_depth,
                                min_fraction=args.min_percent / 100.0))
    print()
    print(render_hot_spans(spans, top=args.top))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
