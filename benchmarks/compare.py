"""Diff fresh benchmark JSON against the committed baselines.

``bench_partitioning.py``/``bench_service.py`` (and the pytest-benchmark
sessions) write ``benchmarks/output/BENCH_*.json``; the blessed copies
live under ``benchmarks/baselines/``.  This script pairs the two sets by
filename and compares every throughput series — numeric leaves whose key
contains ``_per_second`` (higher is better) plus the kernelization
``speedup`` ratios — at matching JSON paths.  A fresh value more than
``--tolerance`` (default 20%) below its baseline is a regression and the
exit status is nonzero.  Every ``digest`` leaf must also equal its
baseline exactly: the benchmarks are seeded, so a changed digest means
the measured run computed something different.  A CI job can run a
benchmark and gate on the result in two lines::

    python benchmarks/bench_service.py --profile smoke
    python benchmarks/compare.py BENCH_service.json

Baselines are profile-stamped: a fresh file whose ``profile`` differs
from the baseline's is a harness misconfiguration, not a regression, and
fails fast with exit status 2.  Wall-time keys are deliberately ignored
— absolute seconds shift with runner hardware; the throughput floor plus
the machine-independent speedup ratio is the contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent
DEFAULT_BASELINE_DIR = BENCH_DIR / "baselines"
DEFAULT_OUTPUT_DIR = BENCH_DIR / "output"

#: A numeric leaf is a throughput series when its key contains one of
#: these markers.  Both are higher-is-better.
THROUGHPUT_MARKERS = ("_per_second", "speedup")


def leaves(payload, path=()):
    """Yield ``(path tuple, value)`` for every leaf outside ``config``."""
    if isinstance(payload, dict):
        for key in sorted(payload):
            if key == "config":
                continue  # config echoes are inputs, not measurements
            yield from leaves(payload[key], path + (str(key),))
    else:
        yield path, payload


def throughput_leaves(payload):
    """Yield ``(dotted.path, value)`` for every throughput leaf."""
    for path, value in leaves(payload):
        key = path[-1] if path else ""
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and any(marker in key for marker in THROUGHPUT_MARKERS)):
            yield ".".join(path), float(value)


def digest_leaves(payload):
    """Yield ``(dotted.path, value)`` for every ``digest`` leaf."""
    for path, value in leaves(payload):
        if path and path[-1] == "digest":
            yield ".".join(path), value


def compare_payloads(name: str, baseline: dict, fresh: dict,
                     tolerance: float) -> tuple[list[str], list[str]]:
    """Returns (regressions, notes) for one baseline/fresh pair."""
    regressions: list[str] = []
    notes: list[str] = []
    base_profile = baseline.get("profile")
    fresh_profile = fresh.get("profile")
    if base_profile is not None and base_profile != fresh_profile:
        raise ProfileMismatch(
            f"{name}: baseline profile {base_profile!r} != fresh profile "
            f"{fresh_profile!r} — regenerate with the matching --profile")

    base_series = dict(throughput_leaves(baseline))
    fresh_series = dict(throughput_leaves(fresh))
    for path in sorted(base_series):
        base_value = base_series[path]
        fresh_value = fresh_series.get(path)
        if fresh_value is None:
            regressions.append(
                f"{name}: {path} present in baseline but missing from the "
                f"fresh run")
            continue
        if base_value <= 0:
            continue
        ratio = fresh_value / base_value
        line = (f"{name}: {path} baseline {base_value:g} -> fresh "
                f"{fresh_value:g} ({ratio:.0%} of baseline)")
        if ratio < 1.0 - tolerance:
            regressions.append(line + "  REGRESSION")
        else:
            notes.append(line)
    for path in sorted(set(fresh_series) - set(base_series)):
        notes.append(f"{name}: {path} is new (no baseline yet)")
    fresh_digests = dict(digest_leaves(fresh))
    for path, base_digest in sorted(digest_leaves(baseline)):
        line = (f"{name}: {path} baseline {base_digest} -> fresh "
                f"{fresh_digests.get(path)}")
        if fresh_digests.get(path) != base_digest:
            regressions.append(line + "  DIGEST CHANGED")
        else:
            notes.append(line)
    return regressions, notes


class ProfileMismatch(RuntimeError):
    """Baseline and fresh run used different benchmark profiles."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/compare.py",
        description="Gate fresh BENCH_*.json against committed baselines.")
    parser.add_argument("names", nargs="*", metavar="BENCH_X.json",
                        help="baseline filenames to check (default: every "
                             "baseline with a matching fresh file)")
    parser.add_argument("--baseline-dir", type=Path,
                        default=DEFAULT_BASELINE_DIR)
    parser.add_argument("--output-dir", type=Path,
                        default=DEFAULT_OUTPUT_DIR)
    parser.add_argument("--tolerance", type=float, default=0.20,
                        metavar="FRACTION",
                        help="allowed fractional throughput drop "
                             "(default 0.20 = 20%%)")
    parser.add_argument("--verbose", action="store_true",
                        help="also print non-regressed series")
    args = parser.parse_args(argv)

    if not (0.0 <= args.tolerance < 1.0):
        print(f"compare: --tolerance must be in [0, 1), got "
              f"{args.tolerance}", file=sys.stderr)
        return 2

    names = args.names or sorted(
        p.name for p in args.baseline_dir.glob("BENCH_*.json"))
    if not names:
        print(f"compare: no baselines under {args.baseline_dir}",
              file=sys.stderr)
        return 2

    all_regressions: list[str] = []
    compared = 0
    for name in names:
        baseline_path = args.baseline_dir / name
        fresh_path = args.output_dir / name
        if not baseline_path.exists():
            print(f"compare: no baseline {baseline_path}", file=sys.stderr)
            return 2
        if not fresh_path.exists():
            if args.names:
                print(f"compare: no fresh run at {fresh_path} — run the "
                      f"benchmark first", file=sys.stderr)
                return 2
            continue  # default sweep: only gate what this job produced
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(fresh_path.read_text())
        try:
            regressions, notes = compare_payloads(name, baseline, fresh,
                                                  args.tolerance)
        except ProfileMismatch as error:
            print(f"compare: {error}", file=sys.stderr)
            return 2
        compared += 1
        all_regressions.extend(regressions)
        if args.verbose:
            for line in notes:
                print(f"  ok  {line}")
        for line in regressions:
            print(f"  !!  {line}")

    if not compared:
        print("compare: no fresh BENCH_*.json matched a baseline — "
              "nothing gated", file=sys.stderr)
        return 2
    if all_regressions:
        print(f"compare: {len(all_regressions)} regression(s): throughput "
              f"beyond {args.tolerance:.0%} of baseline or a changed digest")
        return 1
    print(f"compare: {compared} file(s) within {args.tolerance:.0%} of "
          f"baseline, digests unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
