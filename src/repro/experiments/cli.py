"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro list
    python -m repro table4
    python -m repro figure2 --scale quick
    python -m repro all --scale default
    python -m repro run-all --jobs 4               # orchestrated, cached
    python -m repro cache stats                    # artifact cache state
    python -m repro figure1 --trace trace.jsonl    # record a telemetry trace
    python -m repro trace trace.jsonl              # profile a recorded trace
    python -m repro lint src tests benchmarks      # reprolint invariants

Every report is stamped with provenance — real wall time plus the number
of telemetry spans and instrumentation calls recorded while it ran — so
a figure can always be matched to the trace that explains it.

``run-all`` routes through :mod:`repro.orchestrator`: the suite becomes
a job DAG, expensive intermediates land in the content-addressed cache
under ``.repro-cache/``, and ``--jobs N`` fans ready jobs across worker
processes (byte-identical to the serial run — asserted, not assumed).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.experiments import EXPERIMENTS
from repro.experiments.runner import ExperimentContext

_EXAMPLES = """\
examples:
  repro list                        all experiment names
  repro table4                      one table, serial, uncached
  repro figure2 --scale quick       one figure at the quick scale
  repro run-all --jobs 4            full suite, 4 worker processes + cache
  repro run-all figure1 figure3     a subset, orchestrated
  repro cache stats                 entries / bytes / hit counters
  repro cache gc --max-age-days 7   drop stale-code and expired artifacts
  repro cache clear                 remove every cached artifact
  repro figure1 --trace t.jsonl     record a telemetry trace
  repro trace t.jsonl               profile a recorded trace
  repro lint src tests              check determinism/registry invariants
  repro sanitize                    hash-seed double-run digest diff
  repro serve-sim                   run the online partitioning service
  repro health --out artifacts/     SLO dashboard + OpenMetrics exports
  repro ingest spill rmat s.redg --scale 18    spill a stream to disk
  repro ingest partition s.redg -a hdrf --shards 4 --workers 4
"""


#: Subcommands handed whole to another tool's ``main(argv)``, imported
#: only when one runs.
_DELEGATED = {
    "trace": "repro.tools.trace_cli",      # profile a recorded trace
    "lint": "repro.tools.lint.cli",        # reprolint, docs/static_analysis.md
    "sanitize": "repro.tools.sanitize",    # hash-seed double run, same doc
    "serve-sim": "repro.service.cli",      # docs/online_service.md
    "health": "repro.tools.health_cli",    # SLO dashboard, docs/slo.md
    "ingest": "repro.tools.ingest_cli",    # out-of-core, docs/scaling.md
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _DELEGATED:
        return importlib.import_module(_DELEGATED[argv[0]]).main(argv[1:])
    if argv[:1] == ["run-all"]:
        return _run_all_command(argv[1:])
    if argv[:1] == ["cache"]:
        return _cache_command(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
        epilog=_EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment",
                        help="experiment id (e.g. table4, figure2), 'list', "
                             "'all', 'run-all [--jobs N]', 'cache "
                             "{stats,gc,clear}', 'trace <file>' to profile "
                             "a recorded trace, or 'lint [paths]' to run "
                             "the reprolint invariant checker")
    parser.add_argument("--scale", choices=("quick", "default", "large"),
                        default=None,
                        help="dataset scale profile (default: $REPRO_SCALE "
                             "or 'default')")
    parser.add_argument("--trace", default=None, metavar="JSONL",
                        help="enable telemetry for the run and write the "
                             "span trace to this file")
    parser.add_argument("--trace-sample-every", type=int, default=64,
                        metavar="N",
                        help="record every Nth partitioner decision span "
                             "(default 64; only used with --trace)")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if _reject_unknown(names):
        return 2

    from repro import telemetry

    if args.trace:
        with telemetry.recording(
                decision_sample_every=args.trace_sample_every) as tracer:
            status = _run_experiments(names, args.scale, tracer)
        tracer.write_jsonl(args.trace)
        print(f"[trace: {tracer.num_spans} spans written to {args.trace}]")
        return status
    return _run_experiments(names, args.scale, telemetry.get_tracer())


def _reject_unknown(names) -> bool:
    """Name any unknown experiment and list the known ones on stderr."""
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("known experiments:", file=sys.stderr)
        for name in EXPERIMENTS:
            print(f"  {name}", file=sys.stderr)
    return bool(unknown)


def _run_experiments(names, scale, tracer) -> int:
    ctx = ExperimentContext(scale=scale)
    for name in names:
        started = time.time()
        spans_before = tracer.num_spans
        calls_before = tracer.calls
        report = EXPERIMENTS[name](ctx)
        elapsed = time.time() - started
        report.stamp_provenance(
            wall_seconds=round(elapsed, 3),
            telemetry_spans=tracer.num_spans - spans_before,
            telemetry_calls=tracer.calls - calls_before,
        )
        print(report.render())
        print(f"\n[{name} completed in {elapsed:.1f}s]\n")
    return 0


# ----------------------------------------------------------------------
# run-all: the orchestrated path
# ----------------------------------------------------------------------
def _run_all_command(argv) -> int:
    from repro.errors import ConfigurationError, OrchestratorError
    from repro.orchestrator import ArtifactCache, run_experiments

    parser = argparse.ArgumentParser(
        prog="repro-experiments run-all",
        description="Run experiments through the job DAG with the "
                    "artifact cache (warm re-runs skip all substrate "
                    "computation).",
    )
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="experiment ids (default: the full suite)")
    parser.add_argument("--scale", choices=("quick", "default", "large"),
                        default=None)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = serial, the "
                             "determinism-parity baseline)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact cache directory (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the artifact cache for this run")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress report bodies; print the run "
                             "summary only")
    args = parser.parse_args(argv)

    names = args.experiments or list(EXPERIMENTS)
    if _reject_unknown(names):
        return 2

    cache: ArtifactCache | bool = False if args.no_cache else (
        ArtifactCache(args.cache_dir) if args.cache_dir else True)

    def progress(done, total, job_id):
        print(f"[{done}/{total}] {job_id}", file=sys.stderr)

    try:
        result = run_experiments(names, scale=args.scale, jobs=args.jobs,
                                 cache=cache, progress=progress)
    except ConfigurationError as error:
        print(f"run-all: {error}", file=sys.stderr)
        return 2
    except OrchestratorError as error:
        print(f"orchestrator error: {error}", file=sys.stderr)
        return 1

    if not args.quiet:
        for name in names:
            print(result.reports[name].render())
            print()
    executed = sum(result.executed.values())
    print(f"[run-all: {len(names)} experiments at scale "
          f"{result.scale!r}, jobs={result.jobs}, {executed} jobs "
          f"executed, {result.cached_reports} reports from cache, "
          f"{result.wall_seconds:.1f}s]")
    if result.cache_stats is not None:
        counters = result.cache_stats["counters"]
        hits = int(counters.get("cache.hits", 0))
        misses = int(counters.get("cache.misses", 0))
        print(f"[cache: {result.cache_stats['entries']} entries, "
              f"{hits} hits, {misses} misses]")
    return 0


# ----------------------------------------------------------------------
# cache: stats / gc / clear
# ----------------------------------------------------------------------
def _cache_command(argv) -> int:
    import json

    from repro.orchestrator import ArtifactCache

    parser = argparse.ArgumentParser(
        prog="repro-experiments cache",
        description="Inspect or prune the experiment artifact cache.",
    )
    parser.add_argument("verb", choices=("stats", "gc", "clear"))
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact cache directory (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--max-age-days", type=float, default=None,
                        metavar="DAYS",
                        help="gc: also evict artifacts older than this")
    parser.add_argument("--json", action="store_true",
                        help="stats: emit machine-readable JSON")
    args = parser.parse_args(argv)

    cache = ArtifactCache(args.cache_dir)
    if args.verb == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"cache root:   {stats['root']}")
        print(f"fingerprint:  {stats['code_fingerprint']}")
        print(f"entries:      {stats['entries']} "
              f"({stats['stale_entries']} stale)")
        print(f"bytes:        {stats['bytes']:,}")
        for kind in sorted(stats["kinds"]):
            bucket = stats["kinds"][kind]
            print(f"  {kind:12s} {bucket['entries']} entries, "
                  f"{bucket['bytes']:,} bytes")
        for name in sorted(stats["counters"]):
            print(f"  {name:24s} {int(stats['counters'][name])}")
        return 0
    if args.verb == "gc":
        outcome = cache.gc(max_age_days=args.max_age_days)
        print(f"evicted {outcome['removed']} artifacts "
              f"({outcome['bytes']:,} bytes) from {cache.root}")
        return 0
    removed = cache.clear()
    print(f"removed {removed} artifacts from {cache.root}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
