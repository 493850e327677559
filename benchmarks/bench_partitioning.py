"""Before/after throughput of the kernelized streaming partitioners.

Times every streaming algorithm twice on the same graph and stream
order: the scalar pre-kernel loop snapshotted in
:mod:`repro.partitioning._reference` ("before") and the kernelized
registry implementation ("after"), asserting the two agree bit-for-bit
before trusting the timings.  Ginger (HG) and the multilevel MTS
baseline have no frozen loop, so they are timed "after" only and pinned
by a ``digest`` of their assignment instead.  Writes
``benchmarks/output/BENCH_partitioning.json`` with vertices/sec (edge-cut
family) and edges/sec (vertex-cut family) per algorithm plus the
before→after speedup.

Run standalone — it does not need pytest::

    python benchmarks/bench_partitioning.py                 # quick profile
    python benchmarks/bench_partitioning.py --profile smoke # CI smoke job
    python benchmarks/bench_partitioning.py --profile full
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.graph.generators import twitter_like  # noqa: E402
from repro.partitioning import accepts_seed, make_partitioner  # noqa: E402
from repro.partitioning._reference import REFERENCE_FACTORIES  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"
OUTPUT_JSON = OUTPUT_DIR / "BENCH_partitioning.json"

K = 16
SEED = 1

#: Graph sizes per profile: smoke keeps the CI job in seconds; full is
#: for local before/after numbers worth quoting in docs/performance.md.
PROFILES = {
    "smoke": {"num_vertices": 2_000, "repeats": 1},
    "quick": {"num_vertices": 10_000, "repeats": 2},
    "full": {"num_vertices": 50_000, "repeats": 3},
}

#: (label, registry name, constructor kwargs, stream unit).
CONFIGS = (
    ("ldg", "ldg", {}, "vertices"),
    ("fennel", "fennel", {}, "vertices"),
    ("re-ldg", "re-ldg", {"num_passes": 2}, "vertices"),
    ("re-fennel", "re-fennel", {"num_passes": 2}, "vertices"),
    ("hdrf", "hdrf", {}, "edges"),
    ("dbh", "dbh", {}, "edges"),
    ("dbh-partial", "dbh", {"degrees": "partial"}, "edges"),
    ("greedy", "greedy", {}, "edges"),
    ("grid", "grid", {}, "edges"),
)

#: Rows without a reference loop: (label, registry name, stream unit).
AFTER_ONLY = (
    ("hg", "hg", "edges"),
    ("mts", "mts", "vertices"),
)


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """Minimum wall time over *repeats* runs (and the last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _digest(assignment: np.ndarray) -> str:
    data = np.ascontiguousarray(assignment, dtype=np.int32).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _constructor_kwargs(algorithm: str, kwargs: dict) -> dict:
    ctor = dict(kwargs)
    if accepts_seed(algorithm):
        ctor["seed"] = 100
    return ctor


def run(profile: str) -> dict:
    params = PROFILES[profile]
    graph = twitter_like(num_vertices=params["num_vertices"], seed=7)
    repeats = params["repeats"]
    results = {}
    for label, algorithm, kwargs, unit in CONFIGS:
        ctor = _constructor_kwargs(algorithm, kwargs)
        before_partitioner = REFERENCE_FACTORIES[algorithm](**ctor)
        after_partitioner = make_partitioner(algorithm, **ctor)
        before_seconds, before_result = _best_of(
            lambda p=before_partitioner: p.partition(graph, K,
                                                     order="random",
                                                     seed=SEED),
            repeats)
        after_seconds, after_result = _best_of(
            lambda p=after_partitioner: p.partition(graph, K,
                                                    order="random",
                                                    seed=SEED),
            repeats)
        if not np.array_equal(before_result.assignment,
                              after_result.assignment):
            raise AssertionError(
                f"{label}: kernelized output diverged from reference")
        elements = (graph.num_vertices if unit == "vertices"
                    else graph.num_edges)
        results[label] = {
            "unit": unit,
            "before_seconds": round(before_seconds, 4),
            "after_seconds": round(after_seconds, 4),
            f"before_{unit}_per_second": round(elements / before_seconds, 1),
            f"after_{unit}_per_second": round(elements / after_seconds, 1),
            "speedup": round(before_seconds / after_seconds, 2),
        }
        print(f"{label:12s} {unit:8s} before {before_seconds:7.3f}s  "
              f"after {after_seconds:7.3f}s  "
              f"x{results[label]['speedup']:.2f}")
    for label, algorithm, unit in AFTER_ONLY:
        partitioner = make_partitioner(algorithm,
                                       **_constructor_kwargs(algorithm, {}))
        after_seconds, after_result = _best_of(
            lambda p=partitioner: p.partition(graph, K, order="random",
                                              seed=SEED),
            repeats)
        elements = (graph.num_vertices if unit == "vertices"
                    else graph.num_edges)
        results[label] = {
            "unit": unit,
            "after_seconds": round(after_seconds, 4),
            f"after_{unit}_per_second": round(elements / after_seconds, 1),
            "digest": _digest(after_result.assignment),
        }
        print(f"{label:12s} {unit:8s} after {after_seconds:7.3f}s  "
              f"digest {results[label]['digest']}")
    return {
        "schema": 1,
        "profile": profile,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_partitions": K,
        "order": "random",
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="quick")
    args = parser.parse_args(argv)
    payload = run(args.profile)
    OUTPUT_DIR.mkdir(exist_ok=True)
    OUTPUT_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {OUTPUT_JSON}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
