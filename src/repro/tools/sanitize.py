"""Runtime determinism/numeric sanitizer (``REPRO_SANITIZE=1``).

A TSan-style companion to reprolint: the static rules prove structure
(seeds flow, clocks stay out, deltas commute), this module checks the
*values* at runtime — NaN poisoning in kernel score buffers, int64
wraparound in shard delta merges, aliasing between preallocated arrays,
set-iteration order leaking into decisions, and event-time regressions
in the discrete-event simulator.

The contract is strict zero overhead when disabled: every call site is
guarded by ``if sanitize.ACTIVE:`` (a plain module-bool test), so with
``REPRO_SANITIZE`` unset no sanitizer function is ever entered and all
digests are byte-identical to an uninstrumented build.  When enabled the
checks are assertions, not corrections — they never change a value, so
digests are byte-identical *with* the sanitizer too; it can only abort.

The hash-seed perturbation double-run mode (``python -m repro
sanitize``) runs a small deterministic probe twice under different
``PYTHONHASHSEED`` values and diffs the digests — the end-to-end test
that nothing anywhere feeds ``hash()`` ordering into results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Iterable, Mapping

import numpy as np

__all__ = [
    "ACTIVE",
    "SanitizerError",
    "check_delta_merge",
    "check_event_time",
    "check_no_alias",
    "check_not_set",
    "check_scores",
    "check_sizes",
    "digest_probe",
    "disable",
    "enable",
    "main",
    "reset_stats",
    "stats",
]


class SanitizerError(AssertionError):
    """A runtime determinism/numeric invariant was violated."""


#: The master switch.  Read from the environment exactly once at import;
#: hot paths test this bool and never call into this module when False.
ACTIVE = False

#: How often each check ran, by name — lets tests assert both that the
#: instrumented path was exercised and that the disabled path never was.
_STATS: dict = {}


def _refresh() -> None:
    global ACTIVE
    ACTIVE = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


_refresh()


def enable() -> None:
    """Turn the sanitizer on for this process (tests, probe runs)."""
    global ACTIVE
    ACTIVE = True


def disable() -> None:
    global ACTIVE
    ACTIVE = False


def stats() -> dict:
    """Copy of the per-check invocation counters."""
    return dict(_STATS)


def reset_stats() -> None:
    _STATS.clear()


def _count(name: str) -> None:
    _STATS[name] = _STATS.get(name, 0) + 1


# ----------------------------------------------------------------------
# Checks.  Each takes a `where` tag naming the instrumented site.
# ----------------------------------------------------------------------
def check_scores(scores: np.ndarray, where: str) -> None:
    """Kernel score buffers must be NaN-free.

    ``-inf`` is *legitimate* (FENNEL applies an infinite penalty to full
    partitions), so only NaN — the result of ``inf - inf`` or ``0 * inf``
    arithmetic going wrong — is poison here.
    """
    _count("check_scores")
    if np.isnan(scores).any():
        raise SanitizerError(
            f"{where}: NaN in score buffer — inf arithmetic produced an "
            f"unordered value; every argmax over it is undefined")


def check_sizes(sizes: np.ndarray, where: str) -> None:
    """Partition size/count vectors are non-negative integers."""
    _count("check_sizes")
    if sizes.dtype.kind not in "iu":
        raise SanitizerError(
            f"{where}: size vector has dtype {sizes.dtype} — float "
            f"accumulation of counts is order-dependent")
    if (sizes < 0).any():
        raise SanitizerError(
            f"{where}: negative partition size — int64 overflow "
            f"wraparound or a non-commutative merge")


def check_delta_merge(total: np.ndarray, delta: np.ndarray,
                      where: str) -> None:
    """A shard delta merge stayed in exact integer arithmetic."""
    _count("check_delta_merge")
    if total.dtype.kind not in "iu" or delta.dtype.kind not in "iu":
        raise SanitizerError(
            f"{where}: delta merge on dtypes {total.dtype}/{delta.dtype} "
            f"— float merges depend on worker arrival order")
    if (total < 0).any():
        raise SanitizerError(
            f"{where}: merged totals went negative — int64 overflow "
            f"wraparound in the delta accumulation")


def check_no_alias(a: np.ndarray, b: np.ndarray, where: str) -> None:
    """Two buffers an in-place kernel writes/reads must not overlap."""
    _count("check_no_alias")
    if np.shares_memory(a, b):
        raise SanitizerError(
            f"{where}: buffers alias — an in-place scoring kernel would "
            f"read its own partial output")


def check_not_set(obj: Any, where: str) -> None:
    """Set-iteration-order canary for decision-path iterables."""
    _count("check_not_set")
    if isinstance(obj, (set, frozenset)):
        raise SanitizerError(
            f"{where}: iterating a set — order is hash-seed dependent, "
            f"so every downstream decision changes per process")


def check_event_time(now: float, previous: float, where: str) -> None:
    """DES event times are finite and non-decreasing."""
    _count("check_event_time")
    if not np.isfinite(now):
        raise SanitizerError(
            f"{where}: non-finite event time {now!r} in the event loop")
    if now < previous:
        raise SanitizerError(
            f"{where}: event time went backwards ({now} < {previous}) — "
            f"the heap ordering or a producer is broken")


# ----------------------------------------------------------------------
# Digest probe + hash-seed perturbation double-run.
# ----------------------------------------------------------------------
def digest_probe() -> dict:
    """A small, fully deterministic workload summarised as digests.

    Exercises the instrumented layers end to end: streaming kernels
    (LDG/FENNEL/HDRF), the degree-state ranks, the placement's balanced
    masters and the GAS engine on the HDRF partition, and the
    discrete-event simulator.  Every value in the returned mapping is a
    string or int, so the JSON form is byte-stable.
    """
    import hashlib

    from repro.analytics import GasEngine, Placement, WeaklyConnectedComponents
    from repro.database import WorkloadGenerator, simulate_workload
    from repro.graph.generators import erdos_renyi
    from repro.partitioning.degree_state import run_inclusive_ranks
    from repro.partitioning.registry import make_seeded_partitioner

    def sha(array: np.ndarray) -> str:
        return hashlib.sha256(
            np.ascontiguousarray(array).tobytes()).hexdigest()

    graph = erdos_renyi(300, 1500, seed=11)
    digests: dict = {"probe": "repro.sanitize/1"}
    partitions: dict = {}
    for name in ("ldg", "fennel", "hdrf"):
        partitioner = make_seeded_partitioner(name, seed=31)
        partitions[name] = partitioner.partition(graph, 6, seed=47)
        digests[f"partition.{name}"] = sha(
            partitions[name].assignment.astype(np.int32))

    # HDRF carries no masters, so the placement balances them; WCC
    # gathers in both directions, so its apply step unions two target
    # sets.
    placement = Placement(graph, partitions["hdrf"])
    digests["placement.hdrf.master"] = sha(placement.master)
    run = GasEngine().run(graph, placement, WeaklyConnectedComponents())
    supersteps = hashlib.sha256()
    for it in run.iterations:
        supersteps.update(np.array(
            [it.gather_messages, it.mirror_update_messages],
            dtype=np.int64).tobytes())
        supersteps.update(np.ascontiguousarray(it.compute_seconds).tobytes())
    digests["gas.wcc"] = supersteps.hexdigest()

    interleaved = np.empty(2 * graph.num_edges, dtype=np.int64)
    interleaved[0::2] = graph.src
    interleaved[1::2] = graph.dst
    digests["degree.ranks"] = sha(
        run_inclusive_ranks(interleaved).astype(np.int64))

    partition = make_seeded_partitioner("ldg", seed=31).partition(
        graph, 4, seed=47)
    bindings = WorkloadGenerator(graph, skew=0.4, seed=5).bindings(
        "one_hop", 80)
    result = simulate_workload(graph, partition, bindings, duration=0.3)
    digests["des.latencies"] = sha(np.asarray(result.latencies,
                                              dtype=np.float64))
    digests["des.completed"] = int(result.completed_queries)
    return digests


def _probe_json() -> str:
    return json.dumps(digest_probe(), indent=2, sort_keys=True)


def _run_probe_subprocess(hash_seed: int, sanitize: bool,
                          env: Mapping | None = None) -> str:
    child_env = dict(env if env is not None else os.environ)
    child_env["PYTHONHASHSEED"] = str(hash_seed)
    child_env["REPRO_SANITIZE"] = "1" if sanitize else "0"
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "sanitize", "--probe"],
        capture_output=True, text=True, env=child_env, check=False)
    if completed.returncode != 0:
        raise SanitizerError(
            f"probe run (PYTHONHASHSEED={hash_seed}) failed:\n"
            f"{completed.stderr}")
    return completed.stdout


def main(argv: Iterable | None = None) -> int:
    """``python -m repro sanitize`` — see ``--help``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro sanitize",
        description="Hash-seed perturbation double-run: execute a small "
                    "deterministic probe under two PYTHONHASHSEED values "
                    "with the runtime sanitizer enabled and diff the "
                    "digests byte for byte.")
    parser.add_argument("--probe", action="store_true",
                        help="run the probe in-process and print its "
                             "digest JSON (internal: used by the "
                             "double-run driver)")
    parser.add_argument("--hash-seeds", default="0,1",
                        help="comma-separated PYTHONHASHSEED values for "
                             "the double run (default: 0,1)")
    parser.add_argument("--no-sanitize", action="store_true",
                        help="leave REPRO_SANITIZE off in the probe "
                             "subprocesses (digest-parity baseline)")
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.probe:
        print(_probe_json())
        return 0

    seeds = [int(s) for s in args.hash_seeds.split(",") if s.strip()]
    if len(seeds) < 2:
        print("need at least two --hash-seeds values", file=sys.stderr)
        return 2
    outputs = []
    for seed in seeds:
        print(f"[sanitize] probe run with PYTHONHASHSEED={seed} ...")
        outputs.append(_run_probe_subprocess(seed,
                                             not args.no_sanitize))
    reference = outputs[0]
    for seed, output in zip(seeds[1:], outputs[1:]):
        if output != reference:
            print(f"[sanitize] DIGEST MISMATCH between "
                  f"PYTHONHASHSEED={seeds[0]} and {seed}:",
                  file=sys.stderr)
            print(reference, file=sys.stderr)
            print(output, file=sys.stderr)
            return 1
    print(f"[sanitize] OK — {len(seeds)} probe runs byte-identical "
          f"across hash seeds {seeds}")
    print(reference)
    return 0
