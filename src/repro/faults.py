"""Deterministic fault injection for both execution substrates.

Real JanusGraph / PowerLyra clusters do not only differ in how well a
partitioning places data — they also *fail*: workers crash and recover,
requests get dropped on the wire, machines transiently slow down, and
links add latency.  The paper's straggler discussion (Section 5.2, the
Table 5 tail-latency collapse) is one instance of a broader question this
module makes askable: *how does each partitioner's placement degrade
under faults?*

Everything here is deterministic given an integer seed, like the rest of
the package (see :mod:`repro.rng`): the same :class:`FaultSchedule` run
twice produces bit-identical simulator output, so two partitioning
algorithms can be compared under *exactly* the same fault sequence — the
same methodology the paper uses for workloads, extended to failures.

The subsystem has four pieces:

* :class:`FaultSchedule` — the fault model: crash/recover intervals,
  transient slowdown windows, a per-request drop probability and a
  constant per-worker added latency.  An *empty* schedule is a strict
  no-op: both substrates are guaranteed to produce bit-identical results
  with ``FaultSchedule.none()`` and with no schedule at all (the
  :class:`ChaosHarness` asserts this).
* :class:`RetryPolicy` — client-side behaviour under faults: request
  timeout deadline, retry budget, and exponential backoff with
  deterministic jitter.
* :class:`ReplicaMap` — a simple k-safety replica placement derived from
  the partition: partition ``p``'s data is additionally readable from the
  next ``k_safety - 1`` workers (ring placement), which is what the
  failover router falls back to when the primary owner is down.
* :class:`ChaosHarness` — the regression guard: runs a scenario with the
  zero-fault schedule and with no schedule and raises
  :class:`~repro.errors.FaultInjectionError` unless the results match
  bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.errors import ConfigurationError, FaultInjectionError
from repro.partitioning.base import check_finite_at_least

#: Bound checks of this module raise its own error type.
_check_finite_at_least = partial(check_finite_at_least,
                                 error=FaultInjectionError)

__all__ = [
    "CrashInterval",
    "SlowdownInterval",
    "FaultSchedule",
    "NO_FAULTS",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "ReplicaMap",
    "ChaosReport",
    "ChaosHarness",
]

#: 2^64 as float, for mapping splitmix64 output to [0, 1).
_U64_SPAN = float(2**64)
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _uniform(seed: int, *labels: int) -> float:
    """Deterministic uniform [0, 1) draw keyed by ``(seed, labels)``.

    Unlike a stateful RNG, the draw does not depend on how many other
    draws happened before it — so adding a fault to a schedule never
    perturbs the randomness of unrelated events.

    Each label is folded in with :func:`repro.rng.splitmix64` (seed 0),
    computed here on Python ints: the same uint64 arithmetic without a
    numpy scalar per step, and the same correctly rounded conversion to
    float.
    """
    key = seed & _MASK64
    for label in labels:
        x = ((key ^ (label & _MASK64)) + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        key = x ^ (x >> 31)
    return float(key) / _U64_SPAN


@dataclass(frozen=True)
class CrashInterval:
    """Worker *worker* is down during ``[start, end)``.

    ``end = inf`` models a permanent failure (the worker never recovers).
    Requests arriving at a crashed worker are lost; the client times out
    and fails over to a replica.
    """

    worker: int
    start: float
    end: float = float("inf")

    def __post_init__(self):
        if self.worker < 0:
            raise FaultInjectionError("crash interval worker must be >= 0")
        if self.start < 0:
            raise FaultInjectionError(
                f"crash interval start must be >= 0, got {self.start}")
        if not self.start < self.end:
            raise FaultInjectionError(
                f"crash interval needs start < end, got [{self.start}, {self.end})")

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class SlowdownInterval:
    """Worker *worker* serves at ``factor`` × nominal speed in ``[start, end)``.

    ``factor=0.5`` is a transient straggler at half speed — the dynamic
    counterpart of the static ``worker_speeds`` knob used by
    ``ablation-straggler``.
    """

    worker: int
    start: float
    end: float
    factor: float

    def __post_init__(self):
        if self.worker < 0:
            raise FaultInjectionError("slowdown interval worker must be >= 0")
        if self.start < 0:
            raise FaultInjectionError(
                f"slowdown interval start must be >= 0, got {self.start}")
        if not self.start < self.end:
            raise FaultInjectionError(
                f"slowdown interval needs start < end, got [{self.start}, {self.end})")
        _check_finite_at_least("slowdown factor", self.factor, 0, strict=True)

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic, seed-driven schedule of faults.

    Attributes
    ----------
    crashes:
        Crash/recover intervals per worker (may overlap; a worker is down
        whenever any of its intervals covers the current time).
    slowdowns:
        Transient speed-degradation windows.  Overlapping windows on one
        worker multiply.
    drop_probability:
        Probability that any individual storage request is silently lost
        in transit (the client sees a timeout).  Decided per request by a
        stateless hash of ``(seed, request id)``.
    extra_latency_seconds:
        Constant extra one-way network latency added to every remote
        request (degraded link / cross-zone traffic).
    seed:
        Keys the drop decisions and the retry jitter.
    """

    crashes: tuple[CrashInterval, ...] = ()
    slowdowns: tuple[SlowdownInterval, ...] = ()
    drop_probability: float = 0.0
    extra_latency_seconds: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # Accept lists for convenience, store canonical tuples.
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "slowdowns", tuple(self.slowdowns))
        if not 0.0 <= self.drop_probability < 1.0:
            raise FaultInjectionError(
                f"drop_probability must be in [0, 1), got {self.drop_probability}")
        _check_finite_at_least("extra_latency_seconds",
                               self.extra_latency_seconds, 0)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultSchedule":
        """The empty schedule — a guaranteed no-op on both substrates."""
        return cls()

    @classmethod
    def single_crash(cls, worker: int, start: float,
                     duration: float = float("inf"), *,
                     seed: int = 0) -> "FaultSchedule":
        """One worker crashing at *start*, recovering after *duration*."""
        end = start + duration if duration != float("inf") else float("inf")
        return cls(crashes=(CrashInterval(worker, start, end),), seed=seed)

    def window(self, start: float, duration: float) -> "FaultSchedule":
        """The schedule restricted to ``[start, start + duration)``,
        re-based so the window begins at time 0.

        The online service runs its query simulation epoch by epoch; each
        epoch sees the slice of the global fault schedule that overlaps
        it, so one long schedule composes naturally with drift-triggered
        migration.  Drop probability, extra latency and the seed carry
        over unchanged (drop/jitter draws are keyed by request id, not
        time).
        """
        if duration <= 0:
            raise FaultInjectionError("window duration must be positive")
        end = start + duration
        crashes = tuple(
            CrashInterval(c.worker, max(0.0, c.start - start),
                          c.end - start if c.end != float("inf")
                          else float("inf"))
            for c in self.crashes if c.start < end and c.end > start)
        slowdowns = tuple(
            SlowdownInterval(s.worker, max(0.0, s.start - start),
                             min(s.end - start, duration), s.factor)
            for s in self.slowdowns if s.start < end and s.end > start)
        return FaultSchedule(crashes=crashes, slowdowns=slowdowns,
                             drop_probability=self.drop_probability,
                             extra_latency_seconds=self.extra_latency_seconds,
                             seed=self.seed)

    # ------------------------------------------------------------------
    # Queries (the substrate-facing API)
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True iff this schedule can never perturb a run."""
        return (not self.crashes and not self.slowdowns
                and self.drop_probability == 0.0
                and self.extra_latency_seconds == 0.0)

    def check_workers(self, num_workers: int) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` when an
        interval names a worker outside a cluster of *num_workers*."""
        for interval in self.crashes + self.slowdowns:
            if interval.worker >= num_workers:
                raise ConfigurationError(
                    f"fault schedule names worker {interval.worker}, "
                    f"outside a cluster of {num_workers} workers")

    def is_crashed(self, worker: int, time: float) -> bool:
        """Is *worker* down at *time*?"""
        return any(c.worker == worker and c.covers(time) for c in self.crashes)

    def crashed_workers(self, time: float) -> frozenset[int]:
        """All workers down at *time*."""
        return frozenset(c.worker for c in self.crashes if c.covers(time))

    def crash_starts_in(self, start: float, end: float) -> tuple[CrashInterval, ...]:
        """Crash events beginning inside ``[start, end)`` — the analytics
        engine uses this to detect a crash *during* a superstep."""
        return tuple(c for c in self.crashes if start <= c.start < end)

    def speed_factor(self, worker: int, time: float) -> float:
        """Service-speed multiplier for *worker* at *time* (1.0 = nominal)."""
        factor = 1.0
        for s in self.slowdowns:
            if s.worker == worker and s.covers(time):
                factor *= s.factor
        return factor

    def should_drop(self, request_id: int) -> bool:
        """Deterministically decide whether request *request_id* is lost."""
        if self.drop_probability == 0.0:
            return False
        return _uniform(self.seed, 0x5D0B, request_id) < self.drop_probability

    def jitter(self, retry_id: int) -> float:
        """Deterministic uniform [0, 1) jitter draw for retry *retry_id*."""
        return _uniform(self.seed, 0x1E77, retry_id)


#: Schedule used when callers pass ``fault_schedule=None``.
NO_FAULTS = FaultSchedule()


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side timeout/retry behaviour under faults.

    A request that receives no response within ``timeout_seconds`` is
    declared dead; the client retries up to ``max_retries`` times, waiting
    ``backoff_base_seconds * backoff_factor ** attempt * (1 + jitter)``
    between attempts (jitter uniform in ``[0, jitter_fraction)``, drawn
    deterministically from the fault schedule's seed).  Each retry is
    routed to the next replica in the :class:`ReplicaMap` chain, so a
    crashed primary degrades latency but not availability — until the
    whole chain is down.
    """

    timeout_seconds: float = 0.05
    max_retries: int = 3
    backoff_base_seconds: float = 0.005
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.5

    def __post_init__(self):
        _check_finite_at_least("timeout_seconds", self.timeout_seconds, 0,
                               strict=True)
        if (isinstance(self.max_retries, bool)
                or not isinstance(self.max_retries, int)
                or self.max_retries < 0):
            raise FaultInjectionError(
                f"max_retries must be an int >= 0, got {self.max_retries!r}")
        _check_finite_at_least("backoff_base_seconds",
                               self.backoff_base_seconds, 0)
        _check_finite_at_least("backoff_factor", self.backoff_factor, 1)
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise FaultInjectionError("jitter_fraction must be in [0, 1]")

    def backoff_seconds(self, attempt: int, jitter_draw: float) -> float:
        """Wait before retry number *attempt* (0-based), with jitter."""
        base = self.backoff_base_seconds * self.backoff_factor ** attempt
        return base * (1.0 + self.jitter_fraction * jitter_draw)


#: Policy used when callers pass ``retry_policy=None``.
DEFAULT_RETRY_POLICY = RetryPolicy()


class ReplicaMap:
    """Simple k-safety replica placement derived from the partition.

    The partition assigns every vertex a primary owner.  Like a
    Cassandra ring, each partition's data is additionally replicated to
    the next ``k_safety - 1`` workers (mod the cluster size), so reads can
    fail over along a fixed chain.  The chain is a pure function of the
    primary owner — two runs, and every client within a run, agree on it
    without coordination.
    """

    def __init__(self, num_workers: int, k_safety: int = 2):
        if num_workers < 1:
            raise FaultInjectionError("replica map needs at least one worker")
        if not 1 <= k_safety <= num_workers:
            raise FaultInjectionError(
                f"k_safety must be in [1, {num_workers}], got {k_safety}")
        self.num_workers = int(num_workers)
        self.k_safety = int(k_safety)

    def replica(self, primary: int, attempt: int) -> int:
        """The worker serving attempt number *attempt* (0 = the primary)."""
        return (primary + attempt % self.k_safety) % self.num_workers

    def chain(self, primary: int) -> tuple[int, ...]:
        """The full failover chain for data owned by *primary*."""
        return tuple((primary + j) % self.num_workers
                     for j in range(self.k_safety))

    def alive_replica(self, primary: int, schedule: FaultSchedule,
                      time: float) -> int | None:
        """First worker in the chain that is up at *time* (None if all down)."""
        for worker in self.chain(primary):
            if not schedule.is_crashed(worker, time):
                return worker
        return None


# ----------------------------------------------------------------------
# Chaos harness
# ----------------------------------------------------------------------

@dataclass
class ChaosReport:
    """Outcome of one :class:`ChaosHarness` verification."""

    scenario: str
    matched: bool
    #: Field-by-field comparison failures ("field: baseline != injected").
    mismatches: list[str] = field(default_factory=list)
    checked_fields: list[str] = field(default_factory=list)

    def raise_on_mismatch(self) -> "ChaosReport":
        if not self.matched:
            raise FaultInjectionError(
                f"zero-fault schedule did not reproduce the baseline for "
                f"{self.scenario}: " + "; ".join(self.mismatches))
        return self


def _values_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        return a_arr.shape == b_arr.shape and bool(np.array_equal(a_arr, b_arr))
    return a == b


class ChaosHarness:
    """Asserts the fault-injection machinery's core invariant: running a
    scenario with the *empty* fault schedule is bit-for-bit identical to
    running it with fault injection disabled entirely.

    Both substrates route every computation through the fault hooks when a
    schedule is supplied; this harness is the regression guard proving the
    hooks are exact no-ops when the schedule is empty — so every baseline
    number in EXPERIMENTS.md remains valid verbatim.
    """

    def __init__(self, *, strict: bool = True):
        self.strict = strict

    # ------------------------------------------------------------------
    def compare(self, scenario: str, baseline, injected,
                fields: list[str]) -> ChaosReport:
        """Compare *fields* of two result objects bit-for-bit."""
        report = ChaosReport(scenario=scenario, matched=True,
                             checked_fields=list(fields))
        for name in fields:
            a, b = getattr(baseline, name), getattr(injected, name)
            a = a() if callable(a) else a
            b = b() if callable(b) else b
            if not _values_equal(a, b):
                report.matched = False
                report.mismatches.append(f"{name}: {a!r} != {b!r}")
        if self.strict:
            report.raise_on_mismatch()
        return report

    # ------------------------------------------------------------------
    def verify_simulation(self, graph, partition, bindings, *,
                          duration: float = 0.3, **kwargs) -> ChaosReport:
        """Zero-fault invariant for the database simulator."""
        from repro.database.simulation import simulate_workload

        baseline = simulate_workload(graph, partition, bindings,
                                     duration=duration, **kwargs)
        injected = simulate_workload(graph, partition, bindings,
                                     duration=duration,
                                     fault_schedule=FaultSchedule.none(),
                                     **kwargs)
        return self.compare(
            "database simulation", baseline, injected,
            ["completed_queries", "latencies", "vertices_read_per_worker",
             "requests_per_worker", "busy_seconds_per_worker",
             "network_bytes", "remote_reads", "total_reads", "timeouts",
             "retries", "failed_queries", "dropped_requests"],
        )

    # ------------------------------------------------------------------
    def verify_analytics(self, graph, partition, workload,
                         **kwargs) -> ChaosReport:
        """Zero-fault invariant for the analytics engine."""
        from repro.analytics.engine import run_workload

        baseline = run_workload(graph, partition, workload, **kwargs)
        injected = run_workload(graph, partition, workload,
                                fault_schedule=FaultSchedule.none(), **kwargs)
        report = self.compare(
            "analytics engine", baseline, injected,
            ["num_iterations", "total_network_bytes", "total_messages",
             "execution_seconds"],
        )
        per_machine = _values_equal(baseline.compute_seconds_per_machine(),
                                    injected.compute_seconds_per_machine())
        if not per_machine:
            report.matched = False
            report.mismatches.append("compute_seconds_per_machine differs")
            if self.strict:
                report.raise_on_mismatch()
        report.checked_fields.append("compute_seconds_per_machine")
        return report
