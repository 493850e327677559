"""Tests for the deterministic fault-injection subsystem (repro.faults)."""

import importlib
import inspect

import numpy as np
import pytest

from repro.errors import FaultInjectionError, ReproError, SimulationError
from repro.faults import (
    DEFAULT_RETRY_POLICY,
    NO_FAULTS,
    ChaosHarness,
    ChaosReport,
    CrashInterval,
    FaultSchedule,
    ReplicaMap,
    RetryPolicy,
    SlowdownInterval,
    _uniform,
)
from repro.rng import splitmix64

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
NAN, INF = float("nan"), float("inf")


def _numpy_uniform(seed, *labels):
    """The draw as numpy-scalar splitmix64 calls."""
    key = np.uint64(seed & _MASK64)
    for label in labels:
        key = splitmix64(key ^ np.uint64(label & _MASK64))
    return float(key) / float(2**64)


def _unmix(z):
    """The label whose splitmix64 (seed 0) under key 0 is *z*."""
    z ^= (z >> 31) ^ (z >> 62)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & _MASK64
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & _MASK64
    z ^= (z >> 30) ^ (z >> 60)
    return (z - _GOLDEN) & _MASK64


class TestUniformDraw:
    def test_matches_splitmix64_on_random_pairs(self):
        rng = np.random.default_rng(23)
        seeds = rng.integers(-2**63, 2**63, size=100_000, dtype=np.int64)
        labels = rng.integers(0, 2**63, size=100_000, dtype=np.int64)
        keys = splitmix64(
            splitmix64(seeds.astype(np.uint64) ^ np.uint64(0x5D0B))
            ^ labels.astype(np.uint64))
        expected = (keys.astype(np.float64) / float(2**64)).tolist()
        got = [_uniform(seed, 0x5D0B, label)
               for seed, label in zip(seeds.tolist(), labels.tolist())]
        assert got == expected
        for seed, label in zip(seeds[:2000].tolist(), labels[:2000].tolist()):
            assert _uniform(seed, label) == _numpy_uniform(seed, label)

    def test_halfway_keys_round_like_numpy(self):
        """Keys exactly halfway between two floats, at every magnitude
        from 2**53 to 2**64 and with both mantissa parities, convert the
        same way on both paths."""
        rng = np.random.default_rng(5)
        halfway = []
        for exponent in range(53, 64):
            spacing = 1 << (exponent - 52)
            for mantissa in rng.integers(1 << 52, 1 << 53, size=40).tolist():
                for parity in (0, 1):
                    base = ((mantissa & ~1) | parity) * spacing
                    halfway.append(base + spacing // 2)
        for key in halfway:
            label = _unmix(key)
            assert int(splitmix64(np.uint64(label))) == key
            assert _uniform(0, label) == _numpy_uniform(0, label)
            assert _uniform(0, label) == float(np.uint64(key)) / float(2**64)

    def test_negative_and_wide_labels_wrap_to_uint64(self):
        for seed, label in ((-1, 7), (3, -5), (2**64 + 9, 2**70 + 1)):
            assert _uniform(seed, label) == _numpy_uniform(seed, label)
        assert 0.0 <= _uniform(1, 2, 3) < 1.0


class TestIntervals:
    def test_crash_covers_half_open(self):
        crash = CrashInterval(worker=2, start=1.0, end=3.0)
        assert not crash.covers(0.999)
        assert crash.covers(1.0)
        assert crash.covers(2.0)
        assert not crash.covers(3.0)

    def test_permanent_crash(self):
        crash = CrashInterval(worker=0, start=0.5)
        assert crash.covers(1e9)

    def test_invalid_crash_rejected(self):
        with pytest.raises(FaultInjectionError):
            CrashInterval(worker=-1, start=0.0)
        with pytest.raises(FaultInjectionError):
            CrashInterval(worker=0, start=-0.1)
        with pytest.raises(FaultInjectionError):
            CrashInterval(worker=0, start=2.0, end=1.0)

    def test_invalid_slowdown_rejected(self):
        with pytest.raises(FaultInjectionError):
            SlowdownInterval(worker=0, start=0.0, end=1.0, factor=0.0)
        with pytest.raises(FaultInjectionError):
            SlowdownInterval(worker=0, start=0.0, end=1.0, factor=-2.0)
        with pytest.raises(FaultInjectionError):
            SlowdownInterval(worker=0, start=1.0, end=0.5, factor=0.5)

    @pytest.mark.parametrize("factor", [NAN, INF])
    def test_non_finite_slowdown_factor_rejected(self, factor):
        # A NaN factor used to reach the simulator's event heap and fail
        # there with a TypeError comparing two query states.
        with pytest.raises(FaultInjectionError, match="slowdown factor"):
            SlowdownInterval(worker=0, start=0.0, end=0.5, factor=factor)

    def test_permanent_crash_end_stays_valid(self):
        assert CrashInterval(worker=0, start=0.0, end=INF).covers(1e12)


class TestFaultSchedule:
    def test_empty_schedule(self):
        assert NO_FAULTS.is_empty
        assert FaultSchedule.none().is_empty
        assert not NO_FAULTS.is_crashed(0, 1.0)
        assert NO_FAULTS.crashed_workers(1.0) == frozenset()
        assert NO_FAULTS.speed_factor(3, 0.5) == 1.0
        assert not NO_FAULTS.should_drop(0)

    def test_single_crash_factory(self):
        schedule = FaultSchedule.single_crash(2, 1.0, 0.5)
        assert not schedule.is_empty
        assert schedule.is_crashed(2, 1.2)
        assert not schedule.is_crashed(2, 1.6)
        assert not schedule.is_crashed(1, 1.2)

    def test_crashed_workers_set(self):
        schedule = FaultSchedule(crashes=(
            CrashInterval(0, 0.0, 1.0),
            CrashInterval(3, 0.5, 2.0),
        ))
        assert schedule.crashed_workers(0.7) == frozenset({0, 3})
        assert schedule.crashed_workers(1.5) == frozenset({3})

    def test_crash_starts_in_half_open_window(self):
        crash = CrashInterval(1, 1.0, 2.0)
        schedule = FaultSchedule(crashes=(crash,))
        assert schedule.crash_starts_in(0.0, 1.0) == ()
        assert schedule.crash_starts_in(1.0, 1.5) == (crash,)
        assert schedule.crash_starts_in(1.5, 3.0) == ()

    def test_chained_windows_see_each_start_once(self):
        crash = CrashInterval(1, 0.3, 0.9)
        schedule = FaultSchedule(crashes=(crash,))
        edges = [0.0, 0.2, 0.3, 0.4, 1.0]
        hits = []
        for lo, hi in zip(edges, edges[1:]):
            hits.extend(schedule.crash_starts_in(lo, hi))
        assert hits == [crash]

    def test_speed_factor(self):
        schedule = FaultSchedule(slowdowns=(
            SlowdownInterval(1, 0.0, 1.0, factor=0.25),
        ))
        assert schedule.speed_factor(1, 0.5) == 0.25
        assert schedule.speed_factor(1, 1.5) == 1.0
        assert schedule.speed_factor(0, 0.5) == 1.0

    def test_invalid_drop_probability(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule(drop_probability=-0.1)
        with pytest.raises(FaultInjectionError):
            FaultSchedule(drop_probability=1.5)

    def test_invalid_extra_latency(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule(extra_latency_seconds=-1e-3)

    @pytest.mark.parametrize("extra", [NAN, INF])
    def test_non_finite_extra_latency_rejected(self, extra):
        with pytest.raises(FaultInjectionError,
                           match="extra_latency_seconds"):
            FaultSchedule(extra_latency_seconds=extra)

    def test_should_drop_deterministic_and_calibrated(self):
        schedule = FaultSchedule(drop_probability=0.2, seed=7)
        draws = [schedule.should_drop(i) for i in range(5000)]
        again = [schedule.should_drop(i) for i in range(5000)]
        assert draws == again
        rate = sum(draws) / len(draws)
        assert 0.15 < rate < 0.25

    def test_drop_depends_on_seed(self):
        a = FaultSchedule(drop_probability=0.5, seed=1)
        b = FaultSchedule(drop_probability=0.5, seed=2)
        assert [a.should_drop(i) for i in range(64)] != \
               [b.should_drop(i) for i in range(64)]

    def test_jitter_in_unit_interval_and_deterministic(self):
        schedule = FaultSchedule(seed=11)
        draws = [schedule.jitter(i) for i in range(256)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert draws == [schedule.jitter(i) for i in range(256)]
        assert len(set(draws)) > 200  # not degenerate

    def test_lists_canonicalised_to_tuples(self):
        schedule = FaultSchedule(crashes=[CrashInterval(0, 0.0, 1.0)],
                                 slowdowns=[SlowdownInterval(1, 0.0, 1.0, 0.5)])
        assert isinstance(schedule.crashes, tuple)
        assert isinstance(schedule.slowdowns, tuple)


class TestRetryPolicy:
    def test_invalid_policy_rejected(self):
        with pytest.raises(FaultInjectionError):
            RetryPolicy(timeout_seconds=0.0)
        with pytest.raises(FaultInjectionError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(FaultInjectionError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(FaultInjectionError):
            RetryPolicy(jitter_fraction=1.5)

    @pytest.mark.parametrize("field, value", [
        ("timeout_seconds", NAN), ("timeout_seconds", INF),
        ("backoff_base_seconds", NAN), ("backoff_base_seconds", INF),
        ("backoff_factor", NAN), ("backoff_factor", INF),
    ])
    def test_non_finite_timing_rejected(self, field, value):
        # A NaN timeout used to count no dropped request as failed.
        with pytest.raises(FaultInjectionError, match=field):
            RetryPolicy(**{field: value})

    @pytest.mark.parametrize("value", [NAN, 2.5, True, "3"])
    def test_max_retries_must_be_a_non_negative_int(self, value):
        # NaN used to fail queries it could have retried, 2.5 retried
        # like 3 and True like 1.
        with pytest.raises(FaultInjectionError, match="max_retries"):
            RetryPolicy(max_retries=value)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_seconds=1e-3, backoff_factor=2.0,
                             jitter_fraction=0.0)
        waits = [policy.backoff_seconds(a, 0.0) for a in range(4)]
        assert waits == sorted(waits)
        assert waits[1] == pytest.approx(2 * waits[0])
        assert waits[3] == pytest.approx(8 * waits[0])

    def test_jitter_widens_backoff(self):
        policy = RetryPolicy(backoff_base_seconds=1e-3, jitter_fraction=0.5)
        low = policy.backoff_seconds(0, 0.0)
        high = policy.backoff_seconds(0, 0.999)
        assert high > low
        assert high <= 1e-3 * (1 + 0.5)

    def test_default_policy_is_valid(self):
        assert DEFAULT_RETRY_POLICY.max_retries >= 1


class TestReplicaMap:
    def test_ring_chain(self):
        rm = ReplicaMap(num_workers=4, k_safety=2)
        assert rm.chain(0) == (0, 1)
        assert rm.chain(3) == (3, 0)

    def test_replica_cycles_over_chain(self):
        rm = ReplicaMap(num_workers=4, k_safety=2)
        assert rm.replica(1, 0) == 1
        assert rm.replica(1, 1) == 2
        assert rm.replica(1, 2) == 1  # wraps back around the chain

    def test_alive_replica_prefers_primary(self):
        rm = ReplicaMap(num_workers=4, k_safety=2)
        schedule = FaultSchedule.single_crash(1, 0.0)
        assert rm.alive_replica(0, schedule, 1.0) == 0
        assert rm.alive_replica(1, schedule, 1.0) == 2

    def test_alive_replica_none_when_chain_dead(self):
        rm = ReplicaMap(num_workers=4, k_safety=2)
        schedule = FaultSchedule(crashes=(CrashInterval(1, 0.0),
                                          CrashInterval(2, 0.0)))
        assert rm.alive_replica(1, schedule, 1.0) is None

    def test_invalid_map_rejected(self):
        with pytest.raises(FaultInjectionError):
            ReplicaMap(num_workers=0)
        with pytest.raises(FaultInjectionError):
            ReplicaMap(num_workers=4, k_safety=0)
        with pytest.raises(FaultInjectionError):
            ReplicaMap(num_workers=4, k_safety=5)


class TestChaosHarness:
    class _Fake:
        def __init__(self, **kw):
            self.__dict__.update(kw)

    def test_match_passes(self):
        a = self._Fake(x=1, y=2.5)
        b = self._Fake(x=1, y=2.5)
        report = ChaosHarness().compare("unit", a, b, ("x", "y"))
        assert report.matched
        assert report.raise_on_mismatch() is report

    def test_mismatch_raises_in_strict_mode(self):
        a = self._Fake(x=1)
        b = self._Fake(x=2)
        with pytest.raises(FaultInjectionError):
            ChaosHarness(strict=True).compare("unit", a, b, ("x",))

    def test_mismatch_reported_in_lenient_mode(self):
        a = self._Fake(x=1)
        b = self._Fake(x=2)
        report = ChaosHarness(strict=False).compare("unit", a, b, ("x",))
        assert not report.matched
        assert report.mismatches
        with pytest.raises(FaultInjectionError):
            report.raise_on_mismatch()

    def test_report_fields(self):
        report = ChaosReport(scenario="s", matched=True, mismatches=(),
                             checked_fields=("x",))
        assert report.scenario == "s"


class TestErrorHierarchy:
    def test_fault_errors_under_repro_error(self):
        from repro.errors import QueryTimeoutError, WorkerFailedError
        assert issubclass(FaultInjectionError, ReproError)
        assert issubclass(WorkerFailedError, SimulationError)
        assert issubclass(QueryTimeoutError, SimulationError)


#: Packages whose public surface must be fully declared in ``__all__``.
AUDITED_MODULES = [
    "repro",
    "repro.faults",
    "repro.database",
    "repro.analytics",
    "repro.partitioning",
    "repro.graph",
    "repro.metrics",
    "repro.experiments",
]


@pytest.mark.parametrize("module_name", AUDITED_MODULES)
class TestPublicApiAudit:
    """Every public symbol importable from a package is in ``__all__``
    and every ``__all__`` name resolves (ISSUE satellite: export audit)."""

    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert hasattr(module, name), (
                f"{module_name}.__all__ lists {name!r} but it is not "
                f"importable")

    def test_no_stray_public_symbols(self, module_name):
        module = importlib.import_module(module_name)
        exported = set(module.__all__)
        for name, value in vars(module).items():
            if name.startswith("_") or inspect.ismodule(value):
                continue
            # Only police symbols whose home is the audited package;
            # plain imports from elsewhere (stdlib helpers, sibling
            # packages) are implementation detail, not API.
            owner = getattr(value, "__module__", None) or ""
            if owner != module_name and \
                    not owner.startswith(module_name + "."):
                continue
            assert name in exported, (
                f"{module_name}.{name} is public but missing from __all__")
