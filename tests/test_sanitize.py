"""Tests for the runtime determinism/numeric sanitizer (`repro.tools.sanitize`).

Three contracts are pinned here:

1. **Zero overhead when disabled** — with the sanitizer off, running the
   instrumented hot paths (kernels, shard merges, the DES event loop)
   makes *no* sanitizer calls at all (asserted via the invocation
   counters), so the uninstrumented behaviour is bit-identical by
   construction.
2. **Digest parity when enabled** — the checks are assertions, never
   corrections, so every digest the probe computes is byte-identical
   with and without ``REPRO_SANITIZE=1``.
3. **The checks actually catch the failure modes they claim** — NaN
   poisoning, float/negative size vectors, aliasing buffers,
   set-iteration canaries, and event-time regressions each raise
   :class:`SanitizerError`.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi
from repro.partitioning.registry import make_seeded_partitioner
from repro.tools import sanitize
from repro.tools.sanitize import SanitizerError


@pytest.fixture(autouse=True)
def _restore_sanitizer_state():
    """Each test starts disabled with fresh counters and leaves no trace."""
    was_active = sanitize.ACTIVE
    sanitize.disable()
    sanitize.reset_stats()
    yield
    sanitize.ACTIVE = was_active
    sanitize.reset_stats()


# ----------------------------------------------------------------------
# Contract 1: the disabled path never enters the sanitizer.
# ----------------------------------------------------------------------
class TestDisabledIsFree:
    def test_partitioning_makes_zero_sanitizer_calls(self):
        graph = erdos_renyi(200, 800, seed=3)
        for name in ("ldg", "fennel", "hdrf"):
            make_seeded_partitioner(name, seed=9).partition(graph, 4, seed=2)
        assert sanitize.stats() == {}

    def test_probe_workload_makes_zero_sanitizer_calls(self):
        sanitize.digest_probe()
        assert sanitize.stats() == {}

    def test_enabled_path_exercises_the_checks(self):
        sanitize.enable()
        graph = erdos_renyi(200, 800, seed=3)
        make_seeded_partitioner("ldg", seed=9).partition(graph, 4, seed=2)
        counters = sanitize.stats()
        assert counters.get("check_no_alias", 0) > 0
        assert counters.get("check_scores", 0) > 0
        assert counters.get("check_sizes", 0) > 0


# ----------------------------------------------------------------------
# Contract 2: enabling the sanitizer changes no digest.
# ----------------------------------------------------------------------
class TestDigestParity:
    def test_probe_digests_identical_with_and_without_sanitizer(self):
        sanitize.disable()
        baseline = sanitize.digest_probe()
        sanitize.enable()
        instrumented = sanitize.digest_probe()
        assert instrumented == baseline
        # ... and the instrumented run really went through the checks.
        assert sanitize.stats().get("check_scores", 0) > 0

    def test_probe_json_is_byte_stable(self):
        first = json.dumps(sanitize.digest_probe(), indent=2, sort_keys=True)
        second = json.dumps(sanitize.digest_probe(), indent=2, sort_keys=True)
        assert first == second
        assert '"probe": "repro.sanitize/1"' in first

    def test_probe_values_are_json_scalars(self):
        digests = sanitize.digest_probe()
        assert digests["probe"] == "repro.sanitize/1"
        assert all(isinstance(v, (str, int)) for v in digests.values())

    def test_probe_covers_placement_and_gas(self):
        """Balanced masters and a two-direction GAS run are digested, so
        the hash-seed double run covers those layers too."""
        digests = sanitize.digest_probe()
        assert len(digests["placement.hdrf.master"]) == 64
        assert len(digests["gas.wcc"]) == 64


# ----------------------------------------------------------------------
# Contract 3: each check catches its failure mode.
# ----------------------------------------------------------------------
class TestChecks:
    def test_check_scores_allows_neg_inf_but_not_nan(self):
        scores = np.array([0.5, -np.inf, 1.0])
        sanitize.check_scores(scores, "t")           # -inf is legitimate
        scores[1] = np.nan
        with pytest.raises(SanitizerError, match="NaN"):
            sanitize.check_scores(scores, "t")

    def test_check_sizes_rejects_float_and_negative(self):
        sanitize.check_sizes(np.array([0, 3, 7], dtype=np.int64), "t")
        with pytest.raises(SanitizerError, match="dtype"):
            sanitize.check_sizes(np.array([1.0, 2.0]), "t")
        with pytest.raises(SanitizerError, match="negative"):
            sanitize.check_sizes(np.array([1, -2], dtype=np.int64), "t")

    def test_check_delta_merge_rejects_float_and_wraparound(self):
        total = np.array([5, 6], dtype=np.int64)
        delta = np.array([1, 1], dtype=np.int64)
        sanitize.check_delta_merge(total, delta, "t")
        with pytest.raises(SanitizerError, match="float"):
            sanitize.check_delta_merge(total.astype(np.float64), delta, "t")
        with pytest.raises(SanitizerError, match="overflow"):
            sanitize.check_delta_merge(
                np.array([5, -1], dtype=np.int64), delta, "t")

    def test_check_no_alias(self):
        buffer = np.zeros(8)
        sanitize.check_no_alias(buffer, np.zeros(8), "t")
        with pytest.raises(SanitizerError, match="alias"):
            sanitize.check_no_alias(buffer, buffer[2:], "t")

    def test_check_not_set(self):
        sanitize.check_not_set([1, 2], "t")
        sanitize.check_not_set((1, 2), "t")
        with pytest.raises(SanitizerError, match="set"):
            sanitize.check_not_set({1, 2}, "t")
        with pytest.raises(SanitizerError, match="set"):
            sanitize.check_not_set(frozenset({1}), "t")

    def test_check_event_time(self):
        sanitize.check_event_time(1.0, 1.0, "t")     # equal is fine
        with pytest.raises(SanitizerError, match="backwards"):
            sanitize.check_event_time(0.5, 1.0, "t")
        with pytest.raises(SanitizerError, match="non-finite"):
            sanitize.check_event_time(float("nan"), 0.0, "t")

    def test_sanitizer_error_is_an_assertion(self):
        assert issubclass(SanitizerError, AssertionError)


# ----------------------------------------------------------------------
# Activation and the `repro sanitize` CLI.
# ----------------------------------------------------------------------
class TestActivation:
    @pytest.mark.parametrize("value,expected", [
        ("1", "True"), ("yes", "True"), ("0", "False"), ("", "False"),
    ])
    def test_env_variable_controls_active(self, value, expected):
        result = subprocess.run(
            [sys.executable, "-c",
             "from repro.tools import sanitize; print(sanitize.ACTIVE)"],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "REPRO_SANITIZE": value})
        assert result.stdout.strip() == expected


class TestCli:
    def test_probe_mode_prints_digest_json(self, capsys):
        assert sanitize.main(["--probe"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["probe"] == "repro.sanitize/1"
        assert payload["des.completed"] > 0

    def test_usage_error_needs_two_hash_seeds(self, capsys):
        assert sanitize.main(["--hash-seeds", "5"]) == 2
        assert "two" in capsys.readouterr().err

    def test_cli_is_wired_through_repro_entry_point(self):
        from repro.experiments.cli import main as repro_main
        assert repro_main(["sanitize", "--probe"]) == 0

    @pytest.mark.slow
    def test_double_run_detects_no_hash_seed_dependence(self, capsys):
        """The headline smoke: two hash seeds, byte-identical digests."""
        assert sanitize.main(["--hash-seeds", "0,1"]) == 0
        assert "byte-identical" in capsys.readouterr().out
