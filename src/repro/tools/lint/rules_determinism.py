"""Determinism rules (RL001–RL006).

Each rule encodes one way a change can silently break bit-for-bit
reproducibility: an unseeded (or privately-seeded) RNG, a wall-clock read
inside a simulated-time substrate, hash-order iteration, or an
environment read outside the configuration layer.  All of them are scoped
to the ``repro`` package — the test/benchmark harnesses may do what they
like with their own randomness.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.tools.lint.engine import Finding, Module, Rule, register

#: Where the repo simulates time instead of reading it (RL003).
SIMULATED_TIME_SCOPES = (
    ("repro", "analytics"),
    ("repro", "database"),
    ("repro", "partitioning"),
    ("repro", "faults"),
    ("repro", "service"),
    ("repro", "telemetry", "tracer"),
)

#: Hot decision paths where hash-order iteration matters most (RL004).
DECISION_SCOPES = (
    ("repro", "partitioning"),
    ("repro", "analytics"),
    ("repro", "database"),
    ("repro", "service"),
)

#: The only module allowed to construct numpy generators (RL001/RL002).
RNG_MODULE = ("repro", "rng")

#: The configuration layer allowed to read the environment (RL006).
#: ``tools.sanitize`` is the documented exception: REPRO_SANITIZE is its
#: master switch, read once at import, and the sanitizer never affects
#: results — it can only abort.
ENV_SCOPES = (
    ("repro", "experiments"),
    ("repro", "orchestrator"),
    ("repro", "tools", "sanitize"),
)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def walk_code(module: Module) -> Iterator[ast.AST]:
    """Every AST node, via the module's shared one-walk cache."""
    yield from module.all_nodes


@register
class RawNumpyRandom(Rule):
    """RL001 — numpy randomness must flow through ``repro.rng``."""

    code = "RL001"
    name = "raw-numpy-rng"
    summary = ("np.random.* construction or global-state use outside "
               "repro.rng — route through make_rng")

    #: Constructors and global-state entry points.  Notably *not*
    #: ``Generator`` (a legitimate type annotation everywhere).
    banned = frozenset({
        "default_rng", "seed", "RandomState", "SeedSequence",
        "get_state", "set_state", "rand", "randn", "randint", "random",
        "random_sample", "choice", "shuffle", "permutation",
    })

    def check_module(self, module: Module) -> Iterable[Finding]:
        if not module.in_package() or module.package_parts == RNG_MODULE:
            return
        for node in walk_code(module):
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name is None:
                    continue
                head, _, attr = name.rpartition(".")
                if head in ("np.random", "numpy.random") and attr in self.banned:
                    yield module.finding(
                        self.code,
                        f"raw numpy RNG `{name}` outside repro.rng — use "
                        f"repro.rng.make_rng so seeds stay centrally "
                        f"derivable", node)
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                bad = [a.name for a in node.names if a.name in self.banned]
                if bad:
                    yield module.finding(
                        self.code,
                        f"importing {', '.join(bad)} from numpy.random "
                        f"outside repro.rng — use repro.rng.make_rng",
                        node)


@register
class StdlibRandomness(Rule):
    """RL002 — no stdlib randomness outside ``repro.rng``."""

    code = "RL002"
    name = "stdlib-random"
    summary = "stdlib `random`/`secrets` import outside repro.rng"

    banned_modules = frozenset({"random", "secrets"})

    def check_module(self, module: Module) -> Iterable[Finding]:
        if not module.in_package() or module.package_parts == RNG_MODULE:
            return
        for node in walk_code(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self.banned_modules:
                        yield module.finding(
                            self.code,
                            f"stdlib `{alias.name}` is not seed-derivable "
                            f"from the experiment seed — use repro.rng",
                            node)
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in self.banned_modules and not node.level:
                    yield module.finding(
                        self.code,
                        f"stdlib `{node.module}` is not seed-derivable "
                        f"from the experiment seed — use repro.rng", node)


@register
class WallClockInSimulatedTime(Rule):
    """RL003 — simulated-time substrates never read the wall clock."""

    code = "RL003"
    name = "wall-clock"
    summary = ("time.time/perf_counter/datetime.now in a simulated-time "
               "module — clocks there must come from the simulation")

    banned_suffixes = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "datetime.now", "datetime.utcnow",
        "datetime.today", "date.today",
    })
    banned_time_names = frozenset({
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
    })

    def check_module(self, module: Module) -> Iterable[Finding]:
        if not module.package_startswith(*SIMULATED_TIME_SCOPES):
            return
        for node in walk_code(module):
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name is None:
                    continue
                tail = ".".join(name.split(".")[-2:])
                if tail in self.banned_suffixes:
                    yield module.finding(
                        self.code,
                        f"wall-clock read `{name}` in a simulated-time "
                        f"module — cache keys, traces and digests must not "
                        f"depend on real time", node)
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [a.name for a in node.names
                       if a.name in self.banned_time_names]
                if bad:
                    yield module.finding(
                        self.code,
                        f"importing {', '.join(bad)} from time in a "
                        f"simulated-time module", node)


@register
class SetIteration(Rule):
    """RL004 — no iteration over bare sets in decision hot paths.

    Set iteration order is a function of element hashes and insertion
    history; an HDRF/FENNEL-style tie-break fed from it changes every
    downstream assignment between runs.  Iterate a list, or ``sorted()``
    the set first.
    """

    code = "RL004"
    name = "set-iteration"
    summary = ("iteration over a set literal/constructor/comprehension in "
               "partitioning/analytics/database code")

    def check_module(self, module: Module) -> Iterable[Finding]:
        if not module.package_startswith(*DECISION_SCOPES):
            return
        for node in walk_code(module):
            iters: list = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_bare_set(it):
                    yield module.finding(
                        self.code,
                        "iterating a set — order is hash-dependent; use a "
                        "list or sorted(...) so decisions are reproducible",
                        it)

    @staticmethod
    def _is_bare_set(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))


@register
class DictPopitem(Rule):
    """RL005 — ``dict.popitem()`` is an insertion-order dependency."""

    code = "RL005"
    name = "dict-popitem"
    summary = "dict.popitem() call — take an explicit key instead"

    def check_module(self, module: Module) -> Iterable[Finding]:
        if not module.in_package():
            return
        for node in walk_code(module):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "popitem"):
                yield module.finding(
                    self.code,
                    "popitem() pops by insertion order — evict by an "
                    "explicit, deterministic key instead", node)


@register
class EnvRead(Rule):
    """RL006 — environment reads live in the configuration layer only.

    ``REPRO_SCALE`` / ``REPRO_CACHE_DIR`` are resolved once, at the
    experiments/orchestrator boundary.  An env read inside a substrate
    would make results depend on invisible process state that never
    reaches a cache key or a report's provenance stamp.
    """

    code = "RL006"
    name = "env-read"
    summary = "os.environ/os.getenv outside repro.experiments/orchestrator"

    def check_module(self, module: Module) -> Iterable[Finding]:
        if not module.in_package() or module.package_startswith(*ENV_SCOPES):
            return
        for node in walk_code(module):
            name = dotted_name(node) if isinstance(node, ast.Attribute) else None
            if name in ("os.environ", "os.getenv"):
                yield module.finding(
                    self.code,
                    f"`{name}` outside the configuration layer "
                    f"(repro.experiments / repro.orchestrator) — results "
                    f"must not depend on hidden process state", node)
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                  and any(a.name in ("environ", "getenv")
                          for a in node.names)):
                yield module.finding(
                    self.code,
                    "importing environ/getenv outside the configuration "
                    "layer", node)
