"""reprolint — AST-based invariants checker for this repository.

The paper's methodology depends on bit-for-bit reproducible runs, and the
repo enforces that contract by *convention*: everything stochastic draws
randomness through :mod:`repro.rng`, simulated-time substrates never read
the wall clock, and only :mod:`repro.ingest` touches the binary stream
format.  Conventions drift.  ``reprolint`` turns each one into a static
rule checked over the AST: per-file determinism rules (``RL0xx``), a
cross-module contract rule (``RL108``, the ingest format) and
whole-program dataflow rules over the project call graph (``RL2xx`` —
seed provenance, wall-clock purity, process-boundary hygiene).
A determinism violation is caught in review — before it silently
changes every downstream assignment, poisons a cache key, or breaks the
serial≡parallel digest guarantee.  Contracts that a registry can check on
the live objects (the partitioner registry's seed keyword, the metric
and span names) are checked there and in the tests, not here.

Run it as ``python -m repro lint [paths]`` or via the ``repro-lint``
console script; see ``docs/static_analysis.md`` for the rule catalogue.
"""

from repro.tools.lint.engine import (
    Finding,
    LintResult,
    Module,
    Project,
    Rule,
    all_rules,
    register,
    run_lint,
)

__all__ = [
    "Finding",
    "LintResult",
    "Module",
    "Project",
    "Rule",
    "all_rules",
    "register",
    "run_lint",
]
