"""The reprolint rule engine.

Small by design: a :class:`Rule` sees parsed modules (AST + source lines +
package location) and yields :class:`Finding` objects.  Rules come in two
shapes — per-module checks (``check_module``) for local determinism
violations, and project-wide checks (``check_project``) for cross-module
contracts such as "the ingest writer and reader share one format's magic
and version".  The engine handles file collection, pragma suppression
(``# reprolint: ignore[RL001]`` on the offending line, or
``# reprolint: ignore-file`` near the top of a file), rule selection and
deterministic ordering of the output.

Package scoping: a file belongs to the ``repro`` package when a ``repro``
directory appears on its path (``src/repro/...`` in this repo, or any
fixture tree that mimics the layout).  Library-only rules key off that, so
``python -m repro lint src tests benchmarks`` never flags test harness
code for, say, seeding its own numpy generators.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

#: Code reserved for files the engine itself cannot parse.
SYNTAX_ERROR_CODE = "RL000"

_PRAGMA = re.compile(r"#\s*reprolint:\s*ignore\[(?P<codes>[A-Za-z0-9,\s]+)\]")
_FILE_PRAGMA = re.compile(r"#\s*reprolint:\s*ignore-file\b")
#: ``ignore-file`` must appear in the first few lines, like a coding cookie.
_FILE_PRAGMA_WINDOW = 5

_SKIP_DIRS = {"__pycache__", ".git", ".repro-cache", ".mypy_cache",
              ".ruff_cache", ".pytest_cache", "build", "dist"}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message,
                "path": self.path, "line": self.line, "col": self.col}

    def render(self) -> str:
        return f"{self.location}: {self.code} {self.message}"


class Module:
    """A parsed source file plus the context rules need.

    Each file is parsed exactly once, and the flattened node list is
    memoised on first use (``all_nodes``/``nodes``) so the dozens of
    registered rules share one AST walk instead of re-walking the tree
    per rule family.
    """

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.package_parts = _package_parts(path)
        self._all_nodes: list | None = None
        self._ignored_by_line: dict | None = None

    @property
    def module_name(self) -> str:
        """Dotted module path within the ``repro`` package ('' outside it)."""
        return ".".join(self.package_parts)

    def in_package(self) -> bool:
        return bool(self.package_parts)

    def package_startswith(self, *prefixes: Sequence[str]) -> bool:
        """True when the module lives under any of the given part tuples."""
        return any(self.package_parts[:len(p)] == tuple(p) for p in prefixes)

    def finding(self, code: str, message: str, node: ast.AST) -> Finding:
        return Finding(code=code, message=message, path=str(self.path),
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0))

    @property
    def all_nodes(self) -> list:
        """Every AST node, flattened once and cached for all rules."""
        if self._all_nodes is None:
            self._all_nodes = list(ast.walk(self.tree))
        return self._all_nodes

    def nodes(self, *types: type) -> list:
        """Cached nodes, optionally filtered by AST node type(s)."""
        if not types:
            return self.all_nodes
        return [n for n in self.all_nodes if isinstance(n, types)]

    def ignored_codes(self, line: int) -> set:
        """Codes suppressed at 1-based *line* by an inline pragma.

        A pragma suppresses its whole *logical statement*, not just its
        own physical line: a ``# reprolint: ignore[RL001]`` on the first
        line of a multi-line call covers findings on its continuation
        lines, and a pragma anywhere in a decorated ``def``/``class``
        header (decorators through the signature) covers the header even
        though the AST node's ``lineno`` points at the decorator.
        """
        if self._ignored_by_line is None:
            self._ignored_by_line = self._build_suppressions()
        return self._ignored_by_line.get(line, set())

    def _build_suppressions(self) -> dict:
        """Map each 1-based line to the codes suppressed there."""
        by_line: dict = {}
        for number, text in enumerate(self.lines, start=1):
            codes = _pragma_codes(text)
            if codes:
                by_line[number] = set(codes)
        if not by_line:
            return by_line
        # Widen every pragma to its statement's suppression region so a
        # pragma on any physical line of the region covers all of it.
        for start, end in self._suppression_regions():
            region_codes: set = set()
            for line in range(start, end + 1):
                region_codes |= by_line.get(line, set())
            if not region_codes:
                continue
            for line in range(start, end + 1):
                by_line.setdefault(line, set()).update(region_codes)
        return by_line

    def _suppression_regions(self) -> Iterator:
        """(start, end) line spans a single pragma should cover.

        Simple statements span their full physical extent.  Compound
        statements (defs, classes, loops, ...) contribute only their
        *header* — decorators through the line before the first body
        statement — so a pragma on a ``def`` never silences the body.
        """
        for node in self.all_nodes:
            if not isinstance(node, ast.stmt):
                continue
            start = node.lineno
            decorators = getattr(node, "decorator_list", [])
            for decorator in decorators:
                start = min(start, decorator.lineno)
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                end = max(start, body[0].lineno - 1)
            else:
                end = getattr(node, "end_lineno", None) or node.lineno
            if end > start or decorators:
                yield start, end


def _pragma_codes(text: str) -> set:
    """Codes named by an inline ``# reprolint: ignore[...]`` pragma."""
    match = _PRAGMA.search(text)
    if not match:
        return set()
    return {code.strip().upper()
            for code in match.group("codes").split(",") if code.strip()}


def _package_parts(path: Path) -> tuple:
    """Module path from the last ``repro`` directory onward, if any.

    ``src/repro/database/mutations.py`` → ``('repro', 'database',
    'mutations')``; package ``__init__`` files collapse onto the package
    itself, and files outside any ``repro`` directory yield ``()``.
    """
    parts = list(path.parts)
    if "repro" not in parts[:-1]:
        return ()
    start = len(parts) - 2 - parts[:-1][::-1].index("repro")
    module_parts = parts[start:-1] + [path.stem]
    if module_parts[-1] == "__init__":
        module_parts = module_parts[:-1]
    return tuple(module_parts)


class Project:
    """Every successfully parsed module in one lint run."""

    def __init__(self, modules: Sequence[Module]):
        self.modules = list(modules)

    def find(self, *suffix: str) -> Module | None:
        """The unique in-package module whose dotted path ends in *suffix*."""
        for module in self.modules:
            if module.package_parts[-len(suffix):] == tuple(suffix):
                return module
        return None

    def package_modules(self) -> Iterator[Module]:
        return (m for m in self.modules if m.in_package())


class Rule:
    """Base class; subclasses set ``code``/``name``/``summary``."""

    code = "RL999"
    name = "unnamed"
    summary = ""

    def check_module(self, module: Module) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()


_REGISTRY: list = []


def register(rule_cls: Callable[[], Rule]):
    """Class decorator adding a rule to the engine's registry."""
    _REGISTRY.append(rule_cls)
    return rule_cls


def all_rules() -> list:
    """Fresh instances of every registered rule, in code order."""
    _load_rule_modules()
    return sorted((cls() for cls in _REGISTRY), key=lambda r: r.code)


def _load_rule_modules() -> None:
    # Imported lazily so `import repro.tools.lint.engine` alone never
    # pays for (or fails on) the rule modules.
    from repro.tools.lint import (  # noqa: F401
        dataflow,
        rules_contracts,
        rules_determinism,
        rules_process,
    )


@dataclass
class LintResult:
    """Outcome of one :func:`run_lint` call."""

    findings: list = field(default_factory=list)
    files_checked: int = 0
    files_skipped: int = 0
    rules: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    #: Versioned identifier for the ``--format json`` payload shape.
    SCHEMA = "repro.lint/1"

    def to_dict(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "clean": self.clean,
            "files_checked": self.files_checked,
            "files_skipped": self.files_skipped,
            "rules": list(self.rules),
            "findings": [f.to_dict() for f in self.findings],
        }


def collect_files(paths: Iterable) -> list:
    """All ``.py`` files under *paths*, deterministically ordered."""
    out: set = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.update(p for p in path.rglob("*.py")
                       if not _SKIP_DIRS.intersection(p.parts))
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def _has_file_pragma(source: str) -> bool:
    head = source.splitlines()[:_FILE_PRAGMA_WINDOW]
    return any(_FILE_PRAGMA.search(line) for line in head)


def run_lint(paths: Iterable, select: Iterable | None = None,
             ignore: Iterable | None = None) -> LintResult:
    """Lint *paths* with every registered rule; returns all live findings.

    *select*/*ignore* restrict by rule code (select wins first, then
    ignore removes).  Findings suppressed by inline pragmas are dropped;
    unparsable files produce an ``RL000`` finding rather than a crash.
    """
    selected = {c.upper() for c in select} if select else None
    ignored = {c.upper() for c in ignore} if ignore else set()
    rules = [r for r in all_rules()
             if (selected is None or r.code in selected)
             and r.code not in ignored]

    result = LintResult(rules=[r.code for r in rules])
    modules: list = []
    by_path: dict = {}
    for path in collect_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            result.files_skipped += 1
            continue
        if _has_file_pragma(source):
            result.files_skipped += 1
            continue
        try:
            module = Module(path, source)
        except SyntaxError as error:
            result.files_checked += 1
            if SYNTAX_ERROR_CODE not in ignored:
                result.findings.append(Finding(
                    code=SYNTAX_ERROR_CODE,
                    message=f"file does not parse: {error.msg}",
                    path=str(path), line=error.lineno or 1,
                    col=(error.offset or 1) - 1))
            continue
        result.files_checked += 1
        modules.append(module)
        by_path[str(path)] = module

    project = Project(modules)
    raw: list = []
    for rule in rules:
        for module in modules:
            raw.extend(rule.check_module(module))
        raw.extend(rule.check_project(project))

    for finding in raw:
        module = by_path.get(finding.path)
        if module is not None and finding.code in module.ignored_codes(finding.line):
            continue
        result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return result
