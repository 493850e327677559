"""Cross-module contract rules (RL101, RL102 and RL104–RL108).

These rules extract facts from several modules at once — the partitioner
registry, the public API, the telemetry emitters, the ingest format — and
check that the pieces still agree.  Every anchor
module is located by its dotted suffix within the linted file set, so the
same rules run unchanged over the real tree and over miniature fixture
trees in the test suite; a rule whose anchors are absent simply does not
fire.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.tools.lint.engine import Finding, Module, Project, Rule, register

#: Scopes whose concrete partitioner classes must all be registered.
ALGORITHM_SCOPES = (
    ("repro", "partitioning", "edge_cut"),
    ("repro", "partitioning", "vertex_cut"),
    ("repro", "partitioning", "hybrid"),
)

PARTITIONER_BASES = frozenset({"VertexPartitioner", "EdgePartitioner"})


def _literal_str_dict(module: Module, name: str):
    """``name = {"k": <value>, ...}`` at top level → {key: (value_node, line)}."""
    for node in module.tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        if not any(isinstance(t, ast.Name) and t.id == name for t in targets):
            continue
        value = node.value
        if not isinstance(value, ast.Dict):
            return None
        out = {}
        for key, val in zip(value.keys, value.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                out[key.value] = (val, key.lineno)
        return out
    return None


def _literal_str_tuple(module: Module, name: str):
    """``name = ("a", "b", ...)`` at top level → {value: line}, else None."""
    for node in module.tree.body:
        if not (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            continue
        value = node.value
        if not isinstance(value, (ast.Tuple, ast.List)):
            return None
        out = {}
        for element in value.elts:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                return None  # dynamically built — don't guess
            out[element.value] = element.lineno
        return out
    return None


def _top_level_names(tree: ast.Module) -> set:
    """Names bound at module top level (descending into if/try blocks)."""
    names: set = set()

    def visit(body) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    _bind_target(target, names)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                _bind_target(node.target, names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        names.add("*")
                    else:
                        names.add(alias.asname or alias.name)
            elif isinstance(node, ast.If):
                visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.Try):
                visit(node.body)
                for handler in node.handlers:
                    visit(handler.body)
                visit(node.orelse)
                visit(node.finalbody)
            elif isinstance(node, (ast.For, ast.While, ast.With)):
                if isinstance(node, ast.For):
                    _bind_target(node.target, names)
                visit(node.body)
    visit(tree.body)
    return names


def _bind_target(target: ast.AST, names: set) -> None:
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind_target(element, names)


def _all_declaration(module: Module):
    """The ``__all__`` list node and its string entries, if literal."""
    for node in module.tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            entries = []
            for element in node.value.elts:
                if not (isinstance(element, ast.Constant)
                        and isinstance(element.value, str)):
                    return node, None  # dynamically built — don't guess
                entries.append((element.value, element.lineno,
                                element.col_offset))
            return node, entries
    return None, None


class _ClassIndex:
    """Class definitions across the project, resolvable through bases."""

    def __init__(self, project: Project):
        self.classes: dict = {}
        for module in project.package_modules():
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    # First definition wins; partitioner class names are
                    # unique in practice and in the fixtures.
                    self.classes.setdefault(node.name, (module, node))

    def accepts_seed(self, class_name: str):
        """Whether ``__init__`` (possibly inherited) takes ``seed``.

        Returns ``None`` when the chain leaves the analysed file set —
        an unknown is never reported as a contradiction.
        """
        seen: set = set()
        name: str | None = class_name
        while name and name not in seen:
            seen.add(name)
            entry = self.classes.get(name)
            if entry is None:
                return None
            _, node = entry
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name == "__init__"):
                    args = item.args
                    params = [a.arg for a in
                              args.posonlyargs + args.args + args.kwonlyargs]
                    return "seed" in params
            name = next((base.id for base in node.bases
                         if isinstance(base, ast.Name)), None)
        return None

    def inherits_partitioner(self, node: ast.ClassDef) -> bool:
        seen: set = set()
        stack = [node]
        while stack:
            current = stack.pop()
            for base in current.bases:
                base_name = base.id if isinstance(base, ast.Name) else (
                    base.attr if isinstance(base, ast.Attribute) else None)
                if base_name is None:
                    continue
                if base_name in PARTITIONER_BASES:
                    return True
                entry = self.classes.get(base_name)
                if entry is not None and base_name not in seen:
                    seen.add(base_name)
                    stack.append(entry[1])
        return False


@register
class RegistrySeedContract(Rule):
    """RL101 — the partitioner registry matches the constructors.

    Three sub-checks over ``partitioning/registry.py``: every factory has
    an ``accepts_seed`` flag, every flag matches whether the class's
    (possibly inherited) ``__init__`` takes ``seed``, and every concrete
    partitioner class under edge_cut/vertex_cut/hybrid is registered.
    The import-time ``_validate_seed_flags`` guard catches the first two
    at runtime; this rule catches them in review, plus the third, which
    no runtime check covers.
    """

    code = "RL101"
    name = "registry-seed-contract"
    summary = ("partitioning registry accepts_seed flags must match "
               "constructor signatures; concrete partitioners must be "
               "registered")

    def check_project(self, project: Project) -> Iterable[Finding]:
        registry = project.find("partitioning", "registry")
        if registry is None:
            return
        factories = _literal_str_dict(registry, "_FACTORIES")
        flags = _literal_str_dict(registry, "_ACCEPTS_SEED")
        if factories is None:
            return
        index = _ClassIndex(project)
        flags = flags or {}

        registered_classes: set = set()
        for name, (value_node, lineno) in sorted(factories.items()):
            class_name = value_node.id if isinstance(value_node, ast.Name) \
                else None
            if class_name:
                registered_classes.add(class_name)
            if name not in flags:
                yield Finding(self.code,
                              f"registry entry {name!r} has no "
                              f"_ACCEPTS_SEED flag",
                              str(registry.path), lineno)
                continue
            flag_node, flag_line = flags[name]
            if not (isinstance(flag_node, ast.Constant)
                    and isinstance(flag_node.value, bool)):
                continue
            if class_name is None:
                continue
            has_seed = index.accepts_seed(class_name)
            if has_seed is not None and has_seed != flag_node.value:
                yield Finding(
                    self.code,
                    f"accepts_seed flag for {name!r} is {flag_node.value} "
                    f"but {class_name}.__init__ "
                    f"{'takes' if has_seed else 'does not take'} a seed "
                    f"parameter", str(registry.path), flag_line)

        for name in sorted(set(flags) - set(factories)):
            yield Finding(self.code,
                          f"_ACCEPTS_SEED names {name!r} which is not a "
                          f"registered factory",
                          str(registry.path), flags[name][1])

        for module in project.package_modules():
            if not module.package_startswith(*ALGORITHM_SCOPES):
                continue
            for node in module.tree.body:
                if (isinstance(node, ast.ClassDef)
                        and not node.name.startswith("_")
                        and node.name not in registered_classes
                        and index.inherits_partitioner(node)):
                    yield module.finding(
                        self.code,
                        f"partitioner class {node.name} is not registered "
                        f"in partitioning/registry.py", node)


@register
class AllNamesResolve(Rule):
    """RL102 — every ``__all__`` entry is defined in its module."""

    code = "RL102"
    name = "all-resolves"
    summary = "__all__ names must be defined/imported; no duplicates"

    def check_module(self, module: Module) -> Iterable[Finding]:
        node, entries = _all_declaration(module)
        if node is None or entries is None:
            return
        defined = _top_level_names(module.tree)
        if "*" in defined:
            return  # a star import may bind anything — don't guess
        seen: set = set()
        for name, lineno, col in entries:
            if name in seen:
                yield Finding(self.code,
                              f"duplicate __all__ entry {name!r}",
                              str(module.path), lineno, col)
                continue
            seen.add(name)
            if name not in defined and name != "__version__":
                yield Finding(self.code,
                              f"__all__ names {name!r} which the module "
                              f"never defines or imports",
                              str(module.path), lineno, col)


#: A span name: at least two lowercase dotted segments (``db.hop``,
#: ``sgp.decision``) — and never a filename.
_SPAN_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
_FILE_SUFFIXES = (".py", ".json", ".jsonl", ".txt", ".md", ".csv", ".yml",
                  ".yaml", ".toml")


def _docstring_positions(tree: ast.Module) -> set:
    positions: set = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.ClassDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                positions.add((body[0].value.lineno,
                               body[0].value.col_offset))
    return positions


@register
class SpanNameContract(Rule):
    """RL104 — trace consumers only reference span names that are emitted.

    Emitted names are the literal first arguments of ``tracer.begin`` /
    ``tracer.point`` calls anywhere in the package; consumer literals in
    ``tools/trace_cli.py`` and ``telemetry/profile.py`` (filters, default
    reports) must come from that set, or the report would silently match
    nothing.
    """

    code = "RL104"
    name = "span-name-contract"
    summary = ("span-name literals in trace_cli/profile must be emitted "
               "by some tracer.begin/point call")

    consumer_suffixes = (("tools", "trace_cli"), ("telemetry", "profile"))

    def check_project(self, project: Project) -> Iterable[Finding]:
        emitted: set = set()
        emitters = 0
        for module in project.package_modules():
            for node in ast.walk(module.tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("begin", "point")
                        and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)):
                    emitted.add(node.args[0].value)
                    emitters += 1
        if not emitters:
            return  # no tracer in the linted set — nothing to check against
        for suffix in self.consumer_suffixes:
            module = project.find(*suffix)
            if module is None:
                continue
            yield from self._check_consumer(module, emitted)

    def _check_consumer(self, module: Module, emitted: set) -> Iterator[Finding]:
        docstrings = _docstring_positions(module.tree)
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                continue
            if (node.lineno, node.col_offset) in docstrings:
                continue
            value = node.value
            if (not _SPAN_NAME.match(value)
                    or value.endswith(_FILE_SUFFIXES)):
                continue
            if value not in emitted:
                yield Finding(
                    self.code,
                    f"span name {value!r} is referenced here but no "
                    f"tracer.begin/point call emits it",
                    str(module.path), node.lineno, node.col_offset)


@register
class PublicApiReexport(Rule):
    """RL105 — ``repro/__init__`` re-exports stay in ``__all__``.

    Every public name the package ``__init__`` imports from a subpackage
    is part of the advertised API surface; forgetting to list it in
    ``__all__`` makes ``from repro import *`` and the docs drift from
    what the code actually exposes.
    """

    code = "RL105"
    name = "public-api-reexport"
    summary = "names imported by repro/__init__.py must appear in __all__"

    def check_project(self, project: Project) -> Iterable[Finding]:
        module = project.find("repro")
        if module is None or module.package_parts != ("repro",):
            return
        _, entries = _all_declaration(module)
        if entries is None:
            return
        declared = {name for name, _, _ in entries}
        for node in module.tree.body:
            if not (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("repro")):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if name.startswith("_") or name == "*":
                    continue
                if name not in declared:
                    yield Finding(
                        self.code,
                        f"repro/__init__ imports {name!r} from "
                        f"{node.module} but __all__ does not list it",
                        str(module.path), node.lineno)


#: The dotted package prefix RL106 polices.
_SERVICE_SCOPE = ("repro", "service")
#: RNG constructors the service must import from ``repro.rng``.
_SERVICE_RNG_NAMES = frozenset({"make_rng", "derive_rng"})


@register
class ServiceSpanRegistry(Rule):
    """RL106 — the online service stays seeded and its spans registered.

    ``repro/service/__init__.py`` declares ``SPAN_NAMES``, the closed
    registry of telemetry span names the service may emit.  Two-way
    check: every literal ``tracer.begin``/``tracer.point`` name inside
    ``repro.service`` must be a ``service.``-prefixed member of the
    registry (an unregistered span silently escapes the trace tooling),
    and every registry entry must actually be emitted somewhere (a
    dangling entry documents telemetry that does not exist).  In the
    same scope, any call to ``make_rng``/``derive_rng`` must resolve to
    an import from ``repro.rng`` — a locally-defined shadow would let
    unseeded randomness into the seed-deterministic service loop.
    """

    code = "RL106"
    name = "service-span-registry"
    summary = ("repro.service span literals must be registered in "
               "SPAN_NAMES and rng constructors imported from repro.rng")

    def check_project(self, project: Project) -> Iterable[Finding]:
        init = project.find(*_SERVICE_SCOPE)
        if init is None or init.package_parts != _SERVICE_SCOPE:
            return  # no service package in the linted set
        registry = _literal_str_tuple(init, "SPAN_NAMES")
        if registry is None:
            yield Finding(
                self.code,
                "repro/service/__init__.py must declare SPAN_NAMES as a "
                "literal tuple of span-name strings",
                str(init.path), 1)
            return

        emitted: set = set()
        for module in project.package_modules():
            if not module.package_startswith(_SERVICE_SCOPE):
                continue
            yield from self._check_module(module, registry, emitted)

        for name in sorted(set(registry) - emitted):
            yield Finding(
                self.code,
                f"SPAN_NAMES registers {name!r} but no tracer.begin/point "
                f"call in repro.service emits it",
                str(init.path), registry[name])

    def _check_module(self, module: Module, registry: dict,
                      emitted: set) -> Iterator[Finding]:
        rng_imports: set = set()
        for node in module.tree.body:
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "repro.rng"):
                rng_imports.update(alias.asname or alias.name
                                   for alias in node.names)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in ("begin", "point")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                name = node.args[0].value
                emitted.add(name)
                if not name.startswith("service."):
                    yield module.finding(
                        self.code,
                        f"span {name!r} emitted in repro.service must use "
                        f"the 'service.' prefix", node.args[0])
                elif name not in registry:
                    yield module.finding(
                        self.code,
                        f"span {name!r} is not registered in "
                        f"repro/service/__init__.py SPAN_NAMES",
                        node.args[0])
            elif (isinstance(func, ast.Name)
                    and func.id in _SERVICE_RNG_NAMES
                    and func.id not in rng_imports):
                yield module.finding(
                    self.code,
                    f"{func.id}() in repro.service must be imported from "
                    f"repro.rng (seed-deterministic service loop)", func)


#: Registry methods whose first argument is a metric name.
_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})
#: The module that must declare the METRIC_NAMES export schema.
_METRIC_ANCHOR = ("telemetry", "metrics")


def _fstring_head(node: ast.JoinedStr) -> str:
    """The literal prefix of an f-string, up to the first ``{...}``."""
    head = []
    for part in node.values:
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            head.append(part.value)
        else:
            break
    return "".join(head)


@register
class MetricNameRegistry(Rule):
    """RL107 — every emitted metric name is registered, both ways.

    ``telemetry/metrics.py`` declares ``METRIC_NAMES``, the closed export
    schema of every metric the repo emits — the OpenMetrics exporter, the
    SLO indicators and the health dashboard all address series by these
    names, so an unregistered emission is a series those consumers cannot
    see, and a dangling entry documents telemetry that does not exist.
    Emissions are the literal first arguments of ``counter()`` /
    ``gauge()`` / ``histogram()`` calls (attribute or aliased-name form)
    anywhere in the package; dynamic f-string names (the orchestrator's
    ``cache.{outcome}`` family) must fall under a ``.*`` wildcard entry
    covering their literal prefix.  The tuple must also stay sorted, so
    diffs against the schema remain one-line.
    """

    code = "RL107"
    name = "metric-name-registry"
    summary = ("metric names passed to counter()/gauge()/histogram() must "
               "be registered in telemetry/metrics.py METRIC_NAMES, every "
               "entry must have an emitter, and the tuple stays sorted")

    def check_project(self, project: Project) -> Iterable[Finding]:
        anchor = project.find(*_METRIC_ANCHOR)
        if anchor is None:
            return  # no metrics registry in the linted set
        registry = _literal_str_tuple(anchor, "METRIC_NAMES")
        if registry is None:
            yield Finding(
                self.code,
                "telemetry/metrics.py must declare METRIC_NAMES as a "
                "literal tuple of metric-name strings",
                str(anchor.path), 1)
            return

        entries = list(registry)
        if entries != sorted(entries):
            first = next(name for prev, name in zip(entries, entries[1:])
                         if name < prev)
            yield Finding(
                self.code,
                f"METRIC_NAMES must be sorted; {first!r} is out of order",
                str(anchor.path), registry[first])

        wildcards = [name for name in registry if name.endswith(".*")]
        emitted_exact: dict = {}
        emitted_heads: dict = {}
        for module in project.package_modules():
            if module is anchor:
                continue  # the registry's own class definitions
            yield from self._check_module(module, registry, wildcards,
                                          emitted_exact, emitted_heads)

        for name in sorted(registry):
            if name in wildcards:
                prefix = name[:-1]
                covered = (any(e.startswith(prefix) for e in emitted_exact)
                           or any(h.startswith(prefix) or prefix.startswith(h)
                                  for h in emitted_heads))
            else:
                covered = name in emitted_exact
            if not covered:
                yield Finding(
                    self.code,
                    f"METRIC_NAMES registers {name!r} but no "
                    f"counter()/gauge()/histogram() call emits it",
                    str(anchor.path), registry[name])

    def _check_module(self, module: Module, registry: dict, wildcards,
                      emitted_exact: dict, emitted_heads: dict
                      ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            method = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if method not in _METRIC_METHODS:
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
                emitted_exact.setdefault(name, module)
                if not self._registered(name, registry, wildcards):
                    yield module.finding(
                        self.code,
                        f"metric {name!r} is not registered in "
                        f"telemetry/metrics.py METRIC_NAMES", arg)
            elif isinstance(arg, ast.JoinedStr):
                head = _fstring_head(arg)
                if not head:
                    continue  # fully dynamic — don't guess
                emitted_heads.setdefault(head, module)
                if not any(head.startswith(w[:-1]) or w[:-1].startswith(head)
                           for w in wildcards):
                    yield module.finding(
                        self.code,
                        f"dynamic metric family {head + '{...}'!r} has no "
                        f"covering '.*' wildcard in METRIC_NAMES", arg)

    @staticmethod
    def _registered(name: str, registry: dict, wildcards) -> bool:
        if name in registry:
            return True
        return any(name.startswith(entry[:-1]) for entry in wildcards)


#: The package that owns raw binary stream I/O.
_INGEST_SCOPE = ("repro", "ingest")
#: Non-ingest modules allowed to open files binarily (the artifact
#: cache's pickle blobs predate the ingest subsystem).
_BINARY_IO_ALLOWED = (("orchestrator", "cache"),)
#: Functions whose literal mode argument marks a binary open.
_OPEN_FUNCTIONS = frozenset({"open", "fdopen"})


def _binary_mode_arg(node: ast.Call):
    """The mode node of an ``open``/``fdopen`` call when it is a literal
    string containing ``'b'``, else None."""
    mode = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and "b" in mode.value):
        return mode
    return None


@register
class IngestBinaryFormat(Rule):
    """RL108 — binary stream I/O stays inside ``repro.ingest`` and the
    writer/reader agree on one magic/version.

    The ``.redg`` on-disk format has exactly one definition:
    ``ingest/format.py`` declares ``MAGIC`` (a bytes literal) and
    ``FORMAT_VERSION`` (an int literal), and both the writer and the
    reader must reference *those names* — a module hard-coding its own
    magic bytes would let the two sides of the format drift apart
    silently.  Containment is checked too: ``numpy.memmap`` and
    binary-mode ``open()``/``fdopen()`` calls outside ``repro.ingest``
    (the orchestrator's pickle-blob cache excepted) bypass the format's
    validation and versioning, so they are flagged wherever they appear
    in the package.
    """

    code = "RL108"
    name = "ingest-binary-format"
    summary = ("np.memmap / binary-mode open() only inside repro.ingest; "
               "writer and reader must share format.py's MAGIC and "
               "FORMAT_VERSION constants")

    def check_project(self, project: Project) -> Iterable[Finding]:
        for module in project.package_modules():
            if module.package_startswith(_INGEST_SCOPE):
                continue
            if any(module.package_parts[-len(suffix):] == suffix
                   for suffix in _BINARY_IO_ALLOWED):
                continue
            yield from self._check_containment(module)

        format_mod = project.find("ingest", "format")
        if format_mod is None:
            return  # no ingest package in the linted set
        yield from self._check_constants(format_mod)
        for suffix in (("ingest", "writer"), ("ingest", "reader")):
            module = project.find(*suffix)
            if module is None:
                continue
            referenced = {node.id for node in ast.walk(module.tree)
                          if isinstance(node, ast.Name)}
            referenced |= {node.attr for node in ast.walk(module.tree)
                           if isinstance(node, ast.Attribute)}
            for constant in ("MAGIC", "FORMAT_VERSION"):
                if constant not in referenced:
                    yield Finding(
                        self.code,
                        f"{'/'.join(suffix)}.py never references "
                        f"{constant} from ingest/format.py — the two "
                        f"sides of the .redg format can drift",
                        str(module.path), 1)

    def _check_containment(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "memmap":
                yield module.finding(
                    self.code,
                    "numpy.memmap outside repro.ingest — raw binary "
                    "stream access belongs behind the .redg reader", node)
                continue
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name in _OPEN_FUNCTIONS:
                mode = _binary_mode_arg(node)
                if mode is not None:
                    yield module.finding(
                        self.code,
                        f"binary-mode {name}() outside repro.ingest — "
                        f"raw stream files are owned by the ingest "
                        f"subsystem", mode)

    def _check_constants(self, format_mod: Module) -> Iterator[Finding]:
        constants: dict = {}
        for node in format_mod.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        constants[target.id] = node.value
        magic = constants.get("MAGIC")
        if not (isinstance(magic, ast.Constant)
                and isinstance(magic.value, bytes)):
            yield Finding(
                self.code,
                "ingest/format.py must define MAGIC as a bytes literal",
                str(format_mod.path), 1)
        version = constants.get("FORMAT_VERSION")
        if not (isinstance(version, ast.Constant)
                and isinstance(version.value, int)):
            yield Finding(
                self.code,
                "ingest/format.py must define FORMAT_VERSION as an int "
                "literal",
                str(format_mod.path), 1)
