"""Cross-module contract rule RL108: one owner for the binary stream format.

The rule reads facts from several modules at once — the ingest format's
constants, the writer and reader that use them, and every module that
opens files — and checks that the pieces still agree.  Each anchor
module is located by its dotted suffix within the linted file set, so
the same rule runs unchanged over the real tree and over miniature
fixture trees in the test suite; when its anchors are absent it does
not fire.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.tools.lint.engine import Finding, Module, Project, Rule, register

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
