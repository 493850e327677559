"""Tests for reprolint (`repro.tools.lint`).

Each shipped rule gets a miniature fixture tree (written to ``tmp_path``
so no bad code is ever checked in) where the rule fires with its expected
``RLxxx`` code at the expected ``file:line`` — plus the top-level
guarantee that the *real* tree is clean.  The fixture sources live in
this file as strings; reprolint parses ASTs, so banned patterns inside
string literals never trigger it.
"""

from pathlib import Path

import pytest

from repro.tools.lint import all_rules, run_lint
from repro.tools.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE
from repro.tools.lint.cli import main as lint_main
from repro.tools.lint.engine import _package_parts

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_tree(root: Path, files: dict) -> Path:
    """Materialise ``{relative_path: source}`` under *root*."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def findings_for(tmp_path: Path, files: dict, **kwargs):
    return run_lint([write_tree(tmp_path, files)], **kwargs).findings


def single(findings, code: str):
    matching = [f for f in findings if f.code == code]
    assert len(matching) == 1, (code, [f.render() for f in findings])
    return matching[0]


# ----------------------------------------------------------------------
# The real tree is clean — the acceptance criterion behind `repro lint`.
# ----------------------------------------------------------------------
class TestRealTree:
    def test_src_is_clean(self):
        result = run_lint([REPO_ROOT / "src"])
        assert result.clean, [f.render() for f in result.findings]
        assert result.files_checked > 50

    def test_tests_and_benchmarks_are_clean(self):
        result = run_lint([REPO_ROOT / "tests", REPO_ROOT / "benchmarks"])
        assert result.clean, [f.render() for f in result.findings]

    def test_rule_catalogue_is_stable(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == sorted(codes)
        assert codes == ["RL001", "RL002", "RL003", "RL004", "RL005",
                         "RL006", "RL108",
                         "RL201", "RL202", "RL203",
                         "RL210", "RL211", "RL212", "RL213"]
        assert all(rule.summary for rule in all_rules())


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
class TestEngine:
    def test_package_parts(self):
        assert _package_parts(Path("src/repro/rng.py")) == ("repro", "rng")
        assert _package_parts(Path("src/repro/database/mutations.py")) == \
            ("repro", "database", "mutations")
        assert _package_parts(Path("src/repro/__init__.py")) == ("repro",)
        assert _package_parts(Path("tests/test_rng.py")) == ()
        assert _package_parts(Path("repro.py")) == ()

    def test_inline_pragma_suppresses(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/database/bad.py":
                "import numpy as np\n"
                "rng = np.random.default_rng(7)"
                "  # reprolint: ignore[RL001]\n",
        })
        assert findings == []

    def test_inline_pragma_is_code_specific(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/database/bad.py":
                "import numpy as np\n"
                "rng = np.random.default_rng(7)"
                "  # reprolint: ignore[RL005]\n",
        })
        assert [f.code for f in findings] == ["RL001"]

    def test_pragma_covers_multiline_statement(self, tmp_path):
        """Pragma on the first physical line of a statement suppresses
        findings attached to its continuation lines (regression: the
        pragma used to be matched against the finding's line only)."""
        findings = findings_for(tmp_path, {
            "repro/database/bad.py":
                "import numpy as np\n"
                "rng = make(  # reprolint: ignore[RL001]\n"
                "    np.random.default_rng(7),\n"
                ")\n"
                "def make(x):\n"
                "    return x\n",
        })
        assert findings == []

    def test_pragma_covers_decorated_def_header(self, tmp_path):
        """A pragma on the ``def`` line suppresses findings anchored to
        its decorators (whose linenos precede the def), and vice versa."""
        files = {
            "repro/database/deco.py":
                "import numpy as np\n"
                "def reg(rng):\n"
                "    def wrap(fn):\n"
                "        return fn\n"
                "    return wrap\n"
                "@reg(np.random.default_rng(7))\n"
                "def handler():  # reprolint: ignore[RL001]\n"
                "    return 1\n",
        }
        assert findings_for(tmp_path, files) == []
        # The same pragma on the decorator line works too.
        files_decorator = {
            "repro/database/deco2.py":
                "import numpy as np\n"
                "def reg(rng):\n"
                "    def wrap(fn):\n"
                "        return fn\n"
                "    return wrap\n"
                "@reg(np.random.default_rng(7))  # reprolint: ignore[RL001]\n"
                "def handler():\n"
                "    return 1\n",
        }
        assert findings_for(tmp_path / "b", files_decorator) == []

    def test_pragma_on_def_does_not_silence_body(self, tmp_path):
        """Header suppression stops at the first body statement."""
        findings = findings_for(tmp_path, {
            "repro/database/body.py":
                "import numpy as np\n"
                "def build():  # reprolint: ignore[RL001]\n"
                "    return np.random.default_rng(7)\n",
        })
        assert [f.code for f in findings] == ["RL001"]

    def test_ast_walk_is_cached_per_module(self, tmp_path):
        """All rules share one flattened node list per parsed file."""
        from repro.tools.lint.engine import Module

        path = write_tree(tmp_path, {
            "repro/database/m.py": "x = 1\n",
        }) / "repro/database/m.py"
        module = Module(path, path.read_text())
        assert module.all_nodes is module.all_nodes
        import ast
        assert module.nodes(ast.Assign) == [
            n for n in module.all_nodes if isinstance(n, ast.Assign)]

    def test_file_pragma_skips_whole_file(self, tmp_path):
        result = run_lint([write_tree(tmp_path, {
            "repro/database/bad.py":
                "# reprolint: ignore-file\n"
                "import numpy as np\n"
                "rng = np.random.default_rng(7)\n",
        })])
        assert result.clean
        assert result.files_skipped == 1

    def test_syntax_error_is_rl000(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/database/broken.py": "def oops(:\n",
        })
        finding = single(findings, "RL000")
        assert "does not parse" in finding.message

    def test_select_and_ignore(self, tmp_path):
        files = {
            "repro/database/bad.py":
                "import numpy as np\n"
                "import random\n"
                "rng = np.random.default_rng(7)\n",
        }
        only_rl002 = findings_for(tmp_path, files, select=["RL002"])
        assert [f.code for f in only_rl002] == ["RL002"]
        without_rl001 = findings_for(tmp_path / "b", files, ignore=["RL001"])
        assert [f.code for f in without_rl001] == ["RL002"]

    def test_findings_are_deterministically_ordered(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/database/b.py": "import random\n",
            "repro/database/a.py": "import random\n",
        })
        assert [Path(f.path).name for f in findings] == ["a.py", "b.py"]


# ----------------------------------------------------------------------
# Determinism rules
# ----------------------------------------------------------------------
class TestDeterminismRules:
    def test_rl001_mutations_regression_fixture(self, tmp_path):
        """Re-introducing the original mutations.py violation is caught.

        This is a cut-down copy of the pre-fix
        ``src/repro/database/mutations.py`` interleaving code — the first
        real finding reprolint ever produced.
        """
        findings = findings_for(tmp_path, {
            "repro/database/mutations.py": (
                "import numpy as np\n"
                "\n"
                "def mixed_read_write_bindings(bindings, seed_offset=0):\n"
                "    # Interleave deterministically so writes spread over "
                "the run.\n"
                "    rng = np.random.default_rng(1000 + seed_offset)\n"
                "    order = rng.permutation(len(bindings))\n"
                "    return [bindings[i] for i in order.tolist()]\n"
            ),
        })
        finding = single(findings, "RL001")
        assert finding.path.endswith("repro/database/mutations.py")
        assert finding.line == 5
        assert "make_rng" in finding.message

    def test_rl001_allows_rng_module_itself(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/rng.py":
                "import numpy as np\n"
                "def make_rng(seed=None):\n"
                "    return np.random.default_rng(seed)\n",
        })
        assert findings == []

    def test_rl001_generator_annotations_are_fine(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/partitioning/thing.py":
                "import numpy as np\n"
                "def f(rng: np.random.Generator) -> np.random.Generator:\n"
                "    return rng\n",
        })
        assert findings == []

    def test_rl001_from_import(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/graph/gen.py": "from numpy.random import default_rng\n",
        })
        assert single(findings, "RL001").line == 1

    def test_rl002_stdlib_random(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/graph/gen.py": "import random\n",
            "repro/database/ids.py": "from secrets import token_hex\n",
        })
        assert sorted(f.code for f in findings) == ["RL002", "RL002"]

    def test_rl003_wall_clock_in_simulated_time(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/database/simulation.py":
                "import time\n"
                "def now():\n"
                "    return time.time()\n",
        })
        finding = single(findings, "RL003")
        assert finding.line == 3
        assert "wall-clock" in finding.message

    def test_rl003_allows_wall_clock_in_cli_layers(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/experiments/cli.py":
                "import time\n"
                "started = time.time()\n",
        })
        assert findings == []

    def test_rl003_datetime_now(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/faults.py":
                "import datetime\n"
                "stamp = datetime.datetime.now()\n",
        })
        assert single(findings, "RL003").line == 2

    def test_rl004_set_iteration_in_decision_path(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/partitioning/choice.py":
                "def pick(xs):\n"
                "    for candidate in set(xs):\n"
                "        return candidate\n",
        })
        finding = single(findings, "RL004")
        assert finding.line == 2

    def test_rl004_sorted_set_is_fine(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/partitioning/choice.py":
                "def pick(xs):\n"
                "    for candidate in sorted(set(xs)):\n"
                "        return candidate\n",
        })
        assert findings == []

    def test_rl004_set_comprehension_source(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/analytics/agg.py":
                "def owners(parts):\n"
                "    return [p for p in {x.owner for x in parts}]\n",
        })
        assert single(findings, "RL004").line == 2

    def test_rl005_popitem(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/graph/cacheish.py":
                "def evict(d):\n"
                "    return d.popitem()\n",
        })
        assert single(findings, "RL005").line == 2

    def test_rl006_env_read_outside_config_layer(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/partitioning/tuning.py":
                "import os\n"
                "GAMMA = float(os.environ.get('REPRO_GAMMA', '1.5'))\n",
        })
        assert single(findings, "RL006").line == 2

    def test_rl006_allows_experiments_and_orchestrator(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/experiments/datasets.py":
                "import os\n"
                "scale = os.environ.get('REPRO_SCALE', 'default')\n",
            "repro/orchestrator/cache.py":
                "import os\n"
                "root = os.environ.get('REPRO_CACHE_DIR', '.repro-cache')\n",
        })
        assert findings == []


# ----------------------------------------------------------------------
# Contract rules
# ----------------------------------------------------------------------
class TestOtherContracts:
    def test_rl108_memmap_outside_ingest(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/graph/cachefile.py":
                "import numpy as np\n"
                "def load(path):\n"
                "    return np.memmap(path, dtype='<u8', mode='r')\n",
        })
        finding = single(findings, "RL108")
        assert "memmap" in finding.message
        assert finding.line == 3

    def test_rl108_binary_open_outside_ingest(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/database/dump.py":
                "def save(path, blob):\n"
                "    with open(path, 'wb') as fh:\n"
                "        fh.write(blob)\n",
        })
        finding = single(findings, "RL108")
        assert "binary-mode open()" in finding.message
        assert finding.path.endswith("database/dump.py")

    def test_rl108_cache_module_is_allowlisted(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/orchestrator/cache.py":
                "def save(path, blob):\n"
                "    with open(path, mode='wb') as fh:\n"
                "        fh.write(blob)\n",
        })
        assert findings == []

    def test_rl108_writer_must_reference_format_constants(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/ingest/format.py":
                "MAGIC = b'REPROEDG'\n"
                "FORMAT_VERSION = 1\n",
            "repro/ingest/writer.py":
                "from repro.ingest.format import FORMAT_VERSION\n"
                "def write(fh):\n"
                "    fh.write(bytes([FORMAT_VERSION]))\n",
        })
        finding = single(findings, "RL108")
        assert "MAGIC" in finding.message
        assert finding.path.endswith("ingest/writer.py")

    def test_rl108_magic_must_be_a_bytes_literal(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/ingest/format.py":
                "MAGIC = 'REPROEDG'\n"   # str, not bytes
                "FORMAT_VERSION = 1\n",
        })
        finding = single(findings, "RL108")
        assert "bytes literal" in finding.message

    def test_rl108_clean_ingest_fixture(self, tmp_path):
        # Binary I/O and memmap are fine *inside* repro.ingest, and both
        # sides of the format reference the shared constants.
        findings = findings_for(tmp_path, {
            "repro/ingest/format.py":
                "MAGIC = b'REPROEDG'\n"
                "FORMAT_VERSION = 1\n",
            "repro/ingest/writer.py":
                "from repro.ingest.format import FORMAT_VERSION, MAGIC\n"
                "def write(path):\n"
                "    with open(path, 'wb') as fh:\n"
                "        fh.write(MAGIC)\n"
                "        fh.write(bytes([FORMAT_VERSION]))\n",
            "repro/ingest/reader.py":
                "import numpy as np\n"
                "from repro.ingest.format import FORMAT_VERSION, MAGIC\n"
                "def read(path):\n"
                "    data = np.memmap(path, dtype='<u8', mode='r')\n"
                "    return MAGIC, FORMAT_VERSION, data\n",
        })
        assert [f.code for f in findings] == []


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, {"repro/graph/ok.py": "x = 1\n"})
        assert lint_main([str(tmp_path)]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().err

    def test_findings_exit_nonzero_with_location(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "repro/database/bad.py":
                "import numpy as np\n"
                "rng = np.random.default_rng(7)\n",
        })
        assert lint_main([str(tmp_path)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RL001" in out
        assert "repro/database/bad.py:2:" in out

    def test_json_format(self, tmp_path, capsys):
        import json

        write_tree(tmp_path, {
            "repro/database/bad.py": "import random\n",
        })
        assert lint_main([str(tmp_path), "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["code"] == "RL002"
        assert payload["findings"][0]["line"] == 1
        assert "RL108" in payload["rules"]

    def test_json_schema_is_versioned(self, tmp_path, capsys):
        import json

        write_tree(tmp_path, {"repro/graph/ok.py": "x = 1\n"})
        assert lint_main([str(tmp_path), "--format", "json"]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint/1"

    def test_json_output_is_byte_stable(self, tmp_path, capsys):
        """Two runs over the same tree emit byte-identical JSON."""
        write_tree(tmp_path, {
            "repro/database/one.py": "import random\n",
            "repro/database/two.py": "import time\nnow = time.time()\n",
        })
        outputs = []
        for _ in range(2):
            assert lint_main([str(tmp_path), "--format",
                              "json"]) == EXIT_FINDINGS
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_select_and_ignore_interact(self, tmp_path, capsys):
        tree = write_tree(tmp_path, {
            "repro/database/bad.py":
                "import random\n"
                "import time\n"
                "now = time.time()\n",
        })
        # select narrows to the listed codes ...
        assert lint_main([str(tree), "--select", "RL002"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RL002" in out and "RL003" not in out
        # ... and ignore subtracts from the selection.
        assert lint_main([str(tree), "--select", "RL002,RL003",
                          "--ignore", "RL002"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RL003" in out and "RL002" not in out
        assert lint_main([str(tree), "--select", "RL002",
                          "--ignore", "RL002"]) == EXIT_CLEAN

    def test_unknown_rule_code_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "RL999"]) == EXIT_USAGE
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        """A misspelt path fails before any linting instead of passing
        as a clean run over zero files."""
        write_tree(tmp_path, {"repro/database/bad.py": "import random\n"})
        typo, gone = tmp_path / "scr", tmp_path / "nope.py"
        assert lint_main([str(tmp_path), str(typo), str(gone)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"no such file or directory: {typo}",
            f"no such file or directory: {gone}"]
        assert captured.out == ""

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("RL001", "RL006", "RL108", "RL201"):
            assert code in out

    def test_python_m_repro_lint_dispatch(self, tmp_path, capsys):
        from repro.experiments.cli import main as repro_main

        write_tree(tmp_path, {
            "repro/database/bad.py": "import random\n",
        })
        assert repro_main(["lint", str(tmp_path)]) == EXIT_FINDINGS
        assert repro_main(["lint", str(tmp_path), "--ignore",
                           "RL002"]) == EXIT_CLEAN


@pytest.mark.parametrize("code", [r.code for r in all_rules()])
def test_every_rule_has_a_firing_fixture(code):
    """Meta-test: the fixture suites cover every registered rule code.

    RL0xx/RL1xx fixtures live here; the interprocedural RL2xx fixtures
    live in ``test_lint_dataflow.py``.
    """
    here = Path(__file__)
    source = here.read_text() + \
        (here.parent / "test_lint_dataflow.py").read_text()
    assert f'"{code}"' in source or f"'{code}'" in source


@pytest.mark.parametrize("code", [r.code for r in all_rules()])
def test_every_rule_is_documented(code):
    """Docs-drift contract: every rule appears in docs/static_analysis.md."""
    docs = (REPO_ROOT / "docs" / "static_analysis.md").read_text()
    assert code in docs, f"{code} missing from docs/static_analysis.md"
