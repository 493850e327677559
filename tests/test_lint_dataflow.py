"""Fixture tests for reprolint's interprocedural layer (RL2xx).

The RL0xx per-file rules and the RL108 contract rule are covered in
``test_reprolint.py``; this file exercises the whole-program call-graph
machinery (``repro.tools.lint.callgraph``), the seed/time dataflow rules
(``repro.tools.lint.dataflow``) and the process-boundary audit
(``repro.tools.lint.rules_process``).  As in the sibling suite, every
seeded violation lives in a miniature fixture tree written to
``tmp_path`` — no bad code is ever checked in — and each rule gets both
a firing case at an exact ``file:line`` and a clean near-miss showing
the rule does not overfire.
"""

from pathlib import Path

from repro.tools.lint import run_lint
from repro.tools.lint.callgraph import CallGraph
from repro.tools.lint.dataflow import SeedFlow, TimePurity, project_callgraph
from repro.tools.lint.engine import Module, Project

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


def none_with(findings, code: str):
    matching = [f for f in findings if f.code == code]
    assert not matching, [f.render() for f in matching]


def project_for(tmp_path: Path, files: dict) -> Project:
    root = write_tree(tmp_path, files)
    modules = []
    for path in sorted(root.rglob("*.py")):
        modules.append(Module(path, path.read_text()))
    return Project(modules)


# A stub of the real seed API: the dataflow root is the literal qualname
# ``repro.rng.make_rng`` + parameter ``seed``, so fixture trees carry
# their own copy.
RNG_STUB = """\
def make_rng(seed=None):
    return seed
"""


# ----------------------------------------------------------------------
# Call-graph construction
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_indexes_functions_methods_and_edges(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/partitioning/algo.py": (
                "from repro.partitioning.helpers import shuffle\n"
                "\n"
                "def entry(stream):\n"
                "    prepared = prepare(stream)\n"
                "    return shuffle(prepared)\n"
                "\n"
                "def prepare(stream):\n"
                "    return stream\n"
                "\n"
                "class Kernel:\n"
                "    def __init__(self, k):\n"
                "        self.k = k\n"
                "    def run(self):\n"
                "        return self.score()\n"
                "    def score(self):\n"
                "        return self.k\n"
                "\n"
                "def build():\n"
                "    return Kernel(4)\n"),
            "repro/partitioning/helpers.py": (
                "def shuffle(items):\n"
                "    return items\n"),
        })
        graph = CallGraph(project)
        assert "repro.partitioning.algo.entry" in graph.functions
        assert "repro.partitioning.algo.Kernel.run" in graph.functions
        assert "repro.partitioning.helpers.shuffle" in graph.functions

        edges = graph.edges
        assert "repro.partitioning.algo.prepare" in \
            edges["repro.partitioning.algo.entry"]
        # from-import resolves across modules
        assert "repro.partitioning.helpers.shuffle" in \
            edges["repro.partitioning.algo.entry"]
        # self.method() resolves within the class
        assert "repro.partitioning.algo.Kernel.score" in \
            edges["repro.partitioning.algo.Kernel.run"]
        # Cls(...) resolves to __init__
        assert "repro.partitioning.algo.Kernel.__init__" in \
            edges["repro.partitioning.algo.build"]

    def test_bind_arguments_maps_positional_and_keyword(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/ingest/mod.py": (
                "def callee(alpha, beta=None):\n"
                "    return alpha, beta\n"
                "\n"
                "def caller(x):\n"
                "    return callee(x, beta=3)\n"),
        })
        graph = CallGraph(project)
        [site] = [s for s in graph.call_sites
                  if s.callee == "repro.ingest.mod.callee"]
        callee = graph.functions["repro.ingest.mod.callee"]
        bound = graph.bind_arguments(site.call, callee)
        assert set(bound) == {"alpha", "beta"}
        import ast
        assert isinstance(bound["alpha"], ast.Name)
        assert bound["alpha"].id == "x"
        assert isinstance(bound["beta"], ast.Constant)

    def test_bind_arguments_gives_up_on_star_args(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/ingest/mod.py": (
                "def callee(alpha):\n"
                "    return alpha\n"
                "\n"
                "def caller(parts):\n"
                "    return callee(*parts)\n"),
        })
        graph = CallGraph(project)
        [site] = [s for s in graph.call_sites
                  if s.callee == "repro.ingest.mod.callee"]
        callee = graph.functions["repro.ingest.mod.callee"]
        assert graph.bind_arguments(site.call, callee) == {}

    def test_callgraph_memoised_on_project(self, tmp_path):
        project = project_for(tmp_path, {
            "repro/ingest/mod.py": "def f():\n    return 1\n",
        })
        assert project_callgraph(project) is project_callgraph(project)


# ----------------------------------------------------------------------
# RL201 — seed provenance
# ----------------------------------------------------------------------
class TestSeedFlow:
    FILES = {
        "repro/rng.py": RNG_STUB,
        "repro/partitioning/algo.py": (
            "from repro.rng import make_rng\n"
            "\n"
            "class P:\n"
            "    def __init__(self, k, seed=None):\n"
            "        self.k = k\n"
            "        self.seed = seed\n"
            "\n"
            "    def partition(self):\n"
            "        return make_rng(self.seed)\n"
            "\n"
            "def build():\n"
            "    return P(4)\n"),
    }

    def test_tracks_params_and_self_attrs(self, tmp_path):
        project = project_for(tmp_path, self.FILES)
        flow = SeedFlow(project_callgraph(project))
        assert ("repro.partitioning.algo.P.__init__", "seed") in flow.params
        assert ("repro.partitioning.algo.P", "seed") in flow.attrs

    def test_rl201_fires_when_seed_lane_is_dropped(self, tmp_path):
        finding = single(findings_for(tmp_path, self.FILES), "RL201")
        assert finding.path.endswith("algo.py")
        assert finding.line == 12          # the `P(4)` call site
        assert "seed" in finding.message

    def test_rl201_fires_on_explicit_none(self, tmp_path):
        files = dict(self.FILES)
        files["repro/partitioning/algo.py"] = \
            files["repro/partitioning/algo.py"].replace("P(4)", "P(4, seed=None)")
        finding = single(findings_for(tmp_path, files), "RL201")
        assert "None" in finding.message

    def test_rl201_clean_when_seed_is_threaded(self, tmp_path):
        files = dict(self.FILES)
        files["repro/partitioning/algo.py"] = \
            files["repro/partitioning/algo.py"].replace("P(4)", "P(4, seed=7)")
        none_with(findings_for(tmp_path, files), "RL201")

    def test_rl201_ignores_out_of_scope_modules(self, tmp_path):
        # Same shape under repro/tools/ — not a decision-path scope.
        files = {
            "repro/rng.py": RNG_STUB,
            "repro/tools/helper.py":
                self.FILES["repro/partitioning/algo.py"],
        }
        none_with(findings_for(tmp_path, files), "RL201")


# ----------------------------------------------------------------------
# RL202 — wall-clock impurity reaching simulated-time code
# ----------------------------------------------------------------------
class TestTimePurity:
    FILES = {
        "repro/util.py": (
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n"),
        "repro/partitioning/algo.py": (
            "from repro.util import stamp\n"
            "\n"
            "def helper():\n"
            "    return stamp()\n"),
    }

    def test_impurity_set_includes_transitive_callers(self, tmp_path):
        project = project_for(tmp_path, self.FILES)
        purity = TimePurity(project_callgraph(project))
        assert "repro.util.stamp" in purity.impure
        assert "repro.partitioning.algo.helper" in purity.impure

    def test_rl202_fires_at_the_boundary_call(self, tmp_path):
        finding = single(findings_for(tmp_path, self.FILES), "RL202")
        assert finding.path.endswith("algo.py")
        assert finding.line == 4           # the `stamp()` call
        assert "repro.util.stamp" in finding.message
        assert "time.time" in finding.message

    def test_rl202_clean_when_callee_is_pure(self, tmp_path):
        files = dict(self.FILES)
        files["repro/util.py"] = "def stamp():\n    return 0.0\n"
        none_with(findings_for(tmp_path, files), "RL202")

    def test_rl202_not_raised_for_out_of_scope_callers(self, tmp_path):
        # An impure helper called from another out-of-scope module is the
        # caller's business; only simulated-time scopes are protected.
        files = {
            "repro/util.py": self.FILES["repro/util.py"],
            "repro/tools/report.py": (
                "from repro.util import stamp\n"
                "\n"
                "def banner():\n"
                "    return stamp()\n"),
        }
        none_with(findings_for(tmp_path, files), "RL202")


# ----------------------------------------------------------------------
# RL203 — mutable module globals written from hot paths
# ----------------------------------------------------------------------
class TestMutableGlobal:
    def test_rl203_fires_on_subscript_write(self, tmp_path):
        finding = single(findings_for(tmp_path, {
            "repro/partitioning/algo.py": (
                "CACHE = {}\n"
                "\n"
                "class P:\n"
                "    def __init__(self, k):\n"
                "        self.k = k\n"
                "    def partition(self):\n"
                "        CACHE[self.k] = 1\n"
                "        return self.k\n"),
        }), "RL203")
        assert finding.line == 7
        assert "CACHE" in finding.message

    def test_rl203_fires_on_mutator_method(self, tmp_path):
        finding = single(findings_for(tmp_path, {
            "repro/service/state.py": (
                "SEEN = []\n"
                "\n"
                "def record(item):\n"
                "    SEEN.append(item)\n"),
        }), "RL203")
        assert finding.line == 4

    def test_rl203_clean_for_reads_and_locals(self, tmp_path):
        none_with(findings_for(tmp_path, {
            "repro/partitioning/algo.py": (
                "LIMITS = {'k': 4}\n"
                "\n"
                "def bound():\n"
                "    local = {}\n"
                "    local['k'] = LIMITS['k']\n"
                "    return local\n"),
        }), "RL203")


# ----------------------------------------------------------------------
# RL210–RL213 — process-boundary audit
# ----------------------------------------------------------------------
class TestProcessBoundary:
    FILES = {
        "repro/ingest/shardx.py": (
            "import multiprocessing\n"
            "import numpy as np\n"
            "\n"
            "from repro.telemetry import MetricsRegistry\n"
            "\n"
            "def run(pool):\n"
            "    registry = MetricsRegistry()\n"
            "    def inner(x):\n"
            "        return x\n"
            "    pool.submit(inner, registry)\n"
            "    p = multiprocessing.Process(target=lambda: 1)\n"
            "    delta = np.zeros(4)\n"
            "    delta += 1\n"
            "    return p, delta\n"),
    }

    def test_rl210_flags_closure_and_lambda_targets(self, tmp_path):
        matching = [f for f in findings_for(tmp_path, self.FILES)
                    if f.code == "RL210"]
        assert [f.line for f in matching] == [10, 11]
        assert "inner" in matching[0].message
        assert "lambda" in matching[1].message

    def test_rl211_flags_live_handle_payload(self, tmp_path):
        finding = single(findings_for(tmp_path, self.FILES), "RL211")
        assert finding.line == 10
        assert "MetricsRegistry" in finding.message

    def test_rl212_flags_default_start_method(self, tmp_path):
        finding = single(findings_for(tmp_path, self.FILES), "RL212")
        assert finding.line == 11

    def test_rl213_flags_floaty_accumulator(self, tmp_path):
        finding = single(findings_for(tmp_path, self.FILES), "RL213")
        assert finding.line == 12
        assert "delta" in finding.message

    def test_clean_module_level_target_with_spawn_context(self, tmp_path):
        findings = findings_for(tmp_path, {
            "repro/ingest/shardx.py": (
                "import multiprocessing\n"
                "import numpy as np\n"
                "\n"
                "def work(x):\n"
                "    return x\n"
                "\n"
                "def run(pool):\n"
                "    pool.submit(work, 3)\n"
                "    context = multiprocessing.get_context('spawn')\n"
                "    p = context.Process(target=work, args=(1,))\n"
                "    delta = np.zeros(4, dtype=np.int64)\n"
                "    delta += 1\n"
                "    return p, delta\n"),
        })
        for code in ("RL210", "RL211", "RL212", "RL213"):
            none_with(findings, code)

    def test_rules_gate_on_multiprocessing_import(self, tmp_path):
        # Without a multiprocessing/concurrent.futures import, `.submit`
        # and float accumulators are someone else's executor, not ours.
        findings = findings_for(tmp_path, {
            "repro/ingest/plain.py": (
                "import numpy as np\n"
                "\n"
                "def run(pool):\n"
                "    def inner(x):\n"
                "        return x\n"
                "    pool.submit(inner, 3)\n"
                "    delta = np.zeros(4)\n"
                "    delta += 1\n"
                "    return delta\n"),
        })
        for code in ("RL210", "RL211", "RL212", "RL213"):
            none_with(findings, code)


# ----------------------------------------------------------------------
# The real tree satisfies every interprocedural rule at head.
# ----------------------------------------------------------------------
class TestRealTreeDataflow:
    def test_src_clean_under_rl2xx_only(self):
        result = run_lint(
            [REPO_ROOT / "src"],
            select=["RL201", "RL202", "RL203",
                    "RL210", "RL211", "RL212", "RL213"])
        assert result.clean, [f.render() for f in result.findings]
