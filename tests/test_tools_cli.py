"""Tests for the repro-partition command-line tool."""

import pytest

from repro.graph.generators import erdos_renyi, ldbc_like
from repro.graph.io import write_edge_list
from repro.tools.partition_cli import main


@pytest.fixture(scope="module")
def edge_list_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "graph.txt"
    write_edge_list(erdos_renyi(200, 1500, seed=3), path)
    return str(path)


class TestPartitionCli:
    def test_edge_cut_run(self, edge_list_file, capsys):
        assert main([edge_list_file, "-a", "ldg", "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "edge-cut" in out
        assert "balance" in out

    def test_vertex_cut_run(self, edge_list_file, capsys):
        assert main([edge_list_file, "-a", "hdrf", "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "replication" in out

    def test_acronym_accepted(self, edge_list_file, capsys):
        assert main([edge_list_file, "-a", "FNL", "-k", "4"]) == 0

    def test_output_file_written(self, edge_list_file, tmp_path, capsys):
        out_path = tmp_path / "assignment.tsv"
        assert main([edge_list_file, "-a", "ecr", "-k", "4",
                     "-o", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 201          # header + one row per vertex
        vertex, part = lines[1].split("\t")
        assert 0 <= int(part) < 4

    def test_vertex_cut_output_rows_are_edges(self, edge_list_file, tmp_path,
                                              capsys):
        out_path = tmp_path / "edges.tsv"
        assert main([edge_list_file, "-a", "vcr", "-k", "4",
                     "-o", str(out_path)]) == 0
        assert len(out_path.read_text().splitlines()) == 1501

    def test_metrics_only_skips_output(self, edge_list_file, tmp_path, capsys):
        out_path = tmp_path / "skip.tsv"
        assert main([edge_list_file, "-a", "ecr", "-k", "4",
                     "-o", str(out_path), "--metrics-only"]) == 0
        assert not out_path.exists()

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["/nonexistent/graph.txt", "-a", "ldg"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_algorithm_fails_cleanly(self, edge_list_file, capsys):
        assert main([edge_list_file, "-a", "quantum"]) == 1
        assert "error" in capsys.readouterr().err

    def test_constructor_type_error_propagates(self, edge_list_file,
                                                monkeypatch):
        """A TypeError raised inside a seedable constructor is a bug to
        surface, not a cue to rebuild the partitioner without its seed."""
        from repro.partitioning import LdgPartitioner, registry

        def ldg(seed=None):
            if seed is not None:
                raise TypeError("genuine constructor bug")
            return LdgPartitioner()

        monkeypatch.setitem(registry._FACTORIES, "ldg", ldg)
        with pytest.raises(TypeError, match="genuine constructor bug"):
            main([edge_list_file, "-a", "ldg", "--seed", "5"])

    def test_orders_supported(self, edge_list_file, capsys):
        assert main([edge_list_file, "-a", "ldg", "-k", "4",
                     "--order", "bfs"]) == 0

    def test_offline_algorithm_via_cli(self, tmp_path, capsys):
        path = tmp_path / "social.txt"
        write_edge_list(ldbc_like(num_vertices=300, avg_degree=8, seed=5), path)
        assert main([str(path), "-a", "mts", "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "edge-cut" in out
