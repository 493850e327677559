"""Tests for the ``.redg`` on-disk format, writers and readers.

Covers the header layout, writer/reader round trips, corruption
detection, seekable range iteration, and the replay-parity contract:
partitioning a spilled file is arrival-for-arrival identical to
partitioning the in-memory stream it came from (``docs/scaling.md``,
"file replay ≡ in-memory stream").
"""

import struct

import numpy as np
import pytest

from repro.errors import ConfigurationError, IngestError
from repro.graph.generators.powerlaw import preferential_attachment
from repro.graph.generators.rmat import rmat
from repro.graph.stream import EdgeStream, VertexStream
from repro.ingest import (
    FLAG_ADJACENCY,
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    EdgeStreamFile,
    EdgeStreamWriter,
    FileVertexStream,
    Header,
    spill_adjacency,
    spill_edges,
    spill_graph_edges,
    spill_powerlaw,
    spill_rmat,
)


def write_stream(path, chunks, num_vertices=100, **kwargs):
    return spill_edges(path, num_vertices,
                       [(np.asarray(s, dtype=np.int64),
                         np.asarray(d, dtype=np.int64)) for s, d in chunks],
                       **kwargs)


def read_all(stream_file, **kwargs):
    """Concatenated (edge_ids, src, dst) arrays of an iter_chunks pass."""
    chunks = list(stream_file.iter_chunks(**kwargs))
    if not chunks:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


class TestHeader:
    def test_pack_unpack_round_trip(self):
        header = Header(magic=MAGIC, version=FORMAT_VERSION,
                        flags=FLAG_ADJACENCY, num_vertices=1 << 40,
                        num_edges=12345, num_chunks=7)
        packed = header.pack()
        assert len(packed) == HEADER_SIZE
        assert Header.unpack(packed) == header

    def test_magic_leads_the_file(self):
        assert Header(magic=MAGIC, version=FORMAT_VERSION, flags=0,
                      num_vertices=0, num_edges=0,
                      num_chunks=0).pack().startswith(MAGIC)

    def test_adjacency_flag(self):
        plain = Header(magic=MAGIC, version=FORMAT_VERSION, flags=0,
                       num_vertices=0, num_edges=0, num_chunks=0)
        adjacency = Header(magic=MAGIC, version=FORMAT_VERSION,
                           flags=FLAG_ADJACENCY, num_vertices=0, num_edges=0,
                           num_chunks=0)
        assert not plain.adjacency_sorted
        assert adjacency.adjacency_sorted


class TestWriterReader:
    def test_round_trip_preserves_edges_and_chunks(self, tmp_path):
        chunks = [([0, 1, 2], [3, 4, 5]), ([6], [7]), ([8, 9], [0, 1])]
        path = write_stream(tmp_path / "s.redg", chunks, num_vertices=10)
        stream_file = EdgeStreamFile(path)
        assert stream_file.num_vertices == 10
        assert stream_file.num_edges == 6
        assert stream_file.num_chunks == 3
        assert stream_file.chunk_lengths.tolist() == [3, 1, 2]
        edge_ids, src, dst = read_all(stream_file)
        assert edge_ids.tolist() == list(range(6))
        assert src.tolist() == [0, 1, 2, 6, 8, 9]
        assert dst.tolist() == [3, 4, 5, 7, 0, 1]

    def test_empty_chunks_are_skipped(self, tmp_path):
        path = write_stream(tmp_path / "s.redg",
                            [([], []), ([1], [2]), ([], [])])
        stream_file = EdgeStreamFile(path)
        assert stream_file.num_chunks == 1
        assert stream_file.num_edges == 1

    def test_empty_stream_is_valid(self, tmp_path):
        path = write_stream(tmp_path / "s.redg", [])
        stream_file = EdgeStreamFile(path)
        assert stream_file.num_edges == 0
        assert list(stream_file.iter_chunks()) == []
        assert len(stream_file) == 0
        assert list(stream_file) == []

    def test_describe(self, tmp_path):
        path = write_stream(tmp_path / "s.redg",
                            [([0, 1], [1, 2]), ([2], [3])], num_vertices=4)
        info = EdgeStreamFile(path).describe()
        assert info["num_edges"] == 3
        assert info["payload_bytes"] == 16 * 3
        assert info["max_chunk_edges"] == 2
        assert info["format_version"] == FORMAT_VERSION
        assert info["adjacency_sorted"] is False

    def test_append_after_close_raises(self, tmp_path):
        writer = EdgeStreamWriter(tmp_path / "s.redg", 4)
        writer.close()
        with pytest.raises(IngestError):
            writer.append(np.array([0]), np.array([1]))

    def test_mismatched_chunk_shapes_raise(self, tmp_path):
        with EdgeStreamWriter(tmp_path / "s.redg", 4) as writer:
            with pytest.raises(IngestError):
                writer.append(np.array([0, 1]), np.array([1]))

    def test_negative_num_vertices_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            EdgeStreamWriter(tmp_path / "s.redg", -1)


class TestCorruption:
    def make_valid(self, tmp_path):
        return write_stream(tmp_path / "s.redg",
                            [([0, 1, 2], [3, 4, 5]), ([6], [7])])

    def test_too_short_for_header(self, tmp_path):
        path = tmp_path / "tiny.redg"
        path.write_bytes(b"REPROEDG")
        with pytest.raises(IngestError, match="too short"):
            EdgeStreamFile(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.redg"
        self.make_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTAREDG"
        path.write_bytes(bytes(raw))
        with pytest.raises(IngestError, match="bad magic"):
            EdgeStreamFile(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "s.redg"
        self.make_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", FORMAT_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(IngestError, match="version"):
            EdgeStreamFile(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "s.redg"
        self.make_valid(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(IngestError, match="truncated or corrupt"):
            EdgeStreamFile(path)

    def test_chunk_table_sum_mismatch(self, tmp_path):
        path = tmp_path / "s.redg"
        self.make_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        # Last footer entry: bump the second chunk's length from 1 to 2.
        raw[-8:] = struct.pack("<Q", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(IngestError, match="chunk table"):
            EdgeStreamFile(path)


class TestRangeIteration:
    @pytest.fixture()
    def stream_file(self, tmp_path):
        # Three stored chunks of 4, 3 and 5 edges.
        chunks = [(range(4), range(10, 14)), (range(4, 7), range(14, 17)),
                  (range(7, 12), range(17, 22))]
        return EdgeStreamFile(write_stream(tmp_path / "s.redg", chunks))

    def test_full_range_matches_slices(self, stream_file):
        edge_ids, src, dst = read_all(stream_file)
        assert src.tolist() == list(range(12))
        assert dst.tolist() == list(range(10, 22))

    @pytest.mark.parametrize("start,stop", [
        (0, 12), (0, 4), (4, 7), (2, 9), (3, 4), (11, 12), (5, 5),
    ])
    def test_arbitrary_ranges(self, stream_file, start, stop):
        edge_ids, src, dst = read_all(stream_file, start=start, stop=stop)
        assert edge_ids.tolist() == list(range(start, stop))
        assert src.tolist() == list(range(start, stop))
        assert dst.tolist() == list(range(start + 10, stop + 10))

    def test_chunk_edges_splits_but_never_merges(self, stream_file):
        lengths = [ids.size for ids, _, _ in stream_file.iter_chunks(2)]
        assert lengths == [2, 2, 2, 1, 2, 2, 1]  # 4→2+2, 3→2+1, 5→2+2+1
        edge_ids, src, dst = read_all(stream_file, chunk_edges=2)
        assert src.tolist() == list(range(12))

    def test_invalid_range_rejected(self, stream_file):
        with pytest.raises(IngestError):
            list(stream_file.iter_chunks(start=-1))
        with pytest.raises(IngestError):
            list(stream_file.iter_chunks(start=5, stop=3))
        with pytest.raises(IngestError):
            list(stream_file.iter_chunks(stop=13))

    def test_invalid_chunk_edges_rejected(self, stream_file):
        with pytest.raises(IngestError):
            list(stream_file.iter_chunks(0))


#: Every partitioner that reads an edge stream, with the arguments that
#: let it read one it cannot look up degrees in.
EDGE_READERS = {"vcr": {}, "grid": {}, "greedy": {}, "hdrf": {},
                "dbh": {"degrees": "partial"}, "hcr": {}, "hg": {},
                "iogp": {}, "leopard": {}}


class TestReplayParity:
    """Partitioning a spill ≡ partitioning the stream it came from."""

    @pytest.mark.parametrize("name", list(EDGE_READERS))
    def test_edge_replay_matches_graph_stream(self, tmp_path, name):
        """A graph-backed stream, its arrivals as plain tuples and (in
        natural order) its spill give one partition: every reader of an
        edge stream yields the same arrays."""
        from repro.partitioning.registry import make_seeded_partitioner

        graph = rmat(8, 8.0, seed=3)
        path = spill_graph_edges(graph, tmp_path / "g.redg", chunk_edges=97)
        stream_file = EdgeStreamFile(path)
        assert len(stream_file) == graph.num_edges

        def run(stream):
            partitioner = make_seeded_partitioner(name, 2,
                                                  **EDGE_READERS[name])
            return partitioner.partition_stream(
                stream, 8, num_vertices=graph.num_vertices,
                num_edges=graph.num_edges)

        def assert_same(expected, got):
            assert np.array_equal(expected.assignment, got.assignment)
            masters = getattr(expected, "masters", None)
            if masters is not None:
                assert np.array_equal(masters, got.masters)

        for order in ("natural", "random"):
            stream = EdgeStream(graph, order=order, seed=5)
            expected = run(stream)
            assert_same(expected, run([tuple(a) for a in stream]))
            if order == "natural":
                assert_same(expected, run(stream_file))

    def test_edge_arrivals_match_stream_elements(self, tmp_path):
        graph = rmat(6, 4.0, seed=1)
        path = spill_graph_edges(graph, tmp_path / "g.redg", chunk_edges=11)
        expected = [(a.edge_id, a.src, a.dst)
                    for a in EdgeStream(graph, order="natural")]
        got = [(a.edge_id, a.src, a.dst) for a in EdgeStreamFile(path)]
        assert got == expected

    def test_vertex_replay_matches_graph_stream(self, tmp_path):
        from repro.partitioning.edge_cut.ldg import LdgPartitioner

        # Preferential attachment has no isolated vertices, so the file
        # replay covers every vertex the graph stream does.
        graph = preferential_attachment(256, 8.0, seed=3)
        path = spill_adjacency(graph, tmp_path / "adj.redg", chunk_edges=53)
        in_memory = LdgPartitioner(seed=2).partition(graph, 4,
                                                     order="natural")
        from_file = LdgPartitioner(seed=2).partition_stream(
            FileVertexStream(path), 4, num_vertices=graph.num_vertices)
        assert np.array_equal(in_memory.assignment, from_file.assignment)

    def test_vertex_arrivals_stitch_across_chunks(self, tmp_path):
        graph = preferential_attachment(64, 6.0, seed=7)
        path = spill_adjacency(graph, tmp_path / "adj.redg", chunk_edges=5)
        expected = [(a.vertex, sorted(np.asarray(a.neighbors).tolist()))
                    for a in VertexStream(graph, order="natural")]
        got = [(a.vertex, sorted(np.asarray(a.neighbors).tolist()))
               for a in FileVertexStream(path)]
        assert got == expected

    def test_vertex_replay_requires_adjacency_flag(self, tmp_path):
        graph = rmat(5, 4.0, seed=2)
        path = spill_graph_edges(graph, tmp_path / "g.redg")
        with pytest.raises(IngestError, match="adjacency-sorted"):
            FileVertexStream(path)


class TestGeneratorSpills:
    def test_rmat_spill_is_seed_deterministic(self, tmp_path):
        a = spill_rmat(tmp_path / "a.redg", 7, 8.0, seed=9)
        b = spill_rmat(tmp_path / "b.redg", 7, 8.0, seed=9)
        assert (tmp_path / "a.redg").read_bytes() == \
            (tmp_path / "b.redg").read_bytes()
        stream_file = EdgeStreamFile(a)
        assert stream_file.num_vertices == 1 << 7
        assert 0 < stream_file.num_edges <= int(8.0 * (1 << 7))
        _, src, dst = read_all(stream_file)
        assert np.all(src != dst)  # self-loops dropped
        assert int(max(src.max(), dst.max())) < 1 << 7

    def test_powerlaw_spill_chunk_size_changes_layout_not_stream(
            self, tmp_path):
        coarse = spill_powerlaw(tmp_path / "a.redg", 300, 6.0, seed=4,
                                chunk_edges=1 << 17)
        fine = spill_powerlaw(tmp_path / "b.redg", 300, 6.0, seed=4,
                              chunk_edges=64)
        a = EdgeStreamFile(coarse)
        b = EdgeStreamFile(fine)
        assert b.num_chunks > a.num_chunks
        for left, right in zip(read_all(a), read_all(b)):
            assert np.array_equal(left, right)
