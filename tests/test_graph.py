import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgp.graph import (
    BlockPartition,
    BlockSignal,
    EdgeListError,
    Graph,
    PartitionError,
    SupportSet,
    connected_components,
    load_graph,
    load_partition,
    load_signal,
    partition_contiguous,
    save_graph,
    save_partition,
    save_signal,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestGraph:
    def test_basic_construction(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.node_count == 3
        assert g.edge_count == 2
        assert g.edges == [(0, 1, 1.0), (1, 2, 1.0)]

    def test_neighbors_sorted(self):
        g = Graph(4, [(2, 0), (0, 3), (0, 1)])
        assert list(g.neighbors(0)) == [1, 2, 3]
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_adjacency_matches_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        pairs = {tuple(sorted(map(int, rng.integers(0, n, size=2)))) for _ in range(2 * n)}
        g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs if u != v])
        for u in range(n):
            expected = sorted(
                (int(b) if a == u else int(a), eid)
                for eid, (a, b) in enumerate(zip(g.edge_u, g.edge_v)) if u in (a, b)
            )
            lo, hi = g.adj_indptr[u], g.adj_indptr[u + 1]
            assert list(zip(g.adj_nodes[lo:hi].tolist(), g.adj_eids[lo:hi].tolist())) == expected

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListError):
            Graph(4, [(3, 3)])

    def test_duplicate_rejected(self):
        with pytest.raises(EdgeListError):
            Graph(3, [(0, 1), (1, 0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(EdgeListError):
            Graph(3, [(0, 1, 0.0)])
        with pytest.raises(EdgeListError):
            Graph(3, [(0, 1, -2.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 5)])


class TestGraphIO:
    def test_load_simple(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0\t1\n1\t2\n")
        g = load_graph(str(p))
        assert g.node_count == 3
        assert g.edges == [(0, 1, 1.0), (1, 2, 1.0)]

    def test_load_empty(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("")
        g = load_graph(str(p))
        assert g.node_count == 0
        assert g.edges == []

    def test_load_self_loop_error(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3 3\n")
        with pytest.raises(EdgeListError, match="self-loop"):
            load_graph(str(p))

    def test_load_negative_weight_error(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 -1.5\n")
        with pytest.raises(EdgeListError, match="negative"):
            load_graph(str(p))

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\nnot an edge line at all\n")
        with pytest.raises(EdgeListError, match=":2"):
            load_graph(str(p))

    def test_bad_node_count_reports_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n# nodes x\n1 2\n")
        with pytest.raises(EdgeListError, match=r"g\.txt:2: node count 'x'"):
            load_graph(str(p))

    def test_comments_and_weights(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# a comment\n0 1 2.5\n\n1 2\n")
        g = load_graph(str(p))
        assert g.edges == [(0, 1, 2.5), (1, 2, 1.0)]

    def test_round_trip_identity(self, tmp_path):
        g = Graph(5, [(0, 1, 2.0), (1, 2), (3, 4, 0.25)])
        p = tmp_path / "g.txt"
        save_graph(g, str(p))
        assert load_graph(str(p)) == g

    def test_round_trip_isolated_nodes(self, tmp_path):
        g = Graph(6, [(0, 1)])
        p = tmp_path / "g.txt"
        save_graph(g, str(p))
        assert load_graph(str(p)).node_count == 6

    def test_sparse_ids_remapped_with_idmap(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("10 20\n20 77\n")
        g = load_graph(str(p))
        assert g.node_count == 3
        assert g.edges == [(0, 1, 1.0), (1, 2, 1.0)]
        idmap = (tmp_path / "g.txt.idmap").read_text().splitlines()
        assert idmap == ["0\t10", "1\t20", "2\t77"]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_round_trip_property(self, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        edges = set()
        for _ in range(int(rng.integers(0, 3 * n))):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = Graph(n, [(u, v, float(rng.uniform(0.1, 9))) for u, v in sorted(edges)])
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/g.txt"
            save_graph(g, path)
            assert load_graph(path) == g


class TestBlockPartition:
    def test_cut_and_intra_split(self):
        g = path_graph(3)
        part = BlockPartition(g, [0, 0, 1], 2)
        assert part.cut_edges == [(1, 2)]
        assert part.intra_edges[0] == [(0, 1, 1.0)]
        assert part.intra_edges[1] == []

    def test_single_block(self):
        g = path_graph(4)
        part = BlockPartition(g, [0, 0, 0, 0], 1)
        assert part.cut_edges == []
        assert len(part.intra_edges[0]) == 3

    def test_edge_split_is_exact_partition(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(5, 30))
            edges = set()
            for _ in range(2 * n):
                u, v = rng.integers(0, n, size=2)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            g = Graph(n, sorted(edges))
            K = int(rng.integers(1, 5))
            part = BlockPartition(g, rng.integers(0, K, size=n), K)
            total = len(part.cut_edges) + sum(len(e) for e in part.intra_edges)
            assert total == g.edge_count

    def test_length_mismatch(self):
        g = path_graph(3)
        with pytest.raises(PartitionError):
            BlockPartition(g, [0, 0], 1)

    def test_block_id_out_of_range(self):
        g = path_graph(3)
        with pytest.raises(PartitionError):
            BlockPartition(g, [0, 0, 5], 2)

    def test_block_graph_local_ids(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        part = BlockPartition(g, [0, 1, 1, 1], 2)
        bg = part.block_graph(1)
        assert bg.node_count == 3
        # nodes 1,2,3 -> local 0,1,2
        assert bg.edges == [(0, 1, 1.0), (1, 2, 1.0)]
        assert part.to_global(1, [0, 2]) == [1, 3]

    def test_partition_file_round_trip(self, tmp_path):
        g = path_graph(3)
        part = BlockPartition(g, [0, 0, 1], 2)
        p = tmp_path / "part.txt"
        save_partition(part, str(p))
        loaded = load_partition(str(p), g, 2)
        assert np.array_equal(loaded.assignment, part.assignment)
        assert loaded.cut_edges == [(1, 2)]

    def test_partition_file_wrong_length(self, tmp_path):
        g = path_graph(3)
        p = tmp_path / "part.txt"
        p.write_text("0\n0\n")
        with pytest.raises(PartitionError):
            load_partition(str(p), g, 2)


class TestPartitionContiguous:
    def test_path_two_blocks(self):
        g = path_graph(4)
        part = partition_contiguous(g, 2)
        assert sorted(part.block_nodes[0].tolist()) == [0, 1]
        assert sorted(part.block_nodes[1].tolist()) == [2, 3]

    def test_single_block_identity(self):
        g = path_graph(5)
        part = partition_contiguous(g, 1)
        assert len(part.block_nodes[0]) == 5
        assert part.cut_edges == []

    def test_fully_split(self):
        g = path_graph(4)
        part = partition_contiguous(g, 4)
        assert all(len(nodes) == 1 for nodes in part.block_nodes)
        assert len(part.cut_edges) == g.edge_count

    def test_balanced_on_connected(self):
        rng = np.random.default_rng(3)
        n = 23
        edges = [(i, i + 1) for i in range(n - 1)]
        for _ in range(15):
            u, v = rng.integers(0, n, size=2)
            if u != v and (min(u, v), max(u, v)) not in {(e[0], e[1]) for e in edges}:
                edges.append((min(u, v), max(u, v)))
        g = Graph(n, sorted(set(edges)))
        for K in (2, 3, 5):
            part = partition_contiguous(g, K)
            sizes = [len(b) for b in part.block_nodes]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        g = path_graph(9)
        a = partition_contiguous(g, 3).assignment
        b = partition_contiguous(g, 3).assignment
        assert np.array_equal(a, b)

    def test_k_out_of_range(self):
        g = path_graph(3)
        with pytest.raises(PartitionError):
            partition_contiguous(g, 0)
        with pytest.raises(PartitionError):
            partition_contiguous(g, 4)


class TestConnectedComponents:
    def test_path_subset(self):
        g = path_graph(4)
        comps = connected_components(g, {0, 1, 3})
        assert comps == [{0, 1}, {3}]

    def test_empty(self):
        g = path_graph(4)
        assert connected_components(g, set()) == []

    def test_whole_graph(self):
        g = path_graph(5)
        assert connected_components(g, range(5)) == [{0, 1, 2, 3, 4}]

    def test_out_of_range(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            connected_components(g, {7})

    def test_disjoint_cover_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            edges = set()
            for _ in range(n):
                u, v = rng.integers(0, n, size=2)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            g = Graph(n, sorted(edges))
            subset = set(int(v) for v in rng.choice(n, size=n // 2, replace=False))
            comps = connected_components(g, subset)
            union = set()
            for comp in comps:
                assert not (union & comp)
                union |= comp
            assert union == subset


class TestSignal:
    def test_signal_round_trip(self, tmp_path):
        sig = BlockSignal([0.5, -1.25, 0.0])
        p = tmp_path / "sig.txt"
        save_signal(sig, str(p))
        loaded = load_signal(str(p), 3)
        assert np.array_equal(loaded.values, sig.values)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BlockSignal([1.0, np.nan])


class TestSupportSet:
    def test_sorted_dedup(self):
        s = SupportSet(2, [5, 1, 5, 3])
        assert s.nodes == (1, 3, 5)
        assert len(s) == 3
