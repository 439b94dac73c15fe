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
    SignalError,
    SupportSet,
    _bfs,
    _place_signal,
    _read_signal,
    connected_components,
    load_graph,
    load_partition,
    load_signal,
    partition_contiguous,
    save_graph,
    save_partition,
    save_signal,
)
from oracles import (reference_adjacency, reference_block_graph, reference_connected_components,
                     reference_edge_arrays, reference_partition_contiguous, reference_truth_core)


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
        for weight in (float("nan"), float("inf")):
            with pytest.raises(EdgeListError):
                Graph(3, [(0, 1, weight)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 5)])


BAD_WEIGHTS = (0.0, -1.5, float("nan"), float("inf"), float("-inf"))
FAULTS = ("range", "huge", "loop", "repeat", "weight")


@st.composite
def edge_lists(draw, kinds=FAULTS):
    """Node count and edges, with any mix of faults: out-of-range ids (some
    too large for a float), self-loops, repeated pairs and zero, negative or
    non-finite weights. Some lists give their ids as non-integral floats."""
    n = draw(st.integers(0, 9))
    faults = sorted(draw(st.sets(st.sampled_from(kinds))))
    as_float = draw(st.integers(0, 3)) == 0
    edges = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["ok"] * 4 + faults))
        u = draw(st.integers(0, max(n - 1, 0)))
        v = (u + draw(st.integers(1, max(n - 1, 1)))) % max(n, 1)
        if kind == "range":
            u, v = draw(st.integers(-3, n + 2)), draw(st.integers(-3, n + 2))
        elif kind == "loop":
            v = u
        elif kind == "repeat" and edges:
            v, u = draw(st.sampled_from(edges))[:2]
            u, v = (v, u) if draw(st.booleans()) else (u, v)
        elif kind == "huge":  # an id no float can hold, as a file may give
            u = draw(st.sampled_from([10**400, -10**400]))
            u, v = (v, u) if draw(st.booleans()) else (u, v)
        if as_float and max(abs(u), abs(v)) < 2**53:  # truncated as int() truncates them
            u, v = u + draw(st.floats(0.0, 0.99)), v + draw(st.floats(0.0, 0.99))
        w = draw(st.sampled_from(BAD_WEIGHTS) if kind == "weight" else st.floats(0.01, 10.0))
        edges.append((u, v) if kind != "weight" and draw(st.booleans()) else (u, v, w))
    return n, edges


def outcome(build):
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


class TestGraphAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(edge_lists())
    def test_arrays_or_error_match_the_per_edge_loop(self, case):
        n, edges = case
        want = outcome(lambda: reference_edge_arrays(n, edges))
        got = outcome(lambda: Graph(n, edges))
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
            return
        assert isinstance(got, Graph)
        for name, ref in zip(("edge_u", "edge_v", "edge_w"), want):
            arr = getattr(got, name)
            assert arr.dtype == ref.dtype and np.array_equal(arr, ref), name

    @settings(max_examples=100, deadline=None)
    @given(edge_lists(kinds=tuple(f for f in FAULTS if f != "huge")))  # no array holds them
    def test_array_input_matches_tuple_input(self, case):
        n, edges = case
        rows = [(*edge, 1.0) if len(edge) == 2 else edge for edge in edges]
        from_tuples = outcome(lambda: Graph(n, rows))
        from_array = outcome(lambda: Graph(n, np.array(rows, dtype=np.float64).reshape(-1, 3)))
        assert from_array == from_tuples
        pairs = [edge[:2] for edge in edges]
        assert outcome(lambda: Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))) \
            == outcome(lambda: Graph(n, pairs))


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
        with pytest.raises(EdgeListError, match=r"g\.txt:1: self-loop"):
            load_graph(str(p))

    def test_load_negative_weight_error(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 -1.5\n")
        with pytest.raises(EdgeListError, match=r"g\.txt:1: negative"):
            load_graph(str(p))

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\nnot an edge line at all\n")
        with pytest.raises(EdgeListError, match=":2"):
            load_graph(str(p))

    @pytest.mark.parametrize("text, message", [
        ("# nodes 3\n0 1\n# x\n1 0 2.0\n1 2\n", r"g\.txt:4: duplicate undirected edge \(0,1\)"),
        ("# nodes 3\n0 1\n1 5\n1 2\n", r"g\.txt:3: edge \(1,5\) has node id out of \[0,3\)"),
        ("0 1 0\n1 2\n", r"g\.txt:1: edge \(0,1\) has non-positive weight 0\.0"),
    ], ids=["duplicate", "id-out-of-range", "zero-weight"])
    def test_graph_errors_name_the_edge_line(self, tmp_path, text, message):
        # the checks Graph makes over all edges name the first bad edge's
        # line, not the file's last
        p = tmp_path / "g.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
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

    def test_rejected_sparse_edges_leave_no_idmap(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("10 20\n20 30\n20 10\n")
        with pytest.raises(EdgeListError, match=r"g\.txt:3: duplicate undirected edge"):
            load_graph(str(p))
        assert not (tmp_path / "g.txt.idmap").exists()

    @pytest.mark.parametrize("text, message", [
        ("10 20\n20 30\n20 10\n", r"g\.txt:3: duplicate undirected edge \(10,20\)$"),
        ("10 20\n30 40 0\n", r"g\.txt:2: edge \(30,40\) has non-positive weight 0\.0$"),
        ("7 5\n5 300 inf\n", r"g\.txt:2: edge \(5,300\) has non-positive weight inf$"),
    ])
    def test_an_edge_error_names_the_files_sparse_ids(self, tmp_path, text, message):
        p = tmp_path / "g.txt"
        p.write_text(text)
        with pytest.raises(EdgeListError, match=message):
            load_graph(str(p))

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
        assert part.cut_edges.dtype == np.int64
        assert part.cut_edges.tolist() == [[1, 2]]
        assert part.block_graph(0).edges == [(0, 1, 1.0)]
        assert part.block_graph(1).edge_count == 0

    def test_single_block(self):
        g = path_graph(4)
        part = BlockPartition(g, [0, 0, 0, 0], 1)
        assert part.cut_edges.shape == (0, 2)
        assert part.block_graph(0) == g

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
            assignment = rng.integers(0, K, size=n)
            part = BlockPartition(g, assignment, K)
            blocks = [part.block_graph(k) for k in range(K)]
            assert len(part.cut_edges) + sum(b.edge_count for b in blocks) == g.edge_count
            cut = [(u, v) for u, v, _ in g.edges if assignment[u] != assignment[v]]
            assert [tuple(row) for row in part.cut_edges.tolist()] == cut
            # local id i of block k is global id block_nodes[k][i]
            intra = sorted(
                (int(part.block_nodes[k][u]), int(part.block_nodes[k][v]), w)
                for k, b in enumerate(blocks) for u, v, w in b.edges
            )
            assert intra == [e for e in g.edges if assignment[e[0]] == assignment[e[1]]]

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

    def test_partition_file_round_trip(self, tmp_path):
        g = path_graph(3)
        part = BlockPartition(g, [0, 0, 1], 2)
        p = tmp_path / "part.txt"
        save_partition(part, str(p))
        loaded = load_partition(str(p), g, 2)
        assert np.array_equal(loaded.assignment, part.assignment)
        assert loaded.cut_edges.tolist() == [[1, 2]]

    def test_partition_file_wrong_length(self, tmp_path):
        g = path_graph(3)
        p = tmp_path / "part.txt"
        p.write_text("0\n0\n")
        with pytest.raises(PartitionError, match=r"part\.txt:2: assignment length 2 != node count 3"):
            load_partition(str(p), g, 2)

    def test_partition_id_too_large_for_int64_names_its_line(self, tmp_path):
        g = path_graph(3)
        p = tmp_path / "part.txt"
        p.write_text("0\n" + "9" * 30 + "\n1\n")
        message = r"part\.txt:2: block id 9{30} out of range \[0,2\)"
        with pytest.raises(PartitionError, match=message):
            load_partition(str(p), g, 2)


@st.composite
def partitioned_graphs(draw):
    """A graph of 1-30 nodes, some often isolated, from edges in random
    order, and an assignment to 1-5 blocks, some often empty."""
    n = draw(st.integers(1, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=3 * n))) if pairs else []
    weights = draw(st.lists(st.floats(0.01, 10.0), min_size=len(edges), max_size=len(edges)))
    rows = draw(st.permutations([(*edge, w) for edge, w in zip(edges, weights)]))
    num_blocks = draw(st.integers(1, 5))
    assignment = draw(st.lists(st.integers(0, num_blocks - 1), min_size=n, max_size=n))
    return Graph(n, rows), assignment, num_blocks


class TestSlicedBlockGraphs:
    """The block graphs sliced from the graph equal those the checking
    constructor and a lexsort built, array for array."""

    @settings(max_examples=300, deadline=None)
    @given(partitioned_graphs())
    def test_every_array_of_every_block_graph(self, case):
        graph, assignment, num_blocks = case
        partition = BlockPartition(graph, assignment, num_blocks)
        for k in range(num_blocks):
            block, want = partition.block_graph(k), reference_block_graph(partition, k)
            assert block.node_count == len(partition.block_nodes[k])
            for name, ref in want.items():
                got = getattr(block, name)
                assert got.dtype == ref.dtype and np.array_equal(got, ref), (k, name)

    @settings(max_examples=300, deadline=None)
    @given(partitioned_graphs())
    def test_constructor_adjacency(self, case):
        graph = case[0]
        want = reference_adjacency(graph.node_count, graph.edge_u, graph.edge_v)
        for name, ref in zip(("adj_indptr", "adj_nodes", "adj_eids"), want):
            got = getattr(graph, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name


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
        assert part.cut_edges.shape == (0, 2)

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


@st.composite
def grouped_graphs(draw):
    """Up to 24 nodes in up to 4 groups, with edges only inside a group: so
    several components, and often isolated nodes."""
    n = draw(st.integers(1, 24))
    groups = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if groups[u] == groups[v]]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    return Graph(n, sorted(edges))


class TestBreadthFirstSearchesMatchTheirReferences:
    """Every caller of ``_bfs`` gives what its hand-written loop gave."""

    @settings(max_examples=150, deadline=None)
    @given(graph=grouped_graphs())
    def test_partition_contiguous_every_block_count(self, graph):
        for K in range(1, graph.node_count + 1):
            assert np.array_equal(partition_contiguous(graph, K).assignment,
                                  reference_partition_contiguous(graph, K))

    @settings(max_examples=150, deadline=None)
    @given(graph=grouped_graphs(), data=st.data())
    def test_connected_components_of_node_subsets(self, graph, data):
        nodes = data.draw(st.sets(st.integers(0, graph.node_count - 1)))
        assert connected_components(graph, nodes) == reference_connected_components(graph, nodes)

    @settings(max_examples=150, deadline=None)
    @given(graph=grouped_graphs(), data=st.data())
    def test_truth_core(self, graph, data):
        current = data.draw(st.sets(st.integers(0, graph.node_count - 1), min_size=1))
        seed = data.draw(st.sampled_from(sorted(current)))
        keep = data.draw(st.integers(1, len(current)))
        assert (_bfs(graph, seed, current.__contains__, keep)
                == reference_truth_core(graph, current, seed, keep))


class TestSignal:
    def test_signal_round_trip(self, tmp_path):
        sig = BlockSignal([0.5, -1.25, 0.0])
        p = tmp_path / "sig.txt"
        save_signal(sig, str(p))
        loaded = load_signal(str(p), 3)
        assert np.array_equal(loaded.values, sig.values)

    def test_signal_file_parsed_once_then_placed(self, tmp_path):
        # absent nodes are 0 and of two entries for one node the later wins
        p = tmp_path / "sig.txt"
        p.write_text("# node value\n2\t1.5\n0\t-1\n\n2\t3.0\n")
        entries = _read_signal(str(p))
        assert entries[1:] == ([2, 0, 2], [1.5, -1.0, 3.0])
        assert _place_signal(entries, 5).values.tolist() == [-1.0, 0.0, 3.0, 0.0, 0.0]
        with pytest.raises(SignalError, match=r"sig\.txt:2: node id 2 out of range"):
            _place_signal(entries, 2)

    @pytest.mark.parametrize("text, message", [
        ("0 1\n1\n", r"sig\.txt:2: expected 2 fields, got 1"),
        ("0 1\n-1 2\n", r"sig\.txt:2: node id -1 out of range"),
        ("0 inf\n", r"sig\.txt:1: non-finite value inf"),
    ], ids=["one-field", "negative-id", "infinite-value"])
    def test_signal_errors_name_the_line(self, tmp_path, text, message):
        p = tmp_path / "sig.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_signal(str(p), 3)

    def test_a_line_not_utf8_is_named_past_the_first_chunk(self, tmp_path):
        # text mode would decode 8 KB at a time and name no line
        p = tmp_path / "sig.txt"
        lines = [f"{i}\t0.5\n".encode() for i in range(3000)]
        lines[2500] = b"2500\t0.5\xff\n"
        p.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match=r"sig\.txt:2501: not UTF-8 text \(invalid start"):
            load_signal(str(p), 3000)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BlockSignal([1.0, np.nan])


class TestSupportSet:
    def test_sorted_dedup(self):
        s = SupportSet(2, [5, 1, 5, 3])
        assert s.nodes == (1, 3, 5)
        assert len(s) == 3
