import os

import numpy as np
import pytest

from gbgp.datagen import (
    NonInstance,
    SyntheticSpec,
    TemporalInstance,
    barabasi_albert,
    evolving_subgraphs,
    flip_noise,
    generate_non,
    generate_temporal,
    inject_features,
    random_walk_subgraph,
    read_bundle,
    read_metadata,
    read_truth,
    write_bundle,
)
from gbgp.graph import BlockPartition, BlockSignal, Graph, connected_components, load_graph
from gbgp.objectives import ObjectiveSpec
from gbgp.pcst import PcstEngine
from gbgp.solver import SolverConfig, gbgp_solve


class TestBarabasiAlbert:
    def test_reference_edge_count(self):
        g = barabasi_albert(3000, 4, seed=1)
        assert g.edge_count == 11_984
        assert g.edge_count == 4 * (3000 - 4)

    def test_minimal_case(self):
        g = barabasi_albert(2, 1, seed=0)
        assert g.edges == [(0, 1, 1.0)]

    def test_deterministic(self):
        a = barabasi_albert(200, 3, seed=9)
        b = barabasi_albert(200, 3, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        a = barabasi_albert(200, 3, seed=1)
        b = barabasi_albert(200, 3, seed=2)
        assert a != b

    def test_heavy_tail_present(self):
        hits = 0
        for seed in range(20):
            g = barabasi_albert(2000, 3, seed=seed)
            degrees = np.diff(g.adj_indptr)
            if degrees.max() > 10 * 3:
                hits += 1
        assert hits >= 19

    def test_connected(self):
        g = barabasi_albert(500, 2, seed=3)
        assert len(connected_components(g, range(500))) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert(5, 0)
        with pytest.raises(ValueError):
            barabasi_albert(5, 5)


class TestRandomWalkSubgraph:
    def test_single_node(self):
        g = barabasi_albert(50, 2, seed=0)
        sub = random_walk_subgraph(g, 1, seed=0)
        assert len(sub) == 1

    def test_exhaustive(self):
        g = Graph(5, [(i, i + 1) for i in range(4)])
        sub = random_walk_subgraph(g, 5, seed=0)
        assert sub == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("seed", range(10))
    def test_always_connected(self, seed):
        g = barabasi_albert(300, 3, seed=seed)
        sub = random_walk_subgraph(g, 30, seed=seed)
        assert len(sub) == 30
        assert len(connected_components(g, sub)) == 1

    def test_component_too_small(self):
        g = Graph(4, [(0, 1)])  # nodes 2,3 isolated
        with pytest.raises(ValueError, match="component"):
            random_walk_subgraph(g, 3, rng=np.random.default_rng(4))

    def test_error_names_the_component_size(self):
        # two paths of 3 nodes: every start reaches exactly 3
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        for seed in range(10):
            assert len(random_walk_subgraph(g, 3, seed=seed)) == 3
            with pytest.raises(ValueError,
                               match=r"^component of start node \d has 3 nodes < size 4$"):
                random_walk_subgraph(g, 4, seed=seed)


class TestEvolvingSubgraphs:
    def test_full_overlap_is_constant(self):
        g = barabasi_albert(200, 3, seed=2)
        subs = evolving_subgraphs(g, 4, [25] * 4, overlap=1.0, seed=2)
        assert all(s == subs[0] for s in subs)

    def test_half_overlap_lower_bound(self):
        g = barabasi_albert(500, 3, seed=5)
        subs = evolving_subgraphs(g, 6, [100] * 6, overlap=0.5, seed=5)
        for a, b in zip(subs, subs[1:]):
            shared = len(set(a) & set(b))
            assert shared >= np.ceil(0.5 * len(a))

    def test_single_step(self):
        g = barabasi_albert(100, 2, seed=1)
        subs = evolving_subgraphs(g, 1, [10], overlap=0.5, seed=1)
        assert len(subs) == 1 and len(subs[0]) == 10

    @pytest.mark.parametrize("seed", range(5))
    def test_every_step_connected(self, seed):
        g = barabasi_albert(300, 3, seed=seed)
        subs = evolving_subgraphs(g, 7, [30] * 7, overlap=0.5, seed=seed)
        for s in subs:
            assert len(s) == 30
            assert len(connected_components(g, s)) == 1


class TestInjectFeatures:
    def test_background_mean(self):
        sig = inject_features(10_000, [], mu=0.0, seed=0)
        assert abs(sig.values.mean()) < 0.05

    def test_true_mean(self):
        sig = inject_features(20_000, range(10_000), mu=5.0, seed=0)
        assert abs(sig.values[:10_000].mean() - 5.0) < 0.05

    def test_deterministic(self):
        a = inject_features(100, [1, 2, 3], mu=3.0, seed=7)
        b = inject_features(100, [1, 2, 3], mu=3.0, seed=7)
        assert np.array_equal(a.values, b.values)


class TestFlipNoise:
    def test_zero_percent_identity(self):
        sig = BlockSignal(np.array([0.0, 1.0, 1.0, 0.0]))
        out = flip_noise(sig, 0, seed=0)
        assert np.array_equal(out.values, sig.values)

    def test_full_flip(self):
        sig = BlockSignal(np.array([0.0, 1.0, 1.0, 0.0]))
        out = flip_noise(sig, 100, seed=0)
        assert np.array_equal(out.values, 1.0 - sig.values)

    def test_exact_hamming_distance(self):
        rng = np.random.default_rng(0)
        sig = BlockSignal((rng.random(1000) < 0.3).astype(float))
        out = flip_noise(sig, 10, seed=3)
        assert int(np.sum(out.values != sig.values)) == 100

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            flip_noise(BlockSignal(np.array([0.5, 1.0])), 10)

    def test_same_seed_flip_is_involution(self):
        # flipping the same node set twice restores the input
        rng = np.random.default_rng(5)
        sig = BlockSignal((rng.random(400) < 0.4).astype(float))
        once = flip_noise(sig, 25, seed=9)
        twice = flip_noise(once, 25, seed=9)
        assert np.array_equal(twice.values, sig.values)


@pytest.mark.parametrize("field, value, message", [
    ("mu", float("nan"), "mu must be finite and nonnegative, got nan"),
    ("mu", float("inf"), "mu must be finite and nonnegative, got inf"),
    ("mu", -1.0, "mu must be finite and nonnegative, got -1.0"),
    ("subgraph_size", float("nan"), "subgraph_size must be finite, got nan"),
    ("subgraph_size", float("inf"), "subgraph_size must be finite, got inf"),
    ("subgraph_size", 2.5, "subgraph_size must be a fraction below 1 or a whole number, got 2.5"),
])
def test_spec_rejects_a_bad_parameter_naming_it(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SyntheticSpec(n=100, **{field: value})


def test_bundle_with_a_non_finite_mu_is_refused(tmp_path):
    spec = SyntheticSpec(n=50, m=2, T=2, subgraph_size=6, seed=8)
    out = write_bundle(generate_temporal(spec), str(tmp_path / "b"))
    path = os.path.join(out, "metadata.txt")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("mu=5.0", "mu=nan"))
    with pytest.raises(ValueError, match="mu must be finite and nonnegative, got nan"):
        read_bundle(out)


class TestInstances:
    def test_temporal_expansion_shape(self):
        spec = SyntheticSpec(n=60, m=3, T=4, subgraph_size=8, seed=3)
        inst = generate_temporal(spec)
        big, part, signal = inst.expand()
        assert big.node_count == 240
        assert big.edge_count == 4 * inst.base_graph.edge_count
        assert part.num_blocks == 4
        assert part.cut_edges.shape == (0, 2)
        assert len(signal) == 240
        assert len(inst.truth_pairs()) == 4 * 8
        # the tiled edges, taken unchecked, give what the checking constructor gives
        checked = Graph(240, big.edges)
        for name in ("edge_u", "edge_v", "edge_w", "adj_indptr", "adj_nodes", "adj_eids"):
            got, want = getattr(big, name), getattr(checked, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_every_temporal_block_graph_is_the_base_graph(self, monkeypatch):
        spec = SyntheticSpec(n=60, m=3, T=4, subgraph_size=8, seed=3)
        inst = generate_temporal(spec)
        base = inst.base_graph
        big, part, signal = inst.expand()
        # what a partition of the tiled graph would build for each block
        fresh = BlockPartition(big, part.assignment, part.num_blocks)
        for k in range(part.num_blocks):
            assert part.block_graph(k) is base
            block = fresh.block_graph(k)
            assert block == base
            for name in ("adj_indptr", "adj_nodes", "adj_eids"):
                assert np.array_equal(getattr(block, name), getattr(base, name))
        # so a whole solve builds one engine, on the base graph
        built, init = [], PcstEngine.__init__

        def counted(engine, graph):
            built.append(graph)
            init(engine, graph)

        monkeypatch.setattr(PcstEngine, "__init__", counted)
        objective = ObjectiveSpec("temporal", part, signal, lam=0.02)
        gbgp_solve(objective, SolverConfig(budgets=8, max_outer_iters=3))
        assert len(built) == 1 and built[0] is base

    def test_non_instance(self):
        spec = SyntheticSpec(n=120, m=3, subgraph_size=0.1, seed=4)
        inst = generate_non(spec, num_blocks=4)
        assert inst.partition.num_blocks == 4
        assert len(inst.truth) == 12
        assert len(connected_components(inst.graph, inst.truth)) == 1

    def test_bundle_round_trip(self, tmp_path):
        spec = SyntheticSpec(n=50, m=2, T=3, subgraph_size=6, seed=8)
        inst = generate_temporal(spec)
        out = write_bundle(inst, str(tmp_path / "bundle"))
        graph = load_graph(str(tmp_path / "bundle" / "graph.txt"))
        assert graph == inst.base_graph
        meta = read_metadata(str(tmp_path / "bundle" / "metadata.txt"))
        assert meta["kind"] == "temporal"
        assert meta["rng"] == "pcg64"
        assert meta["T"] == 3 and meta["mu"] == spec.mu
        truth = read_truth(str(tmp_path / "bundle" / "truth.txt"))
        assert truth == inst.truth_pairs()

    @pytest.mark.parametrize("line, message", [
        ("kind=other", r"md\.txt:2: kind must be temporal or non, not 'other'"),
        ("no equals sign", r"md\.txt:2: expected key=value"),
    ], ids=["bad-kind", "no-equals-sign"])
    def test_metadata_rejects_bad_lines(self, tmp_path, line, message):
        p = tmp_path / "md.txt"
        p.write_text(f"# metadata\n{line}\n")
        with pytest.raises(ValueError, match=message):
            read_metadata(str(p))

    def test_bundle_bytes_reproducible(self, tmp_path):
        spec = SyntheticSpec(n=40, m=2, T=2, subgraph_size=5, seed=11)
        paths = []
        for name in ("a", "b"):
            inst = generate_temporal(spec)
            write_bundle(inst, str(tmp_path / name))
            paths.append(tmp_path / name)
        for fname in ("graph.txt", "signal_t0.txt", "signal_t1.txt", "truth.txt", "metadata.txt"):
            assert (paths[0] / fname).read_bytes() == (paths[1] / fname).read_bytes()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, m=10)
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, m=2, overlap=1.5)
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, m=2, subgraph_size=20)
