import numpy as np
import pytest

from gbgp.graph import Graph, connected_components
from gbgp.projections import budget_search, head_project, tail_project

from oracles import (
    connected_subsets,
    head_optimum,
    path_graph,
    small_graph_families,
    tail_optimum,
)


class TestHeadProject:
    def test_tie_breaks_to_lowest_id(self):
        g = path_graph(3)
        out = head_project([3.0, 0.0, 3.0], g, budget=1)
        assert out.support.nodes == (0,)
        assert out.residual_sq == pytest.approx(9.0)

    def test_zero_weights_degenerate_singleton(self):
        g = path_graph(3)
        out = head_project([0.0, 0.0, 0.0], g, budget=2)
        assert out.support.nodes == (0,)

    def test_symmetric_pair_tie_break(self):
        g = path_graph(5)
        out = head_project([5.0, 4.0, 0.0, 4.0, 5.0], g, budget=2, capacity_mode="s")
        assert out.support.nodes == (0, 1)
        assert out.residual_sq == pytest.approx(41.0)

    def test_symmetric_pair_loose_capacity_contract(self):
        g = path_graph(5)
        w = [5.0, 4.0, 0.0, 4.0, 5.0]
        out = head_project(w, g, budget=2, capacity_mode="2s")
        assert out.budget_used <= 4
        assert np.sqrt(out.residual_sq) >= np.sqrt(41.0)

    def test_budget_respected(self):
        g = path_graph(6)
        out = head_project([1.0] * 6, g, budget=2, capacity_mode="2s")
        assert out.budget_used <= 4
        out = head_project([1.0] * 6, g, budget=2, capacity_mode="s")
        assert out.budget_used <= 2

    def test_errors(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            head_project([1.0, 1.0, 1.0], g, budget=4)
        with pytest.raises(ValueError):
            head_project([1.0], g, budget=1)
        with pytest.raises(ValueError):
            head_project([], Graph(0, []), budget=1)


class TestTailProject:
    def test_already_feasible_exact(self):
        g = path_graph(6)
        b = np.zeros(6)
        b[[2, 3, 4]] = [0.5, 0.8, 0.3]
        out = tail_project(b, g, budget=4)
        assert set(out.support.nodes) >= {2, 3, 4}
        assert out.residual_sq == pytest.approx(0.0, abs=1e-12)

    def test_bridges_through_zero(self):
        g = path_graph(3)
        out = tail_project([1.0, 0.0, 1.0], g, budget=3)
        assert out.support.nodes == (0, 1, 2)
        assert out.residual_sq == pytest.approx(0.0)

    def test_zero_vector(self):
        g = path_graph(3)
        out = tail_project([0.0, 0.0, 0.0], g, budget=2)
        assert out.support.nodes == (0,)
        assert out.residual_sq == pytest.approx(0.0)


class TestBudgetSearch:
    def test_single_concentrated_prize_exits_immediately(self):
        g = path_graph(4)
        prizes = np.array([0.0, 9.0, 0.0, 0.0])
        nodes, iters, _ = budget_search(g, prizes, budget=1)
        assert nodes == (1,)
        assert iters == 1

    def test_window_hit_on_first_probe(self):
        g = path_graph(3)
        prizes = np.array([4.0, 4.0, 4.0])
        nodes, iters, _ = budget_search(g, prizes, budget=3, capacity=3)
        assert len(nodes) == 3
        assert iters == 1

    def test_uniform_path_terminates_quickly(self):
        g = path_graph(5)
        prizes = np.ones(5)
        nodes, iters, _ = budget_search(g, prizes, budget=2, capacity=2)
        assert len(nodes) <= 2
        assert iters <= 30

    def test_fallback_top_prize_node(self):
        g = path_graph(3)
        nodes, _, _ = budget_search(g, np.zeros(3), budget=2)
        assert nodes == (0,)


class TestOracleSuite:
    """Head/tail quality against exhaustive enumeration on small graphs."""

    def test_quality_bounds(self):
        rng = np.random.default_rng(42)
        checked = 0
        for name, graph in small_graph_families(rng, sizes=(6, 9)):
            n = graph.node_count
            for _ in range(5):
                w = rng.normal(size=n)
                w[rng.random(n) < 0.3] = 0.0
                for s in (1, 2, max(2, n // 3)):
                    head = head_project(w, graph, budget=s)
                    assert np.sqrt(head.residual_sq) >= 0.5 * head_optimum(graph, w, s) - 1e-9
                    tail = tail_project(w, graph, budget=s)
                    assert np.sqrt(tail.residual_sq) <= 2.0 * tail_optimum(graph, w, s) + 1e-9
                    checked += 1
        assert checked > 50

    def test_single_node_budget_exact(self):
        rng = np.random.default_rng(7)
        for name, graph in small_graph_families(rng, sizes=(6,)):
            w = rng.normal(size=graph.node_count)
            head = head_project(w, graph, budget=1, capacity_mode="s")
            assert np.sqrt(head.residual_sq) == pytest.approx(np.abs(w).max())
            tail = tail_project(w, graph, budget=1)
            assert np.sqrt(tail.residual_sq) == pytest.approx(tail_optimum(graph, w, 1))

    def test_already_feasible_inputs_exact(self):
        rng = np.random.default_rng(13)
        for name, graph in small_graph_families(rng, sizes=(9,)):
            subs = [s for s in connected_subsets(graph, 4) if len(s) >= 2]
            sub = subs[int(rng.integers(0, len(subs)))]
            b = np.zeros(graph.node_count)
            b[list(sub)] = rng.uniform(0.5, 1.5, size=len(sub))
            out = tail_project(b, graph, budget=4)
            assert out.residual_sq == pytest.approx(0.0, abs=1e-12)


class TestProjectionProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_connectivity_and_budget(self, seed):
        rng = np.random.default_rng(seed)
        from oracles import random_sparse

        n = int(rng.integers(5, 13))
        graph = random_sparse(n, rng)
        w = rng.normal(size=n)
        s = int(rng.integers(1, n))
        for g_comp in (1, 2):
            head = head_project(w, graph, budget=s, num_components=g_comp)
            comps = connected_components(graph, head.support.nodes)
            assert len(comps) <= g_comp
            assert head.budget_used <= min(2 * s, n)
            tail = tail_project(w, graph, budget=s, num_components=g_comp)
            comps = connected_components(graph, tail.support.nodes)
            assert len(comps) <= g_comp
            assert tail.budget_used <= s

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        g = path_graph(8)
        w = rng.normal(size=8)
        a = head_project(w, g, budget=3)
        b = head_project(w, g, budget=3)
        assert a == b
