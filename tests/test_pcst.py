"""Tests for the prize-collecting Steiner forest engine.

The quality oracle enumerates every connected node subset of small
instances, prices its minimum spanning tree, and checks the classic
moat-growing guarantee: cost(F) + 2*prize(excluded) is at most twice
the optimal cost-version objective.
"""
import hashlib
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgp.graph import Graph, connected_components
from gbgp.pcst import PcstEngine, PcstResult, strong_prune


def mst_cost(nodes, edges):
    """Kruskal on the subgraph induced by ``nodes``; None if disconnected."""
    nodes = list(nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pool = sorted(
        (c, u, v) for u, v, c in edges if u in idx and v in idx
    )
    total, joined = 0.0, 0
    for c, u, v in pool:
        ru, rv = find(idx[u]), find(idx[v])
        if ru != rv:
            parent[ru] = rv
            total += c
            joined += 1
    return total if joined == len(nodes) - 1 else None


def cost_version_opt(n, edges, prizes):
    """min over connected S (or empty) of mst(S) + prize outside S."""
    total_prize = sum(prizes)
    best = total_prize  # empty selection
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            tree = mst_cost(sub, edges)
            if tree is None:
                continue
            value = tree + total_prize - sum(prizes[u] for u in sub)
            best = min(best, value)
    return best


def forest_cost_version(result: PcstResult, edges_with_cost, prizes):
    cost_of = {(min(u, v), max(u, v)): c for u, v, c in edges_with_cost}
    tree_cost = sum(cost_of[e] for e in result.edges)
    included = set(result.nodes)
    excluded_prize = sum(p for u, p in enumerate(prizes) if u not in included)
    return tree_cost, excluded_prize


def random_instance(rng, n):
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.add((j, i))
    for _ in range(n // 2):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    costs = {e: float(rng.uniform(0.2, 2.0)) for e in edges}
    prizes = [float(rng.uniform(0, 3.0)) if rng.random() < 0.7 else 0.0 for _ in range(n)]
    ewc = [(u, v, costs[(u, v)]) for u, v in sorted(edges)]
    return ewc, prizes


def make_engine(n, edges):
    """Engine over Graph(n, edges); costs follow the sorted edge order."""
    return PcstEngine(Graph(n, edges))


def golden_instances(count=300, seed=2024):
    """Seeded sparse instances with unit, scaled-unit and random costs.

    Unit and scaled-unit costs make equal event times common, so these
    instances pin the engine's tie-breaking and its floating-point
    arithmetic, not only its optimum.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 61))
        edges = set()
        for v in range(1, n):
            if rng.random() < 0.9:
                edges.add((int(rng.integers(0, v)), v))
        for _ in range(int(rng.integers(0, n + 1))):
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u != v:
                edges.add((min(u, v), max(u, v)))
        edges = sorted(edges)
        kind = i % 3
        if kind == 0:
            costs = [1.0] * len(edges)
        elif kind == 1:
            costs = [math.exp(float(rng.uniform(-3.0, 3.0)))] * len(edges)
        else:
            costs = rng.uniform(0.05, 3.0, size=len(edges)).tolist()
        prized = rng.random(n) < rng.uniform(0.05, 0.7)
        prizes = np.where(prized, 3.0 * rng.standard_normal(n) ** 2, 0.0).tolist()
        yield n, edges, costs, prizes, int(rng.integers(1, 4))


# sha256 of the forests the engine returned on golden_instances() before
# the engine was rewritten to work only on prized nodes; any change to an
# event time, a tie break or a floating-point sum shows up here
GOLDEN_DIGEST = "11e87117e08df1077318e870675bff44698c7188b7482ee7468fe3ba745e3a69"


def test_golden_forests_are_byte_identical():
    digest = hashlib.sha256()
    for n, edges, costs, prizes, num_trees in golden_instances():
        result = make_engine(n, edges).solve(costs, prizes, num_trees)
        digest.update(repr(result.components).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


class TestGrowForestExamples:
    def test_star_collects_everything(self):
        # center prize 0, three leaves prize 10, unit costs
        edges = [(0, 1), (0, 2), (0, 3)]
        result = make_engine(4, edges).solve([1.0, 1.0, 1.0], [0.0, 10.0, 10.0, 10.0])
        assert result.nodes == [0, 1, 2, 3]
        assert result.edges == [(0, 1), (0, 2), (0, 3)]

    def test_all_zero_prizes_empty(self):
        result = make_engine(3, [(0, 1), (1, 2)]).solve([1.0, 1.0], [0.0, 0.0, 0.0])
        assert result.nodes == []
        assert result.edges == []

    def test_isolated_prized_node(self):
        result = make_engine(1, []).solve([], [5.0])
        assert result.nodes == [0]
        assert result.edges == []

    def test_expensive_edges_keep_best_singleton(self):
        # ties on prize resolve toward the lowest node id
        edges = [(0, 1), (1, 2)]
        result = make_engine(3, edges).solve([100.0, 100.0], [9.0, 0.0, 9.0])
        assert result.nodes == [0]

    def test_bridge_through_zero_prize_node(self):
        # cheap edges: worth paying to connect both prized endpoints
        edges = [(0, 1), (1, 2)]
        result = make_engine(3, edges).solve([0.1, 0.1], [1.0, 0.0, 1.0])
        assert result.nodes == [0, 1, 2]

    def test_two_trees_allowed(self):
        # two prize islands separated by a very costly edge
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        costs = [0.1, 50.0, 50.0, 0.1]
        prizes = [4.0, 4.0, 0.0, 4.0, 4.0]
        result = make_engine(5, edges).solve(costs, prizes, num_trees=2)
        assert len(result.components) == 2
        assert result.nodes == [0, 1, 3, 4]


class TestGrowForestProperties:
    @pytest.mark.parametrize("seed", range(30))
    def test_output_is_valid_forest(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        ewc, prizes = random_instance(rng, n)
        g = int(rng.integers(1, 3))
        engine = make_engine(n, [(u, v) for u, v, _ in ewc])
        result = engine.solve([c for _, _, c in ewc], prizes, num_trees=g)
        assert len(result.components) <= g
        graph = Graph(n, ewc)
        for nodes, edges in result.components:
            assert len(edges) == len(nodes) - 1
            comps = connected_components(graph, nodes)
            assert len(comps) == 1
            for u, v in edges:
                assert u in nodes and v in nodes

    @pytest.mark.parametrize("seed", range(30))
    def test_two_approximation_cost_version(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 9))
        ewc, prizes = random_instance(rng, n)
        result = make_engine(n, [(u, v) for u, v, _ in ewc]).solve([c for _, _, c in ewc], prizes)
        tree_cost, excluded = forest_cost_version(result, ewc, prizes)
        opt = cost_version_opt(n, ewc, prizes)
        assert tree_cost + 2.0 * excluded <= 2.0 * opt + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        ewc, prizes = random_instance(rng, 9)
        costs = [c for _, _, c in ewc]
        first = make_engine(9, [(u, v) for u, v, _ in ewc]).solve(costs, prizes)
        second = make_engine(9, [(u, v) for u, v, _ in ewc]).solve(costs, prizes)
        assert first.nodes == second.nodes
        assert first.edges == second.edges

    def test_rejects_bad_input(self):
        engine = make_engine(2, [(0, 1)])
        with pytest.raises(ValueError):
            engine.solve([0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            engine.solve([1.0], [-1.0, 1.0])
        with pytest.raises(ValueError, match="prizes length"):
            engine.solve([1.0], [1.0])
        with pytest.raises(ValueError, match="edge costs"):
            engine.solve(np.array([np.nan]), np.ones(2))
        with pytest.raises(ValueError, match="prizes must"):
            engine.solve(np.ones(1), np.array([np.inf, 0.0]))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_power_of_two_scaling_keeps_forest(self, data):
        # scaling every cost and prize by 2^k is exact in floating point,
        # so the event order and every tie break must stay the same
        n = data.draw(st.integers(1, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(data.draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
        costs = data.draw(st.lists(st.integers(1, 20), min_size=len(edges), max_size=len(edges)))
        prizes = data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        num_trees = data.draw(st.integers(1, 3))
        engine = make_engine(n, edges)
        base = engine.solve([float(c) for c in costs], [float(p) for p in prizes], num_trees)
        for k in range(-2, 4):
            scale = 2.0 ** k
            scaled = engine.solve([c * scale for c in costs], [p * scale for p in prizes],
                                  num_trees)
            assert scaled.components == base.components

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_zero_prize_pendants_keep_forest(self, data):
        # integer costs and prizes keep every event time exact, so the
        # extra pendant events cannot move a tie break
        n = data.draw(st.integers(1, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(data.draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
        costs = data.draw(st.lists(st.integers(1, 20), min_size=len(edges), max_size=len(edges)))
        prizes = data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        num_trees = data.draw(st.integers(1, 3))
        anchors = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        pendant_costs = data.draw(st.lists(st.integers(1, 20), min_size=len(anchors),
                                           max_size=len(anchors)))
        base = make_engine(n, edges).solve([float(c) for c in costs],
                                           [float(p) for p in prizes], num_trees)
        cost_of = dict(zip(edges, costs))
        for j, (u, c) in enumerate(zip(anchors, pendant_costs)):
            cost_of[(u, n + j)] = c
        grown = sorted(cost_of)
        extended = make_engine(n + len(anchors), grown).solve(
            [float(cost_of[e]) for e in grown],
            [float(p) for p in prizes] + [0.0] * len(anchors),
            num_trees,
        )
        assert extended.components == base.components


def test_import_binds_the_module():
    import gbgp.pcst

    assert isinstance(gbgp.pcst, types.ModuleType)
    assert gbgp.pcst.PcstEngine is PcstEngine


class TestStrongPrune:
    def test_prunes_losing_arm(self):
        # 0 -1- 1 -5- 2 : node 2 prize 3 cannot pay the cost-5 edge
        nodes = [0, 1, 2]
        tree = [(0, 1, 1.0), (1, 2, 5.0)]
        prizes = [2.0, 2.0, 3.0]
        kept, edges, _ = strong_prune(nodes, tree, prizes)
        assert kept == [0, 1]
        assert edges == [(0, 1)]

    def test_keeps_whole_tree_when_profitable(self):
        nodes = [0, 1, 2]
        tree = [(0, 1, 0.5), (1, 2, 0.5)]
        prizes = [2.0, 2.0, 2.0]
        kept, edges, _ = strong_prune(nodes, tree, prizes)
        assert kept == [0, 1, 2]

    def test_picks_best_subtree_not_containing_dfs_root(self):
        # best subtree is {2,3}; DFS starts from node 0
        nodes = [0, 1, 2, 3]
        tree = [(0, 1, 10.0), (1, 2, 10.0), (2, 3, 0.1)]
        prizes = [1.0, 0.0, 5.0, 5.0]
        kept, edges, _ = strong_prune(nodes, tree, prizes)
        assert kept == [2, 3]
        assert edges == [(2, 3)]

    def test_zero_margin_excluded(self):
        nodes = [0, 1]
        tree = [(0, 1, 1.0)]
        prizes = [2.0, 1.0]
        kept, _, _ = strong_prune(nodes, tree, prizes)
        assert kept == [0]
