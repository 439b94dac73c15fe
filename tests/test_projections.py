import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgp.datagen import SyntheticSpec, generate_non
from gbgp.graph import Graph, connected_components
import gbgp.pcst
from gbgp.projections import (MULTIPLIER_HIGH, _engine_for, budget_search, head_project,
                              search_phase, tail_project)

from oracles import (
    connected_subsets,
    cpus,
    head_optimum,
    one_real_cpu,
    path_graph,
    reference_budget_search,
    reference_search_bounds,
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
        assert len(out.support) <= 4
        assert np.sqrt(out.residual_sq) >= np.sqrt(41.0)

    def test_budget_respected(self):
        g = path_graph(6)
        out = head_project([1.0] * 6, g, budget=2, capacity_mode="2s")
        assert len(out.support) <= 4
        out = head_project([1.0] * 6, g, budget=2, capacity_mode="s")
        assert len(out.support) <= 2

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

    @pytest.mark.parametrize("prizes", [np.zeros(5), np.array([0.0, 0.0, 0.0, 1e-13, 0.0])],
                             ids=["zero", "below-EPS"])
    @pytest.mark.parametrize("warm", [None, 1e3])
    def test_nothing_found_falls_back_to_the_first_top_prize(self, prizes, warm):
        # no probe collects a prize at or below the engine's EPS of 1e-12
        g = path_graph(5)
        found = budget_search(g, prizes, 2, None, 1, warm)
        assert found == reference_budget_search(g, prizes, 2, None, 1, warm)
        assert found[0] == (int(np.argmax(prizes)),) and found[2] == MULTIPLIER_HIGH

    def test_a_graph_without_nodes_raises(self):
        # checked before any task is built: no search writes an empty buffer
        with pytest.raises(ValueError, match="^a budget search needs a graph with at least one"):
            budget_search(Graph(0, []), np.zeros(0), 1)
        with pytest.raises(ValueError, match="^a budget search needs a graph with at least one"):
            search_phase([(path_graph(3), np.ones(3), 2), (Graph(0, []), np.zeros(0), 1)])

    @pytest.mark.parametrize("num_components", [0, -1])
    def test_component_count_error_names_the_parameter(self, num_components):
        with pytest.raises(ValueError, match=r"^num_components must be >= 1$"):
            budget_search(path_graph(3), np.ones(3), budget=2, num_components=num_components)

    @pytest.mark.parametrize("budget, capacity", [(0, None), (-2, None), (1, 0), (3, 2)])
    def test_a_budget_outside_one_to_capacity_raises(self, budget, capacity):
        with pytest.raises(ValueError, match=r"^budget -?\d+ must be in \[1, capacity -?\d+\]$"):
            budget_search(path_graph(4), np.array([1.0, 2.0, 3.0, 4.0]), budget, capacity)


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
            assert len(head.support) <= min(2 * s, n)
            tail = tail_project(w, graph, budget=s, num_components=g_comp)
            comps = connected_components(graph, tail.support.nodes)
            assert len(comps) <= g_comp
            assert len(tail.support) <= s

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        g = path_graph(8)
        w = rng.normal(size=8)
        a = head_project(w, g, budget=3)
        b = head_project(w, g, budget=3)
        assert a == b


@st.composite
def disconnected_instances(draw):
    """2-4 random connected pieces, integer costs 1-4, integer prizes 0-9.

    Integer prizes sum exactly, so equal masses compare equal.
    """
    edges, n = set(), 0
    for _ in range(draw(st.integers(2, 4))):
        k = draw(st.integers(1, 6))
        for v in range(1, k):
            edges.add((n + draw(st.integers(0, v - 1)), n + v))
        for a, b in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                                  max_size=2)):
            if a != b:
                edges.add((n + min(a, b), n + max(a, b)))
        n += k
    edges = sorted(edges)
    costs = draw(st.lists(st.integers(1, 4), min_size=len(edges), max_size=len(edges)))
    prizes = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    graph = Graph(n, [(u, v, float(c)) for (u, v), c in zip(edges, costs)])
    return graph, np.array(prizes, dtype=np.float64)


def search_without_component_bound(graph, *args):
    """budget_search with every node labelled one component: top-capacity exit only."""
    engine = _engine_for(graph)
    labels = engine.labels
    engine.labels = np.zeros(graph.node_count, dtype=np.intp)
    try:
        return budget_search(graph, *args)
    finally:
        engine.labels = labels


class TestComponentBound:
    def test_engine_labels_components_by_lowest_member(self):
        g = Graph(7, [(0, 3), (3, 5), (1, 2), (4, 6)])
        assert _engine_for(g).labels.tolist() == [0, 1, 1, 0, 2, 0, 2]

    @pytest.mark.parametrize("prizes", [[1.0] * 7, [1.0, 2.0, 1.0, 3.0, 2.0, 2.0, 2.0]])
    @pytest.mark.parametrize("budget", [5, 6])
    def test_disjoint_paths_end_in_two_probes(self, prizes, budget):
        # no tree can hold more than path 0-3, so the budget is out of reach
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
        prizes = np.array(prizes)
        nodes, probes, mult = budget_search(g, prizes, budget)
        full = search_without_component_bound(g, prizes, budget)
        assert probes <= 2
        assert (nodes, mult) == (full[0], full[2])
        assert full[1] > 10

    @settings(max_examples=300, deadline=None)
    @given(disconnected_instances(), st.data())
    def test_bound_only_ends_the_search_early(self, instance, data):
        # the bound leaves the probe sequence alone until it fires, so the
        # result is the same unless it fired, and then it has the same mass
        graph, prizes = instance
        n = graph.node_count
        budget = data.draw(st.integers(1, n))
        capacity = min(budget * data.draw(st.sampled_from([1, 2])), n)
        num_components = data.draw(st.integers(1, 3))
        warm = data.draw(st.one_of(st.none(), st.integers(-10, 10).map(lambda k: 2.0 ** k)))
        args = (prizes, budget, capacity, num_components, warm)
        nodes, probes, mult = budget_search(graph, *args)
        full_nodes, full_probes, full_mult = search_without_component_bound(graph, *args)
        assert probes <= full_probes
        if probes == full_probes:
            assert (nodes, mult) == (full_nodes, full_mult)
        assert prizes[list(nodes)].sum() == prizes[list(full_nodes)].sum()
        assert len(nodes) <= capacity

    def test_early_exit_can_keep_a_larger_tie(self):
        # three components of mass 4 and num_components 2: the search stops
        # at the first support of mass 8, {0, 3, 4} + {7}; a full bisection
        # later finds {7} + {8, 9}, the same mass on fewer nodes
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (5, 7), (8, 9, 2.0), (8, 10),
                 (11, 12), (11, 13)]
        g = Graph(14, edges)
        prizes = np.zeros(14)
        prizes[[3, 4, 7, 8, 9]] = [1.0, 3.0, 4.0, 1.0, 3.0]
        nodes, probes, _ = budget_search(g, prizes, 5, 5, 2)
        full_nodes, full_probes, _ = search_without_component_bound(g, prizes, 5, 5, 2)
        assert (nodes, probes) == ((0, 3, 4, 7), 2)
        assert (full_nodes, full_probes) == ((7, 8, 9), 12)

    @settings(max_examples=200, deadline=None)
    @given(disconnected_instances(), st.data())
    def test_supports_fit_capacity_and_component_count(self, instance, data):
        graph, prizes = instance
        n = graph.node_count
        values = np.sqrt(prizes) * data.draw(st.sampled_from([1.0, -1.0]))
        budget = data.draw(st.integers(1, n))
        num_components = data.draw(st.integers(1, 3))
        mode = data.draw(st.sampled_from(["s", "2s"]))
        capacity = min((2 if mode == "2s" else 1) * budget, n)
        for project in (head_project, tail_project):
            out = project(values, graph, budget, num_components, capacity_mode=mode)
            assert len(out.support) <= capacity
            assert len(connected_components(graph, out.support.nodes)) <= num_components


def kernel_bounds(searches) -> list[tuple[float, float]]:
    """Each search's ``(total, exit_score)`` as the kernel wrote them back into its task."""
    kernel, bounds = gbgp.pcst._kernel, []

    class Recording:
        def __getattr__(self, name):
            return getattr(kernel, name)

        def gbgp_pcst_phase(self, tasks, *args):
            kernel.gbgp_pcst_phase(tasks, *args)
            bounds.extend((task.total, task.exit_score) for task in tasks)

    with mock.patch.object(gbgp.pcst, "_kernel", Recording()):
        search_phase(searches)
    return bounds


# few distinct values, so ties at the capacity threshold are common, and
# not integers, so the order of a sum can change its last bits
TIED_PRIZES = [0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 2.9]


class TestSearchBounds:
    """The kernel's bounds are the oracle's sums over the chosen values in
    ascending node or label order, ties at a threshold to the lower one."""

    @settings(max_examples=300, deadline=None)
    @given(disconnected_instances(), st.data())
    def test_the_kernel_sums_in_the_defined_order(self, instance, data):
        graph, _ = instance
        n = graph.node_count
        prizes = np.array(data.draw(st.lists(st.sampled_from(TIED_PRIZES), min_size=n,
                                             max_size=n)))
        capacity = data.draw(st.integers(1, n + 2))
        budget = data.draw(st.integers(1, capacity))
        num_components = data.draw(st.integers(1, 3))
        [got] = kernel_bounds([(graph, prizes, budget, capacity, num_components)])
        want = reference_search_bounds(graph, prizes, capacity, num_components)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("num_components", [1, 2, 3])
    @pytest.mark.parametrize("capacity", [2, 3, 9, 12])
    @pytest.mark.parametrize("case", ["ties", "all-zero"])
    def test_ties_capacity_at_or_above_n_and_zero_prizes(self, case, capacity, num_components):
        # three components, {0..3}, {4, 5, 6} and {7, 8}; capacity 9 is n
        g = Graph(9, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (7, 8)])
        prizes = np.zeros(9)
        if case == "ties":
            prizes[:] = [0.1, 0.7, 0.3, 0.7, 0.7, 0.2, 1 / 3, 0.7, 0.1]
        [got] = kernel_bounds([(g, prizes, 1, capacity, num_components)])
        want = reference_search_bounds(g, prizes, capacity, num_components)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        if case == "all-zero":
            assert got == (0.0, -1e-12)


@st.composite
def wide_instances(draw):
    """A connected graph of 150-400 nodes: a random tree plus random edges.

    Real-valued prizes on a random share of the nodes, so that supports
    of more than 128 nodes occur and their sums depend on the order.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(150, 401))
    parents = [int(rng.integers(0, v)) for v in range(1, n)]
    edges = {(p, v) for v, p in enumerate(parents, start=1)}
    for a, b in rng.integers(0, n, size=(n // 2, 2)).tolist():
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)
    weights = rng.uniform(0.05, 2.0, size=len(edges))
    graph = Graph(n, [(u, v, w) for (u, v), w in zip(edges, weights.tolist())])
    prizes = rng.random(n) ** 3 * 10.0 ** rng.uniform(-3, 3)
    prizes[rng.random(n) < rng.uniform(0.0, 0.9)] = 0.0
    return graph, prizes


@st.composite
def search_arguments(draw):
    graph, prizes = draw(st.one_of(disconnected_instances(), wide_instances()))
    n = graph.node_count
    if draw(st.booleans()):
        # non-integer masses, whose sums depend on the summation order
        prizes = prizes * draw(st.sampled_from([0.1, 0.37, 1.3]))
    if draw(st.integers(0, 9)) == 0:
        prizes = np.zeros(n)
    budget = draw(st.integers(1, n))
    # the capacity may sit above the budget, up to the block size
    capacity = min(budget * draw(st.sampled_from([1, 2, 3])), n)
    num_components = draw(st.integers(1, 3))
    warm = draw(st.one_of(st.none(), st.floats(-25.0, 25.0).map(math.exp),
                          st.sampled_from([1e-6, 1e6, 0.5e-6, 2e6])))
    return graph, prizes, budget, capacity, num_components, warm


def mirrored_path_search(rng, n: int, min_budget: int = 1):
    """A path whose prizes mirror around its middle, and search arguments.

    Both halves hold the same masses in opposite orders.
    """
    half = rng.random(n // 2) * 10.0 ** rng.uniform(-2, 2)
    half[rng.random(n // 2) < 0.3] = 0.0
    prizes = np.concatenate([half, [0.0] * (n % 2), half[::-1]])
    graph = Graph(n, [(v - 1, v, 1.0) for v in range(1, n)])
    budget = int(rng.integers(min_budget, n // 2 if min_budget > 1 else n))
    capacity = min(n, budget * int(rng.integers(1, 3)))
    num_components = int(rng.integers(1, 4))
    warm = None if rng.random() < 0.5 else float(np.exp(rng.uniform(-14, 14)))
    return graph, (prizes, budget, capacity, num_components, warm)


class TestSearchReplaysTheReferenceLoop:
    @settings(max_examples=300, deadline=None)
    @given(search_arguments())
    def test_same_support_probes_and_multiplier(self, arguments):
        graph, *args = arguments
        got = budget_search(graph, *args)
        assert got == reference_budget_search(graph, *args)
        assert type(got[2]) is float and all(type(v) is int for v in got[0])

    def test_equal_masses_compare_as_numpy_sums_them(self):
        # which of two equal-mass supports wins can hang on the last bit of
        # each sum; a plain left-to-right sum differed here within 30 draws
        rng = np.random.default_rng(1)
        for _ in range(200):
            graph, args = mirrored_path_search(rng, int(rng.integers(20, 300)))
            assert budget_search(graph, *args) == reference_budget_search(graph, *args)

    @pytest.mark.parametrize("seed", [71, 173, 204, 271])
    def test_equal_masses_above_128_nodes(self, seed):
        # supports above 128 nodes, where the pairwise sum splits in halves;
        # 8 interleaved sums over the whole support pick another one on these
        rng = np.random.default_rng(seed)
        graph, args = mirrored_path_search(rng, int(rng.integers(270, 600)), min_budget=129)
        got = budget_search(graph, *args)
        assert len(got[0]) > 128
        assert got == reference_budget_search(graph, *args)

    @pytest.mark.parametrize("weight, warm", [(1e-320, 1e-6), (1e305, 1e6)])
    def test_a_cost_that_is_not_positive_and_finite_raises(self, weight, warm):
        # 1e-320 * 1e-6 underflows to 0, 1e305 * 1e6 overflows to inf
        graph = Graph(3, [(0, 1, 1.0), (1, 2, weight)])
        prizes = np.array([1.0, 2.0, 3.0])
        for search in (budget_search, reference_budget_search):
            with np.errstate(over="ignore"), pytest.raises(
                    ValueError, match="edge costs must be positive and finite"):
                search(graph, prizes, 2, 2, 1, warm)

    def test_bad_prizes_raise_what_the_engine_raises(self):
        graph = path_graph(3)
        for prizes in ([1.0, -1.0, 0.0], [1.0, np.nan, 0.0], [1.0, np.inf, 0.0]):
            with pytest.raises(ValueError, match="prizes must be nonnegative and finite"):
                budget_search(graph, np.array(prizes), 2)
        with pytest.raises(ValueError, match="prizes length must match node count"):
            budget_search(graph, np.ones(4), 2)


class TestProjectionMasses:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(search_arguments(), min_size=1, max_size=4), st.data())
    def test_residual_is_the_mass_numpy_sums(self, searches, data):
        # a projection's residual, the captured mass or the total less it, is
        # the sum NumPy gives over the squared entries
        blocks = []
        for k, (graph, prizes, _, _, _, warm) in enumerate(searches):
            signs = np.where(np.arange(graph.node_count) % (k + 2) == 0, -1.0, 1.0)
            blocks.append((k, signs * np.sqrt(prizes) * 1.3, graph, warm))
        budget = data.draw(st.integers(1, min(graph.node_count for _, _, graph, _ in blocks)))
        components = data.draw(st.integers(1, 3))
        for project, mode, captured in ((head_project, "2s", True), (head_project, "s", True),
                                        (tail_project, "s", False)):
            for k, values, graph, warm in blocks:
                outcome = project(values, graph, budget, components, mode, k, warm)
                prizes = values * values
                mass = float(prizes[list(outcome.support.nodes)].sum())
                want = mass if captured else max(float(prizes.sum()) - mass, 0.0)
                assert np.float64(outcome.residual_sq).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("shared", [False, True], ids=["own-graphs", "one-shared-graph"])
def test_a_phase_on_threads_equals_it_inline(shared):
    # each kernel call allocates its own work space, so searches run at once
    # whether every block has its own engine or 4 threads share one engine
    instance = generate_non(SyntheticSpec(n=1600, m=3, subgraph_size=0.1, mu=5.0, seed=4), 8)
    if shared:
        graphs = [instance.graph] * 8
    else:
        graphs = [instance.partition.block_graph(k) for k in range(8)]
    rng = np.random.default_rng(9)
    values = [rng.normal(size=g.node_count) * (rng.random(g.node_count) < 0.4) for g in graphs]

    def phase(k):
        head = head_project(values[k], graphs[k], 40, block_id=k)
        tail = tail_project(values[k], graphs[k], 40, 2, block_id=k,
                            initial_multiplier=head.multiplier)
        return head, tail

    inline = [phase(k) for k in range(8)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        for _ in range(5):
            assert list(pool.map(phase, range(8))) == inline


@st.composite
def phases(draw):
    """1-5 searches; on one shared graph, or each on its own."""
    searches = draw(st.lists(search_arguments(), min_size=1, max_size=5))
    if len(searches) > 1 and draw(st.booleans()):
        # every search on the first one's graph: one engine for all
        graph, prizes = searches[0][:2]
        n = graph.node_count
        searches = [(graph, prizes * draw(st.sampled_from([1.0, 0.5, 3.0])), min(budget, n),
                     min(capacity, n), num_components, warm)
                    for _, _, budget, capacity, num_components, warm in searches]
    return searches


def shared_engine_searches():
    """6 searches on one 1,200-node graph, half of them warm-started."""
    instance = generate_non(SyntheticSpec(n=1200, m=3, subgraph_size=0.1, mu=5.0, seed=6), 1)
    graph = instance.graph
    rng = np.random.default_rng(3)
    return [(graph, rng.random(graph.node_count) ** 4 * (rng.random(graph.node_count) < 0.3),
             int(rng.integers(5, 60)), None, int(rng.integers(1, 3)),
             None if k % 2 else float(np.exp(rng.uniform(-5, 5))))
            for k in range(6)]


class TestSearchPhase:
    @settings(max_examples=120, deadline=None)
    @given(phases())
    def test_every_thread_count_replays_each_search_alone(self, searches):
        expected = [reference_budget_search(*search) for search in searches]
        for count in (1, 2, len(searches) + 3):
            with cpus(count):
                assert search_phase(searches) == expected

    @pytest.mark.parametrize("count, visible", [(1, 1), (2, 2), (3, 64), (5, 4)])
    def test_one_thread_per_visible_cpu_and_at_most_one_per_search(self, count, visible):
        kernel, threads = gbgp.pcst._kernel, []

        class Counted:
            def __getattr__(self, name):
                return getattr(kernel, name)

            def gbgp_pcst_phase(self, tasks, count, thread_count, *args):
                threads.append(thread_count)
                kernel.gbgp_pcst_phase(tasks, count, thread_count, *args)

        graph = path_graph(6)
        search = (graph, np.arange(6.0), 2)
        with cpus(visible), mock.patch.object(gbgp.pcst, "_kernel", Counted()):
            search_phase([search] * count)
        assert threads == [min(count, visible)]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
    def test_helpers_with_no_cpu_but_the_callers_still_replay_each_search(self):
        # 4 threads on one allowed CPU: the CPUs left for the helpers are none
        searches = shared_engine_searches()
        expected = [reference_budget_search(*search) for search in searches]
        with one_real_cpu(), cpus(4):
            assert search_phase(searches) == expected

    def test_without_affinity_every_cpu_counts(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert gbgp.pcst._thread_count(8) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert gbgp.pcst._thread_count(8) == 1

    @pytest.mark.parametrize("sizes, error", [
        ([0, -1, -2], MemoryError), ([-2, -1], ValueError), ([3, 0, -2], ValueError),
    ])
    def test_the_first_failing_search_raises(self, sizes, error):
        # whichever thread ran it, the error reported is the lowest search's
        kernel = gbgp.pcst._kernel

        class Failing:
            def __getattr__(self, name):
                return getattr(kernel, name)

            def gbgp_pcst_phase(self, tasks, *args):
                kernel.gbgp_pcst_phase(tasks, *args)
                for task, size in zip(tasks, sizes):
                    task.size = size

        search = (path_graph(4), np.array([1.0, 0.0, 2.0, 0.5]), 2)
        for count in (1, 2):
            with cpus(count), mock.patch.object(gbgp.pcst, "_kernel", Failing()):
                with pytest.raises(error):
                    search_phase([search] * len(sizes))

    def test_a_bad_argument_names_the_first_bad_search(self):
        graph = path_graph(3)
        good = (graph, np.ones(3), 2)
        with pytest.raises(ValueError, match=r"budget 3 must be in \[1, capacity 2\]"):
            search_phase([good, (graph, np.ones(3), 3, 2), (graph, np.ones(4), 2)])

    def test_four_threads_share_one_engine(self):
        # phases on one shared engine at once, each also spread over threads
        searches = shared_engine_searches()
        inline = [budget_search(*search) for search in searches]
        results: list = [None] * 4
        start = threading.Barrier(4)

        def run(i):
            start.wait(timeout=30)
            results[i] = [search_phase(searches) for _ in range(3)]

        workers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == [[inline] * 3] * 4
