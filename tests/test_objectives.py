import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgp.graph import BlockPartition, BlockSignal, Graph
from gbgp.objectives import ObjectiveSpec, ems_block_gradient, ems_block_value


def finite_difference(fun, x, h=1e-5):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fun(up) - fun(down)) / (2 * h)
    return grad


def rel_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


def two_block_instance(lam=0.5, kind="non", seed=0, n=20):
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n // 2)]
    graph = Graph(n, sorted(set(edges)))
    assignment = [0] * (n // 2) + [1] * (n - n // 2)
    part = BlockPartition(graph, assignment, 2)
    signal = BlockSignal(rng.normal(size=n))
    return ObjectiveSpec(kind, part, signal, lam=lam)


def temporal_instance(lam=0.5, base_n=3, T=2, values=None):
    edges = []
    for t in range(T):
        off = t * base_n
        edges += [(off + i, off + i + 1) for i in range(base_n - 1)]
    graph = Graph(base_n * T, edges)
    assignment = sum(([t] * base_n for t in range(T)), [])
    part = BlockPartition(graph, assignment, T)
    if values is None:
        values = np.arange(base_n * T, dtype=float) / (base_n * T)
    return ObjectiveSpec("temporal", part, BlockSignal(values), lam=lam)


class TestEmsBlock:
    def test_hand_value_three_nodes(self):
        assert ems_block_value([1, 1, 0], [1, 1, 0]) == pytest.approx(-1.0)

    def test_zero_vector_guarded(self):
        assert ems_block_value([1, 1], [0, 0]) == pytest.approx(0.0)

    def test_hand_value_two_nodes(self):
        assert ems_block_value([1, 0], [1, 0]) == pytest.approx(-0.5)

    def test_hand_gradient_cancels(self):
        grad = ems_block_gradient([1, 1], [1, 1])
        assert grad == pytest.approx([0.0, 0.0])

    def test_zero_signal_gradient_is_x(self):
        x = np.array([0.3, 0.7, 0.1])
        assert ems_block_gradient(np.zeros(3), x) == pytest.approx(x)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = rng.normal(size=10)
            x = rng.uniform(0.1, 0.9, size=10)
            grad = ems_block_gradient(c, x)
            fd = finite_difference(lambda z: ems_block_value(c, z), x)
            assert rel_error(grad, fd) <= 1e-5

    @pytest.mark.parametrize("total", [5e-8, 5e-4])
    def test_gradient_matches_fd_at_small_mass(self, total):
        # at 5e-8 the denominator sits on its 1e-6 guard, at 5e-4 above it
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = rng.normal(size=10)
            x = rng.uniform(0.1, 0.9, size=10)
            x *= total / x.sum()
            h = total * 1e-4
            grad = ems_block_gradient(c, x)
            fd = finite_difference(lambda z: ems_block_value(c, z), x, h=h)
            assert rel_error(grad, fd) <= 1e-5


class TestTemporalObjective:
    def test_lambda_zero_decouples_exactly(self):
        obj = temporal_instance(lam=0.0)
        x = np.random.default_rng(1).uniform(0, 1, size=6)
        expected = sum(
            ems_block_value(obj.block_signal(k), obj.block_slice(x, k))
            for k in range(2)
        )
        assert obj.value(x) == expected

    def test_identical_blocks_have_zero_coupling(self):
        obj = temporal_instance(lam=3.0)
        x = np.tile([0.2, 0.5, 0.8], 2)
        assert obj.coupling_value(x) == pytest.approx(0.0)

    def test_hand_coupling(self):
        obj = temporal_instance(lam=1.0, base_n=2, T=2)
        x = np.array([1.0, 0.0, 0.0, 1.0])
        assert obj.coupling_value(x) == pytest.approx(2.0)

    def test_block_gradient_matches_fd(self):
        obj = temporal_instance(lam=0.7, base_n=4, T=3)
        rng = np.random.default_rng(2)
        x = rng.uniform(0.1, 0.9, size=12)
        fd = finite_difference(obj.value, x)
        for k in range(3):
            assert rel_error(obj.block_gradient(x, k), fd[obj.partition.block_nodes[k]]) <= 1e-5

    def test_mismatched_block_sizes_rejected(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        part = BlockPartition(graph, [0, 0, 1], 2)
        with pytest.raises(ValueError, match="equally-sized"):
            ObjectiveSpec("temporal", part, BlockSignal(np.ones(3)), lam=1.0)


class TestNetworkOfNetworksObjective:
    def test_no_cut_edges_decouples(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        part = BlockPartition(graph, [0, 0, 1, 1], 2)
        obj = ObjectiveSpec("non", part, BlockSignal(np.ones(4)), lam=5.0)
        x = np.array([0.2, 0.4, 0.6, 0.8])
        assert obj.coupling_value(x) == 0.0

    def test_hand_cut_penalty(self):
        graph = Graph(2, [(0, 1)])
        part = BlockPartition(graph, [0, 1], 2)
        obj = ObjectiveSpec("non", part, BlockSignal([1.0, 1.0]), lam=2.0)
        x = np.array([1.0, 0.0])
        assert obj.coupling_value(x) == pytest.approx(2.0)

    def test_block_gradient_matches_fd(self):
        obj = two_block_instance(lam=0.8, seed=4)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 0.9, size=20)
        fd = finite_difference(obj.value, x)
        for k in range(2):
            assert rel_error(obj.block_gradient(x, k), fd[obj.partition.block_nodes[k]]) <= 1e-5

    def test_symmetry_across_cut(self):
        # blocks {0,1} and {2,3}; cut edge (1,2); mirrored signal
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        part = BlockPartition(graph, [0, 0, 1, 1], 2)
        obj = ObjectiveSpec("non", part, BlockSignal([0.5, 0.9, 0.9, 0.5]), lam=1.3)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.uniform(0, 1, size=4)
            mirrored = x[[3, 2, 1, 0]]
            assert obj.value(x) == pytest.approx(obj.value(mirrored))

    def test_monotone_penalty_in_lambda(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, size=20)
        couplings = [
            two_block_instance(lam=lam, seed=4).coupling_value(x)
            for lam in (0.0, 0.1, 1.0, 10.0)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(couplings, couplings[1:]))


class TestFullGradient:
    def test_slices_equal_block_gradients(self):
        obj = two_block_instance(lam=0.8, seed=6)
        x = np.random.default_rng(7).uniform(0.1, 0.9, size=20)
        full = obj.full_gradient(x)
        for k in range(2):
            assert np.array_equal(full[obj.partition.block_nodes[k]], obj.block_gradient(x, k))

    def test_single_block_reduces_to_ems(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        part = BlockPartition(graph, [0, 0, 0, 0], 1)
        sig = BlockSignal([1.0, 2.0, 0.5, 0.1])
        obj = ObjectiveSpec("ems", part, sig)
        x = np.array([0.3, 0.6, 0.2, 0.9])
        assert obj.full_gradient(x) == pytest.approx(ems_block_gradient(sig.values, x))

    def test_zero_signal_gradient_is_x(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        part = BlockPartition(graph, [0, 0, 0], 1)
        obj = ObjectiveSpec("ems", part, BlockSignal(np.zeros(3)))
        x = np.array([0.2, 0.8, 0.5])
        assert obj.full_gradient(x) == pytest.approx(x)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_gradient_consistency_property(self, seed):
        rng = np.random.default_rng(seed)
        kind = ["non", "temporal", "ems"][seed % 3]
        if kind == "temporal":
            obj = temporal_instance(lam=float(rng.uniform(0, 2)), base_n=4, T=2,
                                    values=rng.normal(size=8))
            n = 8
        else:
            obj = two_block_instance(lam=float(rng.uniform(0, 2)), kind=kind, seed=seed, n=10)
            n = 10
        x = rng.uniform(0.1, 0.9, size=n)
        fd = finite_difference(obj.value, x)
        assert rel_error(obj.full_gradient(x), fd) <= 1e-5


class TestInitialization:
    def test_one_hot_on_strongest_signal(self):
        obj = temporal_instance(lam=1.0, base_n=3, T=2,
                                values=np.array([0.1, -5.0, 0.2, 3.0, 0.0, 0.1]))
        x0 = obj.initial_x()
        assert x0.tolist() == [0, 1, 0, 1, 0, 0]

    def test_unknown_kind_rejected(self):
        graph = Graph(2, [(0, 1)])
        part = BlockPartition(graph, [0, 1], 2)
        sig = BlockSignal([1.0, 1.0])
        assert ObjectiveSpec("non", part, sig).kind == "non"
        with pytest.raises(ValueError):
            ObjectiveSpec("bogus", part, sig)
