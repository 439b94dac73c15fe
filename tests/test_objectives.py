import copy
import ctypes
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgp.graph import BlockPartition, BlockSignal, Graph
from gbgp.objectives import ObjectiveSpec, dot
from oracles import (ReferenceObjective, cut_laplacian_product, reference_ems_gradient,
                     reference_ems_value)


def ems_block(c_k) -> ObjectiveSpec:
    """The one-block ems objective on signal ``c_k``: its ``value(x)`` and
    ``block_gradient(x, 0)`` are that block's ems term and gradient."""
    c_k = np.asarray(c_k, dtype=np.float64)
    n = len(c_k)
    return ObjectiveSpec("ems", BlockPartition(Graph(n, []), np.zeros(n, dtype=np.int64), 1),
                         BlockSignal(c_k))


def ems_block_value(c_k, x_k) -> float:
    return ems_block(c_k).value(x_k)


def ems_block_gradient(c_k, x_k) -> np.ndarray:
    return ems_block(c_k).block_gradient(x_k, 0)


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
            ems_block_value(obj.block_signal(k), x[obj.partition.block_nodes[k]])
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


@st.composite
def non_instances(draw):
    """Random NoN partitions, some with an island block, an isolated node or no cut.

    An island block's edges all stay inside it, so it has no cut edges;
    random block ids can also leave blocks empty.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    num_blocks = draw(st.integers(1, 5))
    blocks = rng.integers(0, num_blocks, size=n).tolist()
    pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist()
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    if draw(st.booleans()):
        size = draw(st.integers(1, 4))
        edges |= {(v, v + 1) for v in range(n, n + size - 1)}
        blocks += [num_blocks] * size
        num_blocks += 1
        n += size
    if draw(st.booleans()):
        blocks.append(int(rng.integers(0, num_blocks)))
        n += 1
    if draw(st.booleans()):
        edges = {(u, v) for u, v in edges if blocks[u] == blocks[v]}
    partition = BlockPartition(Graph(n, sorted(edges)), blocks, num_blocks)
    x = rng.random(n) * 10.0 ** rng.uniform(-3, 3) - draw(st.sampled_from([0.0, 0.5]))
    # signed zeros: a block's gradient can hold -0.0, which adding 0.0 clears
    zero = rng.random(n) < 0.3
    x[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    lam = draw(st.sampled_from([0.01, 0.37, 2.0]))
    return partition, BlockSignal(rng.normal(size=n)), x, lam


class TestCutLaplacianRows:
    @settings(max_examples=300, deadline=None)
    @given(non_instances())
    def test_block_gradient_is_bit_equal_to_the_per_row_product(self, instance):
        partition, signal, x, lam = instance
        obj = ObjectiveSpec("non", partition, signal, lam=lam)
        for k, nodes in enumerate(partition.block_nodes):
            expected = ems_block_gradient(signal.values[nodes], x[nodes])
            if len(partition.cut_edges):
                expected = expected + 2.0 * lam * cut_laplacian_product(partition, x, nodes)
            assert obj.block_gradient(x, k).tobytes() == expected.tobytes()

    def test_a_block_without_cut_edges_still_adds_zero(self):
        # 0.0 + -0.0 is 0.0: a cut elsewhere turns the block's -0.0 entries into 0.0
        graph = Graph(5, [(0, 1), (1, 2), (3, 4)])
        partition = BlockPartition(graph, [0, 1, 1, 2, 2], 3)
        obj = ObjectiveSpec("non", partition, BlockSignal(np.zeros(5)), lam=1.0)
        x = np.array([0.5, 0.5, 0.5, -0.0, -0.0])
        assert np.signbit(ems_block_gradient(np.zeros(2), x[3:])).all()
        assert not np.signbit(obj.block_gradient(x, 2)).any()


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

    @pytest.mark.parametrize("lam", [-0.5, math.nan, math.inf])
    def test_lambda_negative_or_non_finite_rejected(self, lam):
        graph = Graph(2, [(0, 1)])
        part = BlockPartition(graph, [0, 1], 2)
        with pytest.raises(ValueError, match="lambda must be nonnegative and finite"):
            ObjectiveSpec("non", part, BlockSignal([1.0, 1.0]), lam=lam)


@st.composite
def objective_instances(draw):
    """Random instances of every kind: NoN partitions as above, or stacked snapshots."""
    kind = draw(st.sampled_from(["temporal", "non", "ems"]))
    partition, signal, x, lam = draw(non_instances())
    if kind == "temporal":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        K, size = draw(st.integers(1, 5)), draw(st.integers(0, 40))
        edges = {(t * size + i, t * size + i + 1) for t in range(K) for i in range(size - 1)
                 if rng.random() < 0.8}
        partition = BlockPartition(Graph(K * size, sorted(edges)), np.repeat(np.arange(K), size),
                                   K)
        signal = BlockSignal(rng.normal(size=K * size))
        x = np.resize(x, K * size)
    return kind, partition, signal, x, lam


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestKernelMatchesTheReferenceFormulas:
    @settings(max_examples=300, deadline=None)
    @given(objective_instances())
    def test_every_entry_point_is_bit_equal(self, instance):
        kind, partition, signal, x, lam = instance
        obj = ObjectiveSpec(kind, partition, signal, lam=lam)
        reference = ReferenceObjective(kind, partition, signal, lam=lam)
        assert bits(obj.value(x)) == bits(reference.value(x))
        assert bits(obj.coupling_value(x)) == bits(reference.coupling_value(x))
        for k, nodes in enumerate(partition.block_nodes):
            assert bits(obj.local_value(x, k)) == bits(reference.local_value(x, k))
            assert obj.block_gradient(x, k).tobytes() == reference.block_gradient(x, k).tobytes()
            c_k, x_k = signal.values[nodes], x[nodes]
            assert bits(ems_block_value(c_k, x_k)) == bits(reference_ems_value(c_k, x_k))
            assert (ems_block_gradient(c_k, x_k).tobytes()
                    == reference_ems_gradient(c_k, x_k).tobytes())

    @pytest.mark.parametrize("kind", ["ems", "temporal", "non"])
    @pytest.mark.parametrize("coupled", [False, True], ids=["lambda0", "lambda>0"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_all_blocks_gradient_is_every_block_gradient_back_to_back(self, data, kind,
                                                                       coupled):
        _, partition, signal, x, lam = data.draw(
            objective_instances().filter(lambda instance: instance[0] == kind))
        obj = ObjectiveSpec(kind, partition, signal, lam=lam if coupled else 0.0)
        grads = obj.block_gradients(x)
        blocks = [obj.block_gradient(x, k) for k in range(obj.num_blocks)]
        assert grads.tobytes() == np.concatenate(blocks).tobytes()
        starts = obj.block_starts
        for k, nodes in enumerate(partition.block_nodes):
            assert np.array_equal(obj.block_order[starts[k]:starts[k + 1]], nodes)
        assert obj.full_gradient(x)[obj.block_order].tobytes() == grads.tobytes()

    def test_a_copy_reads_its_own_arrays(self):
        obj = two_block_instance(lam=0.8, seed=6)
        x = np.random.default_rng(7).uniform(0.1, 0.9, size=20)
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert twin._kernel_ref != obj._kernel_ref
            assert twin.value(x) == obj.value(x)
            for k in range(2):
                assert twin.block_gradient(x, k).tobytes() == obj.block_gradient(x, k).tobytes()

    def test_bad_shapes_are_refused(self):
        obj = two_block_instance()
        with pytest.raises(ValueError, match="one entry per node"):
            obj.value(np.zeros(19))
        with pytest.raises(IndexError):
            obj.block_gradient(np.zeros(20), 2)
        with pytest.raises(ValueError, match=r"shape \(3,\), not one entry per node"):
            ems_block_value([1.0, 2.0], [1.0, 2.0, 3.0])


def openblas_core():
    """The kernel family NumPy's OpenBLAS chose at load time, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return None


OPENBLAS_CORE = openblas_core()


@pytest.mark.skipif(
    (OPENBLAS_CORE or "").lower() != "skylakex",
    reason=f"the kernel's dot sums as OpenBLAS's SkylakeX ddot does (an avx512f host), and "
           f"NumPy's BLAS here runs {OPENBLAS_CORE or 'a kernel that does not name itself'}",
)
def test_dot_equals_numpy_on_a_skylakex_openblas():
    rng = np.random.default_rng(0)
    lengths = list(range(512)) + rng.integers(512, 10_000, size=1500).tolist()
    for n in lengths:
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        y = rng.normal(size=n)
        assert bits(dot(x, y)) == bits(x @ y), n
        assert bits(math.sqrt(dot(x, x))) == bits(np.linalg.norm(x)), n
