import numpy as np
import pytest

import gbgp.solver as solver
from gbgp.graph import BlockPartition, BlockSignal, Graph, connected_components
from gbgp.objectives import ObjectiveSpec
from gbgp.solver import (
    SolverConfig,
    bcd_solve,
    estimate_step_size,
    gbgp_solve,
    momentum_next,
    momentum_weight,
    parallel_bcd_solve,
    proximal_block_update,
    theta_next,
)

from oracles import ems_optimum, path_graph


class QuadraticStub:
    """Separable 0.5*||x - target||^2 with the objective interface."""

    def __init__(self, partition, target):
        self.partition = partition
        self.target = np.asarray(target, dtype=float)

    def value(self, x):
        return 0.5 * float(((x - self.target) ** 2).sum())

    def local_value(self, x, k):
        nodes = self.partition.block_nodes[k]
        return 0.5 * float(((x[nodes] - self.target[nodes]) ** 2).sum())

    def block_gradient(self, x, k):
        nodes = self.partition.block_nodes[k]
        return x[nodes] - self.target[nodes]


def single_block_stub(n, target):
    graph = path_graph(n)
    part = BlockPartition(graph, [0] * n, 1)
    return QuadraticStub(part, target)


def planted_objective(n=8, truth=(2, 3, 4), kind="ems", lam=0.0):
    graph = path_graph(n)
    part = BlockPartition(graph, [0] * n, 1)
    values = np.zeros(n)
    values[list(truth)] = 1.0
    return ObjectiveSpec(kind, part, BlockSignal(values), lam=lam)


class TestRecurrences:
    def test_momentum_first_step(self):
        assert momentum_next(1.0) == pytest.approx((1 + np.sqrt(5)) / 2)
        assert momentum_next(1.0) == pytest.approx(1.6180339887, abs=1e-9)

    def test_first_weight_is_zero(self):
        assert momentum_weight(1.0) == 0.0

    def test_weights_stay_in_unit_interval(self):
        rho = 1.0
        for _ in range(50):
            w = momentum_weight(rho)
            assert 0.0 <= w < 1.0
            rho = momentum_next(rho)

    def test_theta_sequence(self):
        theta = 2 / 4
        assert theta == 0.5
        nxt = theta_next(theta)
        assert nxt == pytest.approx((np.sqrt(0.0625 + 1.0) - 0.25) / 2)
        assert nxt == pytest.approx(0.3904, abs=1e-4)

    def test_theta_strictly_decreasing_positive(self):
        theta = 1.0
        for _ in range(50):
            nxt = theta_next(theta)
            assert 0.0 < nxt < theta
            theta = nxt


class TestProximalBlockUpdate:
    def test_zero_gradient_clips_only(self):
        stub = single_block_stub(3, target=[0.2, 1.4, -0.3])
        x = np.array([0.2, 1.4, -0.3])  # gradient zero at target
        mask = np.array([True, True, False])
        out = proximal_block_update(stub, 0, x, 0.5, mask)
        assert out.tolist() == [0.2, 1.0, 0.0]

    def test_hand_computed_step(self):
        stub = single_block_stub(1, target=[-0.5])  # grad at 0.5 is 1.0
        out = proximal_block_update(stub, 0, np.array([0.5]), 0.25, np.array([True]))
        assert out[0] == pytest.approx(0.25)

    def test_box_clip_upper(self):
        stub = single_block_stub(1, target=[2.0])  # grad at 0.3 is -1.7
        out = proximal_block_update(stub, 0, np.array([0.3]), 1.0, np.array([True]))
        assert out[0] == 1.0


class TestEstimateStepSize:
    def test_quadratic_accepts_unit_step(self):
        stub = single_block_stub(4, target=np.zeros(4))
        x = np.array([0.9, 0.4, 0.7, 0.1])
        alpha, _ = estimate_step_size(stub, 0, x, np.ones(4, bool), 1.0)
        assert alpha == 1.0

    def test_steep_objective_halves_and_satisfies_bound(self):
        class Steep(QuadraticStub):
            def value(self, x):
                return 50.0 * float(((x - self.target) ** 2).sum())

            def local_value(self, x, k):
                return self.value(x)

            def block_gradient(self, x, k):
                return 100.0 * (x - self.target)

        graph = path_graph(2)
        part = BlockPartition(graph, [0, 0], 1)
        stub = Steep(part, np.zeros(2))
        y = np.array([0.9, 0.8])
        alpha, x_new = estimate_step_size(stub, 0, y, np.ones(2, bool), 1.0)
        assert alpha < 1.0
        step = x_new - y
        bound = stub.local_value(y, 0) + float(stub.block_gradient(y, 0) @ step)
        bound += float(step @ step) / (2 * alpha)
        assert stub.local_value(x_new, 0) <= bound + 1e-9


class TestBcdSolve:
    def test_separable_quadratic_converges(self):
        n = 12
        stub = single_block_stub(n, target=np.full(n, 0.3))
        config = SolverConfig(budgets=n, inner_tol=1e-9, max_inner_cycles=200)
        out = bcd_solve(stub, [set(range(n))], np.zeros(n), config)
        assert np.allclose(out, 0.3, atol=1e-6)

    def test_support_restriction_respected(self):
        n = 6
        stub = single_block_stub(n, target=np.full(n, 0.8))
        omega = {0, 2, 4}
        config = SolverConfig(budgets=n)
        out = bcd_solve(stub, [omega], np.zeros(n), config)
        assert set(np.flatnonzero(out != 0.0).tolist()) <= omega

    def test_monotone_objective_with_backtracking(self):
        obj = planted_objective(n=10, truth=(3, 4, 5, 6))
        omega = [set(range(10))]
        x0 = obj.initial_x()
        trace = []
        config = SolverConfig(budgets=10, step_mode="backtracking", max_inner_cycles=30)
        bcd_solve(obj, omega, x0, config, trace=trace)
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_all_empty_omegas_rejected(self):
        stub = single_block_stub(3, target=np.zeros(3))
        with pytest.raises(ValueError):
            bcd_solve(stub, [set()], np.zeros(3), SolverConfig(budgets=3))


class TestParallelBcdSolve:
    def test_tau_equal_blocks_ignores_seed(self):
        obj = planted_objective(n=12, truth=(4, 5, 6), kind="ems")
        # split the path into 3 blocks of 4
        graph = path_graph(12)
        part = BlockPartition(graph, [0] * 4 + [1] * 4 + [2] * 4, 3)
        values = np.zeros(12)
        values[[4, 5, 6]] = 1.0
        obj = ObjectiveSpec("non", part, BlockSignal(values), lam=0.1)
        omegas = [set(range(4)), set(range(4)), set(range(4))]
        x0 = obj.initial_x()
        outs = []
        for seed in (0, 99):
            config = SolverConfig(budgets=4, parallel=3, seed=seed, max_inner_cycles=40)
            outs.append(parallel_bcd_solve(obj, omegas, x0, config))
        assert np.array_equal(outs[0], outs[1])

    def test_seeded_reproducibility(self):
        graph = path_graph(12)
        part = BlockPartition(graph, [0] * 4 + [1] * 4 + [2] * 4, 3)
        values = np.random.default_rng(5).normal(size=12)
        obj = ObjectiveSpec("non", part, BlockSignal(values), lam=0.05)
        omegas = [set(range(4))] * 3
        x0 = obj.initial_x()
        config = SolverConfig(budgets=4, parallel=2, seed=7, max_inner_cycles=40)
        a = parallel_bcd_solve(obj, omegas, x0, config)
        b = parallel_bcd_solve(obj, omegas, x0, config)
        assert np.array_equal(a, b)

    def test_stays_in_box_and_support(self):
        graph = path_graph(8)
        part = BlockPartition(graph, [0] * 4 + [1] * 4, 2)
        values = np.random.default_rng(2).normal(size=8) + 1.0
        obj = ObjectiveSpec("non", part, BlockSignal(values), lam=0.2)
        omegas = [{0, 1}, {2, 3}]
        config = SolverConfig(budgets=4, parallel=2, seed=1, max_inner_cycles=60)
        out = parallel_bcd_solve(obj, omegas, obj.initial_x(), config)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert set(np.flatnonzero(out[part.block_nodes[0]]).tolist()) <= omegas[0]
        assert set(np.flatnonzero(out[part.block_nodes[1]]).tolist()) <= omegas[1]


class TestGbgpSolve:
    def test_exact_recovery_on_path(self):
        obj = planted_objective(n=8, truth=(2, 3, 4))
        config = SolverConfig(budgets=3)
        result = gbgp_solve(obj, config)
        assert result.support_nodes() == {2, 3, 4}
        oracle_sub, _ = ems_optimum(path_graph(8), obj.signal.values, 3)
        assert result.support_nodes() == set(oracle_sub)

    def test_zero_signal_degenerates_quickly(self):
        graph = path_graph(6)
        part = BlockPartition(graph, [0] * 6, 1)
        obj = ObjectiveSpec("ems", part, BlockSignal(np.zeros(6)))
        result = gbgp_solve(obj, SolverConfig(budgets=2))
        assert result.converged
        assert result.outer_iters <= 2
        assert len(result.support_nodes()) <= 2
        assert np.linalg.norm(result.x_final) <= 1e-6

    def test_history_and_termination(self):
        obj = planted_objective(n=10, truth=(1, 2, 3))
        config = SolverConfig(budgets=3, max_outer_iters=4)
        result = gbgp_solve(obj, config)
        assert len(result.history) <= 4
        assert all(np.isfinite(row[2]) for row in result.history)

    def test_supports_connected_and_within_budget(self):
        rng = np.random.default_rng(0)
        graph = path_graph(14)
        part = BlockPartition(graph, [0] * 7 + [1] * 7, 2)
        values = rng.normal(size=14)
        values[[2, 3, 4]] += 4.0
        values[[9, 10]] += 4.0
        obj = ObjectiveSpec("non", part, BlockSignal(values), lam=0.01)
        result = gbgp_solve(obj, SolverConfig(budgets=3))
        for k, support in enumerate(result.supports):
            assert len(support) <= 3
            if support.nodes:
                comps = connected_components(graph, support.nodes)
                assert len(comps) == 1

    def test_omega_construction_invariant(self, monkeypatch):
        obj = planted_objective(n=10, truth=(4, 5, 6))
        calls = {"head": [], "inner": [], "tail": []}

        def spy(name, fn):
            def record(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[name].append((args, out))
                return out

            return record

        monkeypatch.setattr(solver, "head_project", spy("head", solver.head_project))
        monkeypatch.setattr(solver, "bcd_solve", spy("inner", solver.bcd_solve))
        monkeypatch.setattr(solver, "tail_project", spy("tail", solver.tail_project))
        result = gbgp_solve(obj, SolverConfig(budgets=3, max_outer_iters=5))

        K = obj.num_blocks
        iterates = [args[2] for args, _ in calls["inner"]] + [result.x_final]
        assert len(calls["inner"]) == result.outer_iters
        assert len(calls["head"]) == len(calls["tail"]) == K * result.outer_iters

        def support(x, k):
            return set(np.flatnonzero(x[obj.partition.block_nodes[k]]).tolist())

        for i, (args, _) in enumerate(calls["inner"]):
            omegas, x = args[1], args[2]
            for k in range(K):
                head = set(calls["head"][i * K + k][1].support.nodes)
                assert omegas[k] == head | support(x, k)
                # the next iterate's support lives inside a connected tail set
                tail = set(calls["tail"][i * K + k][1].support.nodes)
                assert support(iterates[i + 1], k) <= tail
                if tail:
                    comps = connected_components(obj.partition.block_graph(k), tail)
                    assert len(comps) == 1

    def test_deterministic_serial(self):
        obj = planted_objective(n=12, truth=(5, 6, 7))
        a = gbgp_solve(obj, SolverConfig(budgets=3))
        b = gbgp_solve(obj, SolverConfig(budgets=3))
        assert [s.nodes for s in a.supports] == [s.nodes for s in b.supports]
        assert np.array_equal(a.x_final, b.x_final)

    def test_budget_infeasible_raises(self):
        obj = planted_objective(n=5, truth=(1, 2))
        with pytest.raises(ValueError, match="infeasible"):
            gbgp_solve(obj, SolverConfig(budgets=9))

    def test_lambda_zero_decouples_into_independent_runs(self):
        # temporal coupling off: each timestamp solves as its own instance
        rng = np.random.default_rng(4)
        base_n, T = 10, 3
        edges = []
        for t in range(T):
            off = t * base_n
            edges += [(off + i, off + i + 1) for i in range(base_n - 1)]
        graph = Graph(base_n * T, edges)
        part = BlockPartition(graph, np.repeat(np.arange(T), base_n), T)
        values = rng.normal(size=base_n * T)
        for t in range(T):
            values[t * base_n + 3: t * base_n + 6] += 4.0
        coupled = gbgp_solve(
            ObjectiveSpec("temporal", part, BlockSignal(values), lam=0.0),
            SolverConfig(budgets=3),
        )
        for t in range(T):
            single_graph = path_graph(base_n)
            single_part = BlockPartition(single_graph, [0] * base_n, 1)
            sig = BlockSignal(values[t * base_n:(t + 1) * base_n])
            solo = gbgp_solve(
                ObjectiveSpec("ems", single_part, sig, lam=0.0),
                SolverConfig(budgets=3),
            )
            expected = {v + t * base_n for v in solo.support_nodes()}
            assert set(coupled.supports[t].nodes) == expected

    def test_parallel_path_deterministic_with_seed(self):
        graph = path_graph(12)
        part = BlockPartition(graph, [0] * 4 + [1] * 4 + [2] * 4, 3)
        rng = np.random.default_rng(3)
        values = rng.normal(size=12)
        values[[1, 2, 5, 6, 9, 10]] += 4.0
        obj = ObjectiveSpec("non", part, BlockSignal(values), lam=0.01)
        config = SolverConfig(budgets=2, parallel=2, seed=11)
        a = gbgp_solve(obj, config)
        b = gbgp_solve(obj, config)
        assert [s.nodes for s in a.supports] == [s.nodes for s in b.supports]
        assert np.array_equal(a.x_final, b.x_final)
