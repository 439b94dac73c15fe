import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbgp.projections as projections
import gbgp.solver as solver
from gbgp.datagen import SyntheticSpec, generate_non, generate_temporal
from gbgp.graph import BlockPartition, BlockSignal, Graph, SupportSet, connected_components
from gbgp.objectives import ObjectiveSpec
from gbgp.solver import (
    SolverConfig,
    bcd_solve,
    estimate_step_size,
    gbgp_solve,
    parallel_bcd_solve,
)

from oracles import (ReferenceObjective, ems_optimum, momentum_next, momentum_weight, path_graph,
                     proximal_block_update, reference_bcd_solve, reference_parallel_bcd_solve,
                     theta_next)


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


def mask(n, allowed):
    """Boolean allowed-support mask over n local ids."""
    out = np.zeros(n, dtype=bool)
    out[list(allowed)] = True
    return out


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
        alpha, _, _ = estimate_step_size(stub, 0, x, np.ones(4, bool), 1.0)
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
        alpha, x_new, f_new = estimate_step_size(stub, 0, y, np.ones(2, bool), 1.0)
        assert alpha < 1.0
        assert f_new == stub.local_value(x_new, 0)
        # the trial points are written into y and taken back out
        assert y.tolist() == [0.9, 0.8]
        step = x_new - y
        bound = stub.local_value(y, 0) + float(stub.block_gradient(y, 0) @ step)
        bound += float(step @ step) / (2 * alpha)
        assert stub.local_value(x_new, 0) <= bound + 1e-9

    def test_a_known_value_at_the_start_is_not_evaluated_again(self):
        stub = single_block_stub(4, target=np.zeros(4))
        x = np.array([0.9, 0.4, 0.7, 0.1])
        calls = []
        local_value = stub.local_value
        stub.local_value = lambda y, k: calls.append(y.copy()) or local_value(y, k)
        plain = estimate_step_size(stub, 0, x, np.ones(4, bool), 1.0)
        assert len(calls) == 2
        known = estimate_step_size(stub, 0, x, np.ones(4, bool), 1.0, f_y=local_value(x, 0))
        assert len(calls) == 3
        assert known[0] == plain[0] and known[2] == plain[2]
        assert known[1].tobytes() == plain[1].tobytes()


class TestBcdSolve:
    """The Python loop in ``tests/oracles.py`` on stub objectives, and the kernel's errors."""

    def test_separable_quadratic_converges(self):
        n = 12
        stub = single_block_stub(n, target=np.full(n, 0.3))
        config = SolverConfig(budgets=n, inner_tol=1e-9, max_inner_cycles=200)
        out = reference_bcd_solve(stub, [np.ones(n, dtype=bool)], np.zeros(n), config)
        assert np.allclose(out, 0.3, atol=1e-6)

    def test_support_restriction_respected(self):
        n = 6
        stub = single_block_stub(n, target=np.full(n, 0.8))
        omega = {0, 2, 4}
        config = SolverConfig(budgets=n)
        out = reference_bcd_solve(stub, [mask(n, omega)], np.zeros(n), config)
        assert set(np.flatnonzero(out != 0.0).tolist()) <= omega

    def test_monotone_objective_with_backtracking(self):
        obj = planted_objective(n=10, truth=(3, 4, 5, 6))
        masks = [np.ones(10, dtype=bool)]
        x0 = obj.initial_x()
        trace = []
        config = SolverConfig(budgets=10, step_mode="backtracking", max_inner_cycles=30)
        out = reference_bcd_solve(obj, masks, x0, config, trace=trace)
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))
        assert bcd_solve(obj, masks, x0, config).tobytes() == out.tobytes()

    def test_all_empty_omegas_rejected(self):
        stub = single_block_stub(3, target=np.zeros(3))
        with pytest.raises(ValueError):
            reference_bcd_solve(stub, [np.zeros(3, dtype=bool)], np.zeros(3),
                                SolverConfig(budgets=3))
        obj = planted_objective(n=3, truth=(1,))
        with pytest.raises(ValueError, match="empty allowed supports"):
            bcd_solve(obj, [np.zeros(3, dtype=bool)], np.zeros(3), SolverConfig(budgets=3))

    def test_masks_must_fit_the_blocks(self):
        obj = planted_objective(n=4, truth=(1,))
        with pytest.raises(ValueError, match="one boolean per node"):
            bcd_solve(obj, [np.ones(3, dtype=bool)], np.zeros(4), SolverConfig(budgets=3))

    def test_underflow_names_the_block_like_the_reference(self):
        # a cut penalty of 1e12 needs steps below 1e-12 to move node 3 off
        # its cut neighbour 2, which block 0's mask pins at 0
        part = BlockPartition(path_graph(6), [0, 0, 0, 1, 1, 1], 2)
        signal = BlockSignal([0.0, 1.0, 5.0, 1.0, 0.0, 5.0])
        obj = ObjectiveSpec("non", part, signal, lam=1e12)
        reference = ReferenceObjective("non", part, signal, lam=1e12)
        masks = [mask(3, {0, 1}), np.ones(3, dtype=bool)]
        x0, config = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]), SolverConfig(budgets=2)
        with pytest.raises(RuntimeError) as expected:
            reference_bcd_solve(reference, masks, x0, config)
        with pytest.raises(RuntimeError, match="backtracking underflow on block 1") as raised:
            bcd_solve(obj, masks, x0, config)
        assert str(raised.value) == str(expected.value)


@st.composite
def inner_solves(draw):
    """A random objective of each kind, masks with empty blocks, a start and a config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["temporal", "non", "ems"]))
    K = draw(st.integers(1, 5))
    if kind == "temporal":
        size = draw(st.integers(1, 40))
        n = size * K
        blocks = np.repeat(np.arange(K), size)
        edges = {(t * size + i, t * size + i + 1) for t in range(K) for i in range(size - 1)}
    else:
        n = draw(st.integers(K, 120))
        blocks = rng.permutation(np.arange(n) % K)
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist()
        edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    partition = BlockPartition(Graph(n, sorted(edges)), blocks, K)
    signal = BlockSignal(rng.normal(size=n) * 10.0 ** rng.uniform(-1, 1)
                         + (rng.random(n) < 0.2) * draw(st.sampled_from([0.0, 4.0])))
    lam = draw(st.sampled_from([0.0, 0.01, 0.37, 3.0, 1e12]))
    masks = [rng.random(len(nodes)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
             for nodes in partition.block_nodes]
    if not any(m.any() for m in masks):
        masks[int(rng.integers(0, K))][:] = True
    x0 = rng.random(n) * draw(st.sampled_from([0.0, 1.0, 1.5])) - draw(st.sampled_from([0.0, 0.2]))
    config = SolverConfig(budgets=1, step_mode=draw(st.sampled_from(["fixed", "backtracking"])),
                          step_size=draw(st.sampled_from([1.0, 0.3, 4.0])),
                          inner_tol=draw(st.sampled_from([1e-3, 1e-9])),
                          max_inner_cycles=draw(st.integers(1, 40)))
    return kind, partition, signal, lam, masks, x0, config


class TestKernelMatchesTheReferenceLoop:
    @settings(max_examples=300, deadline=None)
    @given(inner_solves())
    def test_bit_equal_iterates_and_counts(self, solve):
        kind, partition, signal, lam, masks, x0, config = solve
        counts, expected_counts = np.zeros(4, dtype=np.int64), [0] * 4
        try:
            expected = reference_bcd_solve(ReferenceObjective(kind, partition, signal, lam),
                                           masks, x0, config, counts=expected_counts)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=str(exc)):
                bcd_solve(ObjectiveSpec(kind, partition, signal, lam), masks, x0, config)
            return
        out = bcd_solve(ObjectiveSpec(kind, partition, signal, lam), masks, x0, config, counts)
        assert out.tobytes() == expected.tobytes()
        assert counts.tolist() == expected_counts
        if config.step_mode == "fixed":
            assert counts[2] == counts[3] == 0


class TestRandomizedKernelMatchesTheReferenceLoop:
    @settings(max_examples=300, deadline=None)
    @given(inner_solves(), st.data())
    def test_bit_equal_iterates_counts_and_generator(self, solve, data):
        kind, partition, signal, lam, masks, x0, config = solve
        tau = data.draw(st.integers(1, partition.num_blocks))
        config = dataclasses.replace(config, parallel=tau)
        seed = data.draw(st.integers(0, 2**64 - 1))
        expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        counts, expected_counts = np.zeros(4, dtype=np.int64), [0] * 4
        try:
            expected = reference_parallel_bcd_solve(
                ReferenceObjective(kind, partition, signal, lam), masks, x0, config,
                expected_rng, expected_counts)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError) as raised:
                parallel_bcd_solve(ObjectiveSpec(kind, partition, signal, lam), masks, x0,
                                   config, rng)
            assert str(raised.value) == str(exc)
            # the step estimates fail before the first draw
            unmoved = np.random.default_rng(seed).bit_generator.state
            assert rng.bit_generator.state == expected_rng.bit_generator.state == unmoved
            return
        out = parallel_bcd_solve(ObjectiveSpec(kind, partition, signal, lam), masks, x0,
                                 config, rng, counts)
        assert out.tobytes() == expected.tobytes()
        assert counts.tolist() == expected_counts
        assert counts[2] == 0
        assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestParallelBcdSolve:
    def test_tau_equal_blocks_ignores_seed(self):
        obj = planted_objective(n=12, truth=(4, 5, 6), kind="ems")
        # split the path into 3 blocks of 4
        graph = path_graph(12)
        part = BlockPartition(graph, [0] * 4 + [1] * 4 + [2] * 4, 3)
        values = np.zeros(12)
        values[[4, 5, 6]] = 1.0
        obj = ObjectiveSpec("non", part, BlockSignal(values), lam=0.1)
        masks = [np.ones(4, dtype=bool) for _ in range(3)]
        x0 = obj.initial_x()
        outs = []
        for seed in (0, 99):
            config = SolverConfig(budgets=4, parallel=3, seed=seed, max_inner_cycles=40)
            outs.append(parallel_bcd_solve(obj, masks, x0, config))
        assert np.array_equal(outs[0], outs[1])

    def test_seeded_reproducibility(self):
        graph = path_graph(12)
        part = BlockPartition(graph, [0] * 4 + [1] * 4 + [2] * 4, 3)
        values = np.random.default_rng(5).normal(size=12)
        obj = ObjectiveSpec("non", part, BlockSignal(values), lam=0.05)
        masks = [np.ones(4, dtype=bool)] * 3
        x0 = obj.initial_x()
        config = SolverConfig(budgets=4, parallel=2, seed=7, max_inner_cycles=40)
        a = parallel_bcd_solve(obj, masks, x0, config)
        b = parallel_bcd_solve(obj, masks, x0, config)
        assert np.array_equal(a, b)

    def test_stays_in_box_and_support(self):
        graph = path_graph(8)
        part = BlockPartition(graph, [0] * 4 + [1] * 4, 2)
        values = np.random.default_rng(2).normal(size=8) + 1.0
        obj = ObjectiveSpec("non", part, BlockSignal(values), lam=0.2)
        omegas = [{0, 1}, {2, 3}]
        config = SolverConfig(budgets=4, parallel=2, seed=1, max_inner_cycles=60)
        out = parallel_bcd_solve(obj, [mask(4, o) for o in omegas], obj.initial_x(), config)
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
        assert len(result.iterations) == result.outer_iters <= 4
        assert all(np.isfinite(record.objective) for record in result.iterations)

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

        def phase(blocks, *args, captured):
            # one entry per projected block, as a call of its own
            out = project_phase(blocks, *args, captured=captured)
            calls["head" if captured else "tail"].extend(zip(blocks, out))
            return out

        project_phase = solver.project_phase
        monkeypatch.setattr(solver, "project_phase", phase)
        monkeypatch.setattr(solver, "bcd_solve", spy("inner", solver.bcd_solve))
        result = gbgp_solve(obj, SolverConfig(budgets=3, max_outer_iters=5))

        K = obj.num_blocks
        iterates = [args[2] for args, _ in calls["inner"]] + [result.x_final]
        assert len(calls["inner"]) == result.outer_iters
        assert len(calls["head"]) == len(calls["tail"]) == K * result.outer_iters

        def support(x, k):
            return set(np.flatnonzero(x[obj.partition.block_nodes[k]]).tolist())

        for i, (args, _) in enumerate(calls["inner"]):
            masks, x = args[1], args[2]
            for k in range(K):
                head = set(calls["head"][i * K + k][1].support.nodes)
                assert masks[k].dtype == bool
                assert set(np.flatnonzero(masks[k]).tolist()) == head | support(x, k)
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
        with pytest.raises(ValueError, match="budget 9 infeasible for block 0 of 5 nodes"):
            gbgp_solve(obj, SolverConfig(budgets=9))

    def test_budget_below_one_rejected_at_construction(self):
        for budget in (0, -3):
            with pytest.raises(ValueError, match="budget must be >= 1"):
                SolverConfig(budgets=budget)

    @pytest.mark.parametrize("knob", ["max_outer_iters", "max_inner_cycles"])
    def test_iteration_caps_below_one_rejected_at_construction(self, knob):
        for cap in (0, -1):
            with pytest.raises(ValueError, match="must be >= 1"):
                SolverConfig(**{knob: cap})

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


def non_objective():
    """A 600-node network of networks in 4 blocks that reaches its fixed point."""
    instance = generate_non(SyntheticSpec(n=600, m=3, subgraph_size=0.1, mu=3.0, seed=2), 4)
    return ObjectiveSpec("non", instance.partition, instance.signal, lam=0.01)


def temporal_objective():
    instance = generate_temporal(
        SyntheticSpec(n=150, m=3, T=4, subgraph_size=15, mu=5.0, seed=5)
    )
    _, partition, signal = instance.expand()
    return ObjectiveSpec("temporal", partition, signal, lam=0.02)


# sha256 of x_final and the sorted supports of whole solves, recorded
# before projections were reused across outer iterations. The serial NoN
# solve stops moving after 4 of its 8 pinned iterations, so most later
# projections repeat their input; any change to a projection, the inner
# solvers or the outer loop shows up here.
GOLDEN_SOLVES = {
    "non-serial": (non_objective, dict(budgets=18, seed=2),
                   "287e4c1053e5240c78dd45b5e69317596ab8fb1dae0e7455f360ef90354485cd"),
    "non-parallel": (non_objective, dict(budgets=18, seed=2, parallel=2),
                     "924c3e8e84ea8338258e13e3a6d2b45d7e752ebade6159ed5ffa2c1860e5896a"),
    "temporal": (temporal_objective, dict(budgets=16, seed=5),
                 "f2cfb056fa4621cd26eaf618f758bd33f7715eb8c632153eb76dec31f0f82724"),
}


def wide_non_objective():
    """The benchmark's NoN problem, seed 0 instance 0: 4,000 nodes in 8 blocks.

    Its last blocks fall apart into many components and settle at other
    iterations than the first ones, which the 4-block instance above
    never does.
    """
    instance = generate_non(SyntheticSpec(n=4000, m=3, subgraph_size=0.1, mu=5.0, seed=0), 8)
    return ObjectiveSpec("non", instance.partition, instance.signal, lam=0.01)


# sha256 as above of 6 pinned outer iterations at budget 121, recorded
# while searches still ran as Python loops, and projections in a process
# pool at parallel 2
GOLDEN_WIDE_SOLVES = {
    0: "b65bf3a567e1045040a95e70bbf78fc3284c334c393d210614bad9557ccb1a8f",
    2: "51f28d14588d13dcd14d2b27d526d8a6d8d50d126ff8504ae9db344e8cd8f06d",
}


def solve_digest(result) -> str:
    digest = hashlib.sha256(result.x_final.tobytes())
    for support in result.supports:
        digest.update(repr((support.block_id, sorted(support.nodes))).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("parallel", sorted(GOLDEN_WIDE_SOLVES))
def test_golden_wide_solves_are_byte_identical(parallel):
    config = SolverConfig(budgets=121, max_outer_iters=6, outer_tol=0.0, seed=0,
                          parallel=parallel)
    result = gbgp_solve(wide_non_objective(), config)
    assert result.outer_iters == 6
    assert solve_digest(result) == GOLDEN_WIDE_SOLVES[parallel]


@pytest.mark.parametrize("name", sorted(GOLDEN_SOLVES))
def test_golden_solves_are_byte_identical(name):
    make_objective, knobs, expected = GOLDEN_SOLVES[name]
    config = SolverConfig(max_outer_iters=8, outer_tol=0.0, **knobs)
    result = gbgp_solve(make_objective(), config)
    assert result.outer_iters == 8
    assert solve_digest(result) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_SOLVES))
def test_supports_are_built_once_per_search_and_once_per_block(monkeypatch, name):
    make_objective, knobs, _ = GOLDEN_SOLVES[name]
    obj = make_objective()
    built, init = [], SupportSet.__init__

    def counted(support, block_id, nodes):
        built.append(block_id)
        init(support, block_id, nodes)

    monkeypatch.setattr(SupportSet, "__init__", counted)
    result = gbgp_solve(obj, SolverConfig(max_outer_iters=8, outer_tol=0.0, **knobs))
    searched = sum(len(record.probes) for record in result.iterations)
    assert len(built) <= searched + obj.num_blocks
    # the supports are the last iterate's nodes, grouped by block, as Python ints
    last, assignment = result.iterations[-1].nodes, obj.partition.assignment
    assert [support.block_id for support in result.supports] == list(range(obj.num_blocks))
    for k, support in enumerate(result.supports):
        assert support.nodes == tuple(last[assignment[last] == k].tolist())
        assert all(type(v) is int for v in support.nodes)


def test_repeated_projection_inputs_reuse_the_outcome(monkeypatch):
    obj = non_objective()
    config = SolverConfig(budgets=18, max_outer_iters=8, outer_tol=0.0, seed=2)
    head_project, tail_project = projections.head_project, projections.tail_project
    project_phase, bcd_solve = solver.project_phase, solver.bcd_solve
    events = []

    def phase(blocks, *args, captured):
        out = project_phase(blocks, *args, captured=captured)
        for (k, values, _, warm), outcome in zip(blocks, out):
            events.append(("head" if captured else "tail", k, np.array(values), warm, outcome))
        return out

    def inner(objective, masks, x, cfg, counts):
        b = bcd_solve(objective, masks, x, cfg, counts)
        events.append(("inner", None, x.copy(), None, b))
        return b

    monkeypatch.setattr(solver, "project_phase", phase)
    monkeypatch.setattr(solver, "bcd_solve", inner)
    result = gbgp_solve(obj, config)

    K, iters = obj.num_blocks, result.outer_iters
    # a head call belongs to the iteration whose inner solve comes next,
    # a tail call to the one whose inner solve came last
    calls, iterates = {}, []
    for kind, k, values, warm, out in events:
        if kind == "inner":
            iterates.append((values, out))
        else:
            calls[kind, len(iterates) - (kind == "tail"), k] = (values, warm, out)
    heads = sum(key[0] == "head" for key in calls)
    tails = len(calls) - heads
    assert heads < K * iters and tails < K * iters

    partition = obj.partition
    used: dict = {}
    reused = 0
    for i, (x, b) in enumerate(iterates):
        for k in range(K):
            nodes = partition.block_nodes[k]
            graph_k = partition.block_graph(k)
            inputs = {
                "head": solver._box_projected_gradient(obj.block_gradient(x, k), x[nodes]),
                "tail": b[nodes],
            }
            for kind, project, extra in (("head", head_project, {"capacity_mode": "2s"}),
                                         ("tail", tail_project, {})):
                warm = used[kind, i - 1, k].multiplier if i else None
                if (kind, i, k) in calls:
                    # the reconstructed input is the one the solver sent
                    values, sent_warm, out = calls[kind, i, k]
                    assert np.array_equal(values, inputs[kind]) and sent_warm == warm
                    used[kind, i, k] = out
                    continue
                reused += 1
                stored = used[kind, i - 1, k]
                fresh = project(inputs[kind], graph_k, 18, num_components=1, block_id=k,
                                initial_multiplier=warm, **extra)
                assert fresh.support == stored.support
                assert fresh.multiplier == stored.multiplier
                assert fresh.residual_sq == stored.residual_sq
                used[kind, i, k] = stored
    assert reused == 2 * K * iters - len(calls) > 0


def test_a_changed_warm_start_searches_again(monkeypatch):
    # every search reports a multiplier no search has used, so no warm start
    # repeats and every projection must search, also when its input repeats
    obj = non_objective()
    config = SolverConfig(budgets=18, max_outer_iters=8, outer_tol=0.0, seed=2)
    fresh = itertools.count(1)
    calls, reported = [], {}
    project_phase = solver.project_phase

    def phase(blocks, *args, captured):
        kind = "head" if captured else "tail"
        for k, values, _, warm in blocks:
            assert warm == reported.get((kind, k))
            calls.append((kind, k, values.tobytes()))
        cold = [(k, values, graph_k, None) for k, values, graph_k, _ in blocks]
        out = []
        for (k, *_), outcome in zip(blocks, project_phase(cold, *args, captured=captured)):
            reported[kind, k] = float(next(fresh))
            out.append(dataclasses.replace(outcome, multiplier=reported[kind, k]))
        return out

    monkeypatch.setattr(solver, "project_phase", phase)
    result = gbgp_solve(obj, config)

    assert len(calls) == 2 * obj.num_blocks * result.outer_iters
    previous, repeats = {}, 0
    for kind, k, data in calls:
        repeats += previous.get((kind, k)) == data
        previous[kind, k] = data
    assert repeats > 0


def test_records_count_every_search_and_hold_every_iterate(monkeypatch):
    obj = non_objective()
    config = SolverConfig(budgets=18, max_outer_iters=8, outer_tol=0.0, seed=2)
    project_phase, search_phase = solver.project_phase, projections.search_phase
    bcd_solve = solver.bcd_solve
    inner_inputs, projecting, searches = [], [], []

    def project(blocks, *args, captured):
        projecting.append(("head" if captured else "tail", [block[0] for block in blocks]))
        try:
            return project_phase(blocks, *args, captured=captured)
        finally:
            projecting.pop()

    def search(tasks):
        out = search_phase(tasks)
        kind, ks = projecting[-1]
        assert len(ks) == len(out)
        for k, (_, probes, _) in zip(ks, out):
            # head searches precede their iteration's inner solve, tail ones follow it
            searches.append((len(inner_inputs) - (kind == "tail"), kind, k, probes))
        return out

    def inner(objective, masks, x, cfg, counts):
        inner_inputs.append(x.copy())
        return bcd_solve(objective, masks, x, cfg, counts)

    monkeypatch.setattr(solver, "project_phase", project)
    monkeypatch.setattr(projections, "search_phase", search)
    monkeypatch.setattr(solver, "bcd_solve", inner)
    result = gbgp_solve(obj, config)

    records = result.iterations
    assert result.outer_iters == len(records) == 8
    expected = [{} for _ in records]
    for i, kind, k, probes in searches:
        expected[i][kind, k] = probes
    assert [record.probes for record in records] == expected
    # reused projections have no entry
    assert 0 < sum(map(len, expected)) < 2 * obj.num_blocks * len(records)

    n = obj.partition.graph.node_count
    rebuilt = []
    for record in records:
        x = np.zeros(n)
        x[record.nodes] = record.values
        rebuilt.append(x)
    for i, x in enumerate(rebuilt[:-1]):
        assert np.array_equal(x, inner_inputs[i + 1])
    assert rebuilt[-1].tobytes() == result.x_final.tobytes()
    assert set(records[-1].nodes.tolist()) == result.support_nodes()
    assert all(np.isfinite(r.objective) and r.delta >= 0 and r.wall_ms >= 0 for r in records)
    # the phases are disjoint parts of the iteration
    for r in records:
        assert min(r.head_ms, r.inner_ms, r.tail_ms) >= 0
        assert r.head_ms + r.inner_ms + r.tail_ms <= r.wall_ms


@pytest.mark.parametrize("parallel", [0, 2])
def test_records_carry_the_inner_solver_counts(monkeypatch, parallel):
    obj = non_objective()
    config = SolverConfig(budgets=18, max_outer_iters=4, outer_tol=0.0, seed=2,
                          parallel=parallel)
    name = "parallel_bcd_solve" if parallel else "bcd_solve"
    inner_solve, reported = getattr(solver, name), []

    def inner(*args):
        out = inner_solve(*args)
        reported.append(tuple(args[-1].tolist()))
        return out

    monkeypatch.setattr(solver, name, inner)
    records = gbgp_solve(obj, config).iterations
    assert [(r.inner_cycles, r.block_visits, r.restarts, r.halvings)
            for r in records] == reported
    for cycles, visits, restarts, _ in reported:
        assert 1 <= cycles <= config.max_inner_cycles * (obj.num_blocks if parallel else 1)
        assert 1 <= visits <= cycles * obj.num_blocks
        assert restarts <= visits and (restarts == 0 or not parallel)


@pytest.mark.parametrize("parallel", [0, 2])
def test_fixed_step_solves_are_feasible_and_repeatable(parallel):
    instance = generate_temporal(SyntheticSpec(n=300, m=4, T=7, subgraph_size=30,
                                               overlap=0.5, mu=5.0, seed=0))
    graph, partition, signal = instance.expand()
    obj = ObjectiveSpec("temporal", partition, signal, lam=0.02)
    config = SolverConfig(budgets=33, step_mode="fixed", parallel=parallel, seed=0)
    result = gbgp_solve(obj, config)

    x = result.x_final
    assert np.all(np.isfinite(x)) and x.min() >= 0.0 and x.max() <= 1.0
    on_support = np.zeros(graph.node_count, dtype=bool)
    on_support[list(result.support_nodes())] = True
    assert not x[~on_support].any()
    for k, support in enumerate(result.supports):
        assert 1 <= len(support) <= 33
        assert set(support.nodes) <= set(partition.block_nodes[k].tolist())
        assert len(connected_components(graph, support.nodes)) == 1

    again = gbgp_solve(obj, config)
    assert again.x_final.tobytes() == x.tobytes()
    assert [s.nodes for s in again.supports] == [s.nodes for s in result.supports]
