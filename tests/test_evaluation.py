import numpy as np
import pytest

from gbgp import evaluation
from gbgp.datagen import SyntheticSpec, generate_non, generate_temporal
from gbgp.evaluation import (
    precision_recall_f1,
    robustness_sweep,
    scaling_bench,
    solve_instance,
)
from gbgp.graph import BlockSignal
from gbgp.solver import SolverConfig


class TestPrecisionRecallF1:
    def test_perfect_detection(self):
        row = precision_recall_f1({1, 2, 3}, {1, 2, 3})
        assert (row.precision, row.recall, row.f_measure) == (1.0, 1.0, 1.0)

    def test_hand_counted_two_thirds(self):
        row = precision_recall_f1({1, 2, 3}, {2, 3, 4})
        assert row.precision == pytest.approx(2 / 3)
        assert row.recall == pytest.approx(2 / 3)
        assert row.f_measure == pytest.approx(2 / 3)

    def test_empty_detection(self):
        row = precision_recall_f1(set(), {1, 2})
        assert (row.precision, row.recall, row.f_measure) == (0.0, 0.0, 0.0)

    def test_both_empty(self):
        row = precision_recall_f1(set(), set())
        assert row.recall == 1.0
        assert row.f_measure == 0.0

    def test_pairs_pooling(self):
        detected = {(0, 1), (1, 1)}
        truth = {(0, 1), (1, 2)}
        row = precision_recall_f1(detected, truth)
        assert row.precision == 0.5
        assert row.recall == 0.5

    @pytest.mark.parametrize("seed", range(5))
    def test_bounds_and_harmonic_mean(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            universe = range(30)
            detected = set(rng.choice(30, size=rng.integers(0, 30), replace=False).tolist())
            truth = set(rng.choice(30, size=rng.integers(0, 30), replace=False).tolist())
            row = precision_recall_f1(detected, truth)
            assert 0.0 <= row.precision <= 1.0
            assert 0.0 <= row.recall <= 1.0
            assert 0.0 <= row.f_measure <= 1.0
            if row.precision + row.recall > 0:
                expected = 2 * row.precision * row.recall / (row.precision + row.recall)
                assert row.f_measure == pytest.approx(expected)
            else:
                assert row.f_measure == 0.0


class TestRobustnessSweep:
    def test_zero_percent_equals_clean_run(self):
        spec = SyntheticSpec(n=80, m=3, T=2, subgraph_size=10, mu=5.0, seed=2)
        inst = generate_temporal(spec)
        binary = [
            BlockSignal(np.isin(np.arange(80), truth).astype(float))
            for truth in inst.truths
        ]
        inst.signals = binary
        config = SolverConfig(budgets=11, max_outer_iters=10)
        rows = robustness_sweep(inst, [0, 10], 0.02, config)
        clean_pairs, _, _ = solve_instance(inst, 0.02, config)
        clean = precision_recall_f1(clean_pairs, inst.truth_pairs())
        assert rows[0][0] == 0.0
        assert rows[0][1].f_measure == pytest.approx(clean.f_measure)
        assert len(rows) == 2

    def test_one_row_per_percent(self):
        spec = SyntheticSpec(n=60, m=3, T=1, subgraph_size=8, mu=5.0, seed=3)
        inst = generate_non(spec, 2)
        inst.signal = BlockSignal(np.isin(np.arange(60), inst.truth).astype(float))
        rows = robustness_sweep(inst, [0, 4, 8], 0.02, SolverConfig(budgets=9, max_outer_iters=8))
        assert [p for p, _ in rows] == [0.0, 4.0, 8.0]


class TestScalingBench:
    def test_single_size_single_row(self):
        table = scaling_bench([300], repeats=1, block_nodes=150)
        assert len(table) == 1
        row = table[0]
        assert row["n"] == 300
        assert row["edges"] == 3 * (300 - 3)
        assert row["wall_s"] > 0

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError):
            scaling_bench([500, 300])

    def test_seed_seeds_instances_and_solver(self, monkeypatch):
        calls = []

        def capture(instance, lam, config):
            calls.append((instance.spec.seed, config))
            return solve_instance(instance, lam, config)

        monkeypatch.setattr(evaluation, "solve_instance", capture)
        scaling_bench([300], tau_list=(0, 2), repeats=2, block_nodes=150, seed=3)
        # 300 nodes in 2 blocks of 150: budget int(0.12 * 150) + 1 = 19
        assert calls == [
            (seed, SolverConfig(budgets=19, parallel=tau, max_outer_iters=6, outer_tol=0.0,
                                seed=3))
            for tau in (0, 2) for seed in (3, 4)
        ]
