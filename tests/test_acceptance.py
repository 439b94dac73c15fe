"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The full module is sized to finish well inside its stated runtime
budgets on a small machine.
"""
import hashlib
import os
import time
from collections import deque

import numpy as np
import pytest

from gbgp.cli import main as cli_main
from gbgp.datagen import (
    SyntheticSpec,
    generate_non,
    generate_temporal,
    read_truth,
)
from gbgp.evaluation import (
    precision_recall_f1,
    robustness_sweep,
    scaling_bench,
    solve_instance,
)
from gbgp.graph import BlockPartition, BlockSignal, Graph, connected_components
from gbgp.objectives import ObjectiveSpec
from gbgp.projections import head_project, tail_project
from gbgp.solver import SolverConfig, gbgp_solve

from oracles import (
    connected_subsets,
    ems_optimum,
    grid_graph,
    head_optimum,
    path_graph,
    small_graph_families,
    tail_optimum,
)

# detection configuration calibrated once on training seeds (budget is
# mildly generous relative to the planted size, as a grid search picks)
NOISE_BUDGET = 33
NOISE_LAMBDA = 0.02


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _noise_experiment(mu: float, seeds=range(10), budgets=NOISE_BUDGET,
                      lam=NOISE_LAMBDA):
    rows = []
    for seed in seeds:
        spec = SyntheticSpec(n=300, m=4, T=7, subgraph_size=30, overlap=0.5,
                             mu=mu, seed=seed)
        inst = generate_temporal(spec)
        config = SolverConfig(budgets=budgets, seed=seed)
        pairs, result, _ = solve_instance(inst, lam, config)
        rows.append(precision_recall_f1(pairs, inst.truth_pairs()))
    return rows


@pytest.fixture(scope="module")
def noise_table():
    start = time.perf_counter()
    table = {mu: _noise_experiment(mu) for mu in (5.0, 4.0, 3.0)}
    return table, time.perf_counter() - start


class TestCriterion01NoiseTable:
    def test_mean_f_thresholds_and_ordering(self, noise_table):
        table, elapsed = noise_table
        means = {mu: np.mean([r.f_measure for r in rows]) for mu, rows in table.items()}
        thresholds = {5.0: 0.90, 4.0: 0.82, 3.0: 0.65}
        ok = all(means[mu] >= thresholds[mu] for mu in means)
        ok = ok and means[3.0] < means[4.0] < means[5.0]
        ok = ok and elapsed < 300
        report(1, ok,
               f"mean F: mu5={means[5.0]:.4f} (>=0.90) mu4={means[4.0]:.4f} (>=0.82) "
               f"mu3={means[3.0]:.4f} (>=0.65), ordered, {elapsed:.0f}s < 300s")


class TestCriterion02RecallDominant:
    def test_recall_at_least_precision(self, noise_table):
        table, _ = noise_table
        details = []
        ok = True
        for mu, rows in sorted(table.items()):
            p = np.mean([r.precision for r in rows])
            r = np.mean([r.recall for r in rows])
            ok = ok and r >= p
            details.append(f"mu{mu:.0f}: R={r:.4f} P={p:.4f}")
        report(2, ok, "; ".join(details))


class TestCriterion03ExactRecovery:
    def test_planted_block_equals_brute_force_optimum(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        graphs = [path_graph(n) for n in (8, 10, 12, 14, 16, 18, 20)]
        graphs += [grid_graph(3, 3), grid_graph(3, 4), grid_graph(4, 4), grid_graph(4, 5)]
        hits = total = 0
        for i in range(20):
            graph = graphs[i % len(graphs)]
            n = graph.node_count
            # plant a connected truth by BFS from a random node
            size = int(rng.integers(3, 6))
            start_node = int(rng.integers(0, n))
            truth, queue = {start_node}, deque([start_node])
            while queue and len(truth) < size:
                u = queue.popleft()
                for v in graph.neighbors(u):
                    if int(v) not in truth and len(truth) < size:
                        truth.add(int(v))
                        queue.append(int(v))
            values = np.zeros(n)
            values[sorted(truth)] = 1.0
            part = BlockPartition(graph, [0] * n, 1)
            obj = ObjectiveSpec("ems", part, BlockSignal(values), lam=0.0)
            result = gbgp_solve(obj, SolverConfig(budgets=len(truth), seed=i))
            oracle_sub, _ = ems_optimum(graph, values, len(truth))
            total += 1
            hits += result.support_nodes() == set(oracle_sub)
        elapsed = time.perf_counter() - start
        report(3, hits == total and elapsed < 10,
               f"{hits}/{total} exact recoveries in {elapsed:.1f}s < 10s")


class TestCriterion04ProjectionOracles:
    def test_quality_bounds_on_small_graphs(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        checked = failures = 0
        for draw in range(20):
            for name, graph in small_graph_families(rng, sizes=(6, 9, 12)):
                n = graph.node_count
                w = rng.normal(size=n)
                w[rng.random(n) < 0.25] = 0.0
                s = int(rng.integers(1, max(2, n // 2)))
                head = head_project(w, graph, budget=s)
                if np.sqrt(head.residual_sq) < 0.5 * head_optimum(graph, w, s) - 1e-9:
                    failures += 1
                tail = tail_project(w, graph, budget=s)
                if np.sqrt(tail.residual_sq) > 2.0 * tail_optimum(graph, w, s) + 1e-9:
                    failures += 1
                checked += 2
                if draw % 4 == 0:
                    # single-node budgets are exact
                    h1 = head_project(w, graph, budget=1, capacity_mode="s")
                    if not np.isclose(np.sqrt(h1.residual_sq), np.abs(w).max()):
                        failures += 1
                    t1 = tail_project(w, graph, budget=1)
                    if not np.isclose(np.sqrt(t1.residual_sq), tail_optimum(graph, w, 1)):
                        failures += 1
                    # already-feasible inputs are exact
                    subs = [c for c in connected_subsets(graph, 3) if len(c) >= 2]
                    sub = subs[int(rng.integers(0, len(subs)))]
                    b = np.zeros(n)
                    b[list(sub)] = rng.uniform(0.5, 1.5, size=len(sub))
                    tf = tail_project(b, graph, budget=3)
                    if tf.residual_sq > 1e-12:
                        failures += 1
                    hf = head_project(b, graph, budget=3)
                    if not np.isclose(np.sqrt(hf.residual_sq), np.linalg.norm(b)):
                        failures += 1
                    checked += 4
        elapsed = time.perf_counter() - start
        report(4, failures == 0 and elapsed < 30,
               f"{checked} projection checks, {failures} failures, {elapsed:.1f}s < 30s")


class TestCriterion05GradientCorrectness:
    def test_all_kinds_match_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        worst = 0.0
        for kind in ("ems", "temporal", "non"):
            for trial in range(100):
                if kind == "temporal":
                    base_n, T = 5, 3
                    edges = []
                    for t in range(T):
                        off = t * base_n
                        edges += [(off + i, off + i + 1) for i in range(base_n - 1)]
                    graph = Graph(base_n * T, edges)
                    part = BlockPartition(graph, np.repeat(np.arange(T), base_n), T)
                    n = base_n * T
                else:
                    n = 12
                    edges = [(i, i + 1) for i in range(n - 1)] + [(0, 6), (3, 9)]
                    graph = Graph(n, sorted(set(edges)))
                    part = BlockPartition(graph, [0] * 6 + [1] * 6, 2)
                obj = ObjectiveSpec(kind, part, BlockSignal(rng.normal(size=n)),
                                    lam=float(rng.uniform(0, 1.5)))
                x = rng.uniform(0.1, 0.9, size=n)
                analytic = obj.full_gradient(x)
                fd = np.zeros(n)
                h = 1e-5
                for i in range(n):
                    up, down = x.copy(), x.copy()
                    up[i] += h
                    down[i] -= h
                    fd[i] = (obj.value(up) - obj.value(down)) / (2 * h)
                rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
                worst = max(worst, rel)
        elapsed = time.perf_counter() - start
        report(5, worst <= 1e-5 and elapsed < 5,
               f"300 points, worst relative error {worst:.2e} <= 1e-5, {elapsed:.1f}s < 5s")


class TestCriterion06ConvergenceBehavior:
    def test_residual_decay_and_convergence(self):
        """Theorem-matched residual check on the mu=5 instances.

        The residual compares against the planted indicator, so the
        budget here equals the true subgraph size (the theorem's
        feasible class); 'after outer iteration 2' reads as the
        subsequence of iterates produced after iteration 2.
        """
        decay_ok = conv_ok = 0
        runs = 20
        for seed in range(runs):
            spec = SyntheticSpec(n=300, m=4, T=7, subgraph_size=30, overlap=0.5,
                                 mu=5.0, seed=seed)
            inst = generate_temporal(spec)
            graph, part, signal = inst.expand()
            obj = ObjectiveSpec("temporal", part, signal, lam=NOISE_LAMBDA)
            res = gbgp_solve(obj, SolverConfig(budgets=30, seed=seed))
            x_star = np.zeros(graph.node_count)
            for t, nodes in enumerate(inst.truths):
                x_star[np.asarray(nodes) + t * 300] = 1.0
            r = []
            for record in res.iterations:
                x = np.zeros(graph.node_count)
                x[record.nodes] = record.values
                r.append(float(np.linalg.norm(x - x_star)))
            decay_ok += all(a >= b - 1e-9 for a, b in zip(r[2:], r[3:]))
            conv_ok += res.converged and res.outer_iters <= 30
        ok = decay_ok >= 0.9 * runs and conv_ok >= 0.95 * runs
        report(6, ok,
               f"residual non-increasing after iteration 2 in {decay_ok}/{runs} "
               f"(need >=18), converged within 30 iters in {conv_ok}/{runs} (need >=19)")


@pytest.mark.slow
class TestCriterion07NearlyLinearScaling:
    def test_wall_time_ratio_per_doubling(self):
        start = time.perf_counter()
        table = scaling_bench([2500, 5000, 10000, 20000], repeats=3)
        walls = [row["wall_s"] for row in table]
        ratios = [b / a for a, b in zip(walls, walls[1:])]
        elapsed = time.perf_counter() - start
        ok = all(r <= 2.5 for r in ratios) and elapsed < 900
        report(7, ok,
               f"median walls {[round(w, 2) for w in walls]}s, "
               f"doubling ratios {[round(r, 2) for r in ratios]} (<=2.5), "
               f"{elapsed:.0f}s < 900s")


@pytest.mark.slow
class TestCriterion07CountedWork:
    def test_engine_solves_per_doubling(self):
        """Criterion 07's instances, measured in engine solves, not seconds.

        The instances are built as ``scaling_bench`` builds them for
        criterion 07; the solves come from the solver's own per-iteration
        records, so the verdict does not depend on the host's speed.
        """
        totals = []
        for n in (2500, 5000, 10000, 20000):
            num_blocks = max(2, round(n / 500))
            budget = max(1, int(0.12 * n / num_blocks) + 1)
            config = SolverConfig(budgets=budget, max_outer_iters=6, outer_tol=0.0)
            total = 0
            for seed in range(3):
                spec = SyntheticSpec(n=n, m=3, subgraph_size=0.1, mu=5.0, seed=seed)
                _, result, _ = solve_instance(generate_non(spec, num_blocks), 0.01, config)
                total += sum(sum(r.probes.values()) for r in result.iterations)
            totals.append(total)
        ratios = [b / a for a, b in zip(totals, totals[1:])]
        report(7, all(r <= 2.5 for r in ratios),
               f"engine solves {totals}, doubling ratios "
               f"{[round(r, 2) for r in ratios]} (<=2.5)")


@pytest.mark.slow
class TestCriterion08SerialParallelAgreement:
    def test_f_gap_and_speedup(self):
        spec = SyntheticSpec(n=4000, m=3, subgraph_size=0.1, mu=5.0, seed=0)
        inst = generate_non(spec, 8)
        shares = [
            len(set(inst.truth) & set(inst.partition.block_nodes[k].tolist()))
            for k in range(8)
        ]
        budget = max(shares) + 20
        results = {}
        for tau in (0, 4):
            config = SolverConfig(budgets=budget, parallel=tau, seed=1,
                                  max_outer_iters=15)
            pairs, _, wall = solve_instance(inst, 0.01, config)
            row = precision_recall_f1(pairs, inst.truth_pairs())
            results[tau] = (row.f_measure, wall)
        gap = abs(results[0][0] - results[4][0])
        speedup = results[0][1] / results[4][1]
        ok = gap <= 0.02 and speedup >= 1.5
        report(8, ok,
               f"F gap {gap:.4f} (<=0.02), speedup {speedup:.2f}x (>=1.5x); "
               f"serial {results[0][1]:.2f}s vs tau=4 {results[4][1]:.2f}s on "
               f"{os.cpu_count()} visible CPUs")


class TestCriterion09Determinism:
    @staticmethod
    def _hash(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def test_cli_outputs_byte_identical(self, tmp_path):
        def synth(out):
            assert cli_main(["synth", "--n", "120", "--m", "3", "--T", "2",
                             "--size", "12", "--seed", "5", "--kind", "temporal",
                             "--out", out]) == 0

        def detect(bundle, out, parallel):
            code = cli_main(["detect", "--bundle", bundle, "--budget", "13",
                             "--lambda", "0.02", "--seed", "5",
                             "--parallel", str(parallel), "--out", out])
            assert code in (0, 3)

        mismatches = []
        for parallel in (0, 2):
            a, b = str(tmp_path / f"a{parallel}"), str(tmp_path / f"b{parallel}")
            synth(a)
            synth(b)
            for name in sorted(os.listdir(os.path.join(a, "instance"))):
                if self._hash(os.path.join(a, "instance", name)) != \
                        self._hash(os.path.join(b, "instance", name)):
                    mismatches.append(f"synth:{name}")
            detect(os.path.join(a, "instance"), a, parallel)
            detect(os.path.join(b, "instance"), b, parallel)
            for name in ("supports.txt", "x.txt"):
                if self._hash(os.path.join(a, "detect", name)) != \
                        self._hash(os.path.join(b, "detect", name)):
                    mismatches.append(f"detect(tau={parallel}):{name}")
            for out in (a, b):
                assert cli_main(["eval",
                                 "--detected", os.path.join(out, "detect", "supports.txt"),
                                 "--truth", os.path.join(out, "instance", "truth.txt"),
                                 "--out", out]) == 0
            if self._hash(os.path.join(a, "eval", "summary.txt")) != \
                    self._hash(os.path.join(b, "eval", "summary.txt")):
                mismatches.append("eval:summary.txt")
        report(9, not mismatches,
               f"synth/detect/eval reruns byte-identical (serial and tau=2); "
               f"mismatches: {mismatches or 'none'}")


class TestCriterion10RobustnessTrend:
    def test_flip_noise_degrades_gracefully(self):
        spec = SyntheticSpec(n=300, m=4, T=3, subgraph_size=30, overlap=0.5,
                             mu=5.0, seed=1)
        inst = generate_temporal(spec)
        inst.signals = [
            BlockSignal(np.isin(np.arange(300), truth).astype(float))
            for truth in inst.truths
        ]
        config = SolverConfig(budgets=NOISE_BUDGET, seed=1)
        rows = robustness_sweep(inst, [0, 2, 4, 6, 8, 10], NOISE_LAMBDA, config)
        fs = [row.f_measure for _, row in rows]
        ok = fs[-1] <= fs[0] and all(b <= a + 0.03 for a, b in zip(fs, fs[1:]))
        report(10, ok,
               f"F by noise percent {[round(f, 3) for f in fs]}: endpoint drop and "
               f"per-step slack 0.03 respected")
