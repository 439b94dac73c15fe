"""Detection metrics, robustness and scaling runs.

Temporal detections are scored by pooling (timestamp, node) pairs into
one confusion count. Wall time is measured around the solver call only,
never around instance generation or file I/O.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .datagen import NonInstance, SyntheticSpec, TemporalInstance, flip_noise, generate_non
from .graph import SupportSet
from .objectives import ObjectiveSpec
from .solver import DetectionResult, SolverConfig, gbgp_solve

__all__ = [
    "MetricRow",
    "precision_recall_f1",
    "support_pairs",
    "solve_instance",
    "robustness_sweep",
    "scaling_bench",
]


@dataclass(frozen=True)
class MetricRow:
    """One detection scored against ground truth."""

    precision: float
    recall: float
    f_measure: float


def precision_recall_f1(detected: Iterable, truth: Iterable) -> MetricRow:
    """Precision, recall and their harmonic mean over two node sets.

    Elements may be plain nodes or (timestamp, node) pairs; the two
    collections must use the same convention.
    """
    detected = set(detected)
    truth = set(truth)
    hits = len(detected & truth)
    precision = hits / len(detected) if detected else 0.0
    if truth:
        recall = hits / len(truth)
    else:
        recall = 1.0 if not detected else 0.0
    denom = precision + recall
    f_measure = 2.0 * precision * recall / denom if denom > 0 else 0.0
    return MetricRow(precision, recall, f_measure)


def support_pairs(supports: Iterable[SupportSet],
                  snapshot_size: Optional[int]) -> list[tuple[int, int]]:
    """The ``(t, node)`` pairs of detected supports, in support order.

    With ``snapshot_size`` n (temporal layout), id g of block t is node
    g - t*n at time t; otherwise (network of networks) it is (0, g).
    """
    return [
        (0, node) if snapshot_size is None else (s.block_id, node - s.block_id * snapshot_size)
        for s in supports
        for node in s.nodes
    ]


def solve_instance(
    instance: TemporalInstance | NonInstance,
    lam: float,
    config: SolverConfig,
) -> tuple[set[tuple[int, int]], DetectionResult, float]:
    """Run detection on a generated instance; returns pairs and timing."""
    if isinstance(instance, TemporalInstance):
        graph, partition, signal = instance.expand()
        kind, snapshot_size = "temporal", instance.base_graph.node_count
    else:
        partition, signal = instance.partition, instance.signal
        kind, snapshot_size = "non", None
    objective = ObjectiveSpec(kind, partition, signal, lam=lam)
    start = time.perf_counter()
    result = gbgp_solve(objective, config)
    wall = time.perf_counter() - start
    return set(support_pairs(result.supports, snapshot_size)), result, wall


def robustness_sweep(
    instance: TemporalInstance | NonInstance,
    percents: Sequence[float],
    lam: float,
    config: SolverConfig,
    noise_seed: int = 0,
) -> list[tuple[float, MetricRow]]:
    """Flip-noise sweep on a binary-signal instance.

    The instance's signals must be 0/1 valued; each requested percent is
    applied independently to the clean signals before detection.
    """
    temporal = isinstance(instance, TemporalInstance)
    clean = instance.signals if temporal else [instance.signal]
    rows = []
    for p_idx, percent in enumerate(percents):
        noisy = [
            flip_noise(sig, percent, seed=noise_seed * 1000 + p_idx * 10 + t)
            for t, sig in enumerate(clean)
        ]
        if temporal:
            noisy_instance = replace(instance, signals=noisy)
        else:
            noisy_instance = replace(instance, signal=noisy[0])
        pairs, _, _ = solve_instance(noisy_instance, lam, config)
        rows.append((float(percent), precision_recall_f1(pairs, instance.truth_pairs())))
    return rows


def scaling_bench(
    sizes: Sequence[int],
    lam: float = 0.01,
    tau_list: Sequence[int] = (0,),
    repeats: int = 3,
    block_nodes: int = 500,
    seed: int = 0,
) -> list[dict]:
    """Median wall time of detection as the network grows.

    Instances keep |E| = 3 |V| and a truth of 10% of the nodes; block
    count scales so blocks stay near ``block_nodes`` nodes. Each repeat
    runs a freshly seeded instance so the median reflects the algorithm's
    scaling rather than one instance's luck. Every timed run executes 6
    outer iterations: the iteration count depends on conditioning rather
    than size, and pinning it isolates the per-size cost that the
    nearly-linear-time claim is about. ``seed`` seeds both the instances
    (repeat r draws seed + r) and the solver.
    """
    if list(sizes) != sorted(sizes):
        raise ValueError("sizes must be ascending")
    table = []
    for n in sizes:
        num_blocks = max(2, round(n / block_nodes))
        budget = max(1, int(0.12 * n / num_blocks) + 1)
        instances = []
        for rep in range(repeats):
            spec = SyntheticSpec(
                n=int(n), m=3, subgraph_size=0.1, mu=5.0, seed=seed + rep
            )
            instances.append(generate_non(spec, num_blocks))
        for tau in tau_list:
            run_config = SolverConfig(budgets=budget, parallel=int(tau), max_outer_iters=6,
                                      outer_tol=0.0, seed=seed)
            walls, fs = [], []
            for instance in instances:
                pairs, _, wall = solve_instance(instance, lam, run_config)
                walls.append(wall)
                fs.append(
                    precision_recall_f1(pairs, instance.truth_pairs()).f_measure
                )
            table.append(
                {
                    "n": int(n),
                    "edges": instances[0].graph.edge_count,
                    "blocks": num_blocks,
                    "tau": int(tau),
                    "wall_s": float(np.median(walls)),
                    "f1": float(np.mean(fs)),
                }
            )
    return table
