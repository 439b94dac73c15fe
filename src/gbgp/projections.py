"""Connected-subgraph head and tail projections.

Both projections binary-search an edge-cost multiplier fed to the
prize-collecting Steiner forest engine until the returned support fits
the sparsity budget: head projections use squared entries of the input
as prizes to capture gradient mass, tail projections do the same to
snap an iterate onto the constraint set. Ties always resolve toward
low node ids so projections are deterministic.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph import Graph, SupportSet
from .pcst import PcstEngine

__all__ = [
    "ProjectionOutcome",
    "budget_search",
    "head_project",
    "tail_project",
]

MULTIPLIER_LOW = 1e-6
MULTIPLIER_HIGH = 1e6
MAX_SEARCH_ITERATIONS = 50


@dataclass(frozen=True)
class ProjectionOutcome:
    """Support selected by a projection plus search bookkeeping."""

    support: SupportSet
    residual_sq: float
    search_iterations: int
    multiplier: float = 1.0


def _engine_for(graph: Graph) -> PcstEngine:
    """One engine per graph object, cached on the graph itself."""
    engine = getattr(graph, "_pcst_engine", None)
    if engine is None:
        engine = PcstEngine(graph)
        graph._pcst_engine = engine
    return engine


def _fallback_node(prizes: np.ndarray) -> tuple[int, ...]:
    return (int(np.argmax(prizes)),)


def _trim_to_capacity(components, prizes: np.ndarray, capacity: int) -> tuple[int, ...]:
    """Drop lowest-prize leaves of a forest until it fits the capacity.

    Removing a leaf keeps every remaining tree connected; ties resolve
    toward removing the higher node id so low ids survive.
    """
    adj: dict[int, set[int]] = {}
    total = 0
    for nodes, edges in components:
        total += len(nodes)
        for v in nodes:
            adj[v] = set()
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
    heap = [(prizes[v], -v, v) for v in adj if len(adj[v]) <= 1]
    heapq.heapify(heap)
    removed: set[int] = set()
    while total > capacity and heap:
        _, _, v = heapq.heappop(heap)
        if v in removed or len(adj[v]) > 1:
            continue
        removed.add(v)
        total -= 1
        for u in adj[v]:
            adj[u].discard(v)
            if len(adj[u]) <= 1 and u not in removed:
                heapq.heappush(heap, (prizes[u], -u, u))
        adj[v] = set()
    return tuple(sorted(v for v in adj if v not in removed))


def budget_search(
    graph: Graph,
    prizes: np.ndarray,
    budget: int,
    capacity: Optional[int] = None,
    num_components: int = 1,
    initial_multiplier: Optional[float] = None,
) -> tuple[tuple[int, ...], int, float]:
    """Bisect the edge-cost multiplier until the support fits the budget.

    Larger multipliers shrink the support. Bisection runs in log space
    over [1e-6, 1e6] (first probe is multiplier 1, or the caller's warm
    start), keeps the feasible support with the largest collected prize
    mass, and exits early once a support lands inside [budget,
    capacity]. Oversized forests contribute a feasible candidate by
    dropping their weakest leaves. Falls back to the single
    highest-prize node when nothing feasible is found. Returns the
    support, the probe count, and the multiplier that produced the
    support (reusable as the next warm start).
    """
    if capacity is None:
        capacity = budget
    prizes = np.asarray(prizes, dtype=np.float64)
    total = float(prizes.sum())
    if capacity < len(prizes):
        top_bound = float(np.partition(prizes, -capacity)[-capacity:].sum())
    else:
        top_bound = total
    # no feasible support can beat the top-capacity prize mass
    exit_score = top_bound - 1e-12 * max(1.0, top_bound)
    engine = _engine_for(graph)

    lo, hi = math.log(MULTIPLIER_LOW), math.log(MULTIPLIER_HIGH)
    best: Optional[tuple[float, int, tuple[int, ...], float]] = None
    for probe in range(MAX_SEARCH_ITERATIONS):
        if probe == 0 and initial_multiplier is not None:
            mid = math.log(min(max(initial_multiplier, MULTIPLIER_LOW), MULTIPLIER_HIGH))
        else:
            mid = 0.5 * (lo + hi)
        mult = math.exp(mid)
        result = engine.solve(graph.edge_w * mult, prizes, num_trees=num_components)
        nodes = tuple(result.nodes)
        oversized = len(nodes) > capacity
        # oversized forests still carry a usable feasible candidate
        support = _trim_to_capacity(result.components, prizes, capacity) if oversized else nodes
        score = float(prizes[list(support)].sum()) if support else 0.0
        candidate = (-score, len(support), support, mult)
        if best is None or candidate[:3] < best[:3]:
            best = candidate
        if oversized:
            lo = min(mid, hi - 1e-9)
        elif len(nodes) >= budget or score >= total - 1e-12:
            break
        else:
            hi = max(mid, lo + 1e-9)
        if -best[0] >= exit_score or hi - lo < 1e-2:
            break

    if not best[2]:
        return _fallback_node(prizes), probe + 1, MULTIPLIER_HIGH
    return best[2], probe + 1, best[3]


def head_project(
    weights: Sequence[float],
    graph_k: Graph,
    budget: int,
    num_components: int = 1,
    capacity_mode: str = "2s",
    block_id: int = 0,
    initial_multiplier: Optional[float] = None,
) -> ProjectionOutcome:
    """Support capturing a constant fraction of the largest feasible mass.

    The returned support induces at most ``num_components`` connected
    components and has at most capacity(budget) nodes, where capacity is
    2*budget by default ("2s") or budget ("s"). ``residual_sq`` holds
    the captured squared mass.
    """
    return _project(weights, graph_k, budget, num_components, capacity_mode,
                    block_id, initial_multiplier, captured=True)


def tail_project(
    values: Sequence[float],
    graph_k: Graph,
    budget: int,
    num_components: int = 1,
    capacity_mode: str = "s",
    block_id: int = 0,
    initial_multiplier: Optional[float] = None,
) -> ProjectionOutcome:
    """Feasible support whose complement carries little squared mass.

    ``residual_sq`` is the squared mass left outside the support.
    """
    return _project(values, graph_k, budget, num_components, capacity_mode,
                    block_id, initial_multiplier, captured=False)


def _project(values, graph_k, budget, num_components, capacity_mode, block_id,
             initial_multiplier, captured: bool) -> ProjectionOutcome:
    """Budget search on squared entries; reports captured or left-out mass."""
    values = np.asarray(values, dtype=np.float64)
    _validate_projection_args(values, graph_k, budget)
    capacity = _capacity(budget, capacity_mode, graph_k.node_count)
    prizes = values * values
    nodes, iterations, multiplier = budget_search(
        graph_k, prizes, budget, capacity, num_components, initial_multiplier,
    )
    mass = float(prizes[list(nodes)].sum())
    return ProjectionOutcome(
        support=SupportSet(block_id, nodes),
        residual_sq=mass if captured else max(float(prizes.sum()) - mass, 0.0),
        search_iterations=iterations,
        multiplier=multiplier,
    )


def _capacity(budget: int, mode: str, block_size: int) -> int:
    if mode == "2s":
        cap = 2 * budget
    elif mode == "s":
        cap = budget
    else:
        raise ValueError(f"unknown capacity mode {mode!r}")
    return min(cap, block_size)


def _validate_projection_args(values: np.ndarray, graph_k: Graph, budget: int) -> None:
    if graph_k.node_count == 0:
        raise ValueError("cannot project on an empty block")
    if len(values) != graph_k.node_count:
        raise ValueError(
            f"vector length {len(values)} != block size {graph_k.node_count}"
        )
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if budget > graph_k.node_count:
        raise ValueError(
            f"budget {budget} infeasible for block of {graph_k.node_count} nodes"
        )
