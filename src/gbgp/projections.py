"""Connected-subgraph head and tail projections.

Both projections binary-search an edge-cost multiplier fed to the
prize-collecting Steiner forest engine until the returned support fits
the sparsity budget: head projections use squared entries of the input
as prizes to capture gradient mass, tail projections do the same to
snap an iterate onto the constraint set. Ties always resolve toward
low node ids so projections are deterministic.

A phase of searches (:func:`search_phase`) computes each one's bounds in
Python and runs every bisection in one call into the PCST kernel
(``pcst.run_searches``), spread over a few threads without the GIL;
``solver.gbgp_solve`` makes one such call per projection phase.
``budget_search`` is the one-search case of that call, and
:func:`head_project` and :func:`tail_project` wrap one budget search each.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph import Graph, SupportSet
from .pcst import PcstEngine, run_searches

__all__ = [
    "ProjectionOutcome",
    "budget_search",
    "head_project",
    "search_phase",
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
    """One engine per graph object, cached on the graph itself.

    Its kernel calls share no state, so every thread shares the one engine.
    """
    engine = getattr(graph, "_pcst_engine", None)
    if engine is None:
        engine = PcstEngine(graph)
        graph._pcst_engine = engine
    return engine


def _fallback_node(prizes: np.ndarray) -> tuple[int, ...]:
    return (int(np.argmax(prizes)),)


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
    start) and keeps the feasible support with the largest collected
    prize mass; among equal masses, the fewest nodes, then the lowest
    ids, over the probes made. Oversized forests contribute a feasible
    candidate by dropping their weakest leaves. ``capacity`` defaults to
    ``budget``; a ``ValueError`` is raised unless 1 <= budget <= capacity.

    The search exits early once a support lands inside [budget,
    capacity], or once the best mass reaches what no support can
    exceed: the sum of the ``num_components`` largest values of
    min(component mass, top-capacity mass), capped at the top-capacity
    mass, where a component mass is the prize in one connected
    component of ``graph``. Each tree of a forest lies in one component,
    so a later probe could at most tie that mass (to 1e-12 relative);
    the exit skips it even where it would have won the tie on size or
    ids. On a block shattered into components too small to reach the
    budget this ends the search after a probe or two instead of
    bisecting to the 1e-2 tolerance.

    Falls back to the single highest-prize node when nothing feasible
    is found. Returns the support, the probe count, and the multiplier
    that produced the support (reusable as the next warm start).

    The bounds are computed here, the bisection in the kernel, which
    replays the reference loop in ``tests/oracles.py`` bit for bit:
    ``log``/``exp`` are libm's, as Python's ``math`` calls them; a
    probe's costs are ``edge_w * multiplier``; a support's score sums its
    prizes in ascending node order the way NumPy's pairwise summation
    does (8 interleaved partial sums, halves split at a multiple of 8
    above 128 entries); the trim pops leaves on ``(prize, -v)``; and a
    probe replaces the best candidate only when ``(-score, size, nodes)``
    is strictly less, so the first of equal candidates keeps its
    multiplier.
    """
    return search_phase([(graph, prizes, budget, capacity, num_components,
                          initial_multiplier)])[0]


def search_phase(searches: Sequence[tuple]) -> list[tuple[tuple[int, ...], int, float]]:
    """Run several :func:`budget_search` calls at once, in one kernel call.

    Each search is a tuple of :func:`budget_search`'s arguments and gets
    the ``(support, probes, multiplier)`` that call would return. Arguments
    are checked and bounds computed here, in order, so the first bad search
    raises; the bisections run on a few threads (``pcst.run_searches``).
    """
    tasks = [_bounded(*search) for search in searches]
    found = run_searches(tasks, MULTIPLIER_LOW, MULTIPLIER_HIGH, MAX_SEARCH_ITERATIONS)
    results = []
    for (_, prizes, *_), (support, probes, multiplier) in zip(tasks, found):
        if not support:
            support, multiplier = _fallback_node(prizes), MULTIPLIER_HIGH
        results.append((support, probes, multiplier))
    return results


def _bounded(graph: Graph, prizes, budget: int, capacity: Optional[int] = None,
             num_components: int = 1, initial_multiplier: Optional[float] = None) -> tuple:
    """Check one search's arguments and add its bounds: a ``run_searches`` task."""
    if capacity is None:
        capacity = budget
    if not 1 <= budget <= capacity:
        raise ValueError(f"budget {budget} must be in [1, capacity {capacity}]")
    prizes = np.ascontiguousarray(prizes, dtype=np.float64)
    if prizes.shape != (graph.node_count,):
        raise ValueError("prizes length must match node count")
    if not (np.isfinite(prizes).all() and (prizes >= 0).all()):
        raise ValueError("prizes must be nonnegative and finite")
    if num_components < 1:
        raise ValueError("num_components must be >= 1")
    total = float(prizes.sum())
    if capacity < len(prizes):
        top_bound = float(np.partition(prizes, -capacity)[-capacity:].sum())
    else:
        top_bound = total
    # no feasible support can beat the top-capacity prize mass
    exit_score = top_bound - 1e-12 * max(1.0, top_bound)
    engine = _engine_for(graph)
    # nor, as each of its at most num_components trees stays inside one
    # connected component, the num_components heaviest components' masses;
    # where that is no lower, the exit above is kept exactly
    masses = np.bincount(engine.labels, weights=prizes)
    if num_components < len(masses):
        masses = np.partition(masses, -num_components)[-num_components:]
    reach = float(np.minimum(masses, top_bound).sum())
    if reach < top_bound:
        exit_score = min(exit_score, reach - 1e-12 * reach)

    return (engine, prizes, budget, capacity, num_components, initial_multiplier, total,
            exit_score)


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
    return _project(weights, graph_k, budget, num_components, capacity_mode, block_id,
                    initial_multiplier, captured=True)


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
    return _project(values, graph_k, budget, num_components, capacity_mode, block_id,
                    initial_multiplier, captured=False)


def _project(values, graph: Graph, budget: int, num_components: int, capacity_mode: str,
             block_id: int, warm: Optional[float], captured: bool) -> ProjectionOutcome:
    """A budget search on the squared entries, reporting the captured
    (``captured``) or the left-out mass, each as NumPy sums it."""
    values = np.asarray(values, dtype=np.float64)
    prizes = values * values
    capacity = _capacity(budget, capacity_mode, graph.node_count)
    support, probes, multiplier = budget_search(graph, prizes, budget, capacity,
                                                num_components, warm)
    mass = float(prizes[list(support)].sum())
    return ProjectionOutcome(
        support=SupportSet(block_id, support),
        residual_sq=mass if captured else max(float(prizes.sum()) - mass, 0.0),
        search_iterations=probes,
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

