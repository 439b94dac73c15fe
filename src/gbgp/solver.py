"""Outer projection loop and proximal block-coordinate inner solvers.

One outer iteration head-projects every block gradient to pick a small
search space, minimizes the objective restricted to that space with an
accelerated block-coordinate pass (serial, or randomized across blocks
for the parallel variant), then tail-projects the intermediate solution
back onto the connected-subgraph constraint set.
"""
from __future__ import annotations

import math
import time
# perfbench/tracer.py patches this name; it stays until ROADMAP item 3
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import BlockPartition, SupportSet
from .objectives import ObjectiveSpec
from .projections import ProjectionOutcome, head_project, tail_project

__all__ = [
    "SolverConfig",
    "DetectionResult",
    "OuterRecord",
    "gbgp_solve",
    "bcd_solve",
    "parallel_bcd_solve",
    "proximal_block_update",
    "estimate_step_size",
    "momentum_next",
    "momentum_weight",
    "theta_next",
]

_STEP_FLOOR = 1e-12


def momentum_next(rho: float) -> float:
    """Momentum sequence: rho_{t+1} = (1 + sqrt(1 + 4 rho_t^2)) / 2."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * rho * rho))


def momentum_weight(rho: float) -> float:
    """Extrapolation weight omega_t = (rho_t - 1) / rho_t, in [0, 1)."""
    return (rho - 1.0) / rho


def theta_next(theta: float) -> float:
    """Sampling sequence: theta_{t+1} = (sqrt(theta^4+4 theta^2)-theta^2)/2."""
    return 0.5 * (math.sqrt(theta**4 + 4.0 * theta**2) - theta**2)


@dataclass
class SolverConfig:
    """Knobs for the outer loop and the inner solvers; ``budgets`` is every block's budget."""

    budgets: int = 10
    outer_tol: float = 1e-3
    inner_tol: float = 1e-3
    max_outer_iters: int = 30
    max_inner_cycles: int = 100
    step_mode: str = "backtracking"
    step_size: float = 1.0
    head_capacity_mode: str = "2s"
    num_components: int = 1
    parallel: int = 0
    seed: int = 0

    def __post_init__(self):
        # outer_tol 0 disables the convergence exit (fixed-iteration runs)
        if self.outer_tol < 0 or self.inner_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.step_mode not in ("fixed", "backtracking"):
            raise ValueError(f"unknown step mode {self.step_mode!r}")
        if self.step_size <= 0:
            raise ValueError("step size must be positive")
        if self.parallel < 0:
            raise ValueError("parallel (the inner solver's tau) must be >= 0")
        if self.num_components < 1:
            raise ValueError("num_components must be >= 1")
        if self.budgets < 1:
            raise ValueError("budget must be >= 1")


@dataclass(frozen=True)
class OuterRecord:
    """What one outer iteration did and where it left the iterate.

    ``delta`` is the step ||x_new - x|| summed over blocks, ``objective``
    F(x) at the iteration's start and ``wall_ms`` its wall time. The
    iterate is zero off the tail supports, so ``nodes`` (the global ids
    the tail projections kept) with ``values`` (x on them) is all of it.
    ``probes`` maps each ``(kind, k)`` projection that searched to its
    engine-solve count; a reused projection has no entry.
    """

    delta: float
    objective: float
    wall_ms: float
    nodes: np.ndarray
    values: np.ndarray
    probes: dict[tuple[str, int], int]


@dataclass
class DetectionResult:
    """Final supports plus one record per outer iteration."""

    supports: list[SupportSet]
    x_final: np.ndarray
    converged: bool
    iterations: list[OuterRecord]

    @property
    def outer_iters(self) -> int:
        return len(self.iterations)

    def support_nodes(self) -> set[int]:
        out: set[int] = set()
        for support in self.supports:
            out.update(support.nodes)
        return out


def proximal_block_update(
    objective: ObjectiveSpec,
    k: int,
    y_hat: np.ndarray,
    alpha: float,
    omega_local: np.ndarray,
) -> np.ndarray:
    """Closed-form proximal step on block k around the point ``y_hat``.

    Gradient step with size alpha, entries outside the allowed support
    zeroed, then clipped to the box [0, 1].
    """
    if alpha <= 0:
        raise ValueError("step size must be positive")
    grad = objective.block_gradient(y_hat, k)
    return _box_step(y_hat[objective.partition.block_nodes[k]], grad, alpha, omega_local)


def _box_step(y_k: np.ndarray, grad: np.ndarray, alpha: float,
              omega_local: np.ndarray) -> np.ndarray:
    """y_k - alpha * grad, zeroed outside ``omega_local`` and clipped to [0, 1]."""
    x_k = y_k - alpha * grad
    x_k[~omega_local] = 0.0
    np.clip(x_k, 0.0, 1.0, out=x_k)
    return x_k


def estimate_step_size(
    objective: ObjectiveSpec,
    k: int,
    y_hat: np.ndarray,
    omega_local: np.ndarray,
    initial: float = 1.0,
    f_y: Optional[float] = None,
) -> tuple[float, np.ndarray, float]:
    """Backtracking step size for block k, the accepted update and its value.

    Halves from the initial value until the quadratic upper bound holds:
    F(x+) <= F(y) + <grad, x+ - y> + ||x+ - y||^2 / (2 alpha).
    ``f_y`` is ``objective.local_value(y_hat, k)`` where the caller knows
    it. Returns alpha, x+ on block k and ``local_value`` at x+ (y_hat with
    block k replaced by x+).
    """
    nodes_k = objective.partition.block_nodes[k]
    grad = objective.block_gradient(y_hat, k)
    y_k = y_hat[nodes_k]
    if f_y is None:
        f_y = objective.local_value(y_hat, k)
    alpha = initial
    # a trial point differs from y_hat on block k alone: it is written into
    # y_hat and y_k put back on return, with no copy of the whole vector
    try:
        while True:
            x_k = _box_step(y_k, grad, alpha, omega_local)
            y_hat[nodes_k] = x_k
            step = x_k - y_k
            bound = f_y + float(grad @ step) + float(step @ step) / (2.0 * alpha)
            f_x = objective.local_value(y_hat, k)
            if f_x <= bound + 1e-12:
                return alpha, x_k, f_x
            alpha *= 0.5
            if alpha < _STEP_FLOOR:
                raise RuntimeError(
                    f"backtracking underflow on block {k}: no step above {_STEP_FLOOR}"
                )
    finally:
        y_hat[nodes_k] = y_k


def _box_projected_gradient(grad: np.ndarray, x_k: np.ndarray) -> np.ndarray:
    """Zero out gradient components that point outside the box [0, 1].

    At a coordinate pinned to 0 only a negative gradient permits
    movement, at 1 only a positive one; the head projection should see
    only mass it can actually act on.
    """
    out = grad.copy()
    out[(x_k <= 0.0) & (grad > 0.0)] = 0.0
    out[(x_k >= 1.0) & (grad < 0.0)] = 0.0
    return out


def _restrict(x: np.ndarray, partition: BlockPartition, masks: list[np.ndarray]) -> None:
    """Zero every block of x outside its mask and clip it to [0, 1], in place."""
    for k in range(partition.num_blocks):
        nodes = partition.block_nodes[k]
        x_k = x[nodes]
        x_k[~masks[k]] = 0.0
        np.clip(x_k, 0.0, 1.0, out=x_k)
        x[nodes] = x_k


def bcd_solve(
    objective: ObjectiveSpec,
    masks: list[np.ndarray],
    x_init: np.ndarray,
    config: SolverConfig,
    trace: Optional[list] = None,
) -> np.ndarray:
    """Cyclic accelerated proximal block-coordinate descent.

    Visits blocks in index order; each visit extrapolates the block
    iterate, takes one proximal step restricted to the block's allowed
    support (``masks[k]``, a boolean over block k's local ids), and
    advances the momentum sequence rho. Momentum restarts (one plain
    step) whenever the extrapolated step would increase the objective,
    which keeps the iteration monotone under backtracking.
    When given, ``trace`` collects the objective value after each visit.
    """
    if not any(mask.any() for mask in masks):
        raise ValueError("all blocks have empty allowed supports")
    partition = objective.partition
    K = partition.num_blocks
    x = x_init.copy()
    _restrict(x, partition, masks)
    prev_blocks = [x[partition.block_nodes[k]].copy() for k in range(K)]
    rho = 1.0
    for _cycle in range(config.max_inner_cycles):
        cycle_delta = 0.0
        for k in range(K):
            if not masks[k].any():
                rho = momentum_next(rho)
                continue
            nodes_k = partition.block_nodes[k]
            omega_t = momentum_weight(rho)
            x_k = x[nodes_k]
            y_k = x_k + omega_t * (x_k - prev_blocks[k])
            # the points tried below differ from x on block k alone, so they
            # are written into x's block k rather than into copies of x
            if config.step_mode == "fixed":
                x[nodes_k] = y_k
                new_k = proximal_block_update(
                    objective, k, x, config.step_size, masks[k]
                )
            else:
                f_before = objective.local_value(x, k)
                x[nodes_k] = y_k
                _, new_k, f_new = estimate_step_size(objective, k, x, masks[k],
                                                     config.step_size)
                if f_new > f_before + 1e-12 and omega_t > 0:
                    # momentum overshot: restart from the unextrapolated point
                    x[nodes_k] = x_k
                    _, new_k, _ = estimate_step_size(objective, k, x, masks[k],
                                                     config.step_size, f_before)
            prev_blocks[k] = x_k
            cycle_delta += float(np.linalg.norm(new_k - x_k))
            x[nodes_k] = new_k
            rho = momentum_next(rho)
            if trace is not None:
                trace.append(objective.value(x))
        if cycle_delta <= config.inner_tol:
            break
    return x


def parallel_bcd_solve(
    objective: ObjectiveSpec,
    masks: list[np.ndarray],
    x_init: np.ndarray,
    config: SolverConfig,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Randomized accelerated block-coordinate descent over block subsets.

    Each round samples blocks independently with probability tau/K,
    updates their z-components through the proximal subproblem with
    curvature weight K*theta/(2*tau) (scaled by the per-block step
    size), then mixes the update into the accelerated iterate. With a
    fixed seed the trajectory is reproducible for any tau.
    """
    if not any(mask.any() for mask in masks):
        raise ValueError("all blocks have empty allowed supports")
    partition = objective.partition
    K = partition.num_blocks
    tau = max(1, config.parallel)
    tau = min(tau, K)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    x = x_init.copy()
    _restrict(x, partition, masks)

    # per-block curvature estimates, frozen for the whole inner solve
    alphas = np.full(K, config.step_size)
    if config.step_mode == "backtracking":
        for k in range(K):
            if masks[k].any():
                alphas[k] = estimate_step_size(objective, k, x, masks[k], config.step_size)[0]

    z = x.copy()
    theta = tau / K
    max_rounds = max(1, math.ceil(config.max_inner_cycles * K / tau))
    for _round in range(max_rounds):
        y = (1.0 - theta) * x + theta * z
        sampled = [k for k in range(K) if rng.random() < tau / K]
        z_new = z.copy()
        for k in sampled:
            if not masks[k].any():
                continue
            nodes_k = partition.block_nodes[k]
            step = (tau * alphas[k]) / (K * theta)
            grad = objective.block_gradient(y, k)
            z_new[nodes_k] = _box_step(z[nodes_k], grad, step, masks[k])
        x_new = y + (K / tau) * theta * (z_new - z)
        delta = float(np.linalg.norm(x_new - x))
        x, z = x_new, z_new
        theta = theta_next(theta)
        if delta <= config.inner_tol:
            break
    _restrict(x, partition, masks)
    return x


def gbgp_solve(
    objective: ObjectiveSpec,
    config: SolverConfig,
    x0: Optional[np.ndarray] = None,
) -> DetectionResult:
    """Head-project, minimize restricted, tail-project until converged.

    Each ``(kind, k)`` projection keeps one entry: its last search's input
    bytes, warm start and outcome. The next search on that block starts
    from the outcome's multiplier, and a projection is a pure function of
    its input and warm start (budget and options are fixed per solve), so
    a block whose input and warm start both repeat reuses the outcome
    instead of searching again; only the other blocks are projected.
    Returns the per-block tail supports of the final iteration, the
    continuous iterate, and one :class:`OuterRecord` per outer iteration:
    its step, objective and wall time, the whole iterate as ``(nodes,
    values)`` (so iterate i is ``x = zeros(n); x[r.nodes] = r.values`` for
    ``r = iterations[i - 1]``), and the probe count of every projection
    that searched.

    ``parallel`` sets only the randomized inner solver's tau: projections
    run in this thread, one block after another, because on 2 CPUs threads
    running the kernel's searches side by side were slower than running
    them in turn.
    """
    partition = objective.partition
    K = partition.num_blocks
    block_graphs = [partition.block_graph(k) for k in range(K)]
    blocks = [k for k in range(K) if len(partition.block_nodes[k])]
    for k in blocks:
        if config.budgets > len(partition.block_nodes[k]):
            raise ValueError(f"budget {config.budgets} infeasible for block {k} "
                             f"of {len(partition.block_nodes[k])} nodes")
    rng = np.random.default_rng(config.seed)

    # (kind, k) -> the last search's (input bytes, warm start, outcome)
    last: dict[tuple[str, int], tuple[bytes, Optional[float], ProjectionOutcome]] = {}

    def project_blocks(kind: str, inputs: dict[int, np.ndarray],
                       probes: dict) -> dict[int, ProjectionOutcome]:
        outcomes = {}
        for k, values in inputs.items():
            data, entry = values.tobytes(), last.get((kind, k))
            warm = None if entry is None else entry[2].multiplier
            if entry is not None and entry[:2] == (data, warm):
                outcomes[k] = entry[2]
                continue
            if kind == "head":
                outcome = head_project(values, block_graphs[k], config.budgets,
                                       num_components=config.num_components,
                                       capacity_mode=config.head_capacity_mode,
                                       block_id=k, initial_multiplier=warm)
            else:
                outcome = tail_project(values, block_graphs[k], config.budgets,
                                       num_components=config.num_components,
                                       block_id=k, initial_multiplier=warm)
            last[kind, k] = (data, warm, outcome)
            probes[kind, k] = outcome.search_iterations
            outcomes[k] = outcome
        return outcomes

    x = objective.initial_x() if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    iterations: list[OuterRecord] = []
    converged = False
    tail_supports: list[SupportSet] = [SupportSet(k, ()) for k in range(K)]

    for outer in range(1, config.max_outer_iters + 1):
        iter_start = time.perf_counter()
        f_x = objective.value(x)
        if not np.isfinite(f_x):
            raise RuntimeError(f"objective is non-finite at outer iteration {outer}")
        probes: dict[tuple[str, int], int] = {}

        heads = project_blocks("head", {
            k: _box_projected_gradient(objective.block_gradient(x, k),
                                       x[partition.block_nodes[k]])
            for k in blocks
        }, probes)
        # allowed support: the head support plus the current support
        masks = [x[nodes] != 0.0 for nodes in partition.block_nodes]
        for k in blocks:
            masks[k][list(heads[k].support.nodes)] = True

        if config.parallel >= 2 and K > 1:
            b = parallel_bcd_solve(objective, masks, x, config, rng)
        else:
            b = bcd_solve(objective, masks, x, config)

        tails = project_blocks(
            "tail", {k: b[partition.block_nodes[k]] for k in blocks}, probes
        )
        x_new = np.zeros_like(x)
        new_supports = [SupportSet(k, ()) for k in range(K)]
        for k in blocks:
            kept = partition.block_nodes[k][list(tails[k].support.nodes)]
            x_new[kept] = b[kept]
            new_supports[k] = SupportSet(k, kept.tolist())

        delta = sum(
            float(np.linalg.norm(x_new[partition.block_nodes[k]] - x[partition.block_nodes[k]]))
            for k in range(K)
        )
        nodes = np.fromiter((v for supp in new_supports for v in supp.nodes), dtype=np.int64)
        iterations.append(OuterRecord(delta, f_x, (time.perf_counter() - iter_start) * 1e3,
                                      nodes, x_new[nodes], probes))
        x = x_new
        tail_supports = new_supports
        if config.outer_tol > 0 and delta <= config.outer_tol:
            converged = True
            break

    return DetectionResult(
        supports=tail_supports,
        x_final=x,
        converged=converged,
        iterations=iterations,
    )
