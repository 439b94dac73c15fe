"""Outer projection loop and proximal block-coordinate inner solvers.

One outer iteration head-projects every block gradient to pick a small
search space, minimizes the objective restricted to that space with an
accelerated block-coordinate pass (serial, or randomized across blocks
for the parallel variant), then tail-projects the intermediate solution
back onto the connected-subgraph constraint set.

Each inner solver is one call of the C kernel per outer iteration:
:func:`bcd_solve` of ``gbgp_bcd_solve`` and :func:`parallel_bcd_solve` of
``gbgp_rbcd_solve``. Each replays its Python loop, kept in
``tests/oracles.py``, bit for bit (see ``gbgp.objectives`` for the order
of each sum and dot). Every dot product and norm here is the kernel's
:func:`~gbgp.objectives.dot`, so the outputs do not depend on which BLAS
kernel the host's NumPy picks.
"""
from __future__ import annotations

import ctypes
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import SupportSet
from .objectives import ObjectiveSpec, dot
from .pcst import _kernel
from .projections import _capacity, search_phase
# perfbench/tracer.py patches these names, which no solve calls any more
from .projections import head_project, tail_project  # noqa: F401

__all__ = [
    "SolverConfig",
    "DetectionResult",
    "OuterRecord",
    "gbgp_solve",
    "bcd_solve",
    "parallel_bcd_solve",
    "estimate_step_size",
]

_STEP_FLOOR = 1e-12


def __getattr__(name: str):
    # perfbench/tracer.py patches ProcessPoolExecutor here, which no solve
    # uses; it is imported on first lookup, as concurrent.futures.process
    # and the subprocess module it loads cost about 10 ms of every import
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        # outer_tol 0 disables the convergence exit (fixed-iteration runs); a
        # NaN or infinite tolerance or step would stop a loop at once or never
        if not (0 <= self.outer_tol < math.inf and 0 < self.inner_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.step_mode not in ("fixed", "backtracking"):
            raise ValueError(f"unknown step mode {self.step_mode!r}")
        if not 0 < self.step_size < math.inf:
            raise ValueError("step size must be positive and finite")
        if self.head_capacity_mode not in ("s", "2s"):
            raise ValueError(f"unknown head capacity mode {self.head_capacity_mode!r}")
        if self.parallel < 0:
            raise ValueError("parallel (the inner solver's tau) must be >= 0")
        if self.num_components < 1:
            raise ValueError("num_components must be >= 1")
        if self.budgets < 1:
            raise ValueError("budget must be >= 1")
        if self.max_outer_iters < 1 or self.max_inner_cycles < 1:
            raise ValueError("max_outer_iters and max_inner_cycles must be >= 1")


@dataclass(frozen=True)
class OuterRecord:
    """What one outer iteration did and where it left the iterate.

    ``delta`` is the step ||x_new - x|| summed over blocks, ``objective``
    F(x) at the iteration's start and ``wall_ms`` its wall time, of which
    ``head_ms`` went to the head phase (block gradients and their
    projections), ``inner_ms`` to the inner solve and its masks, and
    ``tail_ms`` to the tail projections and the new iterate. The
    iterate is zero off the tail supports, so ``nodes`` (the global ids
    the tail projections kept) with ``values`` (x on them) is all of it.
    ``probes`` maps each ``(kind, k)`` projection that searched to its
    engine-solve count; a reused projection has no entry. The inner
    solve's work follows: its passes over the blocks (rounds for the
    parallel solver), block visits, momentum restarts and backtracking
    halvings.
    """

    delta: float
    objective: float
    wall_ms: float
    head_ms: float
    inner_ms: float
    tail_ms: float
    nodes: np.ndarray
    values: np.ndarray
    probes: dict[tuple[str, int], int]
    inner_cycles: int
    block_visits: int
    restarts: int
    halvings: int


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


# Neither inner solver calls estimate_step_size or _box_step: both run in
# the kernel, whose backtrack() mirrors them. They stay because
# perfbench/tracer.py patches solver.estimate_step_size by name (ROADMAP
# item 3) and the reference loops in tests/oracles.py call them.
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
            bound = f_y + dot(grad, step) + dot(step, step) / (2.0 * alpha)
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


def _box_projected_gradient(grad: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Zero out gradient components that point outside the box [0, 1].

    At a coordinate pinned to 0 only a negative gradient permits
    movement, at 1 only a positive one; the head projection should see
    only mass it can actually act on. Elementwise, so one call serves
    every block's entries at once.
    """
    out = grad.copy()
    out[(x <= 0.0) & (grad > 0.0)] = 0.0
    out[(x >= 1.0) & (grad < 0.0)] = 0.0
    return out


def _inner_args(objective: ObjectiveSpec, masks: list[np.ndarray],
                x_init: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An inner solver's masks, back to back, and a float64 copy of its start."""
    if [len(mask) for mask in masks] != objective._sizes:
        raise ValueError("masks must hold one boolean per node of each block")
    flat = np.ascontiguousarray(np.concatenate(masks), dtype=bool)
    if not flat.any():
        raise ValueError("all blocks have empty allowed supports")
    x = np.array(x_init, dtype=np.float64)
    if x.shape != (objective.partition.graph.node_count,):
        raise ValueError(f"x has shape {x.shape}, not one entry per node")
    return flat, x


def _check_inner(status: int) -> None:
    """Raise what an inner solver kernel's status code reports."""
    if status == -1:
        raise MemoryError("the inner solver kernel ran out of memory")
    if status < -1:
        raise RuntimeError(
            f"backtracking underflow on block {-2 - status}: no step above {_STEP_FLOOR}"
        )


def bcd_solve(
    objective: ObjectiveSpec,
    masks: list[np.ndarray],
    x_init: np.ndarray,
    config: SolverConfig,
    counts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Cyclic accelerated proximal block-coordinate descent.

    Visits blocks in index order; each visit extrapolates the block
    iterate, takes one proximal step restricted to the block's allowed
    support (``masks[k]``, a boolean over block k's local ids), and
    advances the momentum sequence rho. Momentum restarts (one plain
    step) whenever the extrapolated step would increase the objective,
    which keeps the iteration monotone under backtracking.

    The whole solve is one call of the kernel's ``gbgp_bcd_solve``, with
    the GIL released; it replays the Python loop in ``tests/oracles.py``
    bit for bit. ``counts``, an int64 array of 4 when given, receives the
    passes over the blocks, the block visits, the momentum restarts and
    the backtracking halvings.
    """
    flat, x = _inner_args(objective, masks, x_init)
    if counts is None:
        counts = np.zeros(4, dtype=np.int64)
    status = _kernel.gbgp_bcd_solve(
        objective._kernel_ref, flat.ctypes.data, x.ctypes.data, config.max_inner_cycles,
        config.step_mode == "fixed", config.step_size, config.inner_tol, counts.ctypes.data,
    )
    _check_inner(status)
    return x


def parallel_bcd_solve(
    objective: ObjectiveSpec,
    masks: list[np.ndarray],
    x_init: np.ndarray,
    config: SolverConfig,
    rng: Optional[np.random.Generator] = None,
    counts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Randomized accelerated block-coordinate descent over block subsets.

    Each round samples blocks independently with probability tau/K,
    updates their z-components through the proximal subproblem with
    curvature weight K*theta/(2*tau) (scaled by the per-block step
    size), then mixes the update into the accelerated iterate. With a
    fixed seed the trajectory is reproducible for any tau.

    The whole solve is one call of the kernel's ``gbgp_rbcd_solve``, with
    the GIL released; it replays the Python loop in ``tests/oracles.py``
    bit for bit. The kernel draws K doubles a round from ``rng``'s bit
    generator, as that loop's ``rng.random()`` calls do, while this call
    holds the generator's lock; ``rng`` defaults to a generator seeded
    with ``config.seed``. ``counts`` is filled as :func:`bcd_solve` fills
    it: rounds, block updates, no restarts, and the halvings of the
    per-block step estimates.
    """
    flat, x = _inner_args(objective, masks, x_init)
    K = objective.num_blocks
    tau = min(max(1, config.parallel), K)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if counts is None:
        counts = np.zeros(4, dtype=np.int64)
    max_rounds = max(1, math.ceil(config.max_inner_cycles * K / tau))
    bits = rng.bit_generator
    with bits.lock:
        status = _kernel.gbgp_rbcd_solve(
            objective._kernel_ref, flat.ctypes.data, x.ctypes.data, tau, max_rounds,
            config.step_mode == "fixed", config.step_size, config.inner_tol,
            ctypes.cast(bits.ctypes.next_double, ctypes.c_void_p), bits.ctypes.state_address,
            counts.ctypes.data,
        )
    _check_inner(status)
    return x


def gbgp_solve(objective: ObjectiveSpec, config: SolverConfig) -> DetectionResult:
    """Head-project, minimize restricted, tail-project until converged.

    A head or tail projection of block k is a budget search on the squared
    entries of block k's slice of the gradient or the inner solve's output.
    Each ``(kind, k)`` projection keeps one entry: its last search's input
    bytes, warm start and ``(support, probes, multiplier)``. The next search
    on that block starts from that multiplier, and a search is a pure
    function of its input and warm start (budget, capacity and options are
    fixed per solve), so a block whose input and warm start both repeat
    reuses the support instead of searching again; only the other blocks
    are searched.
    Returns the per-block tail supports of the final iteration (kept as
    global ids; each :class:`SupportSet` is built once, after the loop), the
    continuous iterate, and one :class:`OuterRecord` per outer iteration:
    its step, objective, wall time and phase times, the whole iterate as ``(nodes,
    values)`` (so iterate i is ``x = zeros(n); x[r.nodes] = r.values`` for
    ``r = iterations[i - 1]``), and the probe count of every projection
    that searched.

    Each phase's searches, the head or the tail projections of the blocks
    not reused, run in one kernel call (``projections.search_phase``) on
    up to T threads, T = min(searches, CPUs this process may use); each
    search is a pure function of its input, so outputs do not depend on
    T. ``parallel`` sets only the randomized inner solver's tau. On 2 CPUs
    a phase's searches ran 1.2-1.5x faster at T=2 than at T=1, but the
    tau=4/serial ratio of criterion 08 stayed at 0.63x (0.60-0.73 over 7
    processes, medians of 15 solves each): both solves gain alike.

    Around the kernel calls, vectors are gathered once into block order
    (``objective.block_order``) and each block gets a view of its slice: a
    head phase makes one ``block_gradients`` call and one box projection,
    and each phase squares its vector once.
    """
    partition = objective.partition
    K = partition.num_blocks
    block_graphs = [partition.block_graph(k) for k in range(K)]
    # a vector gathered into block order is cut into one view per block
    order, starts = objective.block_order, objective.block_starts.tolist()
    views = [slice(starts[k], starts[k + 1]) for k in range(K)]
    blocks = [k for k in range(K) if len(partition.block_nodes[k])]
    for k in blocks:
        if config.budgets > len(partition.block_nodes[k]):
            raise ValueError(f"budget {config.budgets} infeasible for block {k} "
                             f"of {len(partition.block_nodes[k])} nodes")
    rng = np.random.default_rng(config.seed)

    capacities = {kind: {k: _capacity(config.budgets, mode, len(partition.block_nodes[k]))
                         for k in blocks}
                  for kind, mode in (("head", config.head_capacity_mode), ("tail", "s"))}
    # (kind, k) -> the last search's (input bytes, warm start, (support, probes, multiplier))
    last: dict[tuple[str, int], tuple[bytes, Optional[float], tuple]] = {}

    def project_blocks(kind: str, values: np.ndarray, probes: dict) -> dict[int, tuple]:
        """Each block's support, as local ids, from a block-order vector."""
        prizes = values * values
        supports, searched, data = {}, [], {}
        for k in blocks:
            data[k], entry = values[views[k]].tobytes(), last.get((kind, k))
            warm = None if entry is None else entry[2][2]
            if entry is not None and entry[:2] == (data[k], warm):
                supports[k] = entry[2][0]
            else:
                searched.append((k, warm))
        # one phase call for every block searched; read at call time, so a
        # caller may wrap it on this module
        found = search_phase([(block_graphs[k], prizes[views[k]], config.budgets,
                               capacities[kind][k], config.num_components, warm)
                              for k, warm in searched])
        for (k, warm), result in zip(searched, found):
            last[kind, k] = (data[k], warm, result)
            probes[kind, k] = result[1]
            supports[k] = result[0]
        return supports

    x = objective.initial_x()
    iterations: list[OuterRecord] = []
    converged = False
    # each block's tail support, as global ids in ascending order
    kept = [np.empty(0, dtype=np.int64)] * K

    for outer in range(1, config.max_outer_iters + 1):
        iter_start = time.perf_counter()
        f_x = objective.value(x)
        if not np.isfinite(f_x):
            raise RuntimeError(f"objective is non-finite at outer iteration {outer}")
        probes: dict[tuple[str, int], int] = {}

        head_start = time.perf_counter()
        x_blocks = x[order]
        grads = _box_projected_gradient(objective.block_gradients(x), x_blocks)
        heads = project_blocks("head", grads, probes)
        inner_start = time.perf_counter()
        # allowed support: the head support plus the current support
        allowed = x_blocks != 0.0
        masks = [allowed[view] for view in views]
        for k in blocks:
            masks[k][list(heads[k])] = True

        counts = np.zeros(4, dtype=np.int64)
        if config.parallel >= 2 and K > 1:
            b = parallel_bcd_solve(objective, masks, x, config, rng, counts)
        else:
            b = bcd_solve(objective, masks, x, config, counts)

        tail_start = time.perf_counter()
        tails = project_blocks("tail", b[order], probes)
        for k in blocks:
            kept[k] = partition.block_nodes[k][list(tails[k])]
        nodes = np.concatenate(kept)
        x_new = np.zeros_like(x)
        x_new[nodes] = b[nodes]
        tail_end = time.perf_counter()

        changes = x_new[order] - x_blocks
        delta = sum(math.sqrt(dot(changes[view], changes[view])) for view in views)
        iterations.append(OuterRecord(
            delta, f_x, (time.perf_counter() - iter_start) * 1e3,
            (inner_start - head_start) * 1e3, (tail_start - inner_start) * 1e3,
            (tail_end - tail_start) * 1e3, nodes, x_new[nodes], probes, *counts.tolist(),
        ))
        x = x_new
        if config.outer_tol > 0 and delta <= config.outer_tol:
            converged = True
            break

    return DetectionResult(
        supports=[SupportSet(k, block) for k, block in enumerate(kept)],
        x_final=x,
        converged=converged,
        iterations=iterations,
    )
