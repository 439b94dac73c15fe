"""Outer projection loop and proximal block-coordinate inner solvers.

One outer iteration head-projects every block gradient to pick a small
search space, minimizes the objective restricted to that space with an
accelerated block-coordinate pass (serial, or randomized across blocks
for the parallel variant), then tail-projects the intermediate solution
back onto the connected-subgraph constraint set.

:func:`gbgp_solve` makes one call of the C kernel's ``gbgp_outer`` per
outer iteration, and each inner solver is one call of the kernel per
solve: :func:`bcd_solve` of ``gbgp_bcd_solve`` and
:func:`parallel_bcd_solve` of ``gbgp_rbcd_solve``, which ``gbgp_outer``
calls too. Each replays its Python loop, kept in ``tests/oracles.py``, bit
for bit (see ``gbgp.objectives`` for the order of each sum and dot, and
``projections.budget_search`` for a search's). Every dot product and norm
here is the kernel's :func:`~gbgp.objectives.dot`, so the outputs do not
depend on which BLAS kernel the host's NumPy picks. ``pcst.check`` raises
the failure each call's status reports.
"""
from __future__ import annotations

import contextlib
import ctypes
import math
import operator
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import pcst
from .graph import SupportSet
from .objectives import ObjectiveSpec, dot
from .projections import (MAX_SEARCH_ITERATIONS, MULTIPLIER_HIGH, MULTIPLIER_LOW, _capacity,
                          _engine_for)
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
        # a NumPy integer passes; 2.5 would otherwise fail mid-solve
        for name in ("budgets", "num_components", "parallel", "max_outer_iters",
                     "max_inner_cycles"):
            value = getattr(self, name)
            try:
                setattr(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, not {value!r}") from None
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
            if alpha < pcst.STEP_FLOOR:
                raise RuntimeError(
                    f"backtracking underflow on block {k}: no step above {pcst.STEP_FLOOR}"
                )
    finally:
        y_hat[nodes_k] = y_k


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


def _randomized(rng: np.random.Generator, K: int, tau: int, config: SolverConfig) -> tuple:
    """The randomized solver's round cap, ceil(max_inner_cycles * K / tau),
    then the lock, the draw function and the state of ``rng``'s bit
    generator, from which the kernel draws while the caller holds the lock
    and keeps ``rng`` alive."""
    bits = rng.bit_generator
    return (math.ceil(config.max_inner_cycles * K / tau), bits.lock,
            ctypes.cast(bits.ctypes.next_double, ctypes.c_void_p), bits.ctypes.state_address)


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
    pcst.check(pcst._kernel.gbgp_bcd_solve(
        objective._kernel_ref, flat.ctypes.data, x.ctypes.data, config.max_inner_cycles,
        config.step_mode == "fixed", config.step_size, config.inner_tol, counts.ctypes.data,
    ))
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
    max_rounds, lock, *draws = _randomized(rng, K, tau, config)
    with lock:
        pcst.check(pcst._kernel.gbgp_rbcd_solve(
            objective._kernel_ref, flat.ctypes.data, x.ctypes.data, tau, max_rounds,
            config.step_mode == "fixed", config.step_size, config.inner_tol, *draws,
            counts.ctypes.data,
        ))
    return x


class _OuterSolve(ctypes.Structure):
    """The kernel's ``outer_solve``: one solve's inputs, iterate and last iteration's results."""

    _i, _p, _f = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    _fields_ = [
        ("objective", _p), ("tasks", _p), ("threads", _i), ("max_probes", _i),
        ("low", _f), ("high", _f), ("tau", _i), ("max_inner", _i), ("fixed", _i),
        ("step_size", _f), ("inner_tol", _f), ("next_double", _p), ("rng_state", _p),
        ("x", _p), ("last", _p), ("nodes", _p), ("stats", _p),
        ("value", _f), ("delta", _f), ("head_ms", _f), ("inner_ms", _f), ("tail_ms", _f),
    ]


def gbgp_solve(objective: ObjectiveSpec, config: SolverConfig) -> DetectionResult:
    """Head-project, minimize restricted, tail-project until converged.

    A head or tail projection of block k is a budget search on the squared
    entries of block k's slice of the box-projected gradient or of the inner
    solve's output. Each ``(kind, k)`` projection keeps its last search's
    input bytes, warm start and ``(support, probes, multiplier)``. The next
    search on that block starts from that multiplier, and a search is a pure
    function of its input and warm start (budget, capacity and options are
    fixed per solve), so a block whose input and warm start both repeat
    reuses the support instead of searching again; only the other blocks
    are searched.
    Returns the per-block tail supports of the final iteration (each
    :class:`SupportSet` is built once, after the loop), the continuous
    iterate, and one :class:`OuterRecord` per outer iteration: its step,
    objective, wall time and phase times, the whole iterate as ``(nodes,
    values)`` (so iterate i is ``x = zeros(n); x[r.nodes] = r.values`` for
    ``r = iterations[i - 1]``), the probe count of every projection that
    searched, and the inner solve's counts.

    Each outer iteration is one call of the kernel's ``gbgp_outer``, with
    the GIL released, which replays the Python loop kept in
    ``tests/oracles.py`` as ``reference_gbgp_solve`` bit for bit: the
    objective value, the block gradients and their box projection, both
    projection phases, the masks, the inner solve (``bcd_solve``'s or
    ``parallel_bcd_solve``'s kernel, the latter while this call holds the
    bit generator's lock), the new iterate and its step. Python checks the
    config, sets up each projection's search task once per solve, applies
    the stop rule and builds the records and the result. A Ctrl-C takes
    effect between outer iterations.

    Each phase's searches, the head or the tail projections of the blocks
    not reused, run on up to T threads, T = min(searches, CPUs this process
    may use); each search is a pure function of its input, so outputs do
    not depend on T. ``parallel`` sets only the randomized inner solver's
    tau. On 2 CPUs the head and tail phases ran 1.28x faster at T=2 than at
    T=1 on the benchmark's non-serial problem and 1.40x on its
    temporal-grid one (``head_ms + tail_ms`` summed over the workload's
    solves, medians of ten alternating runs; single runs gave 0.73-1.63x
    and 1.24-1.79x), but the tau=4/serial ratio of criterion 08 stayed at 0.63x
    (0.60-0.73 over 7 processes, medians of 15 solves each): both solves
    gain alike.
    """
    partition = objective.partition
    K, sizes = partition.num_blocks, objective._sizes
    blocks = [k for k in range(K) if sizes[k]]
    for k in blocks:
        if config.budgets > sizes[k]:
            raise ValueError(f"budget {config.budgets} infeasible for block {k} "
                             f"of {sizes[k]} nodes")
    n, starts = len(objective.block_order), objective.block_starts.tolist()
    # the head then the tail projection of each block; task (j, k)'s support
    # buffer is block k's slice of the j-th half of best
    tasks = (pcst._SearchTask * (2 * K))()
    best = np.empty(2 * n, dtype=np.int64)
    address = best.ctypes.data
    for k in blocks:
        engine = _engine_for(partition.block_graph(k))
        for j, mode in enumerate((config.head_capacity_mode, "s")):
            tasks[j * K + k] = engine.search_task(
                config.num_components, config.budgets, _capacity(config.budgets, mode, sizes[k]),
                address + best.itemsize * (j * n + starts[k]))
    tau = min(config.parallel, K) if config.parallel >= 2 and K > 1 else 0
    max_inner, lock, draws = config.max_inner_cycles, contextlib.nullcontext(), (None, None)
    if tau:
        # the randomized inner solver draws from this generator under its lock
        rng = np.random.default_rng(config.seed)
        max_inner, lock, *draws = _randomized(rng, K, tau, config)
    x = objective.initial_x()
    # each projection's last searched input, the tail supports and the counts
    last, nodes = np.empty(2 * n), np.empty(n, dtype=np.int64)
    stats = np.empty(4 + 3 * K + 1, dtype=np.int64)
    run = _OuterSolve(
        objective._kernel_ref, ctypes.addressof(tasks), pcst._thread_count(len(blocks)),
        MAX_SEARCH_ITERATIONS, MULTIPLIER_LOW, MULTIPLIER_HIGH, tau, max_inner,
        config.step_mode == "fixed", config.step_size, config.inner_tol, *draws,
        x.ctypes.data, last.ctypes.data, nodes.ctypes.data, stats.ctypes.data,
    )

    iterations: list[OuterRecord] = []
    converged = False
    for outer in range(1, config.max_outer_iters + 1):
        iter_start = time.perf_counter()
        with lock:
            pcst.check(pcst._kernel.gbgp_outer(ctypes.byref(run)), outer)
        counts = stats.tolist()
        probes = {(kind, k): count for j, kind in enumerate(("head", "tail"))
                  for k, count in enumerate(counts[4 + j * K:4 + (j + 1) * K]) if count}
        kept = nodes[:counts[-1]].copy()
        iterations.append(OuterRecord(
            run.delta, run.value, (time.perf_counter() - iter_start) * 1e3, run.head_ms,
            run.inner_ms, run.tail_ms, kept, x[kept], probes, *counts[:4],
        ))
        if config.outer_tol > 0 and run.delta <= config.outer_tol:
            converged = True
            break

    starts = counts[4 + 2 * K:]
    return DetectionResult(
        supports=[SupportSet(k, kept[starts[k]:starts[k + 1]].tolist()) for k in range(K)],
        x_final=x,
        converged=converged,
        iterations=iterations,
    )
