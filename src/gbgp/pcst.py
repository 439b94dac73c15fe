"""Prize-collecting Steiner forest solver.

Goemans-Williamson moat growing with strong pruning. The growth phase is
event-driven: cluster merges and deactivations are processed in time
order from a lazily revalidated heap, with accumulated moats tracked
through a weighted union-find. Ties are broken toward low node ids so
identical inputs always give identical outputs.

As in Hegde, Indyk and Schmidt's fast adaptive GW variant (DIMACS 2014),
moats grow only from the prized nodes: the heap starts from the prized
nodes and their edges, other nodes join when a moat reaches them, and
only clusters holding a prized node are pruned at the end. A solve's
set-up still touches every node and edge: it resets each node's state
and clears two per-edge arrays.

The growth loop and the pruning run in one plain-C kernel,
``_pcst_kernel.c``, loaded through ``ctypes``. It replays the reference
engine in ``tests/oracles.py`` exactly, so the two return byte-identical
forests:

- Heap order: the same total order on heap entries,
  ``(t, 0, u, v, eid, ru, ver_ru, rv, ver_rv)`` for edges and
  ``(t, 1, -minid, r, version)`` for deactivations. Distinct entries
  never compare equal, so any correct min-heap pops the same sequence.
- Call order: the same ``find``/``push_edge`` calls in the same order,
  from the seed loop, the rescheduling order built from the pre-merge
  incident lists, and "the longer incident list absorbs the shorter".
  Path compression folds its offsets in that order. Of two equal-sized
  clusters the root of the edge's lower end is kept, which decides how
  later moats round and so can decide a tie. The order of two equal
  incident lists is free: it only orders the pushes of one rescheduling,
  which share one time with no merge between them, and compression sums
  offsets from the root down (both pinned in ``tests/test_pcst.py``).
- Floating point: the same expressions (``now + remaining / rate``,
  ``now + merged_slack``, the DFS-order sums of strong pruning), compiled
  with ``-std=c99 -O2 -ffp-contract=off`` and without fast-math.

The same kernel runs a phase's budget searches (``gbgp_pcst_phase``,
one :class:`_SearchTask` each, filled in by ``PcstEngine.search_task``),
each one whole, bounds included, in one call with the GIL released: the
calling thread and up to T - 1 pthreads take the searches off a shared
counter, where T is the number of searches or of CPUs this process may
use, whichever is smaller. Each search writes only its own results, so
they do not depend on T. See ``projections.budget_search`` for how a
search replays the reference loop and in which order its bounds are
summed. The kernel also labels a graph's connected components
(``PcstEngine.labels``) with a union-find, numbered by lowest member as
``graph.connected_components`` orders them. And it holds the objective's
arithmetic (``gbgp_objective`` and ``gbgp_dot``, behind
``gbgp.objectives``), both inner solvers (``gbgp_bcd_solve`` behind
``solver.bcd_solve`` and ``gbgp_rbcd_solve`` behind
``solver.parallel_bcd_solve``), which mirror NumPy's pairwise sums,
``np.bincount`` and OpenBLAS's SkylakeX ``ddot``, and one whole outer
iteration of ``solver.gbgp_solve`` (``gbgp_outer``), which runs both
projection phases through the same searches and an inner solve between
them; ``gbgp_solve`` calls it once per outer iteration.

Every entry reports a failure with one set of statuses, which
:func:`check` alone decodes: -1 out of memory, -2 a probe cost that is not
positive and finite, -3 prizes that are not finite, -4 every mask of an
inner solve empty, -5 - k a backtracking underflow on block k, and
``gbgp_outer``'s 1 for a non-finite objective.

Every kernel call allocates its own work space, frees it before
returning and writes only to the caller's fresh output arrays. Calls
share no state, so any of them may run at once on several threads. The
exceptions are the search tasks, the iterate and the last inputs that
``gbgp_outer`` carries from one iteration of a solve to the next, which
belong to that solve alone.

The kernel is built on first import with the interpreter's C compiler
(``sysconfig`` ``CC``) into ``__pycache__/``, under a name keyed by the
sha256 of the source and the compile command, and reused from there;
``subprocess`` is imported only to build it.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import sysconfig
from typing import Optional

import numpy as np

from .graph import Graph

__all__ = ["PcstResult", "PcstEngine"]

_HERE = os.path.dirname(os.path.abspath(__file__))
KERNEL_SOURCE = os.path.join(_HERE, "_pcst_kernel.c")
KERNEL_CACHE = os.path.join(_HERE, "__pycache__")
KERNEL_FLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")
# after the source, so that an as-needed linker keeps libm's log and exp
KERNEL_LIBS = ("-lm",)


def load_kernel(cache_dir: str = KERNEL_CACHE, source: str = KERNEL_SOURCE) -> ctypes.CDLL:
    """Load the compiled kernel from ``cache_dir``, building it first if absent.

    The file name carries the sha256 of the source and the compile
    command, so an edited source or another compiler builds anew. The
    compiler writes to a temporary name that is moved into place only
    once it succeeded; an interrupted build is never loaded.
    """
    with open(source, "rb") as fh:
        text = fh.read()
    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *KERNEL_FLAGS]
    key = hashlib.sha256(text + b"\0" + "\0".join([*command, *KERNEL_LIBS]).encode()).hexdigest()
    path = os.path.join(cache_dir, f"_pcst_kernel-{key[:20]}.so")
    if not os.path.exists(path):
        import subprocess  # only to build: 4 ms of every import otherwise

        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            try:
                proc = subprocess.run([*command, "-o", tmp, source, *KERNEL_LIBS],
                                      capture_output=True, text=True)
            except OSError as exc:
                raise ImportError(f"gbgp needs a C compiler to build {source}: "
                                  f"{command[0]!r} could not run ({exc})") from None
            if proc.returncode != 0:
                raise ImportError(f"building {source} with {' '.join(command)} failed:\n"
                                  f"{proc.stderr}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    lib = ctypes.CDLL(path)
    p, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.gbgp_pcst_solve.argtypes = [i64, i64, p, p, p, p, p, p, i64, p]
    lib.gbgp_pcst_solve.restype = i64
    lib.gbgp_pcst_phase.argtypes = [p, i64, i64, i64, f64, f64]
    lib.gbgp_pcst_phase.restype = None
    lib.gbgp_components.argtypes = [i64, i64, p, p, p]
    lib.gbgp_components.restype = i64
    lib.gbgp_dot.argtypes = [p, p, i64]
    lib.gbgp_dot.restype = f64
    lib.gbgp_objective.argtypes = [p, p, i64, i64, p]
    lib.gbgp_objective.restype = i64
    lib.gbgp_bcd_solve.argtypes = [p, p, p, i64, i64, f64, f64, p]
    lib.gbgp_bcd_solve.restype = i64
    lib.gbgp_rbcd_solve.argtypes = [p, p, p, i64, i64, i64, f64, f64, p, p, p]
    lib.gbgp_rbcd_solve.restype = i64
    lib.gbgp_outer.argtypes = [p]
    lib.gbgp_outer.restype = i64
    return lib


_kernel = load_kernel()

_FAILURES = {
    -1: (MemoryError, "the PCST kernel ran out of memory"),
    -2: (ValueError, "edge costs must be positive and finite"),
    -3: (ValueError, "prizes must be nonnegative and finite"),
    -4: (ValueError, "all blocks have empty allowed supports"),
}
# the kernel's STEP_FLOOR: the least step a backtracking search tries
STEP_FLOOR = 1e-12


def check(status: int, outer: int = 0) -> int:
    """Return a kernel call's status, or raise the failure it reports.

    ``_FAILURES`` words the statuses -1 to -4; ``outer`` is the outer
    iteration of a ``gbgp_outer`` call, whose status 1 reports a
    non-finite objective.
    """
    if outer and status == 1:
        raise RuntimeError(f"objective is non-finite at outer iteration {outer}")
    if status >= 0:
        return status
    if status in _FAILURES:
        error, message = _FAILURES[status]
        raise error(message)
    raise RuntimeError(
        f"backtracking underflow on block {-5 - status}: no step above {STEP_FLOOR}")


class PcstResult:
    """Forest returned by :meth:`PcstEngine.solve`: one entry per tree."""

    def __init__(self, components: list[tuple[list[int], list[tuple[int, int]]]]):
        self.components = components

    @property
    def nodes(self) -> list[int]:
        out: list[int] = []
        for nodes, _ in self.components:
            out.extend(nodes)
        return sorted(out)

    @property
    def edges(self) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for _, edges in self.components:
            out.extend(edges)
        return sorted(out)


class PcstEngine:
    """Reusable solver for one graph under varying costs and prizes.

    The edge endpoints and the incidence come from the graph's CSR
    adjacency (``adj_indptr``/``adj_eids``, ascending edge ids per node).
    The engine keeps them, the edge weights and ``labels``: each node's
    connected component, which no tree of a returned forest leaves,
    numbered by lowest member, of ``components`` in all; one kernel call at
    construction labels them all.

    A solve is one kernel call and a search one task of a
    ``gbgp_pcst_phase`` call; each allocates its own work space, frees it
    before returning and only reads the engine's arrays. They share no
    state, so one engine may serve several threads at once; the kernel
    runs without the GIL.
    """

    def __init__(self, graph: Graph):
        self.n = graph.node_count
        self.m = graph.edge_count
        # Graph stores every edge with edge_u < edge_v, sorted by (u, v)
        self._graph_arrays = [np.ascontiguousarray(a, dtype=np.int64) for a in
                              (graph.edge_u, graph.edge_v, graph.adj_indptr, graph.adj_eids)]
        eu, ev = self._graph_arrays[:2]
        self.labels = np.empty(self.n, dtype=np.int64)
        self.components = _kernel.gbgp_components(self.n, self.m, eu.ctypes.data,
                                                  ev.ctypes.data, self.labels.ctypes.data)
        self._weight = np.ascontiguousarray(graph.edge_w, dtype=np.float64)
        self._link_kernel()

    def _link_kernel(self) -> None:
        """The kernel's view of the graph and the weights, taken once: ``n``,
        ``m``, the four graph arrays' addresses, then the weights'."""
        self._task_args = (self.n, self.m, *(a.ctypes.data for a in self._graph_arrays),
                           self._weight.ctypes.data)

    # a copy or an unpickled engine points the kernel at its own arrays
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_task_args"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._link_kernel()

    def solve(self, costs, prizes, num_trees: int = 1) -> PcstResult:
        """Run moat growing and strong pruning.

        ``costs`` (one per edge, in the graph's edge order) and
        ``prizes`` (one per node) are array-likes. Growth starts from
        the nodes with positive prize and proceeds until every cluster
        has deactivated. Each final cluster holding a prized node is
        pruned to its best subtree and the ``num_trees``
        highest-net-worth subtrees (net worth > 0) are returned.

        Scaling every cost and prize by c = 2^k is exact in floating
        point and returns the same forest. Another c rounds event times
        differently and can flip a tie between equal events; that is
        expected, not a bug.
        """
        costs = np.asarray(costs, dtype=np.float64)
        prizes = np.asarray(prizes, dtype=np.float64)
        if costs.shape != (self.m,):
            raise ValueError("costs length must match edges")
        if prizes.shape != (self.n,):
            raise ValueError("prizes length must match node count")
        if not (np.isfinite(costs).all() and (costs > 0).all()):
            raise ValueError("edge costs must be positive and finite")
        if not (np.isfinite(prizes).all() and (prizes >= 0).all()):
            raise ValueError("prizes must be nonnegative and finite")
        if num_trees < 1:
            raise ValueError("num_trees must be >= 1")

        costs, prizes = np.ascontiguousarray(costs), np.ascontiguousarray(prizes)
        # node counts per tree, then their node lists, then their edges as pairs
        out = np.empty(4 * self.n, dtype=np.int64)
        trees = check(_kernel.gbgp_pcst_solve(*self._task_args[:6], costs.ctypes.data,
                                              prizes.ctypes.data, min(int(num_trees), self.n),
                                              out.ctypes.data))
        n = self.n
        sizes = out[:trees].tolist()
        total = sum(sizes)
        nodes = out[n:n + total].tolist()
        ends = out[2 * n:2 * n + 2 * (total - trees)].tolist()
        edges = list(zip(ends[0::2], ends[1::2]))
        components = []
        start = 0
        for t, size in enumerate(sizes):
            components.append((nodes[start:start + size], edges[start - t:start + size - t - 1]))
            start += size
        return PcstResult(components)

    def search_task(self, num_trees: int, budget: int, capacity: int, best: int,
                    prizes: Optional[int] = None, warm: Optional[float] = None) -> _SearchTask:
        """A budget search on this engine's graph, with ``labels`` as they are now.

        ``best`` and ``prizes`` are the addresses of the search's n support
        slots and n prizes; ``gbgp_outer`` sets the prizes of the tasks it
        runs itself. ``num_trees`` is capped at n.
        """
        return _SearchTask(*self._task_args, self.labels.ctypes.data, self.components, prizes,
                           min(int(num_trees), self.n), budget, capacity, warm is not None,
                           0.0 if warm is None else warm, best=best)


class _SearchTask(ctypes.Structure):
    """The kernel's ``search_task``: one search's graph, inputs and results.

    :meth:`PcstEngine.search_task` fills one in, for each search of
    ``projections.search_phase`` and each projection of
    ``solver.gbgp_solve``; the kernel writes the bounds ``total`` and
    ``exit_score``, then ``best``, ``size`` (or a :func:`check` status),
    ``probes`` and ``mult``. A phase skips a task without ``prize``.
    """

    _i, _p, _f = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    _fields_ = [
        ("n", _i), ("m", _i), ("eu", _p), ("ev", _p), ("indptr", _p), ("adj_eids", _p),
        ("weight", _p), ("labels", _p), ("ncomp", _i), ("prize", _p),
        ("num_trees", _i), ("budget", _i), ("capacity", _i), ("has_warm", _i),
        ("warm", _f), ("total", _f), ("exit_score", _f),
        ("best", _p), ("size", _i), ("probes", _i), ("mult", _f),
    ]


def _thread_count(tasks: int) -> int:
    """The CPUs this process may run on, at most one per task."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(tasks, cpus))
