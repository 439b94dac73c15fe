"""Prize-collecting Steiner forest solver.

Goemans-Williamson moat growing with strong pruning. The growth phase is
event-driven: cluster merges and deactivations are processed in time
order from a lazily revalidated heap, with accumulated moats tracked
through a weighted union-find. Ties are broken toward low node ids so
identical inputs always give identical outputs.

As in Hegde, Indyk and Schmidt's fast adaptive GW variant (DIMACS 2014),
a solve works only on the prized nodes and the clusters they grow: the
heap starts from the prized nodes and their edges, other nodes join
when a moat reaches them, and only clusters holding a prized node are
pruned at the end.

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

The same kernel runs a whole budget search (``PcstEngine.search``) in
one call, with the GIL released; see ``projections.budget_search`` for
how it replays the reference loop. It also labels a graph's connected
components (``component_labels``, which fills ``PcstEngine.labels``) with
a union-find, numbered by lowest member as
``graph.connected_components`` orders them. And it holds the objective's
arithmetic (``gbgp_objective``, ``gbgp_ems`` and ``gbgp_dot``, behind
``gbgp.objectives``) and the serial inner solver (``gbgp_bcd_solve``,
behind ``solver.bcd_solve``), which mirror NumPy's pairwise sums,
``np.bincount`` and OpenBLAS's SkylakeX ``ddot``.

Every kernel call allocates its own work space, frees it before
returning and writes only to the caller's fresh output arrays. Calls
share no state, so any of them may run at once on several threads.

The kernel is built on first import with the interpreter's C compiler
(``sysconfig`` ``CC``) into ``__pycache__/``, under a name keyed by the
sha256 of the source and the compile command, and reused from there.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
from typing import Optional

import numpy as np

from .graph import Graph

__all__ = ["PcstResult", "PcstEngine", "component_labels"]

_HERE = os.path.dirname(os.path.abspath(__file__))
KERNEL_SOURCE = os.path.join(_HERE, "_pcst_kernel.c")
KERNEL_CACHE = os.path.join(_HERE, "__pycache__")
KERNEL_FLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
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
    lib.gbgp_pcst_search.argtypes = [i64, i64, p, p, p, p, p, p, i64, i64, i64, i64, i64,
                                     f64, f64, f64, f64, f64, p, p, p]
    lib.gbgp_pcst_search.restype = i64
    lib.gbgp_components.argtypes = [i64, i64, p, p, p]
    lib.gbgp_components.restype = i64
    lib.gbgp_dot.argtypes = [p, p, i64]
    lib.gbgp_dot.restype = f64
    lib.gbgp_ems.argtypes = [p, p, i64, i64, p]
    lib.gbgp_ems.restype = None
    lib.gbgp_objective.argtypes = [p, p, i64, i64, p]
    lib.gbgp_objective.restype = i64
    lib.gbgp_bcd_solve.argtypes = [p, p, p, i64, i64, f64, f64, p]
    lib.gbgp_bcd_solve.restype = i64
    return lib


_kernel = load_kernel()


def component_labels(graph: Graph) -> np.ndarray:
    """Each node's connected component, numbered by its lowest member.

    Label i marks the i-th set that ``gbgp.graph.connected_components``
    returns for all nodes; one kernel call computes every label.
    """
    eu, ev = (np.ascontiguousarray(a, dtype=np.int64) for a in (graph.edge_u, graph.edge_v))
    labels = np.empty(graph.node_count, dtype=np.int64)
    _kernel.gbgp_components(graph.node_count, len(eu), eu.ctypes.data, ev.ctypes.data,
                            labels.ctypes.data)
    return labels


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
    connected component, which no tree of a returned forest leaves, from
    :func:`component_labels`, one kernel call at construction.

    A solve or a search is one kernel call, which allocates its own work
    space, frees it before returning and only reads the engine's arrays.
    Calls share no state, so one engine may serve several threads at once;
    the kernel runs without the GIL.
    """

    def __init__(self, graph: Graph):
        self.n = graph.node_count
        self.m = graph.edge_count
        self.labels = component_labels(graph)
        # Graph stores every edge with edge_u < edge_v, sorted by (u, v)
        self._graph_arrays = [np.ascontiguousarray(a, dtype=np.int64) for a in
                              (graph.edge_u, graph.edge_v, graph.adj_indptr, graph.adj_eids)]
        self._weight = np.ascontiguousarray(graph.edge_w, dtype=np.float64)

    def _graph_args(self) -> tuple:
        return (self.n, self.m, *(a.ctypes.data for a in self._graph_arrays))

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
        trees = _kernel.gbgp_pcst_solve(*self._graph_args(), costs.ctypes.data,
                                        prizes.ctypes.data, min(int(num_trees), self.n),
                                        out.ctypes.data)
        if trees < 0:
            raise MemoryError("the PCST kernel ran out of memory")
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

    def search(self, prizes: np.ndarray, budget: int, capacity: int, num_trees: int,
               warm: Optional[float], low: float, high: float, total: float,
               exit_score: float, max_probes: int) -> tuple[tuple[int, ...], int, float]:
        """Run one ``projections.budget_search`` bisection in one kernel call.

        ``prizes`` is a contiguous float64 array, already checked to be
        nonnegative and finite; ``total``, ``exit_score`` and the warm
        start are the caller's. Each probe solves on ``edge_w *
        multiplier``. Returns the best support (empty when no probe found
        one), the probe count and the best support's multiplier. A probe
        whose costs are not positive and finite raises the ``ValueError``
        :meth:`solve` raises.
        """
        best = np.empty(self.n, dtype=np.int64)
        multiplier, probes = ctypes.c_double(), ctypes.c_int64()
        size = _kernel.gbgp_pcst_search(
            *self._graph_args(), self._weight.ctypes.data, prizes.ctypes.data,
            min(int(num_trees), self.n), budget, capacity, max_probes, warm is not None,
            0.0 if warm is None else warm, low, high, total, exit_score, best.ctypes.data,
            ctypes.byref(multiplier), ctypes.byref(probes),
        )
        if size == -2:
            raise ValueError("edge costs must be positive and finite")
        if size < 0:
            raise MemoryError("the PCST kernel ran out of memory")
        return tuple(best[:size].tolist()), probes.value, multiplier.value
