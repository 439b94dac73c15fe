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
  Path compression folds its offsets in that order.
- Floating point: the same expressions (``now + remaining / rate``,
  ``now + merged_slack``, the DFS-order sums of strong pruning), compiled
  with ``-std=c99 -O2 -ffp-contract=off`` and without fast-math.

The same kernel runs a whole budget search (``PcstEngine.search``) in
one call, with the GIL released; see ``projections.budget_search`` for
how it replays the reference loop.

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

from .graph import Graph, connected_components

__all__ = ["PcstResult", "PcstEngine"]

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
    lib.gbgp_pcst_work_sizes.argtypes = [i64, i64, p]
    lib.gbgp_pcst_work_sizes.restype = None
    lib.gbgp_pcst_solve.argtypes = [i64, i64, p, p, p, p, p, p, i64, p, p, p]
    lib.gbgp_pcst_solve.restype = i64
    lib.gbgp_pcst_search.argtypes = [i64, i64, p, p, p, p, p, p, p, i64, i64, i64, i64, i64,
                                     f64, f64, f64, f64, f64, p, p, p, p, p, p]
    lib.gbgp_pcst_search.restype = i64
    return lib


_kernel = load_kernel()


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
    They, the kernel's work space and its output stay in NumPy buffers
    for the engine's life, so a solve copies its costs and prizes in and
    makes one kernel call. ``labels`` holds each node's connected
    component, which no tree of a returned forest leaves.

    Every call writes to the engine's own buffers, so one engine serves
    one call at a time; engines of different graphs may run at once on
    different threads, as the kernel runs without the GIL.
    """

    def __init__(self, graph: Graph):
        self.n = graph.node_count
        self.m = graph.edge_count
        self.labels = np.empty(self.n, dtype=np.intp)
        for label, members in enumerate(connected_components(graph, range(self.n))):
            self.labels[list(members)] = label
        # Graph stores every edge with edge_u < edge_v, sorted by (u, v)
        self._graph_arrays = [np.ascontiguousarray(a, dtype=np.int64) for a in
                              (graph.edge_u, graph.edge_v, graph.adj_indptr, graph.adj_eids)]
        self._weight = np.ascontiguousarray(graph.edge_w, dtype=np.float64)
        sizes = np.zeros(2, dtype=np.int64)
        _kernel.gbgp_pcst_work_sizes(self.n, self.m, sizes.ctypes.data)
        self._cost = np.empty(self.m, dtype=np.float64)
        self._prize = np.empty(self.n, dtype=np.float64)
        self._iwork = np.empty(int(sizes[0]), dtype=np.int64)
        self._dwork = np.empty(int(sizes[1]), dtype=np.float64)
        # node counts per tree, then their node lists, then their edges as pairs
        self._out = np.empty(4 * self.n, dtype=np.int64)
        # a search's best support, its multiplier and its probe count
        self._best = np.empty(self.n, dtype=np.int64)
        self._mult = np.empty(1, dtype=np.float64)
        self._probes = np.empty(1, dtype=np.int64)
        ptr = [a.ctypes.data for a in self._graph_arrays]
        self._args = (self.n, self.m, *ptr, self._cost.ctypes.data, self._prize.ctypes.data)
        self._work = (self._iwork.ctypes.data, self._dwork.ctypes.data, self._out.ctypes.data)

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

        self._cost[:] = costs
        self._prize[:] = prizes
        trees = _kernel.gbgp_pcst_solve(*self._args, min(int(num_trees), self.n), *self._work)
        if trees < 0:
            raise MemoryError("the PCST kernel ran out of memory")
        n = self.n
        sizes = self._out[:trees].tolist()
        total = sum(sizes)
        nodes = self._out[n:n + total].tolist()
        ends = self._out[2 * n:2 * n + 2 * (total - trees)].tolist()
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
        size = _kernel.gbgp_pcst_search(
            *self._args[:6], self._weight.ctypes.data, self._cost.ctypes.data,
            prizes.ctypes.data, min(int(num_trees), self.n), budget, capacity, max_probes,
            warm is not None, 0.0 if warm is None else warm, low, high, total, exit_score,
            *self._work, self._best.ctypes.data, self._mult.ctypes.data,
            self._probes.ctypes.data,
        )
        if size == -2:
            raise ValueError("edge costs must be positive and finite")
        if size < 0:
            raise MemoryError("the PCST kernel ran out of memory")
        return tuple(self._best[:size].tolist()), int(self._probes[0]), float(self._mult[0])
