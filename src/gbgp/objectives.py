"""Block-structured objectives with analytic block gradients.

Each block contributes a relaxed negative elevated-mean-scan term
    -(c^T x)^2 / (x^T 1) + 0.5 ||x||^2
on the box [0, 1]^N, and blocks are coupled either by a temporal
consistency penalty lam * sum_k ||x^k - x^{k-1}||^2 (blocks are
timestamps) or by a cut penalty lam * sum_{(i,j) cut} (x_i - x_j)^2
(blocks are sub-networks). The denominator is guarded below by a small
epsilon so the zero vector is a safe evaluation point.

The arithmetic runs in the C kernel ``_pcst_kernel.c`` (see
``gbgp.pcst``), which also runs ``solver.bcd_solve`` on it; the methods
here are thin calls. The kernel evaluates every expression in the order
the NumPy reference in ``tests/oracles.py`` does, so the two agree to the
bit:

- a sum such as ``x.sum()`` is NumPy's pairwise summation;
- each ``a @ b`` is :func:`dot`, OpenBLAS's SkylakeX ``ddot`` order, and a
  norm is ``sqrt(dot(x, x))``, as ``np.linalg.norm`` computes it;
- the NoN gradient sums each row of the cut Laplacian from 0.0 in
  ascending column order, as ``np.bincount`` sums CSR-ordered entries,
  from a cut CSR filtered out of the graph's own adjacency; a block
  without cut rows still adds 0.0, which clears a -0.0; ``2.0 * lam`` is
  formed first;
- the NoN coupling value is ``np.square(diff).sum()``, pairwise.

One block's ems term and its gradient, which ``ems_block_value`` and
``ems_block_gradient`` gave before, are ``value(x)`` and
``block_gradient(x, 0)`` of a one-block ``ObjectiveSpec("ems", ...)``.
"""
from __future__ import annotations

import ctypes

import numpy as np

from .graph import BlockPartition, BlockSignal
from .pcst import _kernel, check

__all__ = [
    "ObjectiveSpec",
    "dot",
]

EPS_DENOMINATOR = 1e-6
KINDS = {"ems": 0, "temporal": 1, "non": 2}


def _vector(a, name: str) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return a


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = _vector(a, "a block vector"), _vector(b, "a block vector")
    if len(a) != len(b):
        raise ValueError(f"block vectors of lengths {len(a)} and {len(b)}")
    return a, b


def dot(x, y) -> float:
    """x @ y summed as OpenBLAS's SkylakeX ddot sums it, on any host."""
    x, y = _pair(x, y)
    return _kernel.gbgp_dot(x.ctypes.data, y.ctypes.data, len(x))


class _KernelObjective(ctypes.Structure):
    """The kernel's ``objective`` struct, field for field."""

    _fields_ = [(name, ctypes.c_int64) for name in ("num_blocks", "kind", "ncut")]
    _fields_ += [("lam", ctypes.c_double)]
    _fields_ += [(name, ctypes.c_void_p) for name in
                 ("bstart", "nodes", "signal", "cut_indptr", "cut_nodes", "cstart", "cid",
                  "eu", "ev")]


class ObjectiveSpec:
    """Objective F(x) = sum_k ems(c^k, x^k) + coupling, with gradients.

    The signal is one value per node of the partitioned graph; for
    temporal instances the graph holds one replica of the node set per
    timestamp and block k is the snapshot at time k. ``x`` holds one
    float per node. The constructor lays the blocks out for the kernel
    once, and the methods' arithmetic runs there on that layout, so the
    spec is read-only after construction: setting ``lam`` changes nothing.
    """

    def __init__(
        self,
        kind: str,
        partition: BlockPartition,
        signal: BlockSignal,
        lam: float = 0.0,
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown objective kind {kind!r}")
        self.kind = kind
        if not 0 <= lam < np.inf:
            raise ValueError("lambda must be nonnegative and finite")
        n = partition.graph.node_count
        if len(signal.values) != n:
            raise ValueError("signal length does not match graph")
        self.partition = partition
        self.signal = signal
        self.lam = float(lam)
        self.num_blocks = K = partition.num_blocks
        self._block_nodes = partition.block_nodes
        self._sizes = [len(nodes) for nodes in self._block_nodes]
        if self.kind == "temporal" and len(set(self._sizes)) > 1:
            raise ValueError("temporal coupling needs one equally-sized block per timestamp")
        bstart = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(self._sizes, out=bstart[1:])
        nodes = np.concatenate(self._block_nodes).astype(np.int64, copy=False)
        # the blocks' global ids back to back; block k's are entries
        # [block_starts[k], block_starts[k + 1]), the layout of block_gradients
        self.block_order, self.block_starts = nodes, bstart
        signals = signal.values[nodes]
        self._block_signals = np.split(signals, bstart[1:-1])
        arrays = {"bstart": bstart, "nodes": nodes, "signal": signals}
        ncut = 0
        if self.kind == "non":
            graph, blocks = partition.graph, partition.assignment
            cut = partition.cut_edges
            ncut = len(cut)
            # the graph's CSR adjacency less each node's same-block neighbours
            crossing = np.repeat(blocks, np.diff(graph.adj_indptr)) != blocks[graph.adj_nodes]
            kept = np.zeros(len(crossing) + 1, dtype=np.int64)
            np.cumsum(crossing, out=kept[1:])
            # the ids of the cut edges that touch each block, in edge order
            blocks_u, blocks_v = blocks[cut.T]
            touching = [np.flatnonzero((blocks_u == k) | (blocks_v == k)) for k in range(K)]
            cstart = np.zeros(K + 1, dtype=np.int64)
            np.cumsum([len(ids) for ids in touching], out=cstart[1:])
            arrays.update(cut_indptr=kept[graph.adj_indptr], cut_nodes=graph.adj_nodes[crossing],
                          cstart=cstart, cid=np.concatenate(touching), eu=cut[:, 0], ev=cut[:, 1])
        # the kernel reads these through the struct: they live as long as the spec
        self._kernel_arrays = {
            name: np.ascontiguousarray(a, dtype=np.float64 if name == "signal" else np.int64)
            for name, a in arrays.items()
        }
        self._ncut = ncut
        self._link_kernel()

    def _link_kernel(self) -> None:
        """Point the kernel's struct at this spec's arrays."""
        self._kernel_struct = _KernelObjective(
            num_blocks=self.num_blocks, kind=KINDS[self.kind], ncut=self._ncut, lam=self.lam,
            **{name: a.ctypes.data for name, a in self._kernel_arrays.items()},
        )
        self._kernel_ref = ctypes.addressof(self._kernel_struct)

    # a copy or an unpickled spec points its own struct at its own arrays
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_kernel_struct"], state["_kernel_ref"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._link_kernel()

    def _block(self, k: int) -> int:
        if not 0 <= k < self.num_blocks:
            raise IndexError(f"block {k} out of range [0,{self.num_blocks})")
        return k

    def _call(self, x: np.ndarray, part: int, k: int, out) -> None:
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.partition.graph.node_count,):
            raise ValueError(f"x has shape {x.shape}, not one entry per node")
        check(_kernel.gbgp_objective(self._kernel_ref, x.ctypes.data, part, k, out))

    def _scalar(self, x: np.ndarray, part: int, k: int = 0) -> float:
        out = ctypes.c_double()
        self._call(x, part, k, ctypes.byref(out))
        return out.value

    def block_signal(self, k: int) -> np.ndarray:
        return self._block_signals[k]

    def value(self, x: np.ndarray) -> float:
        return self._scalar(x, 0)

    def coupling_value(self, x: np.ndarray) -> float:
        return self._scalar(x, 1)

    def local_value(self, x: np.ndarray, k: int) -> float:
        """Terms of the objective that depend on block k.

        Differences of this quantity across changes confined to block k
        equal differences of the full objective.
        """
        return self._scalar(x, 2, self._block(k))

    def block_gradient(self, x: np.ndarray, k: int) -> np.ndarray:
        grad = np.empty(self._sizes[self._block(k)])
        self._call(x, 3, k, grad.ctypes.data)
        return grad

    def block_gradients(self, x: np.ndarray) -> np.ndarray:
        """Every block's gradient in one kernel call, back to back: entries
        [block_starts[k], block_starts[k + 1]) are ``block_gradient(x, k)``."""
        grad = np.empty(len(self.block_order))
        self._call(x, 4, 0, grad.ctypes.data)
        return grad

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        grad = np.empty_like(x)
        grad[self.block_order] = self.block_gradients(x)
        return grad

    def initial_x(self) -> np.ndarray:
        """One-hot start: the strongest-signal node of each block at 1."""
        x = np.zeros(self.partition.graph.node_count)
        for k in range(self.num_blocks):
            c_k = self._block_signals[k]
            if len(c_k) == 0:
                continue
            local = int(np.argmax(np.abs(c_k)))
            x[self._block_nodes[k][local]] = 1.0
        return x
