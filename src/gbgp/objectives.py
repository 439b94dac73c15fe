"""Block-structured objectives with analytic block gradients.

Each block contributes a relaxed negative elevated-mean-scan term
    -(c^T x)^2 / (x^T 1) + 0.5 ||x||^2
on the box [0, 1]^N, and blocks are coupled either by a temporal
consistency penalty lam * sum_k ||x^k - x^{k-1}||^2 (blocks are
timestamps) or by a cut penalty lam * sum_{(i,j) cut} (x_i - x_j)^2
(blocks are sub-networks). The denominator is guarded below by a small
epsilon so the zero vector is a safe evaluation point.
"""
from __future__ import annotations

import numpy as np

from .graph import BlockPartition, BlockSignal

__all__ = [
    "ObjectiveSpec",
    "ems_block_value",
    "ems_block_gradient",
]

EPS_DENOMINATOR = 1e-6


def ems_block_value(c_k, x_k) -> float:
    """Relaxed negative elevated-mean-scan value of one block."""
    c_k = np.asarray(c_k, dtype=np.float64)
    x_k = np.asarray(x_k, dtype=np.float64)
    denom = max(float(x_k.sum()), EPS_DENOMINATOR)
    cx = float(c_k @ x_k)
    quad = 0.5 * float(x_k @ x_k)
    return -(cx * cx) / denom + quad


def ems_block_gradient(c_k, x_k) -> np.ndarray:
    """Analytic gradient of :func:`ems_block_value` with the same guard."""
    c_k = np.asarray(c_k, dtype=np.float64)
    x_k = np.asarray(x_k, dtype=np.float64)
    total = float(x_k.sum())
    denom = max(total, EPS_DENOMINATOR)
    cx = float(c_k @ x_k)
    # below the guard the denominator is constant: no d(sum)/dx term
    d_denom = cx * cx if total >= EPS_DENOMINATOR else 0.0
    return -(2.0 * cx * c_k * denom - d_denom) / (denom * denom) + x_k


def _cut_laplacian_rows(partition: BlockPartition) -> list[tuple[np.ndarray, ...]]:
    """Each block's rows of the cut Laplacian as ``(local row, column, value)``.

    Row i holds -1 at each cut neighbour of i and i's cut degree on the
    diagonal, in ascending column order, so that ``np.bincount`` adds a
    row's terms in the order a CSR product does, from 0.0. Built from the
    graph's CSR adjacency, whose neighbours ascend, in O(n + cut).
    """
    graph, blocks = partition.graph, partition.assignment
    n = graph.node_count
    src = np.repeat(np.arange(n), np.diff(graph.adj_indptr))
    crossing = blocks[src] != blocks[graph.adj_nodes]
    rows, cols = src[crossing], graph.adj_nodes[crossing]
    degree = np.bincount(rows, minlength=n)
    hubs = np.flatnonzero(degree)
    # the diagonal goes after the row's cut neighbours below it
    at = (np.cumsum(degree) - degree + np.bincount(rows[cols < rows], minlength=n))[hubs]
    cols = np.insert(cols, at, hubs)
    vals = np.insert(np.full(len(rows), -1.0), at, degree[hubs].astype(np.float64))
    # gather each node's run of entries in block order, then split by block
    count = degree + (degree > 0)
    order = np.concatenate(partition.block_nodes)
    lens = count[order]
    first = np.cumsum(count) - count
    take = np.repeat(first[order] - (np.cumsum(lens) - lens), lens) + np.arange(len(cols))
    local = np.concatenate([np.arange(len(nodes)) for nodes in partition.block_nodes])
    bounds = np.cumsum(np.bincount(blocks, weights=count, minlength=partition.num_blocks))
    return list(zip(*(np.split(a, bounds[:-1].astype(np.int64)) for a in
                      (np.repeat(local, lens), cols[take], vals[take]))))


class ObjectiveSpec:
    """Objective F(x) = sum_k ems(c^k, x^k) + coupling, with gradients.

    The signal is one value per node of the partitioned graph; for
    temporal instances the graph holds one replica of the node set per
    timestamp and block k is the snapshot at time k.
    """

    def __init__(
        self,
        kind: str,
        partition: BlockPartition,
        signal: BlockSignal,
        lam: float = 0.0,
    ):
        if kind not in ("temporal", "non", "ems"):
            raise ValueError(f"unknown objective kind {kind!r}")
        self.kind = kind
        if lam < 0:
            raise ValueError("lambda must be nonnegative")
        if len(signal.values) != partition.graph.node_count:
            raise ValueError("signal length does not match graph")
        self.partition = partition
        self.signal = signal
        self.lam = float(lam)
        self.num_blocks = partition.num_blocks
        self._block_nodes = partition.block_nodes
        self._block_signals = [
            signal.values[nodes] for nodes in self._block_nodes
        ]
        if self.kind == "temporal":
            sizes = {len(nodes) for nodes in self._block_nodes}
            if len(sizes) > 1:
                raise ValueError(
                    "temporal coupling needs one equally-sized block per timestamp"
                )
        self._cut_rows = None
        if self.kind == "non":
            cut = partition.cut_edges
            ii, jj = self._cut_u, self._cut_v = cut.T
            blocks_u, blocks_v = partition.assignment[cut.T]
            # the endpoints of the cut edges that touch each block
            self._block_cuts = []
            for k in range(self.num_blocks):
                ids = np.flatnonzero((blocks_u == k) | (blocks_v == k))
                self._block_cuts.append((ii[ids], jj[ids]))
            if len(cut):
                self._cut_rows = _cut_laplacian_rows(partition)

    def block_signal(self, k: int) -> np.ndarray:
        return self._block_signals[k]

    def block_slice(self, x: np.ndarray, k: int) -> np.ndarray:
        return x[self._block_nodes[k]]

    def value(self, x: np.ndarray) -> float:
        total = 0.0
        for k in range(self.num_blocks):
            total += ems_block_value(self._block_signals[k], self.block_slice(x, k))
        total += self.coupling_value(x)
        return total

    def coupling_value(self, x: np.ndarray) -> float:
        if self.lam == 0.0 or self.kind == "ems":
            return 0.0
        if self.kind == "temporal":
            total = 0.0
            for k in range(1, self.num_blocks):
                diff = self.block_slice(x, k) - self.block_slice(x, k - 1)
                total += float(diff @ diff)
            return self.lam * total
        diff = x[self._cut_u] - x[self._cut_v]
        # not diff @ diff: OpenBLAS threads a dot over more than 10,000
        # entries (a 10,000-node NoN graph cuts about 20,000 edges), and its
        # worker threads keep spinning afterwards, taking CPU from the solver
        return self.lam * float(np.square(diff).sum())

    def block_gradient(self, x: np.ndarray, k: int) -> np.ndarray:
        x_k = self.block_slice(x, k)
        grad = ems_block_gradient(self._block_signals[k], x_k)
        if self.lam == 0.0 or self.kind == "ems":
            return grad
        if self.kind == "temporal":
            if k > 0:
                grad = grad + 2.0 * self.lam * (x_k - self.block_slice(x, k - 1))
            if k < self.num_blocks - 1:
                grad = grad + 2.0 * self.lam * (x_k - self.block_slice(x, k + 1))
            return grad
        if self._cut_rows is not None:
            rows, cols, vals = self._cut_rows[k]
            grad = grad + 2.0 * self.lam * np.bincount(
                rows, weights=vals * x[cols], minlength=len(x_k))
        return grad

    def local_value(self, x: np.ndarray, k: int) -> float:
        """Terms of the objective that depend on block k.

        Differences of this quantity across changes confined to block k
        equal differences of the full objective.
        """
        total = ems_block_value(self._block_signals[k], self.block_slice(x, k))
        if self.lam == 0.0 or self.kind == "ems":
            return total
        if self.kind == "temporal":
            x_k = self.block_slice(x, k)
            if k > 0:
                diff = x_k - self.block_slice(x, k - 1)
                total += self.lam * float(diff @ diff)
            if k < self.num_blocks - 1:
                diff = x_k - self.block_slice(x, k + 1)
                total += self.lam * float(diff @ diff)
            return total
        cut_u, cut_v = self._block_cuts[k]
        if len(cut_u):
            diff = x[cut_u] - x[cut_v]
            total += self.lam * float(diff @ diff)
        return total

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        grad = np.empty_like(x)
        for k in range(self.num_blocks):
            grad[self._block_nodes[k]] = self.block_gradient(x, k)
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
