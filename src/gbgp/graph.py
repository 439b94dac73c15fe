"""Graph, block-partition, and node-signal data model with file I/O.

All values in this module are immutable after construction and safe to
share across threads. Node ids are dense integers in [0, N); loaders
remap sparse external ids and persist the mapping in a side file.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "BlockPartition",
    "BlockSignal",
    "SupportSet",
    "EdgeListError",
    "PartitionError",
    "SignalError",
    "load_graph",
    "save_graph",
    "load_partition",
    "save_partition",
    "partition_contiguous",
    "connected_components",
    "load_signal",
    "save_signal",
]


class EdgeListError(ValueError):
    """Malformed edge-list input (parse failure, self-loop, bad weight)."""


class PartitionError(ValueError):
    """Malformed or inconsistent partition input."""


class SignalError(ValueError):
    """Malformed node-signal input."""


class Graph:
    """Undirected weighted graph over dense integer node ids.

    Edges are stored once per unordered pair with strictly positive
    weights (default 1.0); a CSR-style adjacency is built at
    construction for O(1) neighborhood access.
    """

    def __init__(self, node_count: int, edges: Iterable[tuple] = ()):
        if node_count < 0:
            raise ValueError("node_count must be nonnegative")
        self.node_count = int(node_count)
        us, vs, ws = [], [], []
        seen = set()
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                w = 1.0
            else:
                u, v, w = edge
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u},{v}) has node id out of [0,{node_count})")
            if u == v:
                raise EdgeListError(f"self-loop at node {u}")
            if w <= 0 or not np.isfinite(w):
                raise EdgeListError(f"edge ({u},{v}) has non-positive weight {w}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise EdgeListError(f"duplicate undirected edge ({key[0]},{key[1]})")
            seen.add(key)
            us.append(key[0])
            vs.append(key[1])
            ws.append(w)
        order = np.lexsort((vs, us)) if us else np.array([], dtype=np.int64)
        self.edge_u = np.asarray(us, dtype=np.int64)[order]
        self.edge_v = np.asarray(vs, dtype=np.int64)[order]
        self.edge_w = np.asarray(ws, dtype=np.float64)[order]
        self._build_adjacency()

    def _build_adjacency(self):
        # one entry per half-edge, sorted by (node, neighbor); with edges
        # sorted by (u, v), ascending neighbors are also ascending edge ids
        m = len(self.edge_u)
        src = np.concatenate([self.edge_u, self.edge_v])
        dst = np.concatenate([self.edge_v, self.edge_u])
        order = np.lexsort((dst, src))
        self.adj_indptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.node_count), out=self.adj_indptr[1:])
        self.adj_nodes = dst[order]
        self.adj_eids = np.tile(np.arange(m, dtype=np.int64), 2)[order]

    @property
    def edge_count(self) -> int:
        return len(self.edge_u)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return [
            (int(u), int(v), float(w))
            for u, v, w in zip(self.edge_u, self.edge_v, self.edge_w)
        ]

    def neighbors(self, u: int) -> np.ndarray:
        return self.adj_nodes[self.adj_indptr[u]:self.adj_indptr[u + 1]]

    def degree(self, u: int) -> int:
        return int(self.adj_indptr[u + 1] - self.adj_indptr[u])

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and np.array_equal(self.edge_u, other.edge_u)
            and np.array_equal(self.edge_v, other.edge_v)
            and np.array_equal(self.edge_w, other.edge_w)
        )

    def __repr__(self):
        return f"Graph(n={self.node_count}, m={self.edge_count})"


class BlockPartition:
    """Assignment of the nodes of a graph to K blocks.

    Splits the edge set into per-block intra edges and the cross-block
    cut set; the union is disjoint and covers every edge exactly once.
    """

    def __init__(self, graph: Graph, assignment: Sequence[int], num_blocks: int):
        assignment = np.asarray(assignment, dtype=np.int64)
        if len(assignment) != graph.node_count:
            raise PartitionError(
                f"assignment length {len(assignment)} != node count {graph.node_count}"
            )
        if num_blocks < 1:
            raise PartitionError("num_blocks must be >= 1")
        if len(assignment) and (assignment.min() < 0 or assignment.max() >= num_blocks):
            raise PartitionError(
                f"block id out of range [0,{num_blocks}) in assignment"
            )
        self.graph = graph
        self.assignment = assignment
        self.num_blocks = int(num_blocks)
        self.block_nodes = [
            np.flatnonzero(assignment == k) for k in range(num_blocks)
        ]
        bu = assignment[graph.edge_u] if graph.edge_count else np.array([], dtype=np.int64)
        bv = assignment[graph.edge_v] if graph.edge_count else np.array([], dtype=np.int64)
        intra_mask = bu == bv
        self.cut_edges = [
            (int(u), int(v))
            for u, v in zip(graph.edge_u[~intra_mask], graph.edge_v[~intra_mask])
        ]
        self.intra_edges = [[] for _ in range(num_blocks)]
        for u, v, w in zip(
            graph.edge_u[intra_mask], graph.edge_v[intra_mask], graph.edge_w[intra_mask]
        ):
            self.intra_edges[int(assignment[u])].append((int(u), int(v), float(w)))
        self._block_graphs: list[Graph | None] = [None] * num_blocks

    def block_graph(self, k: int) -> Graph:
        """Subgraph induced by block k, re-indexed to local ids [0, N_k)."""
        if self._block_graphs[k] is None:
            nodes = self.block_nodes[k]
            local = {int(g): i for i, g in enumerate(nodes)}
            edges = [
                (local[u], local[v], w) for u, v, w in self.intra_edges[k]
            ]
            self._block_graphs[k] = Graph(len(nodes), edges)
        return self._block_graphs[k]

    def to_global(self, k: int, local_nodes: Iterable[int]) -> list[int]:
        nodes = self.block_nodes[k]
        return sorted(int(nodes[i]) for i in local_nodes)

    def __repr__(self):
        return f"BlockPartition(K={self.num_blocks}, cut={len(self.cut_edges)})"


class BlockSignal:
    """Univariate per-node feature vector, addressable per block."""

    def __init__(self, values: Sequence[float]):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise SignalError("signal must be one-dimensional")
        if len(values) and not np.all(np.isfinite(values)):
            raise SignalError("signal contains non-finite entries")
        self.values = values

    def __len__(self):
        return len(self.values)


class SupportSet:
    """Sorted, duplicate-free node subset detected within one block."""

    def __init__(self, block_id: int, nodes: Iterable[int]):
        self.block_id = int(block_id)
        self.nodes = tuple(sorted(set(int(v) for v in nodes)))

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __eq__(self, other):
        if not isinstance(other, SupportSet):
            return NotImplemented
        return self.block_id == other.block_id and self.nodes == other.nodes

    def __repr__(self):
        return f"SupportSet(block={self.block_id}, nodes={list(self.nodes)})"


def load_graph(path: str) -> Graph:
    """Load an edge-list file: whitespace-separated ``u v [w]`` per line.

    Lines starting with ``#`` are comments; a ``# nodes N`` comment fixes
    the node count (otherwise max id + 1 is used). Sparse external ids
    are remapped to [0, N) and the mapping written to ``<path>.idmap``.
    """
    raw_edges = []
    declared_n = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                parts = stripped[1:].split()
                if len(parts) == 2 and parts[0] == "nodes":
                    try:
                        declared_n = int(parts[1])
                    except ValueError:
                        raise EdgeListError(
                            f"{path}:{lineno}: node count {parts[1]!r} is not an integer"
                        ) from None
                continue
            parts = stripped.split()
            if len(parts) not in (2, 3):
                raise EdgeListError(f"{path}:{lineno}: expected 'u v [w]', got {stripped!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise EdgeListError(f"{path}:{lineno}: {exc}") from None
            if u == v:
                raise EdgeListError(f"{path}:{lineno}: self-loop at node {u}")
            if w < 0:
                raise EdgeListError(f"{path}:{lineno}: negative weight {w}")
            raw_edges.append((u, v, w, lineno))

    ids = sorted({u for u, _, _, _ in raw_edges} | {v for _, v, _, _ in raw_edges})
    if declared_n is None:
        n = (max(ids) + 1) if ids else 0
    else:
        n = declared_n
    contiguous = ids == list(range(len(ids))) and ids and ids[0] == 0
    dense = declared_n is not None or bool(contiguous) or not ids
    if not dense:
        remap = {old: new for new, old in enumerate(ids)}
        n = len(ids)
        with open(path + ".idmap", "w", encoding="utf-8") as fh:
            for old in ids:
                fh.write(f"{remap[old]}\t{old}\n")
        raw_edges = [(remap[u], remap[v], w, ln) for u, v, w, ln in raw_edges]
    try:
        return Graph(n, [(u, v, w) for u, v, w, _ in raw_edges])
    except EdgeListError as exc:
        raise EdgeListError(f"{path}: {exc}") from None


def save_graph(graph: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes {graph.node_count}\n")
        for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w):
            if w == 1.0:
                fh.write(f"{u}\t{v}\n")
            else:
                fh.write(f"{u}\t{v}\t{float(w)!r}\n")


def load_partition(path: str, graph: Graph, num_blocks: int) -> BlockPartition:
    """Load a partition file: line i holds the block id of node i."""
    assignment = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                assignment.append(int(stripped))
            except ValueError:
                raise PartitionError(f"{path}:{lineno}: expected integer block id") from None
    if len(assignment) != graph.node_count:
        raise PartitionError(
            f"{path}: {len(assignment)} lines for a graph with {graph.node_count} nodes"
        )
    return BlockPartition(graph, assignment, num_blocks)


def save_partition(partition: BlockPartition, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k in partition.assignment:
            fh.write(f"{k}\n")


def partition_contiguous(graph: Graph, num_blocks: int) -> BlockPartition:
    """Deterministic BFS-grown partition into size-balanced blocks.

    Each block is within one node of N/K in size; seeds and traversal
    order are fixed by node id. A block whose BFS runs dry restarts at
    the lowest unassigned node, so the last blocks take the leftovers
    and can be disconnected: a 4,000-node graph from ``generate_non``
    (seed 0) cut into 8 has 4, 137 and 406 components in blocks 5-7.
    """
    n = graph.node_count
    if num_blocks < 1 or num_blocks > max(n, 1):
        raise PartitionError(f"num_blocks {num_blocks} out of range [1,{n}]")
    assignment = np.full(n, -1, dtype=np.int64)
    base, extra = divmod(n, num_blocks)
    sizes = [base + (1 if k < extra else 0) for k in range(num_blocks)]
    next_unassigned = 0
    for k in range(num_blocks):
        filled = 0
        queue: deque[int] = deque()
        while filled < sizes[k]:
            if not queue:
                while next_unassigned < n and assignment[next_unassigned] >= 0:
                    next_unassigned += 1
                if next_unassigned >= n:
                    break
                queue.append(next_unassigned)
                assignment[next_unassigned] = k
                filled += 1
                if filled >= sizes[k]:
                    break
            u = queue.popleft()
            for v in graph.neighbors(u):
                if assignment[v] < 0:
                    assignment[v] = k
                    filled += 1
                    queue.append(int(v))
                    if filled >= sizes[k]:
                        break
    return BlockPartition(graph, assignment, num_blocks)


def connected_components(graph: Graph, nodes: Iterable[int]) -> list[set[int]]:
    """Maximal connected subsets of the subgraph induced by ``nodes``.

    Components are returned ordered by their smallest member.
    """
    node_set = set(int(v) for v in nodes)
    for v in node_set:
        if not (0 <= v < graph.node_count):
            raise ValueError(f"node id {v} out of range [0,{graph.node_count})")
    remaining = set(node_set)
    components = []
    for start in sorted(node_set):
        if start not in remaining:
            continue
        comp = {start}
        remaining.discard(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                v = int(v)
                if v in remaining:
                    remaining.discard(v)
                    comp.add(v)
                    queue.append(v)
        components.append(comp)
    return components


def load_signal(path: str, node_count: int) -> BlockSignal:
    """Load a ``node <TAB> value`` signal file; absent nodes default to 0."""
    values = np.zeros(node_count, dtype=np.float64)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise SignalError(f"{path}:{lineno}: expected 'node value'")
            node = int(parts[0])
            if not (0 <= node < node_count):
                raise SignalError(f"{path}:{lineno}: node id {node} out of range")
            values[node] = float(parts[1])
    return BlockSignal(values)


def save_signal(signal: BlockSignal, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for node, value in enumerate(signal.values):
            fh.write(f"{node}\t{float(value)!r}\n")
