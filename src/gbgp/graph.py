"""Graph, block-partition, and node-signal data model with file I/O.

Values here are not changed after construction and are safe to share
across threads, but for two caches filled on first use: the block graphs
in ``BlockPartition._block_graphs`` (which ``datagen.expand_temporal``
fills with its base graph, so snapshots share one graph and engine) and
the ``_pcst_engine`` that ``projections._engine_for`` attaches to a
``Graph``. Threads racing on first use each build an equal value, so
either may be kept. Node ids are dense integers in [0, N); loaders remap
sparse external ids and persist the mapping in a side file. The loaders
skip blank lines and ``#`` comments and raise each parse or range error
as ``<path>:<line>: ...``.
"""
from __future__ import annotations

import math
from itertools import chain
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
    """Malformed edge-list input (field count, self-loop, bad weight, duplicate)."""


class PartitionError(ValueError):
    """Malformed or inconsistent partition input."""


class SignalError(ValueError):
    """Malformed node-signal input."""


class _Lines:
    """``with _Lines(path) as lines:`` reads a UTF-8 text file's non-blank lines.

    A ``ValueError`` raised in the ``with`` block gains ``<path>:<line>: ``
    before its message: the line being read, or the last once the loop is
    done. Each line is decoded alone, so one that is not UTF-8 is named.
    Iterating yields each line stripped; :meth:`columns` and :meth:`pairs`
    parse them and skip ``#`` comments.
    """

    def __init__(self, path: str):
        self.path, self.line = path, 0

    def __enter__(self):
        self._file = open(self.path, "rb")
        return self

    def __exit__(self, kind, exc, traceback):
        self._file.close()
        if isinstance(exc, ValueError):
            self.located(exc)

    def located(self, error: ValueError) -> ValueError:
        """``error`` with ``<path>:<line>: `` put before its message."""
        error.args = (f"{self.path}:{self.line}: {error}",)
        return error

    def __iter__(self):
        for self.line, raw in enumerate(self._file, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"not UTF-8 text ({exc.reason})") from None
            if text := text.strip():
                yield text

    def columns(self, *types) -> list[list]:
        """The fields of every line but comments, converted, one list per type.

        Each line must hold one field per type; ``numbers`` gets their numbers.
        """
        table, self.numbers = [], []
        for text in self:
            if text[0] != "#":
                table.append(fields := text.split())
                if len(fields) != len(types):
                    raise ValueError(f"expected {len(types)} fields, got {len(fields)}")
                self.numbers.append(self.line)
        columns = list(zip(*table)) or [()] * len(types)
        try:  # a column at a time; the line of a bad field is looked for only then
            return [list(map(kind, column)) for kind, column in zip(types, columns)]
        except ValueError:
            for self.line, fields in zip(self.numbers, table):
                for kind, field in zip(types, fields):
                    kind(field)
            raise

    def pairs(self):
        """``(key, value)`` of each ``key=value`` line, both sides stripped."""
        for key, equals, value in (text.partition("=") for text in self if text[0] != "#"):
            if not equals:
                raise ValueError("expected key=value")
            yield key.strip(), value.strip()


def _write_lines(path: str, lines: Iterable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines)


class Graph:
    """Undirected weighted graph over dense integer node ids.

    ``edges`` holds ``(u, v)`` or ``(u, v, w)`` tuples, or is an ``(m, 2)``
    or ``(m, 3)`` array; a missing weight is 1.0. Each pair is stored once,
    sorted by ``(u, v)`` with ``u < v``, in ``edge_u``/``edge_v`` (int64) and
    ``edge_w`` (float64, > 0), with a CSR adjacency over them. The first bad
    edge in input order raises ``ValueError`` for an id out of range, else
    ``EdgeListError`` (self-loop, non-positive or non-finite weight, duplicate).
    """

    def __init__(self, node_count: int, edges: Iterable[tuple] | np.ndarray = ()):
        if node_count < 0:
            raise ValueError("node_count must be nonnegative")
        self.node_count = int(node_count)
        if not isinstance(edges, np.ndarray):
            edges = [(*edge, 1.0) if len(edge) == 2 else edge for edge in edges]
        try:
            table = np.asarray(edges, dtype=np.float64)
        except OverflowError:  # ids too large for a float are out of range all the same
            table = np.asarray([[min(max(x, -1), node_count) for x in e[:2]] + list(e[2:])
                                for e in edges], dtype=np.float64)
        if table.size == 0:
            table = table.reshape(0, 3)
        if table.ndim == 2 and table.shape[1] == 2:
            table = np.column_stack([table, np.ones(len(table))])
        if table.ndim != 2 or table.shape[1] != 3:
            raise ValueError(f"edges must be (u, v) or (u, v, w) rows, got shape {table.shape}")
        # ids are truncated as int() would, then checked and stored
        ends = np.trunc(table[:, :2])
        w = table[:, 2]
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        # lexsort is stable: of equal pairs, all but the first in input order repeat
        order = np.lexsort((hi, lo))
        repeat = np.zeros(len(table), dtype=bool)
        repeat[order[1:]] = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
        outside = ~((ends >= 0) & (ends < node_count)).all(axis=1)
        bad_weight = ~((w > 0) & np.isfinite(w))
        bad = outside | (lo == hi) | bad_weight | repeat
        if bad.any():
            i = int(np.argmax(bad))
            u, v = int(edges[i][0]), int(edges[i][1])
            edge = (u, v)
            if outside[i]:
                error = ValueError(f"edge ({u},{v}) has node id out of [0,{node_count})")
            elif u == v:
                error = EdgeListError(f"self-loop at node {u}")
            elif bad_weight[i]:
                error = EdgeListError(f"edge ({u},{v}) has non-positive weight {float(w[i])}")
            else:
                edge = (min(u, v), max(u, v))
                error = EdgeListError(f"duplicate undirected edge ({edge[0]},{edge[1]})")
            # the input edge and the ids the message names, so a file loader
            # can name its line and, if it remapped ids, the file's ids
            error.row, error.edge = i, edge
            raise error
        self.edge_u = lo[order].astype(np.int64)
        self.edge_v = hi[order].astype(np.int64)
        self.edge_w = w[order]
        self._build_adjacency()

    @classmethod
    def _of_sorted(cls, node_count: int, edge_u: np.ndarray, edge_v: np.ndarray,
                   edge_w: np.ndarray) -> "Graph":
        """The graph of edges that are already valid and sorted by ``(u, v)``
        with ``u < v``, as the constructor leaves them; they are not checked."""
        graph = cls.__new__(cls)
        graph.node_count = node_count
        graph.edge_u, graph.edge_v, graph.edge_w = edge_u, edge_v, edge_w
        graph._build_adjacency()
        return graph

    def _build_adjacency(self):
        """The CSR adjacency: one entry per half-edge, sorted by (node, neighbour).

        This is the order ``np.lexsort`` on (node, neighbour) gives, from two
        stable sorts on one key each. As the edges are sorted by (u, v) with
        u < v, a stable sort on v lists each node's lower neighbours in
        ascending order, and the edge order lists its upper ones so; every
        lower neighbour precedes every upper one, so a stable sort of the
        half-edges by node, the lower ones first, leaves each node's
        neighbours ascending. Ascending neighbours are ascending edge ids.
        """
        m = len(self.edge_u)
        below = np.argsort(self.edge_v, kind="stable")
        src = np.concatenate([self.edge_v[below], self.edge_u])
        dst = np.concatenate([self.edge_u[below], self.edge_v])
        order = np.argsort(src, kind="stable")
        self.adj_indptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.node_count), out=self.adj_indptr[1:])
        self.adj_nodes = dst[order]
        self.adj_eids = np.concatenate([below, np.arange(m, dtype=np.int64)])[order]

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

    ``block_nodes[k]`` lists block k's global ids in ascending order;
    ``cut_edges`` is the ``(c, 2)`` int64 array of the edges between blocks,
    in the graph's edge order. Every other edge is in one block graph.
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
            raise PartitionError(f"block id out of range [0,{num_blocks}) in assignment")
        self.graph = graph
        self.assignment = assignment
        self.num_blocks = int(num_blocks)
        self.block_nodes = [np.flatnonzero(assignment == k) for k in range(num_blocks)]
        # each edge's block, or -1 for a cut edge
        self._edge_block = assignment[graph.edge_u]
        cut = self._edge_block != assignment[graph.edge_v]
        self._edge_block[cut] = -1
        self.cut_edges = np.column_stack([graph.edge_u[cut], graph.edge_v[cut]])
        self._block_graphs: list[Graph | None] = [None] * num_blocks

    def block_graph(self, k: int) -> Graph:
        """Subgraph induced by block k, sliced from the graph's edge arrays.

        Local id i is ``block_nodes[k][i]``. The graph's edges are valid and
        sorted by (u, v), and ``block_nodes[k]`` is ascending, so block k's
        edges mapped to local ids are still sorted: only the CSR adjacency is
        built, with no second check or sort, and edge and CSR order follow
        the graph's.
        """
        if self._block_graphs[k] is None:
            nodes, g = self.block_nodes[k], self.graph
            inside = np.flatnonzero(self._edge_block == k)
            local = np.empty(g.node_count, dtype=np.int64)  # set on block k's nodes only
            local[nodes] = np.arange(len(nodes))
            self._block_graphs[k] = Graph._of_sorted(
                len(nodes), local[g.edge_u[inside]], local[g.edge_v[inside]], g.edge_w[inside])
        return self._block_graphs[k]

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
        self.nodes = tuple(sorted(set(map(int, nodes))))

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


def load_graph(path: str, signal_length: int | None = None) -> Graph:
    """Load an edge-list file: whitespace-separated ``u v [w]`` per line.

    Lines starting with ``#`` are comments; a ``# nodes N`` comment fixes
    the node count, 0 <= N < 2**63 (otherwise max id + 1 is used). Given
    ``signal_length``, N must equal it; both checks run before anything
    is allocated. Sparse external ids are remapped to [0, N) and, once
    the edges are accepted, the mapping written to ``<path>.idmap``.
    """
    raw_edges, edge_lines = [], []
    declared_n = None
    with _Lines(path) as lines:
        for text in lines:
            if text.startswith("#"):
                parts = text[1:].split()
                if len(parts) == 2 and parts[0] == "nodes":
                    try:
                        declared_n = int(parts[1])
                    except ValueError:
                        raise EdgeListError(f"node count {parts[1]!r} is not an integer") from None
                    if not 0 <= declared_n < 2 ** 63:
                        raise EdgeListError("node count out of [0, 2**63)")
                    if signal_length is not None and declared_n != signal_length:
                        raise EdgeListError(f"node count {declared_n} differs "
                                            f"from the signal length {signal_length}")
                continue
            parts = text.split()
            if len(parts) not in (2, 3):
                raise EdgeListError(f"expected 'u v [w]', got {text!r}")
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
            if u == v:
                raise EdgeListError(f"self-loop at node {u}")
            if w < 0:
                raise EdgeListError(f"negative weight {w}")
            raw_edges.append((u, v, w))
            edge_lines.append(lines.line)

        ids = sorted({u for u, _, _ in raw_edges} | {v for _, v, _ in raw_edges})
        n = len(ids) if declared_n is None else declared_n
        sparse = declared_n is None and ids != list(range(n))
        if sparse:
            remap = {old: new for new, old in enumerate(ids)}
            raw_edges = [(remap[u], remap[v], w) for u, v, w in raw_edges]
        try:
            graph = Graph(n, raw_edges)
        except ValueError as exc:
            if hasattr(exc, "row"):  # name the first bad edge's line
                lines.line = edge_lines[exc.row]
                if sparse:  # and its ids as the file gives them
                    u, v = exc.edge
                    exc.args = (str(exc).replace(f"({u},{v})", f"({ids[u]},{ids[v]})", 1),)
            raise
    if sparse:  # only once the edges are accepted
        _write_lines(path + ".idmap", (f"{new}\t{old}" for new, old in enumerate(ids)))
    return graph


def save_graph(graph: Graph, path: str) -> None:
    edges = (f"{u}\t{v}" if w == 1.0 else f"{u}\t{v}\t{float(w)!r}"
             for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w))
    _write_lines(path, chain([f"# nodes {graph.node_count}"], edges))


def load_partition(path: str, graph: Graph, num_blocks: int) -> BlockPartition:
    """Load a partition file: its i-th block id is node i's."""
    with _Lines(path) as lines:
        (assignment,) = lines.columns(int)
        # on Python ints, so no id is too large to check; a bad id's line is looked for only then
        if not 0 <= min(assignment, default=0) <= max(assignment, default=0) < num_blocks:
            for lines.line, k in zip(lines.numbers, assignment):
                if not 0 <= k < num_blocks:
                    raise PartitionError(f"block id {k} out of range [0,{num_blocks})")
        return BlockPartition(graph, assignment, num_blocks)  # a wrong count names the last line


def save_partition(partition: BlockPartition, path: str) -> None:
    _write_lines(path, partition.assignment)


def _bfs(graph: Graph, start: int, allowed, limit: int | None = None) -> list[int]:
    """Breadth-first discovery order from ``start`` through the nodes ``allowed`` accepts.

    Each node's neighbours are taken in ascending id order, and a node is
    listed when it is found; the search stops once it holds ``limit``
    nodes. ``start`` itself is not tested.
    """
    order, seen = [start], {start}
    for u in order:
        if len(order) == limit:
            break
        for v in graph.neighbors(u).tolist():
            if v not in seen and allowed(v):
                seen.add(v)
                order.append(v)
                if len(order) == limit:
                    break
    return order


def partition_contiguous(graph: Graph, num_blocks: int) -> BlockPartition:
    """Deterministic BFS-grown partition into size-balanced blocks.

    Each block is within one node of N/K in size. It grows by breadth-first
    search from the lowest unassigned node through unassigned nodes until it
    has its size; a search that runs dry restarts at the lowest unassigned
    node. So the last blocks take the leftovers and can be disconnected: a
    4,000-node graph from ``generate_non`` (seed 0) cut into 8 has 4, 137
    and 406 components in blocks 5-7.
    """
    n = graph.node_count
    if num_blocks < 1 or num_blocks > max(n, 1):
        raise PartitionError(f"num_blocks {num_blocks} out of range [1,{n}]")
    assignment = np.full(n, -1, dtype=np.int64)
    unassigned = set(range(n))
    base, extra = divmod(n, num_blocks)
    lowest = 0
    for k in range(num_blocks):
        need = base + (1 if k < extra else 0)
        while need > 0:
            while lowest not in unassigned:
                lowest += 1
            block = _bfs(graph, lowest, unassigned.__contains__, need)
            assignment[block] = k
            unassigned.difference_update(block)
            need -= len(block)
    return BlockPartition(graph, assignment, num_blocks)


def connected_components(graph: Graph, nodes: Iterable[int]) -> list[set[int]]:
    """Maximal connected subsets of the subgraph induced by ``nodes``.

    Components are returned ordered by their smallest member.
    """
    node_set = set(int(v) for v in nodes)
    for v in node_set:
        if not (0 <= v < graph.node_count):
            raise ValueError(f"node id {v} out of range [0,{graph.node_count})")
    components, reached = [], set()
    for start in sorted(node_set):
        if start not in reached:
            components.append(set(_bfs(graph, start, node_set.__contains__)))
            reached |= components[-1]
    return components


def _read_signal(path: str) -> tuple[_Lines, list[int], list[float]]:
    """A ``node <TAB> value`` signal file, parsed once: its reader, whose
    ``numbers`` are the entries' lines, their node ids and their values."""
    with _Lines(path) as lines:
        nodes, values = lines.columns(int, float)
    return lines, nodes, values


def _place_signal(entries: tuple[_Lines, list[int], list[float]], node_count: int) -> BlockSignal:
    """The signal of :func:`_read_signal`'s entries over ``node_count`` nodes:
    absent nodes are 0, and of two entries for one node the later wins."""
    lines, nodes, values = entries
    placed = np.zeros(node_count, dtype=np.float64)
    for lines.line, node, value in zip(lines.numbers, nodes, values):
        if not 0 <= node < node_count:
            raise lines.located(SignalError(f"node id {node} out of range"))
        if not math.isfinite(value):
            raise lines.located(SignalError(f"non-finite value {value}"))
        placed[node] = value
    return BlockSignal(placed)


def load_signal(path: str, node_count: int) -> BlockSignal:
    """Load a ``node <TAB> value`` signal file; absent nodes default to 0."""
    return _place_signal(_read_signal(path), node_count)


def save_signal(signal: BlockSignal, path: str) -> None:
    _write_lines(path, (f"{node}\t{float(value)!r}" for node, value in enumerate(signal.values)))
