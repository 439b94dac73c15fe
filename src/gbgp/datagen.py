"""Synthetic benchmark generation.

Preferential-attachment graphs, random-walk ground-truth subgraphs,
evolving subgraphs with controlled overlap between consecutive steps,
Gaussian feature injection, and sensor bit-flip noise. The walk's
reachability check and each step's retained core are breadth-first
searches from ``gbgp.graph``, so no generator calls the PCST kernel.
Every generator is a pure function of its arguments and seed: the PCG64
streams are split per component so regenerating any part is reproducible.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .graph import (
    BlockPartition,
    BlockSignal,
    Graph,
    _Lines,
    _bfs,
    _write_lines,
    load_graph,
    load_partition,
    load_signal,
    partition_contiguous,
    save_graph,
    save_partition,
    save_signal,
)

__all__ = [
    "SyntheticSpec",
    "barabasi_albert",
    "random_walk_subgraph",
    "evolving_subgraphs",
    "inject_features",
    "flip_noise",
    "TemporalInstance",
    "NonInstance",
    "generate_temporal",
    "generate_non",
    "expand_temporal",
    "write_bundle",
    "read_bundle",
    "read_metadata",
    "read_truth",
]

RNG_NAME = "pcg64"

_STREAM_GRAPH = 0
_STREAM_TRUTH = 1
_STREAM_FEATURES = 2
_STREAM_NOISE = 3


def component_rng(seed: int, stream: int, sub: int = 0) -> np.random.Generator:
    """Independent deterministic stream for one generation component."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, sub)))


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic benchmark instance."""

    n: int
    m: int = 4
    T: int = 1
    subgraph_size: float = 0.1
    overlap: float = 0.5
    mu: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.m < self.n):
            raise ValueError(f"attachment parameter m={self.m} must satisfy 1 <= m < n")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not (0.0 <= self.overlap <= 1.0):
            raise ValueError("overlap must be in [0, 1]")
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and nonnegative, got {self.mu}")
        if not math.isfinite(self.subgraph_size):
            raise ValueError(f"subgraph_size must be finite, got {self.subgraph_size}")
        if self.subgraph_size >= 1 and self.subgraph_size != int(self.subgraph_size):
            raise ValueError("subgraph_size must be a fraction below 1 or a whole number, "
                             f"got {self.subgraph_size}")
        if self.resolved_size() > self.n:
            raise ValueError("subgraph size exceeds node count")

    def resolved_size(self) -> int:
        if 0 < self.subgraph_size < 1:
            return max(1, int(round(self.subgraph_size * self.n)))
        return int(self.subgraph_size)


def barabasi_albert(n: int, m: int, seed: int = 0) -> Graph:
    """Preferential-attachment graph with exactly m*(n-m) edges.

    Starts from m isolated seed nodes; each later node attaches m edges
    to distinct earlier nodes sampled proportionally to degree (the
    first attacher links to every seed, which stands in for degree-one
    sampling of degree-zero nodes).
    """
    if not (1 <= m < n):
        raise ValueError(f"need 1 <= m < n, got m={m} n={n}")
    rng = component_rng(seed, _STREAM_GRAPH)
    edges: list[tuple[int, int]] = []
    # one entry per half-edge; sampling an index is degree-proportional
    repeated: list[int] = []
    for source in range(m, n):
        if source == m:
            targets = list(range(m))
        else:
            targets_set: set[int] = set()
            while len(targets_set) < m:
                pick = repeated[int(rng.integers(0, len(repeated)))]
                targets_set.add(pick)
            targets = sorted(targets_set)
        for t in targets:
            edges.append((t, source))
            repeated.append(t)
            repeated.append(source)
    return Graph(n, edges)


def _walk_until(graph: Graph, visited: set[int], order: list[int], size: int,
                rng: np.random.Generator) -> None:
    current = order[-1]
    while len(visited) < size:
        nbrs = graph.neighbors(current)
        if len(nbrs) == 0:
            current = order[int(rng.integers(0, len(order)))]
            continue
        nxt = int(nbrs[int(rng.integers(0, len(nbrs)))])
        if nxt not in visited:
            visited.add(nxt)
            order.append(nxt)
        current = nxt


def random_walk_subgraph(graph: Graph, size: int, seed: int = 0,
                         rng: np.random.Generator | None = None) -> tuple[int, ...]:
    """Connected node set of exactly ``size`` nodes found by random walk."""
    if size < 1 or size > graph.node_count:
        raise ValueError(f"size {size} out of range [1, {graph.node_count}]")
    if rng is None:
        rng = component_rng(seed, _STREAM_TRUTH)
    start = int(rng.integers(0, graph.node_count))
    # a search that stops short of size has found the whole component
    reachable = len(_bfs(graph, start, lambda v: True, size))
    if reachable < size:
        raise ValueError(
            f"component of start node {start} has {reachable} nodes < size {size}"
        )
    visited = {start}
    order = [start]
    _walk_until(graph, visited, order, size, rng)
    return tuple(sorted(visited))


def evolving_subgraphs(graph: Graph, T: int, sizes: Sequence[int], overlap: float,
                       seed: int = 0) -> list[tuple[int, ...]]:
    """Connected truth sets where consecutive steps share a node core.

    Step t+1 keeps ceil(overlap * |S_t|) nodes of S_t, chosen as a
    connected core by BFS inside S_t, and regrows to its target size by
    random walk on the full graph.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if len(sizes) != T:
        raise ValueError(f"need {T} sizes, got {len(sizes)}")
    rng = component_rng(seed, _STREAM_TRUTH)
    out = []
    current = set(random_walk_subgraph(graph, sizes[0], rng=rng))
    out.append(tuple(sorted(current)))
    for t in range(1, T):
        keep = int(np.ceil(overlap * len(current)))
        if keep > 0:
            ordered = sorted(current)
            core_seed = ordered[int(rng.integers(0, len(ordered)))]
            core = _bfs(graph, core_seed, current.__contains__, keep)
            visited = set(core)
            order = list(core)
        else:
            start = int(rng.integers(0, graph.node_count))
            visited = {start}
            order = [start]
        if sizes[t] < len(visited):
            raise ValueError(
                f"size {sizes[t]} at step {t} is below the retained core {len(visited)}"
            )
        _walk_until(graph, visited, order, sizes[t], rng)
        current = visited
        out.append(tuple(sorted(current)))
    return out


def inject_features(node_count: int, true_set: Iterable[int], mu: float,
                    seed: int = 0, rng: np.random.Generator | None = None) -> BlockSignal:
    """Standard-normal background with mean-``mu`` draws on the truth."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if rng is None:
        rng = component_rng(seed, _STREAM_FEATURES)
    values = rng.normal(0.0, 1.0, size=node_count)
    idx = sorted(set(int(v) for v in true_set))
    values[idx] = rng.normal(mu, 1.0, size=len(idx))
    return BlockSignal(values)


def flip_noise(signal: BlockSignal, percent: float, seed: int = 0) -> BlockSignal:
    """Flip exactly floor(percent*N/100) uniformly chosen binary entries."""
    values = signal.values
    if not np.all(np.isin(values, (0.0, 1.0))):
        raise ValueError("flip noise needs a binary signal")
    if not (0.0 <= percent <= 100.0):
        raise ValueError("percent must be in [0, 100]")
    count = int(len(values) * percent // 100)
    rng = component_rng(seed, _STREAM_NOISE)
    flipped = values.copy()
    if count:
        idx = rng.choice(len(values), size=count, replace=False)
        flipped[idx] = 1.0 - flipped[idx]
    return BlockSignal(flipped)


def expand_temporal(
    base_graph: Graph, signals: Sequence[BlockSignal]
) -> tuple[Graph, BlockPartition, BlockSignal]:
    """Replicate the node set once per timestamp into one blocked graph.

    Snapshot t becomes block t over nodes [t*n, (t+1)*n): the base edge
    arrays are tiled T times with t*n added to snapshot t's ids, so every
    block graph equals the base graph; the partition is given
    ``base_graph`` itself as each, so all share one PCST engine. No edges
    join snapshots; the temporal coupling lives in the objective. The
    tiled edges are valid and still sorted by (u, v), so the stacked graph
    takes them without a second check or sort.
    """
    n, T = base_graph.node_count, len(signals)
    offsets = np.repeat(np.arange(T, dtype=np.int64) * n, base_graph.edge_count)
    big = Graph._of_sorted(n * T, np.tile(base_graph.edge_u, T) + offsets,
                           np.tile(base_graph.edge_v, T) + offsets,
                           np.tile(base_graph.edge_w, T))
    assignment = np.repeat(np.arange(T), n)
    partition = BlockPartition(big, assignment, T)
    partition._block_graphs = [base_graph] * T
    signal = BlockSignal(np.concatenate([s.values for s in signals]))
    return big, partition, signal


@dataclass
class TemporalInstance:
    """Evolving-subgraph benchmark over T snapshots of one base graph."""

    spec: SyntheticSpec
    base_graph: Graph
    truths: list[tuple[int, ...]]
    signals: list[BlockSignal]

    def expand(self) -> tuple[Graph, BlockPartition, BlockSignal]:
        return expand_temporal(self.base_graph, self.signals)

    def truth_pairs(self) -> set[tuple[int, int]]:
        return {(t, v) for t, nodes in enumerate(self.truths) for v in nodes}


@dataclass
class NonInstance:
    """Network-of-networks benchmark: one static graph cut into blocks."""

    spec: SyntheticSpec
    graph: Graph
    partition: BlockPartition
    truth: tuple[int, ...]
    signal: BlockSignal

    def truth_pairs(self) -> set[tuple[int, int]]:
        return {(0, v) for v in self.truth}


def generate_temporal(spec: SyntheticSpec) -> TemporalInstance:
    graph = barabasi_albert(spec.n, spec.m, spec.seed)
    size = spec.resolved_size()
    truths = evolving_subgraphs(graph, spec.T, [size] * spec.T, spec.overlap, spec.seed)
    signals = [
        inject_features(
            spec.n, truths[t], spec.mu,
            rng=component_rng(spec.seed, _STREAM_FEATURES, sub=t),
        )
        for t in range(spec.T)
    ]
    return TemporalInstance(spec, graph, truths, signals)


def generate_non(spec: SyntheticSpec, num_blocks: int) -> NonInstance:
    graph = barabasi_albert(spec.n, spec.m, spec.seed)
    partition = partition_contiguous(graph, num_blocks)
    truth = random_walk_subgraph(graph, spec.resolved_size(),
                                 rng=component_rng(spec.seed, _STREAM_TRUTH))
    signal = inject_features(spec.n, truth, spec.mu,
                             rng=component_rng(spec.seed, _STREAM_FEATURES))
    return NonInstance(spec, graph, partition, truth, signal)


def write_bundle(instance: TemporalInstance | NonInstance, out_dir: str) -> str:
    """Write graph, partition, signals, truth and metadata files, and a
    ``manifest.txt`` naming exactly those, whatever else ``out_dir`` holds."""
    os.makedirs(out_dir, exist_ok=True)
    names = []

    def path(name: str) -> str:
        names.append(name)
        return os.path.join(out_dir, name)

    spec = instance.spec
    meta = {**asdict(spec), "rng": RNG_NAME, "subgraph_size": spec.resolved_size()}
    if isinstance(instance, TemporalInstance):
        meta["kind"] = "temporal"
        save_graph(instance.base_graph, path("graph.txt"))
        for t, signal in enumerate(instance.signals):
            save_signal(signal, path(f"signal_t{t}.txt"))
    else:
        meta["kind"] = "non"
        meta["num_blocks"] = instance.partition.num_blocks
        save_graph(instance.graph, path("graph.txt"))
        save_partition(instance.partition, path("partition.txt"))
        save_signal(instance.signal, path("signal_t0.txt"))
    _write_lines(path("truth.txt"),
                 (f"{t}\t{node}" for t, node in sorted(instance.truth_pairs())))
    _write_lines(path("metadata.txt"), (f"{k}={meta[k]}" for k in sorted(meta)))
    _write_lines(os.path.join(out_dir, "manifest.txt"), sorted(names))
    return out_dir


def read_bundle(bundle_dir: str) -> TemporalInstance | NonInstance:
    """Load an instance bundle written by :func:`write_bundle`."""
    meta = read_metadata(os.path.join(bundle_dir, "metadata.txt"))
    spec = SyntheticSpec(**{field.name: meta[field.name] for field in fields(SyntheticSpec)})
    graph = load_graph(os.path.join(bundle_dir, "graph.txt"))
    truth_pairs = read_truth(os.path.join(bundle_dir, "truth.txt"))
    if meta["kind"] == "temporal":
        signals = [
            load_signal(os.path.join(bundle_dir, f"signal_t{t}.txt"), graph.node_count)
            for t in range(spec.T)
        ]
        truths = [
            tuple(sorted(v for t2, v in truth_pairs if t2 == t)) for t in range(spec.T)
        ]
        return TemporalInstance(spec, graph, truths, signals)
    partition = load_partition(
        os.path.join(bundle_dir, "partition.txt"), graph, meta["num_blocks"]
    )
    signal = load_signal(os.path.join(bundle_dir, "signal_t0.txt"), graph.node_count)
    truth = tuple(sorted(v for _, v in truth_pairs))
    return NonInstance(spec, graph, partition, truth, signal)


def read_metadata(path: str) -> dict:
    """A bundle's ``key=value`` metadata.

    It must name ``kind`` and each :class:`SyntheticSpec` field, and a
    ``non`` bundle ``num_blocks``. A field's value takes the field's type,
    but ``subgraph_size``, written resolved, and ``num_blocks`` are ints;
    other values stay text.
    """
    types = {**get_type_hints(SyntheticSpec), "subgraph_size": int, "num_blocks": int}
    meta = {}
    with _Lines(path) as lines:
        for key, value in lines.pairs():
            if key == "kind" and value not in ("temporal", "non"):
                raise ValueError(f"kind must be temporal or non, not {value!r}")
            meta[key] = types.get(key, str)(value)
        needed = set(types) if meta.get("kind") == "non" else set(types) - {"num_blocks"}
        missing = sorted((needed | {"kind"}) - meta.keys())
        if missing:
            raise ValueError(f"missing key {', '.join(missing)}")
    return meta


def read_truth(path: str) -> set[tuple[int, int]]:
    """Read ``t <TAB> node`` truth rows."""
    with _Lines(path) as lines:
        return set(zip(*lines.columns(int, int)))
