"""Brute-force reference computations shared across test modules.

Everything here enumerates exhaustively and is only usable on small
instances; the point is independence from the code under test.
"""
import itertools

import numpy as np

from gbgp.graph import EdgeListError, Graph, connected_components


def reference_edge_arrays(node_count: int, edges):
    """Graph's sorted ``(edge_u, edge_v, edge_w)``, built one edge at a time.

    Raises what ``Graph`` raises for the first bad edge in input order.
    """
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
    return (
        np.asarray(us, dtype=np.int64)[order],
        np.asarray(vs, dtype=np.int64)[order],
        np.asarray(ws, dtype=np.float64)[order],
    )


def connected_subsets(graph: Graph, max_size: int):
    """Yield every nonempty connected node subset with <= max_size nodes."""
    n = graph.node_count
    for size in range(1, min(max_size, n) + 1):
        for sub in itertools.combinations(range(n), size):
            if len(connected_components(graph, sub)) == 1:
                yield sub


def head_optimum(graph: Graph, weights, budget: int) -> float:
    """max ||w_S||_2 over connected S with |S| <= budget."""
    weights = np.asarray(weights, dtype=float)
    best = 0.0
    for sub in connected_subsets(graph, budget):
        best = max(best, float(np.sqrt((weights[list(sub)] ** 2).sum())))
    return best


def tail_optimum(graph: Graph, values, budget: int) -> float:
    """min ||b - b_S||_2 over connected S with |S| <= budget."""
    values = np.asarray(values, dtype=float)
    total = float((values**2).sum())
    best_mass = 0.0
    for sub in connected_subsets(graph, budget):
        best_mass = max(best_mass, float((values[list(sub)] ** 2).sum()))
    return float(np.sqrt(max(total - best_mass, 0.0)))


def ems_optimum(graph: Graph, signal, budget: int):
    """Best connected subset of size <= budget by elevated-mean score."""
    signal = np.asarray(signal, dtype=float)
    best_score, best_sub = -np.inf, None
    for sub in connected_subsets(graph, budget):
        score = signal[list(sub)].sum() / np.sqrt(len(sub))
        if score > best_score + 1e-12:
            best_score, best_sub = score, sub
    return best_sub, best_score


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    return Graph(n, [(0, i) for i in range(1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def random_tree(n: int, rng) -> Graph:
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return Graph(n, edges)


def random_sparse(n: int, rng) -> Graph:
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(n):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def small_graph_families(rng, sizes=(6, 9, 12)):
    """The graph menagerie used by the projection oracle suite."""
    for n in sizes:
        yield "path", path_graph(n)
        yield "cycle", cycle_graph(n)
        yield "star", star_graph(n)
        yield "tree", random_tree(n, rng)
        yield "sparse", random_sparse(n, rng)
