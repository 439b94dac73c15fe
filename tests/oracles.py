"""Reference computations shared across test modules.

The brute-force oracles enumerate exhaustively and are only usable on
small instances; the point is independence from the code under test.
``ReferencePcstEngine`` and ``strong_prune`` are the PCST engine in
pure Python, which the compiled engine must match byte for byte;
``reference_budget_search`` and ``trim_to_capacity`` are the budget
search in Python, which the kernel's search must match the same way.
``cut_laplacian_product`` is the NoN coupling's per-row product, summed
as SciPy's CSR product summed it. ``ReferenceObjective`` and
``reference_bcd_solve`` (with its momentum sequence and proximal step)
are the objective's NumPy formulas and the serial inner solver's Python
loop; ``reference_parallel_bcd_solve`` (with ``theta_next``) is the
randomized inner solver's. The kernel's objective, ``gbgp_bcd_solve`` and
``gbgp_rbcd_solve`` must match them byte for byte. Their dot products are
the kernel's ``dot``, which sums as NumPy's ``@`` does on a SkylakeX
OpenBLAS, so that they agree on any host. ``reference_partition_contiguous``,
``reference_connected_components`` and ``reference_truth_core`` are the
three hand-written breadth-first searches that ``gbgp.graph._bfs``
replaced, which its callers must match exactly.
"""
import heapq
import itertools
import math
from collections import deque
from typing import Sequence

import numpy as np

from gbgp.graph import EdgeListError, Graph, connected_components
from gbgp.pcst import PcstResult

_EPS = 1e-12


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


def cut_laplacian_product(partition, x, nodes) -> np.ndarray:
    """Rows ``nodes`` of the cut Laplacian of ``partition`` times ``x``.

    Each row adds its terms from 0.0 in ascending column order, as a CSR
    product does: -x[j] for each neighbour j in another block, and the
    number of such neighbours times x[i] on the diagonal.
    """
    blocks = partition.assignment.tolist()
    cut = {i: [] for i in range(partition.graph.node_count)}
    for u, v, _ in partition.graph.edges:
        if blocks[u] != blocks[v]:
            cut[u].append(v)
            cut[v].append(u)
    out = []
    for i in (int(v) for v in nodes):
        total = 0.0
        for j in sorted(cut[i] + [i]) if cut[i] else []:
            total += (float(len(cut[i])) if j == i else -1.0) * float(x[j])
        out.append(total)
    return np.array(out, dtype=np.float64)


def reference_partition_contiguous(graph: Graph, num_blocks: int) -> np.ndarray:
    """``partition_contiguous``'s assignment, grown one queue entry at a time."""
    n = graph.node_count
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
    return assignment


def reference_connected_components(graph: Graph, nodes) -> list[set[int]]:
    """``connected_components``, by one queue per smallest unreached member."""
    node_set = set(int(v) for v in nodes)
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
            for v in graph.neighbors(u).tolist():
                if v in remaining:
                    remaining.discard(v)
                    comp.add(v)
                    queue.append(v)
        components.append(comp)
    return components


def reference_truth_core(graph: Graph, current: set, core_seed: int, keep: int) -> list[int]:
    """``evolving_subgraphs``'s retained core: up to ``keep`` nodes of
    ``current`` in breadth-first order from ``core_seed``."""
    core = [core_seed]
    seen = {core_seed}
    queue = [core_seed]
    while queue and len(core) < keep:
        u = queue.pop(0)
        for v in graph.neighbors(u):
            v = int(v)
            if v in current and v not in seen:
                seen.add(v)
                core.append(v)
                queue.append(v)
                if len(core) >= keep:
                    break
    return core


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


class ReferencePcstEngine:
    """The PCST engine in pure Python: what ``gbgp.pcst.PcstEngine`` replays.

    The edge endpoints and the incidence come from the graph's CSR
    adjacency (``adj_indptr``/``adj_eids``, ascending edge ids per node),
    converted to Python lists once per graph. Only clusters that merge
    take a private incidence list. ``labels`` holds each node's
    connected component.
    """

    def __init__(self, graph: Graph):
        self.n = graph.node_count
        self.m = graph.edge_count
        # Graph stores every edge with edge_u < edge_v
        self.eu = graph.edge_u.tolist()
        self.ev = graph.edge_v.tolist()
        self.indptr = graph.adj_indptr.tolist()
        self.adj_eids = graph.adj_eids.tolist()
        self.labels = np.empty(self.n, dtype=np.intp)
        for label, members in enumerate(connected_components(graph, range(self.n))):
            self.labels[list(members)] = label

    def solve(self, costs, prizes, num_trees: int = 1) -> PcstResult:
        """Run moat growing and strong pruning.

        ``costs`` (one per edge, in the graph's edge order) and
        ``prizes`` (one per node) are array-likes. Growth starts from
        the nodes with positive prize and proceeds until every cluster
        has deactivated. Each final cluster holding a prized node is
        pruned to its best subtree and the ``num_trees``
        highest-net-worth subtrees (net worth > 0) are returned.
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

        n = self.n
        eu = self.eu
        ev = self.ev
        indptr = self.indptr
        adj_eids = self.adj_eids
        cost = costs.tolist()
        prize = prizes.tolist()
        seeds = np.flatnonzero(prizes > 0).tolist()

        # union-find with per-node moat offsets: moat(u, t) equals the path
        # weight from u to its root plus the root's accumulated growth
        parent = list(range(n))
        offset = [0.0] * n

        def find(u: int) -> int:
            stack = []
            r = u
            while parent[r] != r:
                stack.append(r)
                r = parent[r]
            # path compression, folding offsets into direct-to-root weights
            agg = 0.0
            for x in reversed(stack):
                agg += offset[x]
                parent[x] = r
                offset[x] = agg
            return r

        # per-root cluster state
        active = [False] * n
        slack = [0.0] * n
        accum = [0.0] * n
        last_t = [0.0] * n
        version = [0] * n
        minid = list(range(n))
        # members, tree_edges and incident materialize on a root's first
        # merge: a missing entry means the singleton {u}, no tree edges and
        # u's CSR incidence
        members: dict[int, list[int]] = {}
        tree_edges: dict[int, list[int]] = {}
        incident: dict[int, list[int]] = {}

        heap: list[tuple] = []
        heappush = heapq.heappush

        def push_edge(eid: int, now: float) -> None:
            # schedule the time edge eid goes tight; the fast paths skip
            # find for a root or a child of one, where it changes nothing
            u = eu[eid]
            v = ev[eid]
            ru = parent[u]
            if parent[ru] != ru:
                ru = find(u)
            rv = parent[v]
            if parent[rv] != rv:
                rv = find(v)
            if ru == rv:
                return
            # settle both clusters' moats at now
            for r in (ru, rv):
                dt = now - last_t[r]
                if dt > 0:
                    last_t[r] = now
                    if active[r]:
                        accum[r] += dt
                        rest = slack[r] - dt
                        slack[r] = 0.0 if rest < 0 else rest
            filled = ((offset[u] + accum[ru]) if u != ru else accum[ru]) + (
                (offset[v] + accum[rv]) if v != rv else accum[rv]
            )
            remaining = cost[eid] - filled
            rate = active[ru] + active[rv]
            if remaining <= _EPS:
                t = now
            elif rate == 0:
                return
            else:
                t = now + remaining / rate
            heappush(heap, (t, 0, u, v, eid, ru, version[ru], rv, version[rv]))

        for u in seeds:
            active[u] = True
            slack[u] = prize[u]
            # higher-minid clusters die first on ties so low ids survive
            heap.append((0.0 + prize[u], 1, -u, u, 0))
        heapq.heapify(heap)
        active_count = len(seeds)
        seen_edges: set[int] = set()
        for u in seeds:
            for eid in adj_eids[indptr[u]:indptr[u + 1]]:
                if eid not in seen_edges:
                    seen_edges.add(eid)
                    push_edge(eid, 0.0)
        # edges between two inactive endpoints enter the queue later, via
        # rescheduling when a merge puts them next to an active cluster
        del seen_edges

        heappop = heapq.heappop
        while heap and active_count > 0:
            entry = heappop(heap)
            now = entry[0]
            if entry[1] == 1:
                r = entry[3]
                if parent[r] != r or version[r] != entry[4] or not active[r]:
                    continue
                # settle r at now; its slack is zeroed below
                dt = now - last_t[r]
                if dt > 0:
                    accum[r] += dt
                    last_t[r] = now
                active[r] = False
                slack[r] = 0.0
                version[r] += 1
                active_count -= 1
                continue

            eid = entry[4]
            u = eu[eid]
            v = ev[eid]
            ru = parent[u]
            if parent[ru] != ru:
                ru = find(u)
            rv = parent[v]
            if parent[rv] != rv:
                rv = find(v)
            if ru == rv:
                continue
            if (ru != entry[5] or rv != entry[7]
                    or version[ru] != entry[6] or version[rv] != entry[8]):
                push_edge(eid, now)
                continue

            for r in (ru, rv):
                dt = now - last_t[r]
                if dt > 0:
                    last_t[r] = now
                    if active[r]:
                        accum[r] += dt
                        rest = slack[r] - dt
                        slack[r] = 0.0 if rest < 0 else rest
            was_active = active[ru] + active[rv]
            merged_slack = slack[ru] + slack[rv]
            result_active = merged_slack > _EPS

            size_u = len(members[ru]) if ru in members else 1
            size_v = len(members[rv]) if rv in members else 1
            keeper, absorbed = (ru, rv) if size_u >= size_v else (rv, ru)
            incident_u = incident.pop(ru, None)
            if incident_u is None:
                incident_u = adj_eids[indptr[ru]:indptr[ru + 1]]
            incident_v = incident.pop(rv, None)
            if incident_v is None:
                incident_v = adj_eids[indptr[rv]:indptr[rv + 1]]
            # sides that were inactive speed up once the merged cluster grows
            resched: list[int] = []
            if result_active:
                if not active[ru]:
                    resched += incident_u
                if not active[rv]:
                    resched += incident_v

            version[ru] += 1
            version[rv] += 1
            parent[absorbed] = keeper
            offset[absorbed] = accum[absorbed] - accum[keeper]
            keeper_members = members.setdefault(keeper, [keeper])
            keeper_members.extend(members.pop(absorbed, (absorbed,)))
            keeper_tree = tree_edges.setdefault(keeper, [])
            keeper_tree.append(eid)
            keeper_tree.extend(tree_edges.pop(absorbed, ()))
            # the longer list absorbs the shorter one
            if len(incident_u) < len(incident_v):
                incident_u, incident_v = incident_v, incident_u
            incident_u.extend(incident_v)
            incident[keeper] = incident_u
            minid[keeper] = min(minid[keeper], minid[absorbed])
            slack[keeper] = merged_slack
            active[keeper] = result_active
            last_t[keeper] = now
            active_count += result_active - was_active

            if result_active:
                heappush(heap, (now + merged_slack, 1, -minid[keeper], keeper, version[keeper]))
                for other in resched:
                    push_edge(other, now)

        # every cluster that merged holds a prized node, and a zero-prize
        # singleton is never worth anything: prune the prized nodes' final
        # clusters and keep the best num_trees by net worth
        candidates = []
        seen_roots: set[int] = set()
        for u in seeds:
            r = find(u)
            if r in seen_roots:
                continue
            seen_roots.add(r)
            if r not in members:
                # a prized node that never merged is its own best subtree
                if prize[r] > _EPS:
                    candidates.append((-prize[r], r, ([r], [])))
                continue
            nodes_kept, edges_kept, worth = strong_prune(
                members[r],
                [(eu[e], ev[e], cost[e]) for e in tree_edges[r]],
                prize,
            )
            if worth > _EPS:
                candidates.append((-worth, nodes_kept[0], (nodes_kept, edges_kept)))
        candidates.sort(key=lambda item: (item[0], item[1]))
        return PcstResult([comp for _, _, comp in candidates[:num_trees]])


def strong_prune(
    nodes: Sequence[int],
    tree: Sequence[tuple[int, int, float]],
    prize: Sequence[float],
) -> tuple[list[int], list[tuple[int, int]], float]:
    """Best-net-worth connected subtree of a non-empty tree (prizes minus costs).

    Returns the sorted node list, its edges and its net worth; ties go
    to the lowest node id.
    """
    adj: dict[int, list[tuple[int, float]]] = {u: [] for u in nodes}
    for u, v, c in tree:
        adj[u].append((v, c))
        adj[v].append((u, c))
    for u in adj:
        adj[u].sort()

    r0 = min(nodes)
    parent: dict[int, int] = {r0: r0}
    cost_up: dict[int, float] = {}
    order = [r0]
    stack = [r0]
    while stack:
        u = stack.pop()
        for v, c in adj[u]:
            if v not in parent:
                parent[v] = u
                cost_up[v] = c
                order.append(v)
                stack.append(v)
    best = {u: float(prize[u]) for u in nodes}
    for u in reversed(order):
        if u == r0:
            continue
        margin = best[u] - cost_up[u]
        if margin > 0:
            best[parent[u]] += margin

    top = r0
    for u in sorted(nodes):
        if best[u] > best[top]:
            top = u

    keep_nodes = [top]
    keep_edges: list[tuple[int, int]] = []
    stack = [top]
    included = {top}
    while stack:
        u = stack.pop()
        for v, c in adj[u]:
            if parent.get(v) == u and v not in included and best[v] - c > 0:
                included.add(v)
                keep_nodes.append(v)
                keep_edges.append((min(u, v), max(u, v)))
                stack.append(v)
    return (sorted(keep_nodes), sorted(keep_edges), best[top])


def trim_to_capacity(components, prizes: np.ndarray, capacity: int) -> tuple[int, ...]:
    """Drop lowest-prize leaves of a forest until it fits the capacity.

    Removing a leaf keeps every remaining tree connected; ties resolve
    toward removing the higher node id so low ids survive.
    """
    adj: dict[int, set[int]] = {}
    total = 0
    for nodes, edges in components:
        total += len(nodes)
        for v in nodes:
            adj[v] = set()
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
    heap = [(prizes[v], -v, v) for v in adj if len(adj[v]) <= 1]
    heapq.heapify(heap)
    removed: set[int] = set()
    while total > capacity and heap:
        _, _, v = heapq.heappop(heap)
        if v in removed or len(adj[v]) > 1:
            continue
        removed.add(v)
        total -= 1
        for u in adj[v]:
            adj[u].discard(v)
            if len(adj[u]) <= 1 and u not in removed:
                heapq.heappush(heap, (prizes[u], -u, u))
        adj[v] = set()
    return tuple(sorted(v for v in adj if v not in removed))


def reference_budget_search(graph: Graph, prizes, budget: int, capacity=None,
                            num_components: int = 1, initial_multiplier=None):
    """``gbgp.projections.budget_search`` as a Python loop over engine solves.

    What the kernel's search replays: the same bounds, one
    ``PcstEngine.solve`` per probe, ``trim_to_capacity`` and NumPy's sum
    for the score, and the same candidate rule and exits.
    """
    from gbgp.projections import (MAX_SEARCH_ITERATIONS, MULTIPLIER_HIGH, MULTIPLIER_LOW,
                                  _engine_for)

    if capacity is None:
        capacity = budget
    prizes = np.asarray(prizes, dtype=np.float64)
    total = float(prizes.sum())
    if capacity < len(prizes):
        top_bound = float(np.partition(prizes, -capacity)[-capacity:].sum())
    else:
        top_bound = total
    exit_score = top_bound - 1e-12 * max(1.0, top_bound)
    engine = _engine_for(graph)
    masses = np.bincount(engine.labels, weights=prizes)
    if num_components < len(masses):
        masses = np.partition(masses, -num_components)[-num_components:]
    reach = float(np.minimum(masses, top_bound).sum())
    if reach < top_bound:
        exit_score = min(exit_score, reach - 1e-12 * reach)

    lo, hi = math.log(MULTIPLIER_LOW), math.log(MULTIPLIER_HIGH)
    best = None
    for probe in range(MAX_SEARCH_ITERATIONS):
        if probe == 0 and initial_multiplier is not None:
            mid = math.log(min(max(initial_multiplier, MULTIPLIER_LOW), MULTIPLIER_HIGH))
        else:
            mid = 0.5 * (lo + hi)
        mult = math.exp(mid)
        result = engine.solve(graph.edge_w * mult, prizes, num_trees=num_components)
        nodes = tuple(result.nodes)
        oversized = len(nodes) > capacity
        support = trim_to_capacity(result.components, prizes, capacity) if oversized else nodes
        score = float(prizes[list(support)].sum()) if support else 0.0
        candidate = (-score, len(support), support, mult)
        if best is None or candidate[:3] < best[:3]:
            best = candidate
        if oversized:
            lo = min(mid, hi - 1e-9)
        elif len(nodes) >= budget or score >= total - 1e-12:
            break
        else:
            hi = max(mid, lo + 1e-9)
        if -best[0] >= exit_score or hi - lo < 1e-2:
            break

    if not best[2]:
        return (int(np.argmax(prizes)),), probe + 1, MULTIPLIER_HIGH
    return best[2], probe + 1, best[3]


def reference_ems_value(c_k, x_k) -> float:
    """Relaxed negative elevated-mean-scan value of one block, in NumPy."""
    from gbgp.objectives import EPS_DENOMINATOR, dot

    denom = max(float(x_k.sum()), EPS_DENOMINATOR)
    cx = dot(c_k, x_k)
    quad = 0.5 * dot(x_k, x_k)
    return -(cx * cx) / denom + quad


def reference_ems_gradient(c_k, x_k) -> np.ndarray:
    """Analytic gradient of :func:`reference_ems_value`, in NumPy."""
    from gbgp.objectives import EPS_DENOMINATOR, dot

    total = float(x_k.sum())
    denom = max(total, EPS_DENOMINATOR)
    cx = dot(c_k, x_k)
    # below the guard the denominator is constant: no d(sum)/dx term
    d_denom = cx * cx if total >= EPS_DENOMINATOR else 0.0
    return -(2.0 * cx * c_k * denom - d_denom) / (denom * denom) + x_k


class ReferenceObjective:
    """``gbgp.objectives.ObjectiveSpec`` in NumPy, the formulas its kernel replays.

    The NoN gradient multiplies each block's rows of the cut Laplacian,
    listed one node at a time in ascending column order, with
    ``np.bincount``; the local value sums the squared differences of the
    cut edges that touch the block, in edge order.
    """

    def __init__(self, kind, partition, signal, lam=0.0):
        self.kind, self.partition, self.lam = kind, partition, float(lam)
        self.num_blocks = partition.num_blocks
        self._block_nodes = partition.block_nodes
        self._block_signals = [signal.values[nodes] for nodes in self._block_nodes]
        cut = partition.cut_edges
        self._cut_u, self._cut_v = cut.T
        blocks_u, blocks_v = partition.assignment[cut.T]
        self._block_cuts = []
        for k in range(self.num_blocks):
            ids = np.flatnonzero((blocks_u == k) | (blocks_v == k))
            self._block_cuts.append((self._cut_u[ids], self._cut_v[ids]))
        neighbours = {v: [] for nodes in self._block_nodes for v in nodes.tolist()}
        for u, v in cut.tolist():
            neighbours[u].append(v)
            neighbours[v].append(u)
        self._cut_rows = []
        for nodes in self._block_nodes:
            rows, cols, vals = [], [], []
            for i, v in enumerate(nodes.tolist()):
                for j in sorted(neighbours[v] + [v]) if neighbours[v] else []:
                    rows.append(i)
                    cols.append(j)
                    vals.append(float(len(neighbours[v])) if j == v else -1.0)
            self._cut_rows.append((np.array(rows, dtype=np.int64),
                                   np.array(cols, dtype=np.int64), np.array(vals)))

    def value(self, x):
        total = 0.0
        for k in range(self.num_blocks):
            total += reference_ems_value(self._block_signals[k], x[self._block_nodes[k]])
        total += self.coupling_value(x)
        return total

    def coupling_value(self, x):
        from gbgp.objectives import dot

        if self.lam == 0.0 or self.kind == "ems":
            return 0.0
        if self.kind == "temporal":
            total = 0.0
            for k in range(1, self.num_blocks):
                diff = x[self._block_nodes[k]] - x[self._block_nodes[k - 1]]
                total += dot(diff, diff)
            return self.lam * total
        diff = x[self._cut_u] - x[self._cut_v]
        return self.lam * float(np.square(diff).sum())

    def block_gradient(self, x, k):
        x_k = x[self._block_nodes[k]]
        grad = reference_ems_gradient(self._block_signals[k], x_k)
        if self.lam == 0.0 or self.kind == "ems":
            return grad
        if self.kind == "temporal":
            if k > 0:
                grad = grad + 2.0 * self.lam * (x_k - x[self._block_nodes[k - 1]])
            if k < self.num_blocks - 1:
                grad = grad + 2.0 * self.lam * (x_k - x[self._block_nodes[k + 1]])
            return grad
        if len(self._cut_u):
            rows, cols, vals = self._cut_rows[k]
            grad = grad + 2.0 * self.lam * np.bincount(
                rows, weights=vals * x[cols], minlength=len(x_k))
        return grad

    def local_value(self, x, k):
        from gbgp.objectives import dot

        x_k = x[self._block_nodes[k]]
        total = reference_ems_value(self._block_signals[k], x_k)
        if self.lam == 0.0 or self.kind == "ems":
            return total
        if self.kind == "temporal":
            for j in (k - 1, k + 1):
                if 0 <= j < self.num_blocks:
                    diff = x_k - x[self._block_nodes[j]]
                    total += self.lam * dot(diff, diff)
            return total
        cut_u, cut_v = self._block_cuts[k]
        if len(cut_u):
            diff = x[cut_u] - x[cut_v]
            total += self.lam * dot(diff, diff)
        return total


def restrict(x, partition, masks) -> None:
    """Zero every block of x outside its mask and clip it to [0, 1], in place."""
    for k in range(partition.num_blocks):
        nodes = partition.block_nodes[k]
        x_k = x[nodes]
        x_k[~masks[k]] = 0.0
        np.clip(x_k, 0.0, 1.0, out=x_k)
        x[nodes] = x_k


def theta_next(theta: float) -> float:
    """Sampling sequence: theta_{t+1} = (sqrt(theta^4+4 theta^2)-theta^2)/2."""
    return 0.5 * (math.sqrt(theta**4 + 4.0 * theta**2) - theta**2)


def momentum_next(rho: float) -> float:
    """Momentum sequence: rho_{t+1} = (1 + sqrt(1 + 4 rho_t^2)) / 2."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * rho * rho))


def momentum_weight(rho: float) -> float:
    """Extrapolation weight omega_t = (rho_t - 1) / rho_t, in [0, 1)."""
    return (rho - 1.0) / rho


def proximal_block_update(objective, k, y_hat, alpha, omega_local):
    """Closed-form proximal step on block k around the point ``y_hat``.

    Gradient step with size alpha, entries outside the allowed support
    zeroed, then clipped to the box [0, 1].
    """
    from gbgp.solver import _box_step

    if alpha <= 0:
        raise ValueError("step size must be positive")
    grad = objective.block_gradient(y_hat, k)
    return _box_step(y_hat[objective.partition.block_nodes[k]], grad, alpha, omega_local)


def reference_bcd_solve(objective, masks, x_init, config, trace=None, counts=None):
    """``gbgp.solver.bcd_solve`` as the Python loop its kernel replays.

    ``objective`` is anything with ``partition``, ``block_gradient`` and
    ``local_value``. When given, ``trace`` collects ``objective.value``
    after each block visit and ``counts`` (a list of 4) the passes,
    visits, restarts and halvings the kernel reports.
    """
    from gbgp.objectives import dot
    from gbgp.solver import estimate_step_size

    if not any(mask.any() for mask in masks):
        raise ValueError("all blocks have empty allowed supports")
    partition = objective.partition
    K = partition.num_blocks
    x = np.array(x_init, dtype=np.float64)
    restrict(x, partition, masks)
    prev_blocks = [x[partition.block_nodes[k]].copy() for k in range(K)]
    tally = [0, 0, 0, 0]

    def backtrack(k, f_y=None):
        alpha, new_k, f_new = estimate_step_size(objective, k, x, masks[k], config.step_size, f_y)
        # every halving scales the step by an exact power of two
        tally[3] += round(math.log2(config.step_size / alpha))
        return new_k, f_new

    rho = 1.0
    for _cycle in range(config.max_inner_cycles):
        tally[0] += 1
        cycle_delta = 0.0
        for k in range(K):
            if not masks[k].any():
                rho = momentum_next(rho)
                continue
            tally[1] += 1
            nodes_k = partition.block_nodes[k]
            omega_t = momentum_weight(rho)
            x_k = x[nodes_k]
            y_k = x_k + omega_t * (x_k - prev_blocks[k])
            if config.step_mode == "fixed":
                x[nodes_k] = y_k
                new_k = proximal_block_update(objective, k, x, config.step_size, masks[k])
            else:
                f_before = objective.local_value(x, k)
                x[nodes_k] = y_k
                new_k, f_new = backtrack(k)
                if f_new > f_before + 1e-12 and omega_t > 0:
                    # momentum overshot: restart from the unextrapolated point
                    tally[2] += 1
                    x[nodes_k] = x_k
                    new_k, _ = backtrack(k, f_before)
            prev_blocks[k] = x_k
            change = new_k - x_k
            cycle_delta += math.sqrt(dot(change, change))
            x[nodes_k] = new_k
            rho = momentum_next(rho)
            if trace is not None:
                trace.append(objective.value(x))
        if cycle_delta <= config.inner_tol:
            break
    if counts is not None:
        counts[:] = tally
    return x


def reference_parallel_bcd_solve(objective, masks, x_init, config, rng=None, counts=None):
    """``gbgp.solver.parallel_bcd_solve`` as the Python loop its kernel replays.

    ``rng`` is drawn from K times a round with ``rng.random()``; it
    defaults to a generator seeded with ``config.seed``. ``counts`` (a
    list of 4) gets the rounds, block updates, 0 restarts and the halvings
    of the per-block step estimates.
    """
    from gbgp.objectives import dot
    from gbgp.solver import _box_step, estimate_step_size

    if not any(mask.any() for mask in masks):
        raise ValueError("all blocks have empty allowed supports")
    partition = objective.partition
    K = partition.num_blocks
    tau = min(max(1, config.parallel), K)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    x = np.array(x_init, dtype=np.float64)
    restrict(x, partition, masks)

    # per-block curvature estimates, frozen for the whole inner solve
    alphas = np.full(K, config.step_size)
    if config.step_mode == "backtracking":
        for k in range(K):
            if masks[k].any():
                alphas[k] = estimate_step_size(objective, k, x, masks[k], config.step_size)[0]
    rounds = visits = 0

    z = x.copy()
    theta = tau / K
    max_rounds = max(1, math.ceil(config.max_inner_cycles * K / tau))
    for _round in range(max_rounds):
        rounds += 1
        y = (1.0 - theta) * x + theta * z
        sampled = [k for k in range(K) if rng.random() < tau / K]
        z_new = z.copy()
        for k in sampled:
            if not masks[k].any():
                continue
            visits += 1
            nodes_k = partition.block_nodes[k]
            step = (tau * alphas[k]) / (K * theta)
            grad = objective.block_gradient(y, k)
            z_new[nodes_k] = _box_step(z[nodes_k], grad, step, masks[k])
        x_new = y + (K / tau) * theta * (z_new - z)
        change = x_new - x
        delta = math.sqrt(dot(change, change))
        x, z = x_new, z_new
        theta = theta_next(theta)
        if delta <= config.inner_tol:
            break
    restrict(x, partition, masks)
    if counts is not None:
        # each halving scales the step by an exact power of two
        halvings = int(np.rint(np.log2(config.step_size / alphas)).sum())
        counts[:] = (rounds, visits, 0, halvings)
    return x
