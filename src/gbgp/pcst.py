"""Prize-collecting Steiner forest solver.

Goemans-Williamson moat growing with strong pruning. The growth phase is
event-driven: cluster merges and deactivations are processed in time
order from a lazily revalidated heap, with accumulated moats tracked
through a weighted union-find. Ties are broken toward low node ids so
identical inputs always give identical outputs.
"""
from __future__ import annotations

import heapq
import math
from typing import Sequence

__all__ = ["strong_prune", "PcstResult", "PcstEngine"]

_EPS = 1e-12


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

    Building the edge incidence once and copying it per solve makes
    repeated solves (the budget binary search) substantially cheaper
    than reconstructing the instance each time.
    """

    def __init__(self, node_count: int, edges: Sequence[tuple[int, int]]):
        self.n = int(node_count)
        self.m = len(edges)
        self.eu = [int(e[0]) for e in edges]
        self.ev = [int(e[1]) for e in edges]
        incident: list[list[int]] = [[] for _ in range(self.n)]
        for eid in range(self.m):
            incident[self.eu[eid]].append(eid)
            incident[self.ev[eid]].append(eid)
        self._incident_template = incident

    def solve(
        self,
        costs: Sequence[float],
        prizes: Sequence[float],
        num_trees: int = 1,
    ) -> PcstResult:
        """Run moat growing and strong pruning.

        Growth proceeds until every cluster has deactivated. Each final
        cluster is pruned to its best subtree and the ``num_trees``
        highest-net-worth subtrees (net worth > 0) are returned.
        """
        n = self.n
        m = self.m
        if len(costs) != m:
            raise ValueError("costs length must match edges")
        if len(prizes) != n:
            raise ValueError("prizes length must match node count")
        for c in costs:
            if c <= 0 or not math.isfinite(c):
                raise ValueError("edge costs must be positive and finite")
        for p in prizes:
            if p < 0 or not math.isfinite(p):
                raise ValueError("prizes must be nonnegative and finite")
        if num_trees < 1:
            raise ValueError("num_trees must be >= 1")

        eu = self.eu
        ev = self.ev
        cost = [float(c) for c in costs]
        prize = [float(p) for p in prizes]

        # union-find with per-node moat offsets: moat(u, t) equals the path
        # weight from u to its root plus the root's accumulated growth
        parent = list(range(n))
        offset = [0.0] * n

        def find(u: int) -> int:
            r = u
            while parent[r] != r:
                r = parent[r]
            # path compression, folding offsets into direct-to-root weights
            agg = 0.0
            stack = []
            x = u
            while parent[x] != x:
                stack.append(x)
                x = parent[x]
            for x in reversed(stack):
                agg += offset[x]
                parent[x] = r
                offset[x] = agg
            return r

        def moat(u: int, r: int) -> float:
            # requires find(u) == r and r settled
            return (offset[u] if u != r else 0.0) + accum[r]

        # per-root cluster state
        active = [False] * n
        slack = [0.0] * n
        accum = [0.0] * n
        last_t = [0.0] * n
        version = [0] * n
        minid = list(range(n))
        # members/tree_edges materialize lazily: a missing entry means the
        # singleton {u} with no tree edges
        members: dict[int, list[int]] = {}
        tree_edges: dict[int, list[int]] = {}
        # copy-on-write views of the shared incidence template: only roots
        # that actually merge pay for a private list
        incident: list[list[int]] = list(self._incident_template)
        incident_owned = [False] * n

        active_count = 0
        for u in range(n):
            if prize[u] > 0:
                active[u] = True
                slack[u] = prize[u]
                active_count += 1

        def settle(r: int, t: float) -> None:
            dt = t - last_t[r]
            if dt > 0 and active[r]:
                accum[r] += dt
                slack[r] -= dt
                if slack[r] < 0:
                    slack[r] = 0.0
            if dt > 0:
                last_t[r] = t

        heap: list[tuple] = []

        def edge_event(eid: int, now: float):
            ru, rv = find(eu[eid]), find(ev[eid])
            if ru == rv:
                return None
            settle(ru, now)
            settle(rv, now)
            filled = moat(eu[eid], ru) + moat(ev[eid], rv)
            remaining = cost[eid] - filled
            rate = (1 if active[ru] else 0) + (1 if active[rv] else 0)
            if remaining <= _EPS:
                t = now
            elif rate == 0:
                return None
            else:
                t = now + remaining / rate
            a, b = (eu[eid], ev[eid]) if eu[eid] < ev[eid] else (ev[eid], eu[eid])
            return (t, 0, a, b, eid, ru, version[ru], rv, version[rv])

        def push_edge(eid: int, now: float) -> None:
            ev_entry = edge_event(eid, now)
            if ev_entry is not None:
                heapq.heappush(heap, ev_entry)

        def push_deactivation(r: int, now: float) -> None:
            # higher-minid clusters die first on ties so low ids survive
            heapq.heappush(heap, (now + slack[r], 1, -minid[r], r, version[r]))

        seen_edges: set[int] = set()
        for u in range(n):
            if active[u]:
                push_deactivation(u, 0.0)
                for eid in incident[u]:
                    if eid not in seen_edges:
                        seen_edges.add(eid)
                        push_edge(eid, 0.0)
        # edges between two inactive endpoints enter the queue later, via
        # rescheduling when a merge puts them next to an active cluster
        del seen_edges

        now = 0.0
        while heap and active_count > 0:
            entry = heapq.heappop(heap)
            now = entry[0]
            if entry[1] == 1:
                _, _, _, r, ver = entry
                if parent[r] != r or version[r] != ver or not active[r]:
                    continue
                settle(r, now)
                active[r] = False
                slack[r] = 0.0
                version[r] += 1
                active_count -= 1
                continue

            _, _, _, _, eid, ru0, veru, rv0, verv = entry
            ru, rv = find(eu[eid]), find(ev[eid])
            if ru == rv:
                continue
            if (ru, version[ru], rv, version[rv]) != (ru0, veru, rv0, verv):
                push_edge(eid, now)
                continue

            settle(ru, now)
            settle(rv, now)
            was_active = (1 if active[ru] else 0) + (1 if active[rv] else 0)
            merged_slack = slack[ru] + slack[rv]
            result_active = merged_slack > _EPS

            size_u = len(members.get(ru, (ru,)))
            size_v = len(members.get(rv, (rv,)))
            keeper, absorbed = (ru, rv) if size_u >= size_v else (rv, ru)
            # sides that were inactive speed up once the merged cluster grows
            resched: list[int] = []
            if result_active:
                if not active[ru]:
                    resched.extend(incident[ru])
                if not active[rv]:
                    resched.extend(incident[rv])

            version[ru] += 1
            version[rv] += 1
            parent[absorbed] = keeper
            offset[absorbed] = accum[absorbed] - accum[keeper]
            keeper_members = members.setdefault(keeper, [keeper])
            keeper_members.extend(members.pop(absorbed, [absorbed]))
            keeper_tree = tree_edges.setdefault(keeper, [])
            keeper_tree.append(eid)
            keeper_tree.extend(tree_edges.pop(absorbed, ()))
            if len(incident[keeper]) < len(incident[absorbed]):
                incident[keeper], incident[absorbed] = incident[absorbed], incident[keeper]
                incident_owned[keeper], incident_owned[absorbed] = (
                    incident_owned[absorbed],
                    incident_owned[keeper],
                )
            if not incident_owned[keeper]:
                incident[keeper] = list(incident[keeper])
                incident_owned[keeper] = True
            incident[keeper].extend(incident[absorbed])
            incident[absorbed] = []
            incident_owned[absorbed] = True
            minid[keeper] = min(minid[keeper], minid[absorbed])
            slack[keeper] = merged_slack
            active[keeper] = result_active
            last_t[keeper] = now
            active_count += (1 if result_active else 0) - was_active

            if result_active:
                push_deactivation(keeper, now)
                for other in resched:
                    push_edge(other, now)

        # prune every final cluster, keep the best num_trees by net worth
        candidates = []
        seen = set()
        for u in range(n):
            r = find(u)
            if r in seen:
                continue
            seen.add(r)
            nodes_kept, edges_kept, worth = strong_prune(
                members.get(r, [r]),
                [(eu[e], ev[e], cost[e]) for e in tree_edges.get(r, ())],
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
    order = [r0]
    stack = [r0]
    while stack:
        u = stack.pop()
        for v, _ in adj[u]:
            if v not in parent:
                parent[v] = u
                order.append(v)
                stack.append(v)
    best = {u: float(prize[u]) for u in nodes}
    for u in reversed(order):
        if u == r0:
            continue
        p = parent[u]
        cost_up = next(c for v, c in adj[u] if v == p)
        margin = best[u] - cost_up
        if margin > 0:
            best[p] += margin

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
