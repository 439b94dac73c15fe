/*
 * Goemans-Williamson moat growing, strong pruning and the budget search
 * for gbgp.pcst.
 *
 * One forest() runs one PcstEngine.solve: the event loop over two binary
 * min-heaps, one of edge events and an indexed one of the active roots'
 * deactivations, the union-find with moat offsets, and strong pruning of
 * every final cluster that holds a prized node. It replays the reference
 * engine in tests/oracles.py step for step: the same events in the same
 * order, the same find/push_edge calls in the same order, and the same
 * floating-point expressions, so its forests are byte-identical.
 *
 * gbgp_pcst_phase runs a phase's projections.budget_search calls, each
 * search whole: every probe's costs, its forest, the leaf trim to
 * capacity, the support's score, the best-candidate rule and every exit
 * test. It replays the reference loop in tests/oracles.py: libm's log and
 * exp, NumPy's pairwise summation for the score, and the trim heap popped
 * on (prize, -v). The searches are spread over a few pthreads. Build with
 * -std=c99 -O2 -ffp-contract=off -pthread and without fast-math.
 *
 * gbgp_components labels the connected components of the engine's graph,
 * numbered by their lowest member.
 *
 * gbgp_objective evaluates objectives.ObjectiveSpec. gbgp_bcd_solve runs
 * the whole of solver.bcd_solve on it, and gbgp_rbcd_solve the whole of
 * solver.parallel_bcd_solve, drawing from the caller's NumPy bit
 * generator. All three replay the NumPy reference in tests/oracles.py to
 * the bit: pairwise sums, np.bincount's entry order, and gbgp_dot, which
 * sums as OpenBLAS's SkylakeX ddot does.
 *
 * The caller owns the inputs and the outputs: the graph's edge and CSR
 * arrays, costs, prizes and the arrays results are written to. Every call
 * allocates its own work space and frees it before returning, and the
 * inputs are only read, so calls share no state and may run at once on
 * several threads, on one graph as on many. The one exception is
 * gbgp_rbcd_solve's bit generator, which it advances: its caller holds
 * the generator's lock.
 */
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t idx;

#define EPS 1e-12

/*
 * An edge-heap entry (t, eid, ru, ver_ru, rv, ver_rv): the graph sorts
 * its edges by (u, v), so eid orders them as the reference's (u, v, eid)
 * does. Distinct entries never compare equal, so any correct min-heap
 * pops the reference's sequence.
 */
typedef struct {
    double t;
    idx a, b, c, d, e;
} entry;

/* a deactivation-heap slot: active root r, due at t, popped on (t, -minid) */
typedef struct {
    double t;
    idx minid, r;
} dslot;

typedef struct {
    double worth;
    idx minnode, nstart, ncount, estart;
} candidate;

typedef struct {
    idx u, v;
} pair;

/* a trim-heap entry, popped on (prize, -v) */
typedef struct {
    double p;
    idx v;
} leaf;

typedef struct {
    /* graph */
    const idx *eu, *ev, *indptr, *adj_eids;
    const double *cost, *prize;
    /* union-find and per-root cluster state */
    idx *parent, *active, *version, *minid, *size, *degsum;
    double *offset, *slack, *accum, *last_t;
    /* a root's members in incident-list order: head..tail along next */
    idx *head, *tail, *next;
    idx *stack, *mark;
    /* per edge: pushed by the seed loop, and joined two clusters */
    idx *eseen, *intree;
    /* pruning: the prized roots, their members in ascending order
       (members + mstart[r]), and per cluster, indexed by a member's rank */
    idx *roots, *mstart, *members, *loc, *par, *order, *pstack, *included;
    idx *astart, *nbr, *aeid;
    double *cost_up, *best;
    idx *stage_nodes;
    pair *stage_edges;
    candidate *cands;
    /* search: a probe's forest as forest() writes it and its costs, the
       forest's sorted nodes, each one's tree degree (-1 once trimmed) and
       the xor of its tree neighbours, the trim heap, and the support's
       prizes in order */
    idx *found, *cur, *deg, *nbrx;
    double *probe_cost;
    leaf *leaves;
    double *gather;
    /* the edge heap; hole: its top was taken and the slot not yet closed */
    entry *heap;
    idx heap_len, heap_cap, hole, active_count;
    /* the deactivation heap, one slot per active root, at dpos[root] */
    dslot *dheap;
    idx *dpos, dlen;
    /* the one allocation every array above except the edge heap is carved from */
    idx *work;
} state;

/* per-node int64 and double arrays that carve hands out */
#define NODE_INTS 24
#define NODE_DOUBLES 7

/* hand out the arrays of state from iw, the int64 ones first */
static void carve(state *s, idx n, idx m, idx *iw)
{
    idx **ints[NODE_INTS] = {
        &s->parent, &s->active, &s->version, &s->minid, &s->size, &s->degsum,
        &s->head, &s->tail, &s->next, &s->stack, &s->mark, &s->roots,
        &s->mstart, &s->members, &s->loc, &s->par, &s->order, &s->pstack,
        &s->included, &s->stage_nodes, &s->cur, &s->deg, &s->nbrx, &s->dpos,
    };
    double **doubles[NODE_DOUBLES] = {
        &s->offset, &s->slack, &s->accum, &s->last_t, &s->cost_up, &s->best, &s->gather,
    };
    int i;
    for (i = 0; i < NODE_INTS; i++, iw += n)
        *ints[i] = iw;
    s->astart = iw;
    iw += n + 1;
    s->nbr = iw;
    iw += 2 * n;
    s->aeid = iw;
    iw += 2 * n;
    s->stage_edges = (pair *)iw;
    iw += 2 * n;
    s->leaves = (leaf *)iw;
    iw += 4 * n;
    s->found = iw;
    iw += 4 * n;
    s->cands = (candidate *)iw;
    iw += 5 * n;
    s->dheap = (dslot *)iw;
    iw += 3 * n;
    s->eseen = iw;
    iw += m;
    s->intree = iw;
    iw += m;
    for (i = 0; i < NODE_DOUBLES; i++, iw += n)
        *doubles[i] = (double *)iw;
    s->probe_cost = (double *)iw;
}

static int less(const entry *x, const entry *y)
{
    if (x->t != y->t) return x->t < y->t;
    if (x->a != y->a) return x->a < y->a;
    if (x->b != y->b) return x->b < y->b;
    if (x->c != y->c) return x->c < y->c;
    if (x->d != y->d) return x->d < y->d;
    return x->e < y->e;
}

/* sift item down from the root of the edge heap */
static void sift_root(state *s, entry item)
{
    idx i = 0, child, len = s->heap_len;
    while ((child = 2 * i + 1) < len) {
        if (child + 1 < len && less(&s->heap[child + 1], &s->heap[child])) child++;
        if (!less(&s->heap[child], &item)) break;
        s->heap[i] = s->heap[child];
        i = child;
    }
    s->heap[i] = item;
}

/* a push right after a take fills the top's slot: one sift, not two */
static int push(state *s, entry item)
{
    idx i, up;
    if (s->hole) {
        s->hole = 0;
        sift_root(s, item);
        return 0;
    }
    if (s->heap_len == s->heap_cap) {
        idx cap = 2 * s->heap_cap + 16;
        entry *grown = realloc(s->heap, (size_t)cap * sizeof(entry));
        if (!grown) return -1;
        s->heap = grown;
        s->heap_cap = cap;
    }
    i = s->heap_len++;
    while (i > 0) {
        up = (i - 1) / 2;
        if (!less(&item, &s->heap[up])) break;
        s->heap[i] = s->heap[up];
        i = up;
    }
    s->heap[i] = item;
    return 0;
}

/* close the slot a take left open: the last entry sifts down into it */
static void close_hole(state *s)
{
    s->hole = 0;
    if (--s->heap_len > 0) sift_root(s, s->heap[s->heap_len]);
}

/* higher minid first on equal times, so low ids survive */
static int dless(const dslot *x, const dslot *y)
{
    if (x->t != y->t) return x->t < y->t;
    return x->minid > y->minid;
}

/* put item at slot i of the deactivation heap, sifting it up or down */
static void dplace(state *s, idx i, dslot item)
{
    idx up, child;
    while (i > 0 && dless(&item, &s->dheap[up = (i - 1) / 2])) {
        s->dheap[i] = s->dheap[up];
        s->dpos[s->dheap[i].r] = i;
        i = up;
    }
    while ((child = 2 * i + 1) < s->dlen) {
        if (child + 1 < s->dlen && dless(&s->dheap[child + 1], &s->dheap[child])) child++;
        if (!dless(&s->dheap[child], &item)) break;
        s->dheap[i] = s->dheap[child];
        s->dpos[s->dheap[i].r] = i;
        i = child;
    }
    s->dheap[i] = item;
    s->dpos[item.r] = i;
}

/* schedule active root r to deactivate at t */
static void dinsert(state *s, idx r, double t)
{
    dplace(s, s->dlen++, (dslot){t, s->minid[r], r});
}

/* drop the slot of active root r */
static void dremove(state *s, idx r)
{
    idx i = s->dpos[r];
    if (i < --s->dlen) dplace(s, i, s->dheap[s->dlen]);
}

/* root of u; path compression folds offsets into direct-to-root weights */
static idx find(state *s, idx u)
{
    idx r = u, sp = 0, x;
    double agg = 0.0;
    while (s->parent[r] != r) {
        s->stack[sp++] = r;
        r = s->parent[r];
    }
    while (sp > 0) {
        x = s->stack[--sp];
        agg += s->offset[x];
        s->parent[x] = r;
        s->offset[x] = agg;
    }
    return r;
}

/* the fast path skips find for a root or a child of one */
static idx root_of(state *s, idx u)
{
    idx r = s->parent[u];
    return s->parent[r] != r ? find(s, u) : r;
}

/* grow an active root's moat up to now */
static void settle(state *s, idx r, double now)
{
    double dt = now - s->last_t[r], rest;
    if (dt > 0) {
        s->last_t[r] = now;
        if (s->active[r]) {
            s->accum[r] += dt;
            rest = s->slack[r] - dt;
            s->slack[r] = rest < 0 ? 0.0 : rest;
        }
    }
}

/* schedule the time edge eid goes tight */
static int push_edge(state *s, idx eid, double now)
{
    idx u = s->eu[eid], v = s->ev[eid], ru, rv, rate;
    double filled, remaining, t;
    ru = root_of(s, u);
    rv = root_of(s, v);
    if (ru == rv) return 0;
    settle(s, ru, now);
    settle(s, rv, now);
    filled = (u != ru ? s->offset[u] + s->accum[ru] : s->accum[ru])
           + (v != rv ? s->offset[v] + s->accum[rv] : s->accum[rv]);
    remaining = s->cost[eid] - filled;
    rate = s->active[ru] + s->active[rv];
    if (remaining <= EPS)
        t = now;
    else if (rate == 0)
        return 0;
    else
        t = now + remaining / (double)rate;
    return push(s, (entry){t, eid, ru, s->version[ru], rv, s->version[rv]});
}

/* push every edge incident to the members first..last of one chain */
static int push_chain(state *s, idx first, idx last, double now)
{
    idx x = first, j;
    for (;;) {
        for (j = s->indptr[x]; j < s->indptr[x + 1]; j++)
            if (push_edge(s, s->adj_eids[j], now)) return -1;
        if (x == last) return 0;
        x = s->next[x];
    }
}

/* merge the clusters of roots ru and rv along edge eid; both leave the
   deactivation heap, and the keeper goes back in if still active */
static int merge(state *s, idx eid, idx ru, idx rv, double now)
{
    idx was_active, result_active, keeper, absorbed;
    idx uh = s->head[ru], ut = s->tail[ru], vh = s->head[rv], vt = s->tail[rv];
    int resched_u, resched_v;
    double merged_slack;

    if (s->active[ru]) dremove(s, ru);
    if (s->active[rv]) dremove(s, rv);
    settle(s, ru, now);
    settle(s, rv, now);
    was_active = s->active[ru] + s->active[rv];
    merged_slack = s->slack[ru] + s->slack[rv];
    result_active = merged_slack > EPS;
    if (s->size[ru] >= s->size[rv]) {
        keeper = ru;
        absorbed = rv;
    } else {
        keeper = rv;
        absorbed = ru;
    }
    /* sides that were inactive speed up once the merged cluster grows */
    resched_u = result_active && !s->active[ru];
    resched_v = result_active && !s->active[rv];

    s->version[ru]++;
    s->version[rv]++;
    s->parent[absorbed] = keeper;
    s->offset[absorbed] = s->accum[absorbed] - s->accum[keeper];
    s->size[keeper] += s->size[absorbed];
    s->intree[eid] = 1;
    /* the longer incident list absorbs the shorter one */
    if (s->degsum[ru] < s->degsum[rv]) {
        s->next[vt] = uh;
        s->head[keeper] = vh;
        s->tail[keeper] = ut;
    } else {
        s->next[ut] = vh;
        s->head[keeper] = uh;
        s->tail[keeper] = vt;
    }
    s->degsum[keeper] = s->degsum[ru] + s->degsum[rv];
    if (s->minid[absorbed] < s->minid[keeper]) s->minid[keeper] = s->minid[absorbed];
    s->slack[keeper] = merged_slack;
    s->active[keeper] = result_active;
    s->last_t[keeper] = now;
    s->active_count += result_active - was_active;

    if (result_active) {
        dinsert(s, keeper, now + merged_slack);
        if (resched_u && push_chain(s, uh, ut, now)) return -1;
        if (resched_v && push_chain(s, vh, vt, now)) return -1;
    }
    return 0;
}

/* best net worth first; distinct clusters never share their lowest node */
static int cmp_candidate(const void *x, const void *y)
{
    const candidate *p = x, *q = y;
    if (p->worth != q->worth) return p->worth < q->worth ? 1 : -1;
    return (p->minnode > q->minnode) - (p->minnode < q->minnode);
}

/*
 * Best-net-worth connected subtree of the tree on the k ascending nodes
 * mem, ties to the lowest node id. Writes the sorted kept nodes at
 * stage_nodes + nstart and the sorted kept edges at stage_edges + estart,
 * and fills in *out.
 */
static void strong_prune(state *s, const idx *mem, idx k, idx nstart, idx estart,
                         candidate *out)
{
    idx i, j, e, x, u, v, sp, top, count, kept, edges;
    idx *par = s->par, *order = s->order, *stack = s->pstack, *included = s->included;
    idx *astart = s->astart, *nbr = s->nbr, *aeid = s->aeid;
    double *best = s->best, *cost_up = s->cost_up, margin;

    for (i = 0; i < k; i++) {
        s->loc[mem[i]] = i;
        par[i] = -1;
        included[i] = 0;
        best[i] = s->prize[mem[i]];
    }
    /* tree adjacency by rank; the CSR lists neighbors ascending, so each
       node's tree neighbors come out ascending */
    for (i = 0, j = 0; i < k; i++) {
        astart[i] = j;
        x = mem[i];
        for (u = s->indptr[x]; u < s->indptr[x + 1]; u++) {
            e = s->adj_eids[u];
            if (s->intree[e]) {
                nbr[j] = s->loc[s->eu[e] == x ? s->ev[e] : s->eu[e]];
                aeid[j++] = e;
            }
        }
    }
    astart[k] = j;

    /* marked on push: the order the reference's stack walk records */
    par[0] = 0;
    order[0] = 0;
    count = 1;
    stack[0] = 0;
    sp = 1;
    while (sp > 0) {
        u = stack[--sp];
        for (j = astart[u]; j < astart[u + 1]; j++) {
            v = nbr[j];
            if (par[v] < 0) {
                par[v] = u;
                cost_up[v] = s->cost[aeid[j]];
                order[count++] = v;
                stack[sp++] = v;
            }
        }
    }
    for (i = count - 1; i > 0; i--) {
        u = order[i];
        margin = best[u] - cost_up[u];
        if (margin > 0) best[par[u]] += margin;
    }
    top = 0;
    for (i = 1; i < k; i++)
        if (best[i] > best[top]) top = i;

    included[top] = 1;
    stack[0] = top;
    sp = 1;
    while (sp > 0) {
        u = stack[--sp];
        for (j = astart[u]; j < astart[u + 1]; j++) {
            v = nbr[j];
            if (par[v] == u && !included[v] && best[v] - s->cost[aeid[j]] > 0) {
                included[v] = 1;
                stack[sp++] = v;
            }
        }
    }
    /* a tree edge between two kept nodes is a kept edge; walking ranks
       and their neighbors upwards lists them sorted */
    for (i = 0, kept = 0, edges = 0; i < k; i++) {
        if (!included[i]) continue;
        s->stage_nodes[nstart + kept++] = mem[i];
        for (j = astart[i]; j < astart[i + 1]; j++) {
            if (nbr[j] > i && included[nbr[j]]) {
                s->stage_edges[estart + edges].u = mem[i];
                s->stage_edges[estart + edges++].v = mem[nbr[j]];
            }
        }
    }
    out->worth = best[top];
    out->minnode = s->stage_nodes[nstart];
    out->nstart = nstart;
    out->ncount = kept;
    out->estart = estart;
}

/*
 * Solve one prize-collecting Steiner forest on the costs and prizes s
 * points to. Writes the best num_trees trees to out: out[0..k) their
 * node counts, out[n..) their sorted node lists back to back, out[2n..)
 * their sorted edges as (u, v) pairs back to back (node count - 1 edges
 * each). Returns k, or -1 when memory ran out. The edge heap stays
 * allocated in s->heap for the next call on s.
 *
 * The reference pops edges and deactivations from one heap. Here the
 * deactivation heap holds each active root's one live deactivation; the
 * reference's others change nothing when popped. The loop takes the
 * lesser top, the edge on equal times as the reference's tuples order
 * them, so the events come in the reference's order.
 */
static idx forest(state *s, idx n, idx m, idx num_trees, idx *out)
{
    entry item;
    candidate *cands = s->cands;
    const idx *indptr = s->indptr, *adj_eids = s->adj_eids, *eu = s->eu, *ev = s->ev;
    const double *prize = s->prize;
    idx u, r, j, eid, ncands = 0, nstage = 0, estage = 0, nroots = 0, pos = 0;
    idx trees, i, written = 0, ewritten = 0;
    idx *out_nodes = out + n;
    pair *out_edges = (pair *)(out + 2 * n);
    double now, dt;

    s->heap_len = s->hole = s->active_count = s->dlen = 0;
    for (u = 0; u < n; u++) {
        s->parent[u] = u;
        s->offset[u] = 0.0;
        s->active[u] = 0;
        s->slack[u] = 0.0;
        s->accum[u] = 0.0;
        s->last_t[u] = 0.0;
        s->version[u] = 0;
        s->minid[u] = u;
        s->size[u] = 1;
        s->degsum[u] = indptr[u + 1] - indptr[u];
        s->head[u] = s->tail[u] = u;
        s->next[u] = -1;
        s->mark[u] = 0;
    }
    memset(s->eseen, 0, (size_t)m * sizeof(idx));
    memset(s->intree, 0, (size_t)m * sizeof(idx));

    for (u = 0; u < n; u++) {
        if (!(prize[u] > 0)) continue;
        s->active[u] = 1;
        s->slack[u] = prize[u];
        s->active_count++;
        dinsert(s, u, 0.0 + prize[u]);
    }
    for (u = 0; u < n; u++) {
        if (!(prize[u] > 0)) continue;
        for (j = indptr[u]; j < indptr[u + 1]; j++) {
            eid = adj_eids[j];
            if (!s->eseen[eid]) {
                s->eseen[eid] = 1;
                if (push_edge(s, eid, 0.0)) return -1;
            }
        }
    }

    while (s->active_count > 0) {
        if (s->hole) close_hole(s);
        if (s->heap_len == 0 || s->dheap[0].t < s->heap[0].t) {
            r = s->dheap[0].r;
            now = s->dheap[0].t;
            dremove(s, r);
            /* settle r at now; its slack is zeroed below */
            dt = now - s->last_t[r];
            if (dt > 0) {
                s->accum[r] += dt;
                s->last_t[r] = now;
            }
            s->active[r] = 0;
            s->slack[r] = 0.0;
            s->version[r]++;
            s->active_count--;
            continue;
        }
        /* take the top; a push before the next round fills its slot */
        item = s->heap[0];
        s->hole = 1;
        now = item.t;
        eid = item.a;
        {
            idx ru = root_of(s, eu[eid]), rv = root_of(s, ev[eid]);
            if (ru == rv) continue;
            if (ru != item.b || rv != item.d || s->version[ru] != item.c
                    || s->version[rv] != item.e) {
                if (push_edge(s, eid, now)) return -1;
                continue;
            }
            if (merge(s, eid, ru, rv, now)) return -1;
        }
    }

    /* prune the prized nodes' final clusters; every cluster that merged
       holds one, and a zero-prize singleton is never worth anything */
    for (u = 0; u < n; u++) {
        if (!(prize[u] > 0)) continue;
        r = find(s, u);
        if (s->mark[r]) continue;
        s->mark[r] = 1;
        s->roots[nroots++] = r;
        s->mstart[r] = pos;
        pos += s->size[r];
    }
    /* one pass lists every such cluster's members in ascending order */
    for (u = 0; u < n; u++) {
        r = find(s, u);
        if (s->mark[r]) s->members[s->mstart[r]++] = u;
    }
    for (i = 0; i < nroots; i++) {
        r = s->roots[i];
        if (s->size[r] == 1) {
            /* a prized node that never merged is its own best subtree */
            if (prize[r] > EPS) {
                s->stage_nodes[nstage] = r;
                cands[ncands].worth = prize[r];
                cands[ncands].minnode = r;
                cands[ncands].nstart = nstage++;
                cands[ncands].ncount = 1;
                cands[ncands++].estart = estage;
            }
            continue;
        }
        strong_prune(s, s->members + s->mstart[r] - s->size[r], s->size[r], nstage, estage,
                     &cands[ncands]);
        if (cands[ncands].worth > EPS) {
            nstage += cands[ncands].ncount;
            estage += cands[ncands].ncount - 1;
            ncands++;
        }
    }
    qsort(cands, (size_t)ncands, sizeof(candidate), cmp_candidate);
    trees = ncands < num_trees ? ncands : num_trees;
    for (i = 0; i < trees; i++) {
        out[i] = cands[i].ncount;
        memcpy(out_nodes + written, s->stage_nodes + cands[i].nstart,
               (size_t)cands[i].ncount * sizeof(idx));
        memcpy(out_edges + ewritten, s->stage_edges + cands[i].estart,
               (size_t)(cands[i].ncount - 1) * sizeof(pair));
        written += cands[i].ncount;
        ewritten += cands[i].ncount - 1;
    }
    return trees;
}

/*
 * Point s at the graph, the costs and the prizes, and allocate the words
 * carve() hands out: the per-node arrays, astart (n + 1), nbr, aeid and
 * stage_edges (2n each), the trim heap (2n leaves of two words), found
 * (4n), cands (n of five words), the deactivation heap (n slots of three
 * words), eseen, intree and probe_cost (m each).
 * Never empty, so a null s->work means out of memory: returns -1. The
 * caller frees s->work and s->heap, which forest() grows.
 */
static int init(state *s, idx n, idx m, const idx *eu, const idx *ev, const idx *indptr,
                const idx *adj_eids, const double *cost, const double *prize)
{
    idx words = (NODE_INTS + NODE_DOUBLES) * n + (n + 1) + 3 * (2 * n) + 4 * n + 4 * n + 5 * n
                + 3 * n + 3 * m;
    s->eu = eu;
    s->ev = ev;
    s->indptr = indptr;
    s->adj_eids = adj_eids;
    s->cost = cost;
    s->prize = prize;
    s->heap = NULL;
    s->heap_cap = 0;
    s->work = malloc((size_t)words * sizeof(idx));
    if (!s->work) return -1;
    carve(s, n, m, s->work);
    return 0;
}

/* one PcstEngine.solve: forest() on cost and prize; see there */
idx gbgp_pcst_solve(idx n, idx m, const idx *eu, const idx *ev, const idx *indptr,
                    const idx *adj_eids, const double *cost, const double *prize,
                    idx num_trees, idx *out)
{
    state s;
    idx trees = -1;
    if (init(&s, n, m, eu, ev, indptr, adj_eids, cost, prize) == 0)
        trees = forest(&s, n, m, num_trees, out);
    free(s.heap);
    free(s.work);
    return trees;
}

static int cmp_idx(const void *x, const void *y)
{
    idx a = *(const idx *)x, b = *(const idx *)y;
    return (a > b) - (a < b);
}

/* (prize, -v) order: the lower prize first, then the higher node id */
static int leaf_less(const leaf *x, const leaf *y)
{
    if (x->p != y->p) return x->p < y->p;
    return x->v > y->v;
}

static void leaf_push(leaf *heap, idx *len, double p, idx v)
{
    idx i = (*len)++, up;
    leaf item;
    item.p = p;
    item.v = v;
    while (i > 0) {
        up = (i - 1) / 2;
        if (!leaf_less(&item, &heap[up])) break;
        heap[i] = heap[up];
        i = up;
    }
    heap[i] = item;
}

static idx leaf_pop(leaf *heap, idx *len)
{
    leaf top = heap[0], last = heap[--*len];
    idx i = 0, child, n = *len;
    while ((child = 2 * i + 1) < n) {
        if (child + 1 < n && leaf_less(&heap[child + 1], &heap[child])) child++;
        if (!leaf_less(&heap[child], &last)) break;
        heap[i] = heap[child];
        i = child;
    }
    if (n > 0) heap[i] = last;
    return top.v;
}

/*
 * Drop the lowest-prize leaves of the forest in out (trees trees, total
 * nodes) until at most capacity nodes remain, ties toward the higher
 * node id; removing a leaf keeps every tree connected. Compacts the
 * sorted s->cur to the survivors and returns their number.
 */
static idx trim(state *s, idx n, const idx *out, idx trees, idx total, idx capacity)
{
    const idx *nodes = out + n;
    const pair *edges = (const pair *)(out + 2 * n);
    idx *deg = s->deg, *nbrx = s->nbrx, *cur = s->cur;
    idx i, u, v, count = total, len = 0, kept = 0;

    for (i = 0; i < total; i++) {
        deg[nodes[i]] = 0;
        nbrx[nodes[i]] = 0;
    }
    for (i = 0; i < total - trees; i++) {
        deg[edges[i].u]++;
        deg[edges[i].v]++;
        nbrx[edges[i].u] ^= edges[i].v;
        nbrx[edges[i].v] ^= edges[i].u;
    }
    for (i = 0; i < total; i++)
        if (deg[nodes[i]] <= 1) leaf_push(s->leaves, &len, s->prize[nodes[i]], nodes[i]);
    while (count > capacity && len > 0) {
        v = leaf_pop(s->leaves, &len);
        if (deg[v] < 0 || deg[v] > 1) continue;
        /* a leaf's one neighbour is the xor of its neighbours */
        if (deg[v] == 1) {
            u = nbrx[v];
            deg[u]--;
            nbrx[u] ^= v;
            if (deg[u] <= 1) leaf_push(s->leaves, &len, s->prize[u], u);
        }
        deg[v] = -1;
        count--;
    }
    for (i = 0; i < total; i++)
        if (deg[cur[i]] >= 0) cur[kept++] = cur[i];
    return kept;
}

/*
 * NumPy's pairwise summation of a contiguous double array, as its add
 * reduction runs it: plain below 8 entries, 8 interleaved partial sums
 * up to 128, and above that two halves split at a multiple of 8.
 */
static double pairwise_sum(const double *a, idx n)
{
    double r[8], res = 0.0;
    idx i, n2;
    int j;
    if (n < 8) {
        for (i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        for (j = 0; j < 8; j++) r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (j = 0; j < 8; j++) r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/*
 * One budget search of a phase: the engine's graph, the search's inputs,
 * and the slots search() writes its results to.
 */
typedef struct {
    idx n, m;
    const idx *eu, *ev, *indptr, *adj_eids;
    const double *weight, *prize;
    idx num_trees, budget, capacity, has_warm;
    double warm, total, exit_score;
    idx *best;
    idx size, probes;
    double mult;
} search_task;

/*
 * One budget search: bisect log(multiplier) over [log(low), log(high)],
 * the first probe at the warm start clamped into [low, high] when
 * has_warm is set. Each probe solves the forest on weight * multiplier
 * and num_trees trees, trims an oversized forest to capacity, and scores
 * the support by its prize sum. The best support is the least
 * (-score, size, nodes), kept with the multiplier of the probe that first
 * found it. The search ends once a forest of at least budget nodes fits
 * the capacity, or its score reaches total - 1e-12, or the best score
 * reaches exit_score, or the interval is below 1e-2, or after max_probes
 * probes.
 *
 * Writes the best support, sorted, to t->best, its multiplier to t->mult,
 * the probe count to t->probes, and the support's size to t->size (0 when
 * no probe found one); t->size is -1 when memory ran out and -2 when a
 * probe's cost is not positive and finite.
 */
static void search(search_task *t, idx max_probes, double low, double high)
{
    state s;
    idx n = t->n, m = t->m, capacity = t->capacity, *best = t->best;
    const double *weight = t->weight, *prize = t->prize;
    idx probe, e, i, trees, count, len, best_len = -1, status = -1, oversized, better, *out;
    double lo = log(low), hi = log(high), mid, mult, score, best_score = 0.0, best_mult = 0.0;
    double *cost;

    if (init(&s, n, m, t->eu, t->ev, t->indptr, t->adj_eids, NULL, prize))
        goto done;
    out = s.found;
    s.cost = cost = s.probe_cost;
    for (probe = 0; probe < max_probes; probe++) {
        if (probe == 0 && t->has_warm) {
            /* min(max(warm, low), high) */
            mid = t->warm;
            if (low > mid) mid = low;
            if (high < mid) mid = high;
            mid = log(mid);
        } else {
            mid = 0.5 * (lo + hi);
        }
        mult = exp(mid);
        for (e = 0; e < m; e++) {
            cost[e] = weight[e] * mult;
            if (!(cost[e] > 0 && isfinite(cost[e]))) {
                status = -2;
                goto done;
            }
        }
        trees = forest(&s, n, m, t->num_trees, out);
        if (trees < 0)
            goto done;
        for (i = 0, count = 0; i < trees; i++) count += out[i];
        memcpy(s.cur, out + n, (size_t)count * sizeof(idx));
        qsort(s.cur, (size_t)count, sizeof(idx), cmp_idx);
        oversized = count > capacity;
        /* oversized forests still carry a usable feasible candidate */
        len = oversized ? trim(&s, n, out, trees, count, capacity) : count;
        for (i = 0; i < len; i++) s.gather[i] = prize[s.cur[i]];
        score = len ? pairwise_sum(s.gather, len) : 0.0;

        if (best_len < 0 || score != best_score) {
            better = best_len < 0 || score > best_score;
        } else if (len != best_len) {
            better = len < best_len;
        } else {
            for (i = 0; i < len && s.cur[i] == best[i]; i++)
                ;
            better = i < len && s.cur[i] < best[i];
        }
        if (better) {
            memcpy(best, s.cur, (size_t)len * sizeof(idx));
            best_len = len;
            best_score = score;
            best_mult = mult;
        }

        if (oversized) {
            lo = hi - 1e-9 < mid ? hi - 1e-9 : mid;
        } else if (count >= t->budget || score >= t->total - 1e-12) {
            probe++;
            break;
        } else {
            hi = lo + 1e-9 > mid ? lo + 1e-9 : mid;
        }
        if (best_score >= t->exit_score || hi - lo < 1e-2) {
            probe++;
            break;
        }
    }
    t->probes = probe;
    t->mult = best_mult;
    status = best_len;
done:
    free(s.heap);
    free(s.work);
    t->size = status;
}

typedef struct {
    search_task *tasks;
    idx count, next, max_probes;
    double low, high;
} phase;

/* run the phase's tasks, each taken off the shared counter, until none is left */
static void *run_tasks(void *arg)
{
    phase *p = arg;
    idx i;
    while ((i = __atomic_fetch_add(&p->next, 1, __ATOMIC_RELAXED)) < p->count)
        search(&p->tasks[i], p->max_probes, p->low, p->high);
    return NULL;
}

/*
 * Run count budget searches on the calling thread and up to threads - 1
 * more. Each search writes only to its own task, so the results do not
 * depend on which thread ran it. No thread is created when threads <= 1;
 * when memory for the thread ids runs out or pthread_create fails, the
 * threads already running finish the work.
 */
void gbgp_pcst_phase(search_task *tasks, idx count, idx threads, idx max_probes, double low,
                     double high)
{
    phase p = {tasks, count, 0, max_probes, low, high};
    pthread_t *ids = NULL;
    idx started = 0, i;

    if (threads > count)
        threads = count;
    if (threads > 1)
        ids = malloc((size_t)(threads - 1) * sizeof(pthread_t));
    if (ids)
        while (started < threads - 1 && pthread_create(&ids[started], NULL, run_tasks, &p) == 0)
            started++;
    run_tasks(&p);
    for (i = 0; i < started; i++)
        pthread_join(ids[i], NULL);
    free(ids);
}

/*
 * Label the connected components of the graph on n nodes and the m edges
 * eu/ev: labels[u] is the rank of u's component by its lowest member, the
 * order graph.connected_components returns. A union-find in labels itself
 * links each root to the lower id, so every node's parent is at most the
 * node and a root is its component's lowest member. Returns the number of
 * components.
 */
idx gbgp_components(idx n, idx m, const idx *eu, const idx *ev, idx *labels)
{
    idx u, e, r, q, count = 0;
    for (u = 0; u < n; u++) labels[u] = u;
    for (e = 0; e < m; e++) {
        /* roots by path halving */
        for (r = eu[e]; labels[r] != r; r = labels[r]) labels[r] = labels[labels[r]];
        for (q = ev[e]; labels[q] != q; q = labels[q]) labels[q] = labels[labels[q]];
        if (r < q) labels[q] = r;
        else labels[r] = q;
    }
    /* a lower parent already holds its component's label */
    for (u = 0; u < n; u++) labels[u] = labels[u] == u ? count++ : labels[labels[u]];
    return count;
}

/*
 * x . y over n entries as NumPy's x @ y computes it on OpenBLAS 0.3.31's
 * SkylakeX ddot: the first n & -16 entries in 4 x 8 fused multiply-add
 * lanes over blocks of 32, each folded to 4 lanes (lane j plus lane j + 4)
 * and continued over blocks of 16; the lanes summed ((a0 + a1) + a2) + a3
 * and then (l0 + l2) + (l1 + l3); the rest added one fma at a time.
 * fma() rounds once wherever it runs, since the kernel builds with
 * -ffp-contract=off; on an x86-64 CPU with FMA the copy built for that
 * target runs it as one instruction instead of a libm call.
 */
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
static inline double dot_body(const double *x, const double *y, idx n)
{
    double acc[4][8] = {{0.0}}, lane[4][4], s[4], res = 0.0;
    idx i = 0, n16 = n & -16, n32 = n & -32;
    int a, j;
    if (n16 > 0) {
        for (; i < n32; i += 32)
            for (a = 0; a < 4; a++)
                for (j = 0; j < 8; j++)
                    acc[a][j] = fma(x[i + 8 * a + j], y[i + 8 * a + j], acc[a][j]);
        for (a = 0; a < 4; a++)
            for (j = 0; j < 4; j++)
                lane[a][j] = acc[a][j] + acc[a][j + 4];
        for (; i < n16; i += 16)
            for (a = 0; a < 4; a++)
                for (j = 0; j < 4; j++)
                    lane[a][j] = fma(x[i + 4 * a + j], y[i + 4 * a + j], lane[a][j]);
        for (j = 0; j < 4; j++)
            s[j] = ((lane[0][j] + lane[1][j]) + lane[2][j]) + lane[3][j];
        res = (s[0] + s[2]) + (s[1] + s[3]);
    }
    for (; i < n; i++)
        res = fma(y[i], x[i], res);
    return res;
}

#if defined(__GNUC__) && defined(__x86_64__)
#define DOT_FMA 1
__attribute__((target("fma")))
static double dot_fma(const double *x, const double *y, idx n)
{
    return dot_body(x, y, n);
}
#endif

double gbgp_dot(const double *x, const double *y, idx n)
{
#ifdef DOT_FMA
    if (__builtin_cpu_supports("fma"))
        return dot_fma(x, y, n);
#endif
    return dot_body(x, y, n);
}

/*
 * One objectives.ObjectiveSpec, filled in by its constructor. Block k's
 * entries are [bstart[k], bstart[k + 1]) of nodes (its global ids) and
 * signal. kind is 0 for ems, 1 for temporal and 2 for non. For non, the
 * ncut cut edges are eu and ev; node v's cut neighbours, ascending, are
 * entries [cut_indptr[v], cut_indptr[v + 1]) of cut_nodes (the graph's
 * CSR adjacency less each node's same-block neighbours); and the ids of
 * the cut edges that touch block k, in edge order, are entries
 * [cstart[k], cstart[k + 1]) of cid.
 */
typedef struct {
    idx num_blocks, kind, ncut;
    double lam;
    const idx *bstart, *nodes;
    const double *signal;
    const idx *cut_indptr, *cut_nodes, *cstart, *cid, *eu, *ev;
} objective;

#define EPS_DENOMINATOR 1e-6
#define STEP_FLOOR 1e-12

/* -(c.x)^2 / max(sum x, eps) + 0.5 ||x||^2, the sum pairwise as x.sum() */
static double ems_value(const double *c, const double *x, idx len)
{
    double total = pairwise_sum(x, len), denom = EPS_DENOMINATOR > total ? EPS_DENOMINATOR : total;
    double cx = gbgp_dot(c, x, len), quad = 0.5 * gbgp_dot(x, x, len);
    return -(cx * cx) / denom + quad;
}

/* the gradient of ems_value, elementwise in NumPy's order */
static void ems_gradient(const double *c, const double *x, idx len, double *g)
{
    double total = pairwise_sum(x, len), denom = EPS_DENOMINATOR > total ? EPS_DENOMINATOR : total;
    double cx = gbgp_dot(c, x, len), twice = 2.0 * cx, sq = denom * denom;
    /* below the guard the denominator is constant: no d(sum)/dx term */
    double d_denom = total >= EPS_DENOMINATOR ? cx * cx : 0.0;
    idx i;
    for (i = 0; i < len; i++)
        g[i] = -(twice * c[i] * denom - d_denom) / sq + x[i];
}

/* w[i] = x[a[i]] - x[b[i]] */
static void diff(const double *x, const idx *a, const idx *b, idx len, double *w)
{
    idx i;
    for (i = 0; i < len; i++)
        w[i] = x[a[i]] - x[b[i]];
}

static idx block_len(const objective *o, idx k)
{
    return o->bstart[k + 1] - o->bstart[k];
}

static const idx *block_ids(const objective *o, idx k)
{
    return o->nodes + o->bstart[k];
}

/* the largest block: the size of a block's work vectors */
static idx max_block(const objective *o)
{
    idx k, most = 0;
    for (k = 0; k < o->num_blocks; k++)
        if (block_len(o, k) > most) most = block_len(o, k);
    return most;
}

/* doubles of scratch an objective call needs: a block or every cut edge */
static idx scratch_len(const objective *o)
{
    idx most = max_block(o);
    return (o->ncut > most ? o->ncut : most) + 1;
}

/* lam is 0, or ems: F is the sum of the blocks' ems terms */
static int decoupled(const objective *o)
{
    return o->lam == 0.0 || o->kind == 0;
}

static double block_ems(const objective *o, const double *x, idx k, double *w)
{
    idx i, len = block_len(o, k);
    const idx *nk = block_ids(o, k);
    for (i = 0; i < len; i++)
        w[i] = x[nk[i]];
    return ems_value(o->signal + o->bstart[k], w, len);
}

/* ObjectiveSpec.local_value: the terms of F that depend on block k */
static double local_value(const objective *o, const double *x, idx k, double *w)
{
    idx len = block_len(o, k), cnt, j;
    const idx *cid;
    double total = block_ems(o, x, k, w);
    if (decoupled(o))
        return total;
    if (o->kind == 1) {
        for (j = k - 1; j <= k + 1; j += 2) {
            if (j < 0 || j >= o->num_blocks) continue;
            diff(x, block_ids(o, k), block_ids(o, j), len, w);
            total += o->lam * gbgp_dot(w, w, len);
        }
        return total;
    }
    cid = o->cid + o->cstart[k];
    cnt = o->cstart[k + 1] - o->cstart[k];
    if (cnt) {
        for (j = 0; j < cnt; j++)
            w[j] = x[o->eu[cid[j]]] - x[o->ev[cid[j]]];
        total += o->lam * gbgp_dot(w, w, cnt);
    }
    return total;
}

/* ObjectiveSpec.block_gradient: dF/dx on block k, into g */
static void block_gradient(const objective *o, const double *x, idx k, double *g, double *w)
{
    idx i, j, v, end, len = block_len(o, k);
    const idx *nk = block_ids(o, k), *nj;
    double twice_lam = 2.0 * o->lam, row;
    for (i = 0; i < len; i++)
        w[i] = x[nk[i]];
    ems_gradient(o->signal + o->bstart[k], w, len, g);
    if (decoupled(o))
        return;
    if (o->kind == 1) {
        for (j = k - 1; j <= k + 1; j += 2) {
            if (j < 0 || j >= o->num_blocks) continue;
            nj = block_ids(o, j);
            for (i = 0; i < len; i++)
                g[i] = g[i] + twice_lam * (x[nk[i]] - x[nj[i]]);
        }
        return;
    }
    if (!o->ncut)
        return;
    /* row v of the cut Laplacian summed from 0.0 in column order, as
       np.bincount sums its CSR-ordered entries: the cut neighbours below
       v, the degree on the diagonal, then those above; a row without cut
       neighbours adds 0.0, which clears a -0.0 */
    for (i = 0; i < len; i++) {
        v = nk[i];
        end = o->cut_indptr[v + 1];
        row = 0.0;
        for (j = o->cut_indptr[v]; j < end && o->cut_nodes[j] < v; j++)
            row += -1.0 * x[o->cut_nodes[j]];
        if (end > o->cut_indptr[v])
            row += (double)(end - o->cut_indptr[v]) * x[v];
        for (; j < end; j++)
            row += -1.0 * x[o->cut_nodes[j]];
        g[i] = g[i] + twice_lam * row;
    }
}

/* ObjectiveSpec.coupling_value */
static double coupling_value(const objective *o, const double *x, double *w)
{
    idx k, j, len;
    double total = 0.0;
    if (decoupled(o))
        return 0.0;
    if (o->kind == 1) {
        for (k = 1; k < o->num_blocks; k++) {
            len = block_len(o, k);
            diff(x, block_ids(o, k), block_ids(o, k - 1), len, w);
            total += gbgp_dot(w, w, len);
        }
        return o->lam * total;
    }
    /* np.square(diff).sum(): pairwise, not a dot */
    diff(x, o->eu, o->ev, o->ncut, w);
    for (j = 0; j < o->ncut; j++)
        w[j] = w[j] * w[j];
    return o->lam * pairwise_sum(w, o->ncut);
}

static double value(const objective *o, const double *x, double *w)
{
    idx k;
    double total = 0.0;
    for (k = 0; k < o->num_blocks; k++)
        total += block_ems(o, x, k, w);
    return total + coupling_value(o, x, w);
}

/*
 * The objective's entry points for ObjectiveSpec: part 0 is value, 1
 * coupling_value, 2 local_value of block k, 3 block_gradient of block k,
 * and 4 every block's gradient, back to back in bstart order (k unused),
 * written to out (one double for a value). Returns 0, or -1 when memory
 * ran out.
 */
idx gbgp_objective(const objective *o, const double *x, idx part, idx k, double *out)
{
    double *w = malloc((size_t)scratch_len(o) * sizeof(double));
    if (!w) return -1;
    if (part == 0)
        *out = value(o, x, w);
    else if (part == 1)
        *out = coupling_value(o, x, w);
    else if (part == 2)
        *out = local_value(o, x, k, w);
    else if (part == 3)
        block_gradient(o, x, k, out, w);
    else
        for (k = 0; k < o->num_blocks; k++)
            block_gradient(o, x, k, out + o->bstart[k], w);
    free(w);
    return 0;
}

/* ems_block_value (part 0) or ems_block_gradient (part 1) of one block */
void gbgp_ems(const double *c, const double *x, idx len, idx part, double *out)
{
    if (part == 0)
        *out = ems_value(c, x, len);
    else
        ems_gradient(c, x, len, out);
}

/* x - alpha * g, zeroed off the mask and clipped to [0, 1] as np.clip does */
static void box_step(const double *y, const double *g, double alpha, const uint8_t *mask,
                     idx len, double *out)
{
    idx i;
    double v;
    for (i = 0; i < len; i++) {
        v = mask[i] ? y[i] - alpha * g[i] : 0.0;
        v = v < 0.0 ? 0.0 : v;
        out[i] = v > 1.0 ? 1.0 : v;
    }
}

static void put(double *x, const idx *nk, const double *v, idx len)
{
    idx i;
    for (i = 0; i < len; i++)
        x[nk[i]] = v[i];
}

/* zero x off mask (the blocks' local masks back to back) and clip it to [0, 1] */
static void restrict_x(const objective *o, const uint8_t *mask, double *x)
{
    idx i;
    double v;
    for (i = 0; i < o->bstart[o->num_blocks]; i++) {
        v = mask[i] ? x[o->nodes[i]] : 0.0;
        v = v < 0.0 ? 0.0 : v;
        x[o->nodes[i]] = v > 1.0 ? 1.0 : v;
    }
}

static int any_set(const uint8_t *mask, idx len)
{
    idx i;
    for (i = 0; i < len; i++)
        if (mask[i]) return 1;
    return 0;
}

static double momentum_next(double rho)
{
    return 0.5 * (1.0 + sqrt(1.0 + 4.0 * rho * rho));
}

typedef struct {
    double *grad, *step, *w;
    idx *counts;
} bcd_work;

/*
 * solver.estimate_step_size at y, block k of x: halve alpha from alpha0
 * until F(x+) <= F(y) + <grad, x+ - y> + ||x+ - y||^2 / (2 alpha) + 1e-12,
 * with f_y = local_value at y unless has_fy. Writes x+ to out and its
 * local value to *f_out, and leaves x as it found it. Returns 0, or 1 when
 * alpha fell below STEP_FLOOR.
 */
static int backtrack(const objective *o, double *x, idx k, const uint8_t *mask,
                     const double *y, double alpha0, int has_fy, double f_y, double *out,
                     double *f_out, bcd_work *bw)
{
    idx i, len = block_len(o, k);
    const idx *nk = block_ids(o, k);
    double alpha = alpha0, bound, f_x;
    block_gradient(o, x, k, bw->grad, bw->w);
    if (!has_fy)
        f_y = local_value(o, x, k, bw->w);
    for (;;) {
        box_step(y, bw->grad, alpha, mask, len, out);
        put(x, nk, out, len);
        for (i = 0; i < len; i++)
            bw->step[i] = out[i] - y[i];
        bound = f_y + gbgp_dot(bw->grad, bw->step, len)
              + gbgp_dot(bw->step, bw->step, len) / (2.0 * alpha);
        f_x = local_value(o, x, k, bw->w);
        if (f_x <= bound + 1e-12)
            break;
        alpha *= 0.5;
        bw->counts[3]++;
        if (alpha < STEP_FLOOR) {
            put(x, nk, y, len);
            return 1;
        }
    }
    put(x, nk, y, len);
    *f_out = f_x;
    return 0;
}

/*
 * solver.bcd_solve on x in place: zero every block off its mask (mask
 * holds the blocks' local masks back to back) and clip it to [0, 1], then
 * run cyclic accelerated proximal block-coordinate passes until a pass
 * moves the blocks by at most inner_tol in summed norm, or for
 * max_cycles passes. Each visit to a block with a nonempty mask
 * extrapolates it with weight (rho - 1) / rho and takes one proximal step
 * of size step_size when fixed, and otherwise a backtracking one, which
 * restarts from the unextrapolated block when it ends above the block's
 * value there. counts gets the passes, visits, restarts and halvings.
 * Returns 0, -1 when memory ran out, or -2 - k when backtracking on block
 * k fell below STEP_FLOOR.
 */
idx gbgp_bcd_solve(const objective *o, const uint8_t *mask, double *x, idx max_cycles,
                   idx fixed, double step_size, double inner_tol, idx *counts)
{
    idx K = o->num_blocks, nb = o->bstart[K], mb = max_block(o), cycle, k, i, len, b0;
    idx status = 0;
    const idx *nk;
    const uint8_t *mk;
    double *buf, *prev, *xk, *yk, *newk, rho = 1.0, omega, delta, f_before, f_new;
    bcd_work bw;

    buf = malloc((size_t)(nb + 5 * mb + scratch_len(o)) * sizeof(double));
    if (!buf) return -1;
    prev = buf;
    xk = prev + nb;
    yk = xk + mb;
    newk = yk + mb;
    bw.grad = newk + mb;
    bw.step = bw.grad + mb;
    bw.w = bw.step + mb;
    bw.counts = counts;
    for (i = 0; i < 4; i++) counts[i] = 0;

    restrict_x(o, mask, x);
    for (i = 0; i < nb; i++)
        prev[i] = x[o->nodes[i]];
    for (cycle = 0; cycle < max_cycles; cycle++) {
        counts[0]++;
        delta = 0.0;
        for (k = 0; k < K; k++) {
            b0 = o->bstart[k];
            len = block_len(o, k);
            nk = block_ids(o, k);
            mk = mask + b0;
            if (!any_set(mk, len)) {
                rho = momentum_next(rho);
                continue;
            }
            counts[1]++;
            omega = (rho - 1.0) / rho;
            for (i = 0; i < len; i++) {
                xk[i] = x[nk[i]];
                yk[i] = xk[i] + omega * (xk[i] - prev[b0 + i]);
            }
            if (fixed) {
                put(x, nk, yk, len);
                block_gradient(o, x, k, bw.grad, bw.w);
                box_step(yk, bw.grad, step_size, mk, len, newk);
            } else {
                f_before = local_value(o, x, k, bw.w);
                put(x, nk, yk, len);
                if (backtrack(o, x, k, mk, yk, step_size, 0, 0.0, newk, &f_new, &bw)) {
                    status = -2 - k;
                    goto done;
                }
                if (f_new > f_before + 1e-12 && omega > 0) {
                    /* momentum overshot: restart from the unextrapolated point */
                    counts[2]++;
                    put(x, nk, xk, len);
                    if (backtrack(o, x, k, mk, xk, step_size, 1, f_before, newk, &f_new, &bw)) {
                        status = -2 - k;
                        goto done;
                    }
                }
            }
            for (i = 0; i < len; i++) {
                prev[b0 + i] = xk[i];
                bw.step[i] = newk[i] - xk[i];
            }
            delta += sqrt(gbgp_dot(bw.step, bw.step, len));
            put(x, nk, newk, len);
            rho = momentum_next(rho);
        }
        if (delta <= inner_tol)
            break;
    }
done:
    free(buf);
    return status;
}

/*
 * solver.parallel_bcd_solve's sampling sequence,
 * theta' = (sqrt(theta^4 + 4 theta^2) - theta^2) / 2, with the powers
 * taken as CPython's float ** takes them: by libm's pow. The exponents are
 * volatile so that the compiler cannot turn pow(theta, 2.0) into a product.
 */
static double theta_next(double theta)
{
    volatile double four = 4.0, two = 2.0;
    double t4 = pow(theta, four), t2 = pow(theta, two);
    return 0.5 * (sqrt(t4 + 4.0 * t2) - t2);
}

/*
 * solver.parallel_bcd_solve on x in place, x holding one entry per node
 * (every node lies in one block): restrict x to the masks as
 * gbgp_bcd_solve does, then freeze each block's step size alpha_k. That is
 * step_size when fixed; otherwise it is step_size halved once per halving
 * of a backtrack at x, for a block with a nonempty mask. z starts as x, and
 * theta as tau / K. Each of at most max_rounds rounds
 * - sets y = (1 - theta) x + theta z;
 * - draws next_double(rng_state) once per block, in block order, and
 *   samples the block when the draw is below tau / K;
 * - sets z_new to z, then each sampled block with a nonempty mask to the
 *   proximal step from z at y's gradient of size tau alpha_k / (K theta);
 * - sets x to y + ((K / tau) theta) (z_new - z), z to z_new and theta to
 *   theta_next(theta), and stops once x moved by at most inner_tol in norm.
 * x is restricted once more at the end. counts gets the rounds, the block
 * updates, 0 restarts and the halvings. Returns 0, -1 when memory ran out,
 * or -2 - k when backtracking on block k fell below STEP_FLOOR, which
 * happens before the first draw.
 */
idx gbgp_rbcd_solve(const objective *o, const uint8_t *mask, double *x, idx tau, idx max_rounds,
                    idx fixed, double step_size, double inner_tol,
                    double (*next_double)(void *), void *rng_state, idx *counts)
{
    idx K = o->num_blocks, n = o->bstart[K], mb = max_block(o), r, k, i, h, len;
    idx status = 0;
    const idx *nk;
    const uint8_t *mk;
    double *buf, *alpha, *cur, *nxt, *z, *zn, *y, *blk, *newk, *swap;
    double theta = (double)tau / K, chance = (double)tau / K, scale, delta, f_new;
    bcd_work bw;

    buf = malloc((size_t)(K + 5 * n + 4 * mb + scratch_len(o)) * sizeof(double));
    if (!buf) return -1;
    alpha = buf;
    nxt = alpha + K;
    z = nxt + n;
    zn = z + n;
    y = zn + n;
    cur = y + n;
    blk = cur + n;
    newk = blk + mb;
    bw.grad = newk + mb;
    bw.step = bw.grad + mb;
    bw.w = bw.step + mb;
    bw.counts = counts;
    for (i = 0; i < 4; i++) counts[i] = 0;

    restrict_x(o, mask, x);
    for (k = 0; k < K; k++) {
        alpha[k] = step_size;
        len = block_len(o, k);
        nk = block_ids(o, k);
        mk = mask + o->bstart[k];
        if (fixed || !any_set(mk, len))
            continue;
        for (i = 0; i < len; i++)
            blk[i] = x[nk[i]];
        h = counts[3];
        if (backtrack(o, x, k, mk, blk, step_size, 0, 0.0, newk, &f_new, &bw)) {
            status = -2 - k;
            goto done;
        }
        for (h = counts[3] - h; h > 0; h--)
            alpha[k] *= 0.5;
    }

    memcpy(cur, x, (size_t)n * sizeof(double));
    memcpy(z, x, (size_t)n * sizeof(double));
    for (r = 0; r < max_rounds; r++) {
        counts[0]++;
        for (i = 0; i < n; i++)
            y[i] = (1.0 - theta) * cur[i] + theta * z[i];
        memcpy(zn, z, (size_t)n * sizeof(double));
        for (k = 0; k < K; k++) {
            if (!(next_double(rng_state) < chance))
                continue;
            len = block_len(o, k);
            nk = block_ids(o, k);
            mk = mask + o->bstart[k];
            if (!any_set(mk, len))
                continue;
            counts[1]++;
            block_gradient(o, y, k, bw.grad, bw.w);
            for (i = 0; i < len; i++)
                blk[i] = z[nk[i]];
            box_step(blk, bw.grad, ((double)tau * alpha[k]) / ((double)K * theta), mk, len,
                     newk);
            put(zn, nk, newk, len);
        }
        /* x_new into nxt and its change from x into y, which it has read */
        scale = ((double)K / tau) * theta;
        for (i = 0; i < n; i++) {
            nxt[i] = y[i] + scale * (zn[i] - z[i]);
            y[i] = nxt[i] - cur[i];
        }
        delta = sqrt(gbgp_dot(y, y, n));
        swap = cur, cur = nxt, nxt = swap;
        swap = z, z = zn, zn = swap;
        theta = theta_next(theta);
        if (delta <= inner_tol)
            break;
    }
    memcpy(x, cur, (size_t)n * sizeof(double));
    restrict_x(o, mask, x);
done:
    free(buf);
    return status;
}
