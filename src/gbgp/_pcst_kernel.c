/*
 * Goemans-Williamson moat growing, strong pruning and the budget search
 * for gbgp.pcst.
 *
 * One forest() runs one PcstEngine.solve: the event loop over a binary
 * min-heap, the union-find with moat offsets, and strong pruning of every
 * final cluster that holds a prized node. It replays the reference
 * engine in tests/oracles.py step for step: the same heap order, the
 * same find/push_edge calls in the same order, and the same
 * floating-point expressions, so its forests are byte-identical.
 *
 * gbgp_pcst_search runs one whole projections.budget_search: every
 * probe's costs, its forest, the leaf trim to capacity, the support's
 * score, the best-candidate rule and every exit test. It replays the
 * reference loop in tests/oracles.py: libm's log and exp, NumPy's
 * pairwise summation for the score, and the trim heap popped on
 * (prize, -v). Build with -std=c99 -O2 -ffp-contract=off and without
 * fast-math.
 *
 * The caller owns every buffer: the graph's edge and CSR arrays, an
 * int64 and a double work buffer sized by gbgp_pcst_work_sizes, and the
 * output buffers. Only the heap and the candidate list are allocated
 * here, and freed before returning. Calls on distinct buffers share no
 * state, so they may run at once on several threads.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t idx;

#define EPS 1e-12

/*
 * A heap entry. Edge entries are (t, 0, eid, ru, ver_ru, rv, ver_rv):
 * the graph sorts its edges by (u, v), so eid orders them as the
 * reference's (u, v, eid) does. Deactivations are
 * (t, 1, -minid, r, version, 0, 0). Distinct entries never compare
 * equal, so any correct min-heap pops the reference's sequence.
 */
typedef struct {
    double t;
    idx kind, a, b, c, d, e;
} entry;

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
    /* search: a forest's sorted nodes, each one's tree degree (-1 once
       trimmed) and the xor of its tree neighbours, the trim heap, and
       the support's prizes in order */
    idx *cur, *deg, *nbrx;
    leaf *leaves;
    double *gather;
    /* heap */
    entry *heap;
    idx heap_len, heap_cap, active_count;
} state;

/* per-node int64 and double arrays that carve hands out */
#define NODE_INTS 23
#define NODE_DOUBLES 7

/* sizes[0]: int64 work entries, sizes[1]: double work entries */
void gbgp_pcst_work_sizes(idx n, idx m, idx *sizes)
{
    /* plus astart (n + 1), nbr, aeid and stage_edges (2n each), the
       trim heap (2n leaves of two words), eseen and intree (m each) */
    sizes[0] = NODE_INTS * n + (n + 1) + 3 * (2 * n) + 4 * n + 2 * m;
    sizes[1] = NODE_DOUBLES * n;
}

static void carve(state *s, idx n, idx m, idx *iw, double *dw)
{
    idx **ints[NODE_INTS] = {
        &s->parent, &s->active, &s->version, &s->minid, &s->size, &s->degsum,
        &s->head, &s->tail, &s->next, &s->stack, &s->mark, &s->roots,
        &s->mstart, &s->members, &s->loc, &s->par, &s->order, &s->pstack,
        &s->included, &s->stage_nodes, &s->cur, &s->deg, &s->nbrx,
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
    s->eseen = iw;
    iw += m;
    s->intree = iw;
    for (i = 0; i < NODE_DOUBLES; i++, dw += n)
        *doubles[i] = dw;
}

static int less(const entry *x, const entry *y)
{
    if (x->t != y->t) return x->t < y->t;
    if (x->kind != y->kind) return x->kind < y->kind;
    if (x->a != y->a) return x->a < y->a;
    if (x->b != y->b) return x->b < y->b;
    if (x->c != y->c) return x->c < y->c;
    if (x->d != y->d) return x->d < y->d;
    return x->e < y->e;
}

static int push(state *s, entry item)
{
    idx i, up;
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

static entry pop(state *s)
{
    entry top = s->heap[0], last = s->heap[--s->heap_len];
    idx i = 0, child, len = s->heap_len;
    while ((child = 2 * i + 1) < len) {
        if (child + 1 < len && less(&s->heap[child + 1], &s->heap[child])) child++;
        if (!less(&s->heap[child], &last)) break;
        s->heap[i] = s->heap[child];
        i = child;
    }
    if (len > 0) s->heap[i] = last;
    return top;
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
    entry item;
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
    item.t = t;
    item.kind = 0;
    item.a = eid;
    item.b = ru;
    item.c = s->version[ru];
    item.d = rv;
    item.e = s->version[rv];
    return push(s, item);
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

/* merge the clusters of roots ru and rv along edge eid */
static int merge(state *s, idx eid, idx ru, idx rv, double now)
{
    idx was_active, result_active, keeper, absorbed;
    idx uh = s->head[ru], ut = s->tail[ru], vh = s->head[rv], vt = s->tail[rv];
    int resched_u, resched_v;
    double merged_slack;
    entry item;

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
        item.t = now + merged_slack;
        item.kind = 1;
        item.a = -s->minid[keeper];
        item.b = keeper;
        item.c = s->version[keeper];
        item.d = item.e = 0;
        if (push(s, item)) return -1;
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
 * each). Returns k, or -1 when memory ran out. The heap stays allocated
 * in s->heap for the next call.
 */
static idx forest(state *s, idx n, idx m, idx num_trees, idx *out)
{
    entry item, seed;
    candidate *cands = NULL;
    const idx *indptr = s->indptr, *adj_eids = s->adj_eids, *eu = s->eu, *ev = s->ev;
    const double *prize = s->prize;
    idx u, r, j, eid, ncands = 0, nstage = 0, estage = 0, nroots = 0, pos = 0;
    idx trees, i, written = 0, ewritten = 0;
    idx *out_nodes = out + n;
    pair *out_edges = (pair *)(out + 2 * n);
    double now, dt;

    s->heap_len = s->active_count = 0;
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
        /* higher-minid clusters die first on ties so low ids survive */
        seed.t = 0.0 + prize[u];
        seed.kind = 1;
        seed.a = -u;
        seed.b = u;
        seed.c = seed.d = seed.e = 0;
        if (push(s, seed)) return -1;
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

    while (s->heap_len > 0 && s->active_count > 0) {
        item = pop(s);
        now = item.t;
        if (item.kind == 1) {
            r = item.b;
            if (s->parent[r] != r || s->version[r] != item.c || !s->active[r]) continue;
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
    cands = malloc((size_t)(nroots > 0 ? nroots : 1) * sizeof(candidate));
    if (!cands) return -1;
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
    free(cands);
    return trees;
}

static void init(state *s, idx n, idx m, const idx *eu, const idx *ev, const idx *indptr,
                 const idx *adj_eids, const double *cost, const double *prize,
                 idx *iwork, double *dwork)
{
    s->eu = eu;
    s->ev = ev;
    s->indptr = indptr;
    s->adj_eids = adj_eids;
    s->cost = cost;
    s->prize = prize;
    s->heap = NULL;
    s->heap_cap = 0;
    carve(s, n, m, iwork, dwork);
}

/* one PcstEngine.solve: forest() on cost and prize; see there */
idx gbgp_pcst_solve(idx n, idx m, const idx *eu, const idx *ev, const idx *indptr,
                    const idx *adj_eids, const double *cost, const double *prize,
                    idx num_trees, idx *iwork, double *dwork, idx *out)
{
    state s;
    idx trees;
    init(&s, n, m, eu, ev, indptr, adj_eids, cost, prize, iwork, dwork);
    trees = forest(&s, n, m, num_trees, out);
    free(s.heap);
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
 * Writes the best support, sorted, to best, its multiplier to *mult_out
 * and the probe count to *probes_out, and returns the support's size (0
 * when no probe found one). Returns -1 when memory ran out and -2 when a
 * probe's cost is not positive and finite.
 */
idx gbgp_pcst_search(idx n, idx m, const idx *eu, const idx *ev, const idx *indptr,
                     const idx *adj_eids, const double *weight, double *cost,
                     const double *prize, idx num_trees, idx budget, idx capacity,
                     idx max_probes, idx has_warm, double warm, double low, double high,
                     double total, double exit_score, idx *iwork, double *dwork, idx *out,
                     idx *best, double *mult_out, idx *probes_out)
{
    state s;
    idx probe, e, i, trees, count, len, best_len = -1, status = 0, oversized, better;
    double lo = log(low), hi = log(high), mid, mult, score, best_score = 0.0, best_mult = 0.0;

    init(&s, n, m, eu, ev, indptr, adj_eids, cost, prize, iwork, dwork);
    for (probe = 0; probe < max_probes; probe++) {
        if (probe == 0 && has_warm) {
            /* min(max(warm, low), high) */
            mid = warm;
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
        trees = forest(&s, n, m, num_trees, out);
        if (trees < 0) {
            status = -1;
            goto done;
        }
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
        } else if (count >= budget || score >= total - 1e-12) {
            probe++;
            break;
        } else {
            hi = lo + 1e-9 > mid ? lo + 1e-9 : mid;
        }
        if (best_score >= exit_score || hi - lo < 1e-2) {
            probe++;
            break;
        }
    }
    *probes_out = probe;
    *mult_out = best_mult;
    status = best_len;
done:
    free(s.heap);
    return status;
}
