/* Native routing: the C twin of repro.route.pathfinder's sequential
 * context route.
 *
 * `route_context` runs one context's whole PathFinder route.  It sets
 * up the congestion state in the caller's empty arrays (usage 0,
 * history 0 or infinite on a dead node, the effective capacity, each
 * node's folded cost: pathfinder._FlatCongestion.__init__) and finds
 * the healthy chains of the salvaged golden routes
 * (pathfinder._Salvage).  Then it runs the
 * initial pass over the nets (adopted, seeded, searched), the usage
 * commits and every rip-up iteration, with the congestion arithmetic
 * of pathfinder._FlatCongestion operation for operation (built with
 * -ffp-contract=off, so no multiply-add is fused).  It is the only
 * export.
 *
 * Its one search (`search`) is an A* search for the cheapest path from a
 * route tree to one target over the CSR rows of a compiled
 * routing-resource graph.  The lower bound on the cost left at node n
 * (pathfinder._lower_bounds) is h(n) = bound * (gap_x + gap_y), each
 * gap the tile distance between n's extent box and the target's tile,
 * with `bound` = pathfinder.ASTAR_FAC; it is infinite at a node whose
 * only edges are SINK edges (an input pin) on another tile than the
 * target's, which reaches none of the target's sinks, so the search
 * never pushes one.  A binary heap on (g + h, -g, node) pops entries in
 * exactly the order of the Python kernel's heapq (pathfinder._astar): h
 * is fixed per node within a search and a node's pushed g strictly
 * decrease, so no two heap keys are equal.  Stale pops are counted like
 * the Python kernel counts them.
 *
 * Nothing is static: the route reads and writes the caller's graph,
 * congestion and output arrays, and allocates and frees every scratch
 * buffer within the call.
 *
 * Build: gcc -O2 -shared -fPIC -ffp-contract=off -lm (repro.utils.native).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* A heap entry: the key g + h, and the path cost g from the tree. */
typedef struct {
    double f, g;
    int32_t n;
} entry;

/* Strict (f, -g, node) order, evaluated without branches: among equal
 * keys the entry further from the tree pops first.  Keys never tie, so
 * the pop order depends on the keys alone, not on the layout of the
 * heap. */
static int before(entry a, entry b) {
    return (a.f < b.f)
        | ((a.f == b.f) & ((a.g > b.g) | ((a.g == b.g) & (a.n < b.n))));
}

static int push(entry **heap, int64_t *len, int64_t *cap, double f, double g,
                int32_t n) {
    if (*len == *cap) {
        int64_t grown = *cap * 2;
        entry *h = realloc(*heap, (size_t)grown * sizeof(entry));
        if (h == NULL)
            return -1;
        *heap = h;
        *cap = grown;
    }
    entry e = {f, g, n};
    int64_t i = (*len)++;
    while (i > 0) {
        int64_t up = (i - 1) / 2;
        if (!before(e, (*heap)[up]))
            break;
        (*heap)[i] = (*heap)[up];
        i = up;
    }
    (*heap)[i] = e;
    return 0;
}

static entry pop(entry *heap, int64_t *len) {
    entry top = heap[0];
    entry last = heap[--(*len)];
    int64_t i = 0, n = *len;
    if (n == 0)
        return top;
    /* move the hole down along the smaller children to a leaf, then
     * sift `last` up from there (Floyd): one comparison per level on
     * the way down instead of two */
    for (;;) {
        int64_t kid = 2 * i + 1;
        if (kid >= n)
            break;
        if (kid + 1 < n)
            kid += before(heap[kid + 1], heap[kid]);
        heap[i] = heap[kid];
        i = kid;
    }
    while (i > 0) {
        int64_t up = (i - 1) / 2;
        if (!before(last, heap[up]))
            break;
        heap[i] = heap[up];
        i = up;
    }
    heap[i] = last;
    return top;
}

/* The search's graph, costs and scratch.  `dist`/`prev` are never
 * cleared: `stamp` holds the epoch of the search that last wrote a
 * node's entry, and any other stamp reads as unvisited.  The epoch
 * counts the searches of one call from 1, so it never wraps.  The heap
 * persists across searches and grows on demand. */
typedef struct {
    const int32_t *estart, *emid, *edst;
    const int32_t *xlo, *xhi, *ylo, *yhi;
    double bound;
    const double *eff;
    double *dist;
    int32_t *prev;
    uint64_t *stamp;
    uint64_t epoch;
    entry *heap;
    int64_t heap_cap;
} searcher;

/* h(n) where it is finite: `bound` times the tiles between n's extent
 * box and the target tile (tx, ty).  No node spans more than 2 tiles a
 * side and every cost is >= 1.0, so with bound <= 0.5 an edge u -> v
 * never lowers h by more than eff[v]: h is consistent, and every node
 * pops first at its shortest distance. */
static double lower_bound(const searcher *s, int32_t n, int32_t tx,
                          int32_t ty) {
    int32_t gx = s->xlo[n] - tx, gy = s->ylo[n] - ty;
    if (gx < 0)
        gx = tx - s->xhi[n] > 0 ? tx - s->xhi[n] : 0;
    if (gy < 0)
        gy = ty - s->yhi[n] > 0 ? ty - s->yhi[n] : 0;
    return s->bound * (double)(gx + gy);
}

/* Whether h(n) is infinite: n's only edges are SINK edges (an input
 * pin) and it is on another tile than (tx, ty), so it reaches none of
 * the target's sinks. */
static int beyond(const searcher *s, int32_t n, int32_t tx, int32_t ty) {
    return (s->emid[n] == s->estart[n])
        & ((s->xlo[n] != tx) | (s->ylo[n] != ty));
}

/* A net's prune box: the tiles [xlo, xhi] x [ylo, yhi]. */
typedef struct {
    int32_t xlo, xhi, ylo, yhi;
} window;

/* Puts the `n_tree` nodes of `tree` at distance 0, pushes those with a
 * finite bound, and searches.
 * Returns the length of the path written to `path` (tree node first,
 * target last), 0 when `target` is unreachable, or -1 when the heap
 * cannot grow.  A non-SINK edge (before `emid`) enters a node only
 * where `ok` (NULL: everywhere) admits it and, unless `box` is NULL,
 * only when the node's extent meets the box (CompiledRRG.bbox_mask's
 * inequalities); SINK edges admit only `target`.  `*pops` receives the
 * pop count. */
static int64_t search(searcher *s, const window *box, const uint8_t *ok,
                      const int32_t *tree, int64_t n_tree, int32_t target,
                      int32_t *path, int64_t *pops)
{
    const int32_t *estart = s->estart, *emid = s->emid, *edst = s->edst;
    const double *eff = s->eff;
    double *dist = s->dist;
    int32_t *prev = s->prev;
    uint64_t *stamp = s->stamp;
    uint64_t epoch = ++s->epoch;
    int32_t tx = s->xlo[target], ty = s->ylo[target];
    int64_t len = 0, k = 0, count = 0;
    for (int64_t i = 0; i < n_tree; i++) {
        stamp[tree[i]] = epoch;
        dist[tree[i]] = 0.0;
        if (!beyond(s, tree[i], tx, ty)
                && push(&s->heap, &len, &s->heap_cap,
                        lower_bound(s, tree[i], tx, ty), 0.0, tree[i]) < 0)
            k = -1;
    }
    while (len > 0 && k == 0) {
        entry top = pop(s->heap, &len);
        double d = top.g;
        int32_t nid = top.n;
        count++;
        if (d > dist[nid])
            continue; /* stale: the node was reached cheaper since */
        if (nid == target) {
            /* every cost is >= 1.0, so only tree nodes sit at 0.0 */
            for (int32_t tail = nid;; tail = prev[tail]) {
                path[k++] = tail;
                if (dist[tail] == 0.0)
                    break;
            }
            for (int64_t i = 0, j = k - 1; i < j; i++, j--) {
                int32_t t = path[i];
                path[i] = path[j];
                path[j] = t;
            }
            break;
        }
        int32_t lo = estart[nid], mid = emid[nid], hi = estart[nid + 1];
        for (int32_t e = lo; e < hi; e++) {
            int32_t nxt = edst[e];
            if (e < mid) {
                if (ok != NULL && !ok[nxt])
                    continue; /* a dead node */
                if (box != NULL
                        && ((s->xhi[nxt] < box->xlo) | (s->xlo[nxt] > box->xhi)
                            | (s->yhi[nxt] < box->ylo)
                            | (s->ylo[nxt] > box->yhi)))
                    continue; /* outside the net's box */
                if (beyond(s, nxt, tx, ty))
                    continue; /* an input pin of another tile */
            } else if (nxt != target) {
                continue; /* a foreign SINK */
            }
            double nd = d + eff[nxt];
            /* unvisited, or reached cheaper (one branch, not two) */
            if ((stamp[nxt] != epoch) | (nd < dist[nxt])) {
                stamp[nxt] = epoch;
                dist[nxt] = nd;
                prev[nxt] = nid;
                if (push(&s->heap, &len, &s->heap_cap,
                         nd + lower_bound(s, nxt, tx, ty), nd, nxt) < 0) {
                    k = -1;
                    break;
                }
            }
        }
    }
    *pops = count;
    return k;
}

/* ---------------------------------------------------------------------- */
/* one context's sequential route                                          */
/* ---------------------------------------------------------------------- */

/* `stats` slots, all written by the call; pathfinder.py mirrors these
 * names. */
enum {
    ST_STATUS,          /* one of the RC_* codes */
    ST_DETAIL,          /* the sink (RC_NO_PATH) or the overused nodes
                           (RC_CONGESTED) */
    ST_ITERATIONS,      /* RouteResult.iterations */
    ST_POPS,            /* router.pops */
    ST_FIRST_POPS,      /* router.pops of the initial pass */
    ST_RIPUPS,          /* router.ripup_iterations */
    ST_CENSUS,          /* router.overused_census */
    ST_REPRICED,        /* router.repriced_nodes */
    ST_RIPPED,          /* router.ripped_nets */
    ST_OUT_NODES,       /* tree nodes written to out_nodes */
    ST_OUT_PATHS,       /* paths written */
    ST_SALVAGED,        /* router.warm.salvaged_sinks */
    ST_RESEARCHED,      /* router.warm.researched_sinks */
    N_STATS
};

enum { RC_OK, RC_NO_PATH, RC_CONGESTED, RC_NOMEM, RC_SPACE };

/* Everything one route_context call reads and writes (ctypes mirror:
 * pathfinder._RouteJob).  The caller lays out every buffer and sets a
 * pointer to each part; an input the call does not have is NULL. */
typedef struct {
    /* graph: the fabric's CSR rows (edge_dst names each tree edge) */
    int64_t n_nodes;
    const int32_t *estart, *emid, *edge_dst;
    const int32_t *xlo, *xhi, *ylo, *yhi;
    int64_t cols, rows, margin;
    /* defects: the node mask (NULL without defects) and the rows the
     * search reads, edge_dst or a copy with each dead switch u -> v
     * lowered to the self-loop u -> u (DefectMap.live_edge_dst) */
    const uint8_t *node_ok;
    const int32_t *edst;
    /* congestion state: the call sets it up in the caller's empty
     * usage, hist, eff and, with defects, live_cap, and leaves it there
     * (see set_up) */
    const double *base;
    const int64_t *node_cap;
    int64_t *usage, *live_cap;
    double *hist, *eff;
    double pres_fac, pres_fac_mult, hist_fac;
    double astar_fac;           /* the search's lower-bound weight */
    int64_t max_iterations;
    /* nets, in pathfinder.NetEndpoints order: net n sources at
     * source[n] and sinks at sinks[sink_start[n]:sink_start[n + 1]] */
    int64_t n_nets;
    const int32_t *source, *sink_start, *sinks;
    /* the routing order: net i routes endpoint order[i] (NULL: i); the
     * per-net arrays below follow it */
    const int32_t *order;
    /* adopted bank routes (NULL: none): net i adopts the node set
     * adopt[adopt_start[i]:adopt_start[i + 1]] when that is not empty */
    const int32_t *adopt_start, *adopt;
    /* salvage (n_salvage routes, 0: none): golden route k's tree is
     * salvage_node and salvage_parent [salvage_tree[k]:salvage_tree[k +
     * 1]], its sink paths the (position, length) pairs salvage_branch
     * [salvage_paths[k]:salvage_paths[k + 1]]; net i starts from the
     * healthy chains of route seed_of[i] (-1: none) */
    int64_t n_salvage;
    const int32_t *seed_of, *salvage_tree, *salvage_paths;
    const int32_t *salvage_node, *salvage_parent, *salvage_branch;
    /* out: each routed net's tree (its distinct nodes in insertion
     * order, each with its parent's position in the net's tree and the
     * CSR index of the edge from its parent, -1 at the source) and its
     * sink paths in insertion order, each as the tree position of its
     * last node and its length; out_net_node and out_net_path index
     * them by net, and out_survived flags the adopted nets never ripped
     * up (which have none).  out_nodes, out_parent and out_edge hold
     * out_nodes_cap words each, out_branch 2 * out_paths_cap. */
    int64_t out_nodes_cap, out_paths_cap;
    int32_t *out_nodes, *out_parent, *out_edge, *out_branch;
    int32_t *out_survived, *out_net_node, *out_net_path;
    int64_t stats[N_STATS];
    /* set by the call: the capacity the route reads, live_cap or
     * node_cap */
    const int64_t *cap;
} route_job;

/* A growable int32 array. */
typedef struct {
    int32_t *v;
    int64_t len, cap;
} vec;

static int reserve(vec *a, int64_t more) {
    if (a->len + more <= a->cap)
        return 0;
    int64_t cap = a->cap ? a->cap : 1024;
    while (cap < a->len + more)
        cap *= 2;
    int32_t *v = realloc(a->v, (size_t)cap * sizeof(int32_t));
    if (v == NULL)
        return -1;
    a->v = v;
    a->cap = cap;
    return 0;
}

/* A net's current route: its distinct nodes in `tree`, their parents'
 * positions in `parent` (same offsets), and its sink paths in `paths`
 * as (position of the path's last node, length) pairs. */
typedef struct {
    int64_t tree_off, tree_len, paths_off, n_paths;
} route_rec;

typedef struct {
    route_job *j;
    searcher s;
    int32_t *path;  /* the search's output */
    vec tree, parent, paths;
    /* the healthy chains: salvage route k's are seeds
     * seed_start[k]:seed_start[k + 1], seed p ending at seed_sink[p]
     * with nodes seed_nodes[seed_end[p - 1] (0 at p = 0):seed_end[p]] */
    int64_t *seed_start;
    vec seed_end, seed_sink, seed_nodes;
    route_rec *rec;
    uint32_t *mark; /* route serial that last put a node in its tree */
    int32_t *pos;   /* a marked node's position in its route's tree */
    uint32_t serial;
    int64_t n_over; /* nodes with usage > capacity */
} router;

/* _FlatCongestion._fold: separately rounded, as numpy evaluates it. */
static double fold(const route_job *j, int32_t n) {
    int64_t over = j->usage[n] + 1 - j->cap[n];
    if (over < 0)
        over = 0;
    return j->base[n] * (1.0 + j->pres_fac * (double)over) + j->hist[n];
}

/* _FlatCongestion.__init__: usage 0, history 0 and the folded costs,
 * and with defects the effective capacity.  A dead node has no
 * capacity and an infinite history, so it is priced out of every
 * search; nothing is used yet, so nothing is overused. */
static void set_up(route_job *j) {
    const uint8_t *ok = j->node_ok;
    int64_t *live_cap = ok != NULL ? j->live_cap : NULL;
    j->cap = live_cap != NULL ? live_cap : j->node_cap;
    for (int64_t n = 0; n < j->n_nodes; n++) {
        int live = ok == NULL || ok[n];
        if (live_cap != NULL)
            live_cap[n] = live ? j->node_cap[n] : 0;
        j->usage[n] = 0;
        j->hist[n] = live ? 0.0 : INFINITY;
        j->eff[n] = fold(j, (int32_t)n);
    }
}

/* Add `delta` usage on route `i`'s nodes and re-price them. */
static void commit(router *r, int64_t i, int delta) {
    route_job *j = r->j;
    const int32_t *t = r->tree.v + r->rec[i].tree_off;
    for (int64_t k = 0; k < r->rec[i].tree_len; k++) {
        int32_t n = t[k];
        int64_t was = j->usage[n] > j->cap[n];
        j->usage[n] += delta;
        r->n_over += (j->usage[n] > j->cap[n]) - was;
        j->eff[n] = fold(j, n);
    }
}

static int overused(const router *r, int64_t i) {
    const route_job *j = r->j;
    const int32_t *t = r->tree.v + r->rec[i].tree_off;
    for (int64_t k = 0; k < r->rec[i].tree_len; k++)
        if (j->usage[t[k]] > j->cap[t[k]])
            return 1;
    return 0;
}

/* Room for `more` tree nodes and their parents. */
static int reserve_tree(router *r, int64_t more) {
    return reserve(&r->tree, more) < 0 || reserve(&r->parent, more) < 0
        ? -1 : 0;
}

/* Add the nodes of `p` not yet in the current route's tree (each node
 * at most once: the tree is a set), each with its predecessor on `p`
 * as its parent (the first node of `p` is the source or already in the
 * tree). */
static int add_nodes(router *r, route_rec *rec, const int32_t *p,
                     int64_t len) {
    if (reserve_tree(r, len) < 0)
        return -1;
    for (int64_t k = 0; k < len; k++)
        if (r->mark[p[k]] != r->serial) {
            r->mark[p[k]] = r->serial;
            r->pos[p[k]] = (int32_t)rec->tree_len++;
            r->parent.v[r->parent.len++] = k ? r->pos[p[k - 1]] : -1;
            r->tree.v[r->tree.len++] = p[k];
        }
    return 0;
}

/* Add a sink path's nodes to the current route's tree, and the path to
 * its paths. */
static int add_path(router *r, route_rec *rec, const int32_t *p,
                    int64_t len) {
    if (reserve(&r->paths, 2) < 0 || add_nodes(r, rec, p, len) < 0)
        return -1;
    int32_t *out = r->paths.v + r->paths.len;
    out[0] = r->pos[p[len - 1]];
    out[1] = (int32_t)len;
    r->paths.len += 2;
    rec->n_paths++;
    return 0;
}

/* pathfinder._route_net_flat: route net `i` afresh (seeded with its
 * salvaged branches when `seeded`), replacing its route record.
 * Returns an RC_* code. */
static int route_net(router *r, int64_t i, int seeded) {
    route_job *j = r->j;
    route_rec rec = {r->tree.len, 0, r->paths.len, 0};
    int64_t e = j->order != NULL ? j->order[i] : i;
    int32_t src = j->source[e];
    const int32_t *sinks = j->sinks + j->sink_start[e];
    int64_t n_sinks = j->sink_start[e + 1] - j->sink_start[e];
    int64_t s0 = 0, s1 = 0;
    if (seeded && j->seed_of != NULL && j->seed_of[i] >= 0) {
        s0 = r->seed_start[j->seed_of[i]];
        s1 = r->seed_start[j->seed_of[i] + 1];
    }
    r->serial++;
    if (add_nodes(r, &rec, &src, 1) < 0)
        return RC_NOMEM;
    for (int64_t p = s0; p < s1; p++) {
        int64_t a = p ? r->seed_end.v[p - 1] : 0, b = r->seed_end.v[p];
        if (add_path(r, &rec, r->seed_nodes.v + a, b - a) < 0)
            return RC_NOMEM;
    }
    /* _net_mask: the margin-expanded terminal box (ANDed with the
     * defect floor), unless it covers the fabric */
    window box = {j->xlo[src], j->xhi[src], j->ylo[src], j->yhi[src]};
    for (int64_t k = 0; k < n_sinks; k++) {
        int32_t n = sinks[k];
        if (j->xlo[n] < box.xlo) box.xlo = j->xlo[n];
        if (j->xhi[n] > box.xhi) box.xhi = j->xhi[n];
        if (j->ylo[n] < box.ylo) box.ylo = j->ylo[n];
        if (j->yhi[n] > box.yhi) box.yhi = j->yhi[n];
    }
    box.xlo -= (int32_t)j->margin;
    box.xhi += (int32_t)j->margin;
    box.ylo -= (int32_t)j->margin;
    box.yhi += (int32_t)j->margin;
    int covers = box.xlo <= -1 && box.ylo <= -1 && box.xhi >= j->cols
        && box.yhi >= j->rows;
    for (int64_t k = 0; k < n_sinks; k++) {
        int32_t sink = sinks[k];
        int done = 0;
        for (int64_t p = s0; p < s1 && !done; p++)
            done = r->seed_sink.v[p] == sink;
        if (done)
            continue;
        int64_t pops, len;
        len = search(&r->s, covers ? NULL : &box, j->node_ok,
                     r->tree.v + rec.tree_off, rec.tree_len, sink, r->path,
                     &pops);
        j->stats[ST_POPS] += pops;
        if (len == 0 && !covers) {
            /* the box disconnected this sink: retry without it */
            len = search(&r->s, NULL, j->node_ok, r->tree.v + rec.tree_off,
                         rec.tree_len, sink, r->path, &pops);
            j->stats[ST_POPS] += pops;
        }
        if (len < 0)
            return RC_NOMEM;
        if (len == 0) {
            j->stats[ST_DETAIL] = sink;
            return RC_NO_PATH;
        }
        if (add_path(r, &rec, r->path, len) < 0)
            return RC_NOMEM;
    }
    r->rec[i] = rec;
    return RC_OK;
}

/* One PathFinder escalation (_FlatCongestion.next_iteration): bump the
 * history of overused nodes, grow the pressure factor, re-price the
 * pressured nodes.  Every other node's cost does not involve either. */
static void escalate(router *r) {
    route_job *j = r->j;
    j->pres_fac *= j->pres_fac_mult;
    for (int64_t n = 0; n < j->n_nodes; n++) {
        int64_t u = j->usage[n], c = j->cap[n];
        if (u > c)
            j->hist[n] += j->hist_fac * (double)(u - c);
        if (u + 1 - c > 0) {
            j->eff[n] = fold(j, (int32_t)n);
            j->stats[ST_REPRICED]++;
        }
    }
}

/* Whether a dead switch joins u -> v: an edge of u's row to v that the
 * lowering turned into a self-loop (DefectMap.edges_dead's pair test). */
static int dead_pair(const route_job *j, int32_t u, int32_t v) {
    for (int32_t e = j->estart[u]; e < j->estart[u + 1]; e++)
        if (j->edge_dst[e] == v && j->edst[e] != v)
            return 1;
    return 0;
}

/* pathfinder._Salvage: each salvage route's whole chains from the
 * source (RouteTree.root_chains: a chain that never reaches position 0
 * is left out), kept where every node is alive and no switch between
 * two consecutive nodes is dead, as seed paths in branch order. */
static int salvage(router *r) {
    route_job *j = r->j;
    int64_t kept = 0, branches = 0;
    int32_t *walk = r->path;
    r->seed_start = malloc((size_t)(j->n_salvage + 1) * sizeof(int64_t));
    if (r->seed_start == NULL)
        return -1;
    for (int64_t k = 0; k < j->n_salvage; k++) {
        const int32_t *node = j->salvage_node + j->salvage_tree[k];
        const int32_t *parent = j->salvage_parent + j->salvage_tree[k];
        int64_t size = j->salvage_tree[k + 1] - j->salvage_tree[k];
        r->seed_start[k] = r->seed_sink.len;
        for (int64_t b = j->salvage_paths[k]; b < j->salvage_paths[k + 1];
                b++) {
            int64_t len = 0;
            int32_t at = j->salvage_branch[2 * b];
            branches++;
            walk[len++] = at;
            while (at != 0) {
                at = parent[at];
                if (at < 0 || len > size)
                    break;
                walk[len++] = at;
            }
            if (walk[len - 1] != 0)
                continue;
            int ok = 1;
            for (int64_t m = 0; m < len && ok; m++) {
                int32_t v = node[walk[m]];
                ok = (j->node_ok == NULL || j->node_ok[v])
                    && !(m + 1 < len && j->edst != j->edge_dst
                         && dead_pair(j, node[walk[m + 1]], v));
            }
            if (!ok)
                continue;
            if (reserve(&r->seed_nodes, len) < 0
                    || reserve(&r->seed_sink, 1) < 0
                    || reserve(&r->seed_end, 1) < 0)
                return -1;
            for (int64_t m = len - 1; m >= 0; m--)
                r->seed_nodes.v[r->seed_nodes.len++] = node[walk[m]];
            r->seed_sink.v[r->seed_sink.len++] = node[walk[0]];
            r->seed_end.v[r->seed_end.len++] = (int32_t)r->seed_nodes.len;
            kept++;
        }
    }
    r->seed_start[j->n_salvage] = r->seed_sink.len;
    j->stats[ST_SALVAGED] = kept;
    j->stats[ST_RESEARCHED] = branches - kept;
    return 0;
}

static int route_all(router *r) {
    route_job *j = r->j;
    int rc;
    for (int64_t i = 0; i < j->n_nets; i++) {
        int64_t a = 0, b = 0;
        if (j->adopt_start != NULL) {
            a = j->adopt_start[i];
            b = j->adopt_start[i + 1];
        }
        if (b > a) {
            /* an adopted route: its (distinct) nodes, no paths */
            route_rec rec = {r->tree.len, b - a, r->paths.len, 0};
            if (reserve_tree(r, b - a) < 0)
                return RC_NOMEM;
            memcpy(r->tree.v + r->tree.len, j->adopt + a,
                   (size_t)(b - a) * sizeof(int32_t));
            r->tree.len += b - a;
            r->parent.len += b - a; /* never written out */
            r->rec[i] = rec;
            j->out_survived[i] = 1;
        } else if ((rc = route_net(r, i, 1)) != RC_OK) {
            return rc;
        }
        commit(r, i, 1);
    }
    j->stats[ST_FIRST_POPS] = j->stats[ST_POPS];
    int64_t iteration = 1;
    for (;; iteration++) {
        j->stats[ST_ITERATIONS] = iteration;
        if (r->n_over == 0)
            return RC_OK;
        if (iteration >= j->max_iterations) {
            j->stats[ST_DETAIL] = r->n_over;
            return RC_CONGESTED;
        }
        j->stats[ST_CENSUS] += r->n_over;
        j->stats[ST_RIPUPS]++;
        escalate(r);
        /* the overuse test sees reroutes made earlier in this sweep */
        for (int64_t i = 0; i < j->n_nets; i++) {
            if (!overused(r, i))
                continue;
            commit(r, i, -1);
            if ((rc = route_net(r, i, 0)) != RC_OK)
                return rc;
            commit(r, i, 1);
            j->out_survived[i] = 0;
            j->stats[ST_RIPPED]++;
        }
    }
}

/* The CSR index of each tree edge (parent -> node): the first such
 * edge in the parent's row, as CompiledRRG.edge_index finds it. */
static void write_edges(const route_job *j, const int32_t *node,
                        const int32_t *parent, int32_t *edge, int64_t len) {
    for (int64_t k = 0; k < len; k++) {
        edge[k] = -1;
        if (parent[k] < 0)
            continue;
        int32_t a = node[parent[k]];
        for (int32_t e = j->estart[a]; e < j->estart[a + 1]; e++)
            if (j->edge_dst[e] == node[k]) {
                edge[k] = e;
                break;
            }
    }
}

/* Copy every net's tree and paths out; adopted survivors have none. */
static int write_out(router *r) {
    route_job *j = r->j;
    int64_t n_out = 0, p_out = 0;
    for (int64_t i = 0; i < j->n_nets; i++) {
        j->out_net_node[i] = (int32_t)n_out;
        j->out_net_path[i] = (int32_t)p_out;
        if (j->out_survived[i])
            continue;
        const route_rec *rec = &r->rec[i];
        if (n_out + rec->tree_len > j->out_nodes_cap
                || p_out + rec->n_paths > j->out_paths_cap)
            return RC_SPACE;
        memcpy(j->out_nodes + n_out, r->tree.v + rec->tree_off,
               (size_t)rec->tree_len * sizeof(int32_t));
        memcpy(j->out_parent + n_out, r->parent.v + rec->tree_off,
               (size_t)rec->tree_len * sizeof(int32_t));
        write_edges(j, j->out_nodes + n_out, j->out_parent + n_out,
                    j->out_edge + n_out, rec->tree_len);
        memcpy(j->out_branch + 2 * p_out, r->paths.v + rec->paths_off,
               (size_t)(2 * rec->n_paths) * sizeof(int32_t));
        n_out += rec->tree_len;
        p_out += rec->n_paths;
    }
    j->out_net_node[j->n_nets] = (int32_t)n_out;
    j->out_net_path[j->n_nets] = (int32_t)p_out;
    j->stats[ST_OUT_NODES] = n_out;
    j->stats[ST_OUT_PATHS] = p_out;
    return RC_OK;
}

/* pathfinder.route_context_compiled's sequential loop in one call.
 * Returns (and stores in stats[ST_STATUS]) an RC_* code. */
int64_t route_context(route_job *j)
{
    size_t n = (size_t)(j->n_nodes ? j->n_nodes : 1);
    router r;
    memset(&r, 0, sizeof r);
    r.j = j;
    r.s.estart = j->estart;
    r.s.emid = j->emid;
    r.s.edst = j->edst;
    r.s.xlo = j->xlo;
    r.s.xhi = j->xhi;
    r.s.ylo = j->ylo;
    r.s.yhi = j->yhi;
    r.s.bound = j->astar_fac;
    r.s.heap_cap = 1024;
    memset(j->stats, 0, sizeof j->stats);
    memset(j->out_survived, 0, (size_t)j->n_nets * sizeof(int32_t));
    set_up(j);
    r.s.eff = j->eff;
    r.s.dist = malloc(n * sizeof(double));
    r.s.prev = malloc(n * sizeof(int32_t));
    r.s.stamp = calloc(n, sizeof(uint64_t));
    r.s.heap = malloc((size_t)r.s.heap_cap * sizeof(entry));
    r.path = malloc((n + 1) * sizeof(int32_t)); /* a salvage walk too */
    r.rec = calloc((size_t)(j->n_nets ? j->n_nets : 1), sizeof(route_rec));
    r.mark = calloc(n, sizeof(uint32_t));
    r.pos = malloc(n * sizeof(int32_t));
    int rc = RC_NOMEM;
    if (r.s.dist != NULL && r.s.prev != NULL && r.s.stamp != NULL
            && r.s.heap != NULL && r.path != NULL && r.rec != NULL
            && r.mark != NULL && r.pos != NULL
            && (j->n_salvage == 0 || salvage(&r) == 0)) {
        rc = route_all(&r);
        if (rc == RC_OK)
            rc = write_out(&r);
    }
    free(r.seed_start);
    free(r.seed_end.v);
    free(r.seed_sink.v);
    free(r.seed_nodes.v);
    free(r.s.dist);
    free(r.s.prev);
    free(r.s.stamp);
    free(r.s.heap);
    free(r.path);
    free(r.rec);
    free(r.mark);
    free(r.pos);
    free(r.tree.v);
    free(r.parent.v);
    free(r.paths.v);
    j->stats[ST_STATUS] = rc;
    return rc;
}
