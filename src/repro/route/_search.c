/* Native route search: the C twin of repro.route.pathfinder._dijkstra.
 *
 * Shortest path from a route tree to one target over the CSR rows of a
 * compiled routing-resource graph.  A binary heap on (dist, node) pops
 * entries in exactly the order of the Python kernel's Dial buckets: a
 * node's pushed distances strictly decrease, so no two heap keys are
 * equal (the only exception, the order among infinite-distance
 * entries, is documented in pathfinder.py).  Stale pops are counted
 * like the Python kernel counts them.
 *
 * Build: gcc -O2 -shared -fPIC -lm (see repro.utils.native).
 */
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    double d;
    int32_t n;
} entry;

static int before(entry a, entry b) {
    return a.d < b.d || (a.d == b.d && a.n < b.n);
}

static int push(entry **heap, int64_t *len, int64_t *cap, double d, int32_t n) {
    if (*len == *cap) {
        int64_t grown = *cap * 2;
        entry *h = realloc(*heap, (size_t)grown * sizeof(entry));
        if (h == NULL)
            return -1;
        *heap = h;
        *cap = grown;
    }
    entry e = {d, n};
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
    for (;;) {
        int64_t kid = 2 * i + 1;
        if (kid >= n)
            break;
        if (kid + 1 < n && before(heap[kid + 1], heap[kid]))
            kid++;
        if (!before(heap[kid], last))
            break;
        heap[i] = heap[kid];
        i = kid;
    }
    if (n > 0)
        heap[i] = last;
    return top;
}

/* On entry `path` holds the `n_tree` route-tree nodes.  Returns the
 * length of the path then written to `path` (tree node first, target
 * last), 0 when `target` is unreachable inside `mask`, or -1 when the
 * heap could not be allocated.  `*pops` receives the pop count.  A NULL
 * `mask` admits every node; SINK edges (from `emid`) admit only `target`. */
int64_t route_search(
    const int32_t *estart, const int32_t *emid, const int32_t *edst,
    const double *eff, const uint8_t *mask, int64_t n_tree, int32_t target,
    double *dist, int32_t *prev, uint32_t *stamp, int32_t *path,
    int64_t *pops, uint32_t epoch)
{
    int64_t len = 0, cap = n_tree > 64 ? 2 * n_tree : 128, k = 0, count = 0;
    entry *heap = malloc((size_t)cap * sizeof(entry));
    *pops = 0;
    if (heap == NULL)
        return -1;
    for (int64_t i = 0; i < n_tree; i++) {
        stamp[path[i]] = epoch;
        dist[path[i]] = 0.0;
        if (push(&heap, &len, &cap, 0.0, path[i]) < 0)
            k = -1;
    }
    while (len > 0 && k == 0) {
        entry top = pop(heap, &len);
        double d = top.d;
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
        for (int32_t e = lo; e < hi && k == 0; e++) {
            int32_t nxt = edst[e];
            if (e < mid ? (mask != NULL && !mask[nxt]) : nxt != target)
                continue; /* outside the mask, or a foreign SINK */
            double nd = d + eff[nxt];
            if (stamp[nxt] != epoch || nd < dist[nxt]) {
                stamp[nxt] = epoch;
                dist[nxt] = nd;
                prev[nxt] = nid;
                if (push(&heap, &len, &cap, nd, nxt) < 0)
                    k = -1;
            }
        }
    }
    free(heap);
    *pops = count;
    return k;
}
