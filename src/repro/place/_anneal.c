/* Native placement of one context: the C twin of
 * repro.place._python_kernel.place_python.
 *
 * Python checks the arguments, draws the initial permutation with
 * numpy's own Generator.permutation and writes the result back into
 * Coord objects and telemetry counters.  Everything between runs here,
 * in one call of the one export, place_context:
 *
 *   1. the initial occupancy: pinned tiles, then the movable cells on
 *      the free tiles (ascending, pinned and forbidden ones left out)
 *      in the drawn order;
 *   2. the I/O pads, placed greedily near their cells' barycentres;
 *   3. the terminal ids, the per-net half-perimeters, each movable
 *      cell's nets and the start temperature;
 *   4. the VPR-style anneal (every round, every proposal);
 *   5. the pads again, for the final cell positions, and the final
 *      cost.
 *
 * Random numbers come from numpy's bitgen_t
 * (rng.bit_generator.ctypes.bit_generator), drawn in exactly the order
 * and by exactly the rule the Python kernel uses, so both leave the
 * same placement and the same generator state.
 *
 * Floating point: exp() is libm's, which Python's math.exp also calls;
 * the acceptance exponent and the accept ratio are one division each
 * and every temperature step is one multiply.  A pad's barycentre is a
 * float64 sum of small integers (exact in any order) and one division,
 * its distance to a pad tile two differences and one sum, as numpy
 * computes them; the start temperature repeats Python's operations in
 * Python's order.  No expression has the form a*b+c, so floating-point
 * contraction cannot change a result.
 *
 * Build: gcc -O2 -shared -fPIC -ffp-contract=off -lm
 * (see repro.utils.native).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* numpy/random/bitgen.h, declared here so the build needs no numpy header */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

#define FREE (-1)
#define PINNED (-2)
/* place_context's error codes (any other negative value is
 * OUT_OF_PADS - i for I/O i) */
#define NO_MEMORY (-1)
#define OUT_OF_PADS (-2)

/* Generator.integers(n) for 1 <= n <= 2**32: numpy's 32-bit Lemire
 * rejection, as repro.utils.rng.scalar_draws spells it out. */
static int64_t draw(bitgen_t *bg, uint64_t n)
{
    if (n == 1)
        return 0;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * n;
    uint64_t leftover = m & 0xFFFFFFFFu;
    if (leftover < n) {
        uint64_t threshold = ((uint64_t)1 << 32) % n;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * n;
            leftover = m & 0xFFFFFFFFu;
        }
    }
    return (int64_t)(m >> 32);
}

/* Live net k's half-perimeter (it has two or more terminals).  Min and
 * max are branch-free: a terminal's side of the box is data, on which
 * a branch mispredicts. */
static inline int32_t net_hpwl(int32_t k, const int32_t *net_start,
                               const int32_t *net_terms, const int32_t *tx,
                               const int32_t *ty)
{
    int32_t lo = net_start[k], hi = net_start[k + 1];
    int32_t x0 = tx[net_terms[lo]], x1 = x0;
    int32_t y0 = ty[net_terms[lo]], y1 = y0;
    for (int32_t e = lo + 1; e < hi; e++) {
        int32_t x = tx[net_terms[e]], y = ty[net_terms[e]];
        x0 = x < x0 ? x : x0;
        x1 = x > x1 ? x : x1;
        y0 = y < y0 ? y : y0;
        y1 = y > y1 ? y : y1;
    }
    return x1 - x0 + y1 - y0;
}

/* Every live net's half-perimeter into `net_cost`; returns their sum. */
static int64_t hpwl(const int32_t *net_start, const int32_t *net_terms,
                    int32_t n_nets, const int32_t *tx, const int32_t *ty,
                    int32_t *net_cost)
{
    int64_t sum = 0;
    for (int32_t k = 0; k < n_nets; k++) {
        net_cost[k] = net_hpwl(k, net_start, net_terms, tx, ty);
        sum += net_cost[k];
    }
    return sum;
}

/* The move loop, the C twin of _python_kernel.anneal_python.  Anneals
 * in place: `occ`, `tx`, `ty` and `net_cost` hold the result.  Returns
 * the number of rounds, or -1 when scratch memory could not be
 * allocated (nothing is drawn or written then); `*accepted` receives
 * the number of accepted moves. */
static int64_t anneal(
    bitgen_t *bg, int32_t *occ, const uint8_t *forb, int32_t *tx,
    int32_t *ty, int32_t *net_cost, const int32_t *net_start,
    const int32_t *net_terms, const int32_t *cell_start,
    const int32_t *cell_nets, int32_t n_mov, int32_t n_nets, int32_t cols,
    int32_t rows, int64_t moves_per_t, double temperature, double min_t,
    int64_t *accepted)
{
    int32_t span = cols > rows ? cols : rows;
    uint64_t width = 2 * (uint64_t)span + 1;
    int32_t xmax = cols - 1, ymax = rows - 1;
    int64_t rounds = 0, total = 0;
    uint8_t *mark = calloc((size_t)n_nets + 1, 1);
    int32_t *aff = malloc(((size_t)n_nets + 1) * sizeof(int32_t));
    int32_t *newc = malloc(((size_t)n_nets + 1) * sizeof(int32_t));
    *accepted = 0;
    if (mark == NULL || aff == NULL || newc == NULL) {
        free(mark);
        free(aff);
        free(newc);
        return -1;
    }
    while (temperature > min_t) {
        int64_t acc = 0;
        rounds++;
        for (int64_t i = 0; i < moves_per_t; i++) {
            int32_t ci = (int32_t)draw(bg, (uint64_t)n_mov);
            int32_t sx = tx[ci], sy = ty[ci];
            int32_t x = sx + (int32_t)draw(bg, width) - span;
            int32_t y = sy + (int32_t)draw(bg, width) - span;
            if (x < 0)
                x = 0;
            else if (x > xmax)
                x = xmax;
            if (y < 0)
                y = 0;
            else if (y > ymax)
                y = ymax;
            int32_t dst = y * cols + x;
            if ((x == sx && y == sy) || forb[dst])
                continue;
            int32_t other = occ[dst];
            if (other == PINNED)
                continue;
            /* the union of both cells' nets; every cost is an integer,
             * so the order of the sum below does not matter */
            int32_t n_aff = 0;
            for (int32_t j = cell_start[ci]; j < cell_start[ci + 1]; j++) {
                mark[cell_nets[j]] = 1;
                aff[n_aff++] = cell_nets[j];
            }
            if (other != FREE)
                for (int32_t j = cell_start[other]; j < cell_start[other + 1]; j++)
                    if (!mark[cell_nets[j]]) {
                        mark[cell_nets[j]] = 1;
                        aff[n_aff++] = cell_nets[j];
                    }
            for (int32_t j = 0; j < n_aff; j++)
                mark[aff[j]] = 0;
            /* tentative move (occupancy is only written on accept) */
            tx[ci] = x;
            ty[ci] = y;
            if (other != FREE) {
                tx[other] = sx;
                ty[other] = sy;
            }
            int64_t delta = 0;
            for (int32_t j = 0; j < n_aff; j++) {
                newc[j] = net_hpwl(aff[j], net_start, net_terms, tx, ty);
                delta += newc[j] - net_cost[aff[j]];
            }
            if (delta <= 0
                || bg->next_double(bg->state) < exp(-(double)delta / temperature)) {
                acc++;
                occ[dst] = ci;
                occ[sy * cols + sx] = other;
                for (int32_t j = 0; j < n_aff; j++)
                    net_cost[aff[j]] = newc[j];
            } else { /* revert */
                tx[ci] = sx;
                ty[ci] = sy;
                if (other != FREE) {
                    tx[other] = x;
                    ty[other] = y;
                }
            }
        }
        total += acc;
        double ratio = (double)acc / (double)(moves_per_t > 1 ? moves_per_t : 1);
        if (ratio > 0.96)
            temperature *= 0.5;
        else if (ratio > 0.8)
            temperature *= 0.9;
        else if (ratio > 0.15)
            temperature *= 0.95;
        else
            temperature *= 0.8;
    }
    free(mark);
    free(aff);
    free(newc);
    *accepted = total;
    return rounds;
}

/* Pad scratch: per-I/O barycentre sums and counts, per-tile pads left. */
typedef struct {
    double *sx, *sy;
    int64_t *n;
    int32_t *left;
} pad_scratch;

/* The C twin of _python_kernel._assign_ios: I/O i goes near the
 * barycentre of the placed cells io_near[j] with io_owner[j] == i (the
 * grid centre when none is placed), on the nearest perimeter tile with
 * a pad left; ties go to the first tile in perimeter order, as the
 * Python kernel's stable argsort ranks them.  Writes each I/O's
 * perimeter index and slot, and its terminal's coordinates.  Returns
 * -1, or the first I/O left without a pad. */
static int32_t assign_pads(
    const int32_t *io_owner, const int32_t *io_near, int32_t n_pairs,
    int32_t n_io, const int32_t *cx, const int32_t *cy,
    const uint8_t *placed, const int32_t *perim, int32_t n_perim,
    int32_t cols, int32_t rows, int32_t capacity, pad_scratch *s,
    int32_t *pad, int32_t *slot, int32_t *tx, int32_t *ty)
{
    for (int32_t i = 0; i < n_io; i++) {
        s->sx[i] = s->sy[i] = 0.0;
        s->n[i] = 0;
    }
    for (int32_t j = 0; j < n_pairs; j++) {
        int32_t c = io_near[j], i = io_owner[j];
        if (placed[c]) {
            s->sx[i] += cx[c];
            s->sy[i] += cy[c];
            s->n[i]++;
        }
    }
    for (int32_t p = 0; p < n_perim; p++)
        s->left[p] = capacity;
    for (int32_t i = 0; i < n_io; i++) {
        double bx = (double)cols / 2.0, by = (double)rows / 2.0;
        if (s->n[i] > 0) {
            bx = s->sx[i] / (double)s->n[i];
            by = s->sy[i] / (double)s->n[i];
        }
        int32_t best = -1;
        double best_d = 0.0;
        for (int32_t p = 0; p < n_perim; p++) {
            if (!s->left[p])
                continue;
            double d = fabs((double)(perim[p] % cols) - bx)
                + fabs((double)(perim[p] / cols) - by);
            if (best < 0 || d < best_d) {
                best = p;
                best_d = d;
            }
        }
        if (best < 0)
            return i;
        pad[i] = best;
        slot[i] = capacity - s->left[best];
        s->left[best]--;
        tx[i] = perim[best] % cols;
        ty[i] = perim[best] / cols;
    }
    return -1;
}

/* The layout of place_context's int32 input: a header of counts, then
 * the job's rows, each right after the one before. */
enum {
    N_CELLS, N_NETS, N_EDGES, N_PAIRS, N_MOV, N_PIN, N_FORB, N_IO, COLS,
    ROWS, CAPACITY, HEADER
};

/* Places one context.  `in` holds the HEADER counts, then:
 *   mov_cells[n_mov]     the movable cells (netlist index ids);
 *   pin_cells[n_pin]     the pinned cells (-1: a name the netlist lacks);
 *   pin_tiles[n_pin]     their tiles (a tile is y * cols + x);
 *   forb_tiles[n_forb]   tiles never used;
 *   io[n_io]             the I/O cells: inputs, then outputs;
 *   net_start[n_nets+1]  the terminals' CSR rows over
 *   term_cells[n_edges]  cells (`n_multi` nets are touched twice or more);
 *   io_owner[n_pairs]    the index's io_rows pairs: I/O io_owner[j] goes
 *   io_near[n_pairs]     near cell io_near[j];
 *   order[n_mov]         movable cell i starts on the order[i]-th free
 *                        tile (ascending; neither pinned nor forbidden).
 * Python has checked the row lengths, that the pinned tiles are
 * distinct, in the grid and not forbidden, and that the cells fit.
 *
 * Writes the movable cells' x, then their y, then each I/O's perimeter
 * index, then its slot on that tile, into `out` (2 * (n_mov + n_io)
 * entries), and the final cost and the accepted moves into `stats`.
 * Returns the number of rounds, NO_MEMORY (nothing drawn then), or
 * OUT_OF_PADS - i when I/O i finds no pad left. */
int64_t place_context(bitgen_t *bg, const int32_t *in, int64_t n_multi,
                      int64_t moves_per_t, double min_t, int32_t *out,
                      int64_t *stats)
{
    int32_t n_cells = in[N_CELLS], n_nets = in[N_NETS];
    int32_t n_edges = in[N_EDGES], n_pairs = in[N_PAIRS];
    int32_t n_mov = in[N_MOV], n_pin = in[N_PIN], n_forb = in[N_FORB];
    int32_t n_io = in[N_IO], cols = in[COLS], rows = in[ROWS];
    int32_t capacity = in[CAPACITY];
    const int32_t *mov_cells = in + HEADER;
    const int32_t *pin_cells = mov_cells + n_mov;
    const int32_t *pin_tiles = pin_cells + n_pin;
    const int32_t *forb_tiles = pin_tiles + n_pin;
    const int32_t *io = forb_tiles + n_forb;
    const int32_t *net_start = io + n_io;
    const int32_t *term_cells = net_start + n_nets + 1;
    const int32_t *io_owner = term_cells + n_edges;
    const int32_t *io_near = io_owner + n_pairs;
    const int32_t *order = io_near + n_pairs;
    int32_t n_tiles = cols * rows, n_perim = 0;
    int32_t n_fixed = n_mov + n_pin, n_terms = n_fixed + n_io;
    int64_t rounds = 0, accepted = 0, code = 0;
    int32_t *occ = malloc((size_t)n_tiles * sizeof(int32_t));
    int32_t *tiles = malloc((size_t)n_tiles * sizeof(int32_t));
    int32_t *perim = malloc((size_t)n_tiles * sizeof(int32_t));
    uint8_t *forb = calloc((size_t)n_tiles + 1, 1);
    int32_t *term = calloc((size_t)n_cells + 1, sizeof(int32_t));
    int32_t *cx = calloc((size_t)n_cells + 1, sizeof(int32_t));
    int32_t *cy = calloc((size_t)n_cells + 1, sizeof(int32_t));
    uint8_t *placed = calloc((size_t)n_cells + 1, 1);
    int32_t *tx = malloc(((size_t)n_terms + 1) * sizeof(int32_t));
    int32_t *ty = malloc(((size_t)n_terms + 1) * sizeof(int32_t));
    int32_t *net_terms = calloc((size_t)n_edges + 1, sizeof(int32_t));
    int32_t *net_cost = malloc(((size_t)n_nets + 1) * sizeof(int32_t));
    int32_t *cell_start = calloc((size_t)n_mov + 2, sizeof(int32_t));
    int32_t *cell_nets = malloc(((size_t)n_edges + 1) * sizeof(int32_t));
    pad_scratch pads = {
        malloc(((size_t)n_io + 1) * sizeof(double)),
        malloc(((size_t)n_io + 1) * sizeof(double)),
        malloc(((size_t)n_io + 1) * sizeof(int64_t)),
        malloc((size_t)n_tiles * sizeof(int32_t)),
    };
    int32_t *pad = out + 2 * (size_t)n_mov, *slot = pad + n_io;
    if (!occ || !tiles || !perim || !forb || !term || !cx || !cy || !placed
        || !tx || !ty || !net_terms || !net_cost || !cell_start
        || !cell_nets || !pads.sx || !pads.sy || !pads.n || !pads.left) {
        code = NO_MEMORY;
        goto done;
    }

    /* 1. occupancy: pinned tiles, then the drawn free tiles */
    for (int32_t t = 0; t < n_tiles; t++)
        occ[t] = FREE;
    for (int32_t j = 0; j < n_forb; j++)
        forb[forb_tiles[j]] = 1;
    for (int32_t j = 0; j < n_pin; j++)
        occ[pin_tiles[j]] = PINNED;
    int32_t n_free = 0;
    for (int32_t t = 0; t < n_tiles; t++)
        if (occ[t] == FREE && !forb[t])
            tiles[n_free++] = t;
    for (int32_t i = 0; i < n_mov; i++) {
        int32_t t = tiles[order[i]];
        occ[t] = i;
        tx[i] = t % cols;
        ty[i] = t / cols;
    }

    /* terminals: movable, then pinned cells, then I/O pads; every cell
     * has one (a pinned I/O cell takes its pad's) */
    for (int32_t i = 0; i < n_mov; i++) {
        int32_t c = mov_cells[i];
        term[c] = i;
        cx[c] = tx[i];
        cy[c] = ty[i];
        placed[c] = 1;
    }
    for (int32_t j = 0; j < n_pin; j++) {
        int32_t c = pin_cells[j], t = n_mov + j;
        tx[t] = pin_tiles[j] % cols;
        ty[t] = pin_tiles[j] / cols;
        if (c >= 0) {
            term[c] = t;
            cx[c] = tx[t];
            cy[c] = ty[t];
            placed[c] = 1;
        }
    }
    for (int32_t i = 0; i < n_io; i++)
        term[io[i]] = n_fixed + i;
    for (int32_t t = 0; t < n_tiles; t++) {
        int32_t x = t % cols, y = t / cols;
        if (x == 0 || x == cols - 1 || y == 0 || y == rows - 1)
            perim[n_perim++] = t;
    }

    /* 2. the pads near the initial placement */
    int32_t lost = assign_pads(io_owner, io_near, n_pairs, n_io, cx, cy,
                               placed, perim, n_perim, cols, rows, capacity,
                               &pads, pad, slot, tx + n_fixed, ty + n_fixed);
    if (lost >= 0) {
        code = OUT_OF_PADS - lost;
        goto done;
    }

    /* 3. nets over terminal ids, their costs, each movable cell's nets
     * (ascending: a net lists a terminal once) */
    for (int32_t e = 0; e < n_edges; e++)
        net_terms[e] = term[term_cells[e]];
    int64_t cost = hpwl(net_start, net_terms, n_nets, tx, ty, net_cost);
    if (n_mov > 0) {
        for (int32_t e = 0; e < n_edges; e++)
            if (net_terms[e] < n_mov)
                cell_start[net_terms[e] + 2]++;
        for (int32_t i = 0; i < n_mov; i++)
            cell_start[i + 2] += cell_start[i + 1];
        for (int32_t k = 0; k < n_nets; k++)
            for (int32_t e = net_start[k]; e < net_start[k + 1]; e++)
                if (net_terms[e] < n_mov)
                    cell_nets[cell_start[net_terms[e] + 1]++] = k;
        /* Python's max(1.0, 0.05 * cost / max(1, n_multi) * 20) */
        double temperature = 0.05 * (double)cost;
        temperature = temperature / (double)(n_multi > 1 ? n_multi : 1);
        temperature = temperature * 20.0;
        if (!(temperature > 1.0))
            temperature = 1.0;

        /* 4. the anneal */
        rounds = anneal(bg, occ, forb, tx, ty, net_cost, net_start,
                        net_terms, cell_start, cell_nets, n_mov, n_nets,
                        cols, rows, moves_per_t, temperature, min_t,
                        &accepted);
        if (rounds < 0) {
            code = NO_MEMORY;
            goto done;
        }

        /* 5. the pads again, for the final cell positions */
        for (int32_t i = 0; i < n_mov; i++) {
            cx[mov_cells[i]] = tx[i];
            cy[mov_cells[i]] = ty[i];
        }
        lost = assign_pads(io_owner, io_near, n_pairs, n_io, cx, cy, placed,
                           perim, n_perim, cols, rows, capacity, &pads, pad,
                           slot, tx + n_fixed, ty + n_fixed);
        if (lost >= 0) {
            code = OUT_OF_PADS - lost;
            goto done;
        }
        cost = hpwl(net_start, net_terms, n_nets, tx, ty, net_cost);
    }
    for (int32_t i = 0; i < n_mov; i++) {
        out[i] = tx[i];
        out[n_mov + i] = ty[i];
    }
    stats[0] = cost;
    stats[1] = accepted;
    code = rounds;
done:
    free(occ);
    free(tiles);
    free(perim);
    free(forb);
    free(term);
    free(cx);
    free(cy);
    free(placed);
    free(tx);
    free(ty);
    free(net_terms);
    free(net_cost);
    free(cell_start);
    free(cell_nets);
    free(pads.sx);
    free(pads.sy);
    free(pads.n);
    free(pads.left);
    return code;
}
