/* Native substrate build: the C twin of repro.arch.compiled.build_numpy.
 *
 * `build_substrate` fills every array of a CompiledRRG for one device in
 * one call, writing into buffers the caller allocates.  Node ids, node
 * attributes and pin tables follow build_numpy's closed forms run by
 * run.  Edges are the same nine groups walked in the same loop order
 * (switch points, wire -> IPIN, wire -> pad IPIN, then the pin-driven
 * groups), so the CSR rows come out as numpy's stable sort by source
 * leaves them, without a sort:
 *
 * - wire-driven rows (the first three groups) are a counting sort: one
 *   pass counts each wire's edges, a prefix sum places the rows, and a
 *   second pass in the same order appends each edge at its wire's
 *   cursor (kept in edge_mid, which ends at the row's end, as a wire's
 *   edge_mid must);
 * - every pin drives edges of one group only, in a loop order that is
 *   its row order, so pin rows are written in place.
 *
 * Only IPINs drive SINKs and they drive nothing else, so edge_mid is
 * the row start of an IPIN and the row end of any other node.
 *
 * The one floating-point output, base_cost, is a lookup into the
 * caller's table by wire length, so its doubles are the caller's.  Kind
 * codes are the declaration order of NodeKind and EdgeKind.
 *
 * Build: gcc -O2 -shared -fPIC -ffp-contract=off -lm (repro.utils.native).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* spec[] slots: the device (in), then the sizes and the layout of the
 * output buffer (out): its byte size and the byte offset of each array,
 * in the order of the A_* names */
enum {
    S_COLS, S_ROWS, S_WIDTH, S_SINGLES, S_N_IN, S_N_OUT, S_PADS,
    S_K_IN, S_STEP_IN, S_K_OUT, S_STEP_OUT, S_NODES, S_EDGES, S_BYTES,
    S_AT
};
enum {
    A_KIND, A_LENGTH, A_CAPACITY, A_BASE_COST, A_EXTENT, A_EDGE_START,
    A_EDGE_MID, A_EDGE_DST, A_EDGE_KIND, A_LB_SOURCE, A_LB_SINK, A_IO_IDS,
    N_ARRAYS
};

enum { SOURCE, SINK, OPIN, IPIN, CHANX, CHANY };   /* NodeKind */
enum { PASS, BUF, PIN, INTERNAL };                  /* EdgeKind */

#define BAD_SPEC (-1)
#define NO_MEMORY (-2)

typedef struct {
    int64_t cols, rows, width, singles, n_in, n_out, pads;
    int64_t k_in, step_in, k_out, step_out;
    int64_t nw;                 /* wires bordering a tile, 4 * width */
    int64_t mx, my;             /* segments per CHANX / CHANY channel */
    int64_t n_x, lb_first, per_lb, n_tiles, io_first, n_perim;
    int64_t n_nodes, n_edges;
} fabric;

/* Track t is single-length below `singles`, else a double of phase
 * (t - singles) % 2.  A double begins a segment at position 0 and at
 * each position of its phase. */
static int phase(const fabric *f, int64_t t) { return (int)((t - f->singles) & 1); }

static int begins(const fabric *f, int64_t t, int64_t pos) {
    return t < f->singles || pos == 0 || (pos & 1) == phase(f, t);
}

static int ends(const fabric *f, int64_t t, int64_t pos, int64_t extent) {
    return pos == extent - 1 || begins(f, t, pos + 1);
}

/* The index, within its track, of track t's segment covering pos. */
static int64_t seg_index(const fabric *f, int64_t t, int64_t pos) {
    return t < f->singles ? pos : (pos + phase(f, t)) >> 1;
}

/* First segment of track t in a channel of `extent` positions (the
 * segments run track-major); t == width gives the channel's total. */
static int64_t track_offset(const fabric *f, int64_t t, int64_t extent) {
    if (t <= f->singles)
        return t * extent;
    int64_t j = t - f->singles;
    int64_t even = (extent - 1) / 2 + 1, odd = extent / 2 + 1;
    return f->singles * extent + (j / 2) * (even + odd) + (j & 1) * even;
}

/* Positions of segment s of track t: first and last. */
static void seg_span(const fabric *f, int64_t t, int64_t s, int64_t extent,
                     int64_t *first, int64_t *last) {
    if (t < f->singles) {
        *first = *last = s;
        return;
    }
    int64_t p = phase(f, t), end = 2 * s + 1 - p;
    *first = s ? 2 * s - p : 0;
    *last = end < extent - 1 ? end : extent - 1;
}

static int on_perimeter(const fabric *f, int64_t x, int64_t y) {
    return x == 0 || y == 0 || x == f->cols - 1 || y == f->rows - 1;
}

/* How many of track t's two segments along a channel of `extent`
 * positions touch the switch point at `pos` (0..extent): the one
 * ending just before it and the one starting at it. */
static int64_t touching(const fabric *f, int64_t t, int64_t pos,
                        int64_t extent) {
    return (pos >= 1 && ends(f, t, pos - 1, extent))
        + (pos < extent && begins(f, t, pos));
}

/* Per-tile counts (width, pins, pads) past this are refused: with them
 * and int32 node ids, no count below overflows int64. */
#define MAX_PER_TILE (1 << 20)

/* Reads the device from spec and derives every count; 0, or BAD_SPEC
 * when a value is out of range or an id would not fit in int32. */
static int64_t measure(fabric *f, const int64_t *spec) {
    f->cols = spec[S_COLS];
    f->rows = spec[S_ROWS];
    f->width = spec[S_WIDTH];
    f->singles = spec[S_SINGLES];
    f->n_in = spec[S_N_IN];
    f->n_out = spec[S_N_OUT];
    f->pads = spec[S_PADS];
    f->k_in = spec[S_K_IN];
    f->step_in = spec[S_STEP_IN];
    f->k_out = spec[S_K_OUT];
    f->step_out = spec[S_STEP_OUT];
    f->nw = 4 * f->width;
    if (f->cols < 1 || f->rows < 1 || f->width < 1 || f->singles < 0
            || f->singles > f->width || f->n_in < 1 || f->n_out < 1
            || f->pads < 0 || f->k_in < 1 || f->k_in > f->nw
            || f->k_out < 1 || f->k_out > f->nw || f->step_in < 0
            || f->step_out < 0 || f->cols > INT32_MAX || f->rows > INT32_MAX
            || f->cols * f->rows > INT32_MAX || f->width > MAX_PER_TILE
            || f->n_in > MAX_PER_TILE || f->n_out > MAX_PER_TILE
            || f->pads > MAX_PER_TILE)
        return BAD_SPEC;
    f->mx = track_offset(f, f->width, f->cols);
    f->my = track_offset(f, f->width, f->rows);
    f->n_x = (f->rows + 1) * f->mx;
    f->lb_first = f->n_x + (f->cols + 1) * f->my;
    f->per_lb = 2 * f->n_in + 2 * f->n_out;
    f->n_tiles = f->cols * f->rows;
    f->io_first = f->lb_first + f->n_tiles * f->per_lb;
    f->n_perim = f->cols <= 2 || f->rows <= 2
        ? f->n_tiles : 2 * (f->cols + f->rows) - 4;
    f->n_nodes = f->io_first + 4 * f->n_perim * f->pads;
    if (f->n_nodes + 1 > INT32_MAX)
        return BAD_SPEC;

    /* switch points: s touching sides make s (s - 1) edges, and s is
     * a + b, a from the track's horizontal channel and b from its
     * vertical one, so the sum over intersections separates */
    int64_t n_switch = 0;
    for (int64_t t = 0; t < f->width; t++) {
        int64_t sa = 0, saa = 0, sb = 0, sbb = 0;
        for (int64_t xi = 0; xi <= f->cols; xi++) {
            int64_t a = touching(f, t, xi, f->cols);
            sa += a;
            saa += a * (a - 1);
        }
        for (int64_t yi = 0; yi <= f->rows; yi++) {
            int64_t b = touching(f, t, yi, f->rows);
            sb += b;
            sbb += b * (b - 1);
        }
        n_switch += (f->rows + 1) * saa + (f->cols + 1) * sbb + 2 * sa * sb;
    }
    int64_t pad_pins = f->n_perim * f->pads;
    f->n_edges = n_switch
        + f->n_tiles * f->n_in * (f->k_in + f->n_in)
        + f->n_tiles * f->n_out * (1 + f->k_out)
        + pad_pins * (2 * f->nw + 2);
    if (f->n_edges > INT32_MAX)
        return BAD_SPEC;
    return 0;
}

/* The output buffer's layout: each array's byte offset, 64-byte
 * aligned, into at[]; returns the buffer's size. */
static int64_t layout(const fabric *f, int64_t at[N_ARRAYS]) {
    int64_t n = f->n_nodes, e = f->n_edges, tiles = f->n_tiles;
    const int64_t bytes[N_ARRAYS] = {
        n, n, 8 * n, 8 * n, 4 * 4 * n, 4 * (n + 1), 4 * n, 4 * e, e,
        4 * tiles * f->n_out, 4 * tiles * f->n_in, 4 * 2 * tiles * f->pads,
    };
    int64_t size = 0;
    for (int a = 0; a < N_ARRAYS; a++) {
        at[a] = size;
        size += (bytes[a] + 63) & ~(int64_t)63;
    }
    return size;
}

/* Track t's switch points along a channel of `extent` positions, at
 * pos = 0..extent: touch[pos] has bit 0 set where the track's segment
 * covering pos - 1 ends there and bit 1 where a segment starts at pos;
 * before[pos] / after[pos] are those segments' indexes in the track. */
static void track_points(const fabric *f, int64_t t, int64_t extent,
                         int32_t *touch, int32_t *before, int32_t *after) {
    for (int64_t pos = 0; pos <= extent; pos++) {
        int lo = pos >= 1 && ends(f, t, pos - 1, extent);
        int hi = pos < extent && begins(f, t, pos);
        touch[pos] = lo | hi << 1;
        before[pos] = lo ? (int32_t)seg_index(f, t, pos - 1) : 0;
        after[pos] = hi ? (int32_t)seg_index(f, t, pos) : 0;
    }
}

/* The sides set in a 4-bit mask (west, east, south, north), ascending. */
static const int8_t SIDES[16][4] = {
    {0}, {0}, {1}, {0, 1}, {2}, {0, 2}, {1, 2}, {0, 1, 2}, {3}, {0, 3},
    {1, 3}, {0, 1, 3}, {2, 3}, {0, 2, 3}, {1, 2, 3}, {0, 1, 2, 3},
};
static const int8_t N_SIDES[16] = {0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
                                   3, 4};

/* The switch-point group, in the numpy build's loop order per source:
 * at each intersection, every two touching wires of a track (west,
 * east, south, north) are joined both ways, so each wire's edges there
 * reach the others in side order.  With edge_dst == NULL only counts
 * each wire's edges into row[wire + 1]; otherwise appends them at the
 * cursor row[wire].  The loop runs track by track: a wire's edges all
 * come from its own track's intersections, visited in (xi, yi) order
 * either way.  `points` is scratch for 3 (cols + rows + 2) values. */
static void switch_edges(const fabric *f, const int32_t *off_x,
                         const int32_t *off_y, int32_t *points,
                         int32_t *row, int32_t *edge_dst,
                         int8_t *edge_kind) {
    int32_t *tx = points, *bx = tx + f->cols + 1, *ax = bx + f->cols + 1;
    int32_t *ty = ax + f->cols + 1, *by = ty + f->rows + 1,
            *ay = by + f->rows + 1;
    for (int64_t t = 0; t < f->width; t++) {
        int8_t kind = t < f->singles ? PASS : BUF;
        track_points(f, t, f->cols, tx, bx, ax);
        track_points(f, t, f->rows, ty, by, ay);
        for (int64_t xi = 0; xi <= f->cols; xi++) {
            int32_t cy = (int32_t)(f->n_x + xi * f->my + off_y[t]);
            for (int64_t yi = 0; yi <= f->rows; yi++) {
                int mask = tx[xi] | ty[yi] << 2, m = N_SIDES[mask];
                if (m < 2)
                    continue;
                int32_t cx = (int32_t)(yi * f->mx + off_x[t]);
                int32_t side[4] = {cx + bx[xi], cx + ax[xi], cy + by[yi],
                                   cy + ay[yi]};
                int32_t wire[4];
                for (int i = 0; i < m; i++)
                    wire[i] = side[SIDES[mask][i]];
                for (int i = 0; i < m; i++) {
                    if (edge_dst == NULL) {
                        row[wire[i] + 1] += m - 1;
                        continue;
                    }
                    int32_t at = row[wire[i]];
                    for (int j = 0; j < m; j++)
                        if (j != i) {
                            edge_dst[at] = wire[j];
                            edge_kind[at++] = kind;
                        }
                    row[wire[i]] = at;
                }
            }
        }
    }
}

/* Sets the attributes of nodes [u, u + count): all pins at tile (x, y),
 * of length 1. */
static void pin_attrs(int64_t u, int64_t count, int32_t x, int32_t y,
                      int32_t *xlo, int32_t *xhi, int32_t *ylo,
                      int32_t *yhi) {
    for (int64_t i = u; i < u + count; i++) {
        xlo[i] = xhi[i] = x;
        ylo[i] = yhi[i] = y;
    }
}

/* Fills the substrate of the device in spec[] (see the S_* slots).
 *
 * With out == NULL only the sizes and the layout are written to spec[]:
 * the node and edge counts, the byte size of the buffer to allocate
 * and each array's offset in it.  Otherwise `out` (that many bytes, 8-
 * byte aligned) receives the arrays: per node, kind and length (int8),
 * capacity (int64, 1), base_cost (double, cost_by_length[length]) and
 * extent (int32 xlo, xhi, ylo, yhi rows of n_nodes each); the int32
 * CSR rows edge_start (n_nodes + 1), edge_mid and edge_dst and the
 * int8 edge_kind; the int32 pin tables lb_source (tile, output),
 * lb_sink (tile, input) and io_ids (source then sink table, (tile, pad)
 * each, -1 off the perimeter).
 *
 * Returns 0, BAD_SPEC (a device out of range, or a layout in spec[]
 * that is not this device's; nothing is written) or NO_MEMORY. */
int64_t build_substrate(int64_t *spec, const double *cost_by_length,
                        char *out) {
    fabric f;
    int64_t at[N_ARRAYS];
    if (measure(&f, spec) != 0)
        return BAD_SPEC;
    int64_t size = layout(&f, at);
    if (out == NULL) {
        spec[S_NODES] = f.n_nodes;
        spec[S_EDGES] = f.n_edges;
        spec[S_BYTES] = size;
        for (int a = 0; a < N_ARRAYS; a++)
            spec[S_AT + a] = at[a];
        return 0;
    }
    if (spec[S_NODES] != f.n_nodes || spec[S_EDGES] != f.n_edges
            || spec[S_BYTES] != size)
        return BAD_SPEC;
    for (int a = 0; a < N_ARRAYS; a++)
        if (spec[S_AT + a] != at[a])
            return BAD_SPEC;
    int8_t *kind = (int8_t *)(out + at[A_KIND]);
    int8_t *length = (int8_t *)(out + at[A_LENGTH]);
    int64_t *capacity = (int64_t *)(out + at[A_CAPACITY]);
    double *base_cost = (double *)(out + at[A_BASE_COST]);
    int32_t *extent = (int32_t *)(out + at[A_EXTENT]);
    int32_t *edge_start = (int32_t *)(out + at[A_EDGE_START]);
    int32_t *edge_mid = (int32_t *)(out + at[A_EDGE_MID]);
    int32_t *edge_dst = (int32_t *)(out + at[A_EDGE_DST]);
    int8_t *edge_kind = (int8_t *)(out + at[A_EDGE_KIND]);
    int32_t *lb_source = (int32_t *)(out + at[A_LB_SOURCE]);
    int32_t *lb_sink = (int32_t *)(out + at[A_LB_SINK]);
    int32_t *io_ids = (int32_t *)(out + at[A_IO_IDS]);

    int64_t n = f.n_nodes, nw = f.nw, W = f.width, n_in = f.n_in;
    int64_t pads = f.pads, n_pins = f.n_in * f.k_in;
    /* scratch: per-track segment offsets along X and Y channels; the
     * sorted wire row of every tile; the perimeter tiles in row-major
     * order; which IPINs reach each column of a wire row (CSR); one
     * track's switch points */
    int64_t n_points = 3 * (f.cols + f.rows + 2);
    int32_t *off_x = malloc((size_t)(2 * W + f.n_tiles * nw + f.n_perim
                                     + nw + 1 + n_pins + n_points)
                            * sizeof(int32_t));
    if (off_x == NULL)
        return NO_MEMORY;
    int32_t *off_y = off_x + W, *tile_wires = off_y + W;
    int32_t *perim = tile_wires + f.n_tiles * nw;
    int32_t *col_start = perim + f.n_perim, *col_pins = col_start + nw + 1;
    int32_t *points = col_pins + n_pins;
    for (int64_t t = 0; t < W; t++) {
        off_x[t] = (int32_t)track_offset(&f, t, f.cols);
        off_y[t] = (int32_t)track_offset(&f, t, f.rows);
    }
    int32_t *xlo = extent, *xhi = extent + n, *ylo = extent + 2 * n,
            *yhi = extent + 3 * n;
    for (int64_t v = 0; v < n; v++)
        capacity[v] = 1;

    /* channel wires: channel-major, then track, then segment.  Every
     * channel of a direction holds the same segments, so the first is
     * made and copied.  Channel c lies between tile rows (columns)
     * c - 1 and c */
    int64_t u = 0;
    for (int horizontal = 1; horizontal >= 0; horizontal--) {
        int64_t along = horizontal ? f.cols : f.rows;
        int64_t per = horizontal ? f.mx : f.my;
        int64_t channels = (horizontal ? f.rows : f.cols) + 1;
        int32_t *first = horizontal ? xlo : ylo, *last = horizontal ? xhi : yhi;
        int32_t *lo = horizontal ? ylo : xlo, *hi = horizontal ? yhi : xhi;
        int64_t v = u;
        for (int64_t t = 0; t < W; t++) {
            int64_t segs = track_offset(&f, t + 1, along)
                - track_offset(&f, t, along);
            for (int64_t s = 0; s < segs; s++, v++) {
                int64_t a, b;
                seg_span(&f, t, s, along, &a, &b);
                first[v] = (int32_t)a;
                last[v] = (int32_t)b;
                length[v] = (int8_t)(b - a + 1);
                base_cost[v] = cost_by_length[b - a + 1];
            }
        }
        memset(kind + u, horizontal ? CHANX : CHANY, (size_t)(channels * per));
        for (int64_t c = 0; c < channels; c++, u += per) {
            if (c) {
                memcpy(first + u, first + u - per, (size_t)per * sizeof(int32_t));
                memcpy(last + u, last + u - per, (size_t)per * sizeof(int32_t));
                memcpy(length + u, length + u - per, (size_t)per);
                memcpy(base_cost + u, base_cost + u - per,
                       (size_t)per * sizeof(double));
            }
            for (int64_t i = u; i < u + per; i++) {
                lo[i] = (int32_t)(c - 1);
                hi[i] = (int32_t)c;
            }
        }
    }

    /* logic blocks: per tile, the IPINs, the SINKs, then an (OPIN,
     * SOURCE) pair per output; perimeter I/O: a (SOURCE, OPIN, IPIN,
     * SINK) run per pad.  The tile's wire row: the channels below,
     * above, left and right, each in track order (ascending ids) */
    memset(length + f.lb_first, 1, (size_t)(n - f.lb_first));
    for (int64_t v = f.lb_first; v < n; v++)
        base_cost[v] = cost_by_length[1];
    int8_t *lb_kind = kind + f.lb_first;
    memset(lb_kind, IPIN, (size_t)n_in);
    memset(lb_kind + n_in, SINK, (size_t)n_in);
    for (int64_t o = 0; o < f.n_out; o++) {
        lb_kind[2 * n_in + 2 * o] = OPIN;
        lb_kind[2 * n_in + 2 * o + 1] = SOURCE;
    }
    for (int64_t k = 0; k < 4 * f.n_perim * pads; k += 4) {
        kind[f.io_first + k] = SOURCE;
        kind[f.io_first + k + 1] = OPIN;
        kind[f.io_first + k + 2] = IPIN;
        kind[f.io_first + k + 3] = SINK;
    }
    int64_t n_perim = 0;
    for (int64_t tile = 0; tile < f.n_tiles; tile++) {
        int32_t x = (int32_t)(tile % f.cols), y = (int32_t)(tile / f.cols);
        int32_t *row = tile_wires + tile * nw;
        for (int64_t t = 0; t < W; t++) {
            int64_t sx = seg_index(&f, t, x), sy = seg_index(&f, t, y);
            row[t] = (int32_t)(y * f.mx + off_x[t] + sx);
            row[W + t] = (int32_t)((y + 1) * f.mx + off_x[t] + sx);
            row[2 * W + t] = (int32_t)(f.n_x + x * f.my + off_y[t] + sy);
            row[3 * W + t] = (int32_t)(f.n_x + (x + 1) * f.my + off_y[t] + sy);
        }
        int64_t first = f.lb_first + tile * f.per_lb;
        if (tile)
            memcpy(kind + first, lb_kind, (size_t)f.per_lb);
        pin_attrs(first, f.per_lb, x, y, xlo, xhi, ylo, yhi);
        for (int64_t i = 0; i < n_in; i++)
            lb_sink[tile * n_in + i] = (int32_t)(first + n_in + i);
        for (int64_t o = 0; o < f.n_out; o++)
            lb_source[tile * f.n_out + o] =
                (int32_t)(first + 2 * n_in + 2 * o + 1);
        int on_edge = on_perimeter(&f, x, y);
        int64_t pad = f.io_first + 4 * n_perim * pads;
        if (on_edge) {
            perim[n_perim++] = (int32_t)tile;
            pin_attrs(pad, 4 * pads, x, y, xlo, xhi, ylo, yhi);
        }
        for (int64_t k = 0; k < pads; k++) {
            io_ids[tile * pads + k] = on_edge ? (int32_t)(pad + 4 * k) : -1;
            io_ids[(f.n_tiles + tile) * pads + k] =
                on_edge ? (int32_t)(pad + 4 * k + 3) : -1;
        }
    }

    /* the IPINs reaching each column of a tile's wire row, ascending:
     * IPIN i reaches k_in columns from i * step_in, wrapping around */
    col_start[0] = 0;
    for (int64_t c = 0, m = 0; c < nw; c++) {
        for (int64_t i = 0; i < n_in; i++)
            if ((c + nw - i * f.step_in % nw) % nw < f.k_in)
                col_pins[m++] = (int32_t)i;
        col_start[c + 1] = (int32_t)m;
    }

    /* row lengths: a wire's from the wire-driven groups, a pin's in
     * closed form.  edge_start[v + 1] holds v's count until the prefix
     * sum */
    memset(edge_start, 0, (size_t)(f.lb_first + 1) * sizeof(int32_t));
    switch_edges(&f, off_x, off_y, points, edge_start, NULL, NULL);
    for (int64_t tile = 0; tile < f.n_tiles; tile++)
        for (int64_t c = 0; c < nw; c++)
            edge_start[tile_wires[tile * nw + c] + 1] +=
                col_start[c + 1] - col_start[c];
    for (int64_t p = 0; p < n_perim; p++)
        for (int64_t c = 0; c < nw; c++)
            edge_start[tile_wires[perim[p] * nw + c] + 1] += (int32_t)pads;
    for (int64_t v = f.lb_first; v < n; v++) {
        int8_t k = kind[v];
        int lb = v < f.io_first;
        edge_start[v + 1] = (int32_t)(
            k == IPIN ? (lb ? n_in : 1)
            : k == OPIN ? (lb ? f.k_out : nw)
            : k == SOURCE ? 1 : 0);
    }
    for (int64_t v = 0; v < n; v++)
        edge_start[v + 1] += edge_start[v];

    /* wire rows: the three groups again, in order, each edge at its
     * wire's cursor; the pin groups fill whole runs of a row */
    int32_t wire_edges = edge_start[f.lb_first];
    memcpy(edge_mid, edge_start, (size_t)f.lb_first * sizeof(int32_t));
    memset(edge_kind, PIN, (size_t)wire_edges);
    switch_edges(&f, off_x, off_y, points, edge_mid, edge_dst, edge_kind);
    for (int64_t tile = 0; tile < f.n_tiles; tile++) {
        const int32_t *row = tile_wires + tile * nw;
        int32_t ipin = (int32_t)(f.lb_first + tile * f.per_lb);
        for (int64_t c = 0; c < nw; c++) {
            int32_t *dst = edge_dst + edge_mid[row[c]];
            for (int32_t i = col_start[c]; i < col_start[c + 1]; i++)
                *dst++ = ipin + col_pins[i];
            edge_mid[row[c]] += col_start[c + 1] - col_start[c];
        }
    }
    for (int64_t p = 0; p < n_perim; p++) {
        const int32_t *row = tile_wires + perim[p] * nw;
        int32_t pad_ipin = (int32_t)(f.io_first + 4 * p * pads + 2);
        for (int64_t c = 0; c < nw; c++) {
            int32_t *dst = edge_dst + edge_mid[row[c]];
            for (int64_t k = 0; k < pads; k++)
                dst[k] = pad_ipin + 4 * (int32_t)k;
            edge_mid[row[c]] += (int32_t)pads;
        }
    }

    /* pin rows, in place: IPIN -> every SINK of its tile; SOURCE ->
     * its OPIN; OPIN -> its Fc columns of the tile's wire row; pads
     * SOURCE -> OPIN -> every adjacent wire, IPIN -> SINK.  Only OPIN
     * rows hold PIN edges */
    memset(edge_kind + wire_edges, INTERNAL, (size_t)(f.n_edges - wire_edges));
    for (int64_t tile = 0; tile < f.n_tiles; tile++) {
        int64_t first = f.lb_first + tile * f.per_lb;
        const int32_t *row = tile_wires + tile * nw;
        for (int64_t i = 0; i < n_in; i++) {
            int32_t *dst = edge_dst + edge_start[first + i];
            for (int64_t s = 0; s < n_in; s++)
                dst[s] = (int32_t)(first + n_in + s);
        }
        for (int64_t o = 0; o < f.n_out; o++) {
            int64_t opin = first + 2 * n_in + 2 * o;
            edge_dst[edge_start[opin + 1]] = (int32_t)opin;
            int32_t at = edge_start[opin];
            memset(edge_kind + at, PIN, (size_t)f.k_out);
            for (int64_t j = 0, c = o * f.step_out % nw; j < f.k_out; j++) {
                edge_dst[at++] = row[c];
                c = c + 1 == nw ? 0 : c + 1;
            }
        }
    }
    for (int64_t p = 0; p < n_perim; p++) {
        const int32_t *row = tile_wires + perim[p] * nw;
        for (int64_t k = 0; k < pads; k++) {
            int64_t source = f.io_first + 4 * (p * pads + k);
            edge_dst[edge_start[source]] = (int32_t)(source + 1);
            int32_t at = edge_start[source + 1];
            memcpy(edge_dst + at, row, (size_t)nw * sizeof(int32_t));
            memset(edge_kind + at, PIN, (size_t)nw);
            edge_dst[edge_start[source + 2]] = (int32_t)(source + 3);
        }
    }
    for (int64_t v = f.lb_first; v < n; v++)
        edge_mid[v] = kind[v] == IPIN ? edge_start[v] : edge_start[v + 1];

    free(off_x);
    return 0;
}
