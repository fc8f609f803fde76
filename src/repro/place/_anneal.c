/* Native anneal loop: the C twin of repro.place.placer._anneal_python.
 *
 * Runs the whole VPR-style schedule (every round, every proposal) over
 * the integer anneal state that place() builds: tile occupancy, the
 * terminals' x/y coordinates, the live nets and each movable cell's
 * nets as CSR rows, the cached per-net half-perimeters and the
 * forbidden-tile bytes.  Random numbers come from numpy's bitgen_t
 * (rng.bit_generator.ctypes.bit_generator), drawn in exactly the order
 * and by exactly the rule the Python kernel uses, so both kernels leave
 * the same placement and the same generator state.
 *
 * Floating point: exp() is libm's, which Python's math.exp also calls;
 * the acceptance exponent and the accept ratio are one division each
 * and every temperature step is one multiply.  No expression has the
 * form a*b+c, so floating-point contraction cannot change a result.
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

/* Anneals in place: `occ`, `tx`, `ty` and `net_cost` hold the result.
 * Returns the number of rounds, or -1 when scratch memory could not be
 * allocated (nothing is drawn or written then); `*accepted` receives
 * the number of accepted moves. */
int64_t place_anneal(
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
                int32_t k = aff[j], lo = net_start[k], hi = net_start[k + 1];
                int32_t x0 = tx[net_terms[lo]], x1 = x0;
                int32_t y0 = ty[net_terms[lo]], y1 = y0;
                for (int32_t e = lo + 1; e < hi; e++) {
                    int32_t v = tx[net_terms[e]];
                    if (v < x0)
                        x0 = v;
                    else if (v > x1)
                        x1 = v;
                    v = ty[net_terms[e]];
                    if (v < y0)
                        y0 = v;
                    else if (v > y1)
                        y1 = v;
                }
                newc[j] = x1 - x0 + y1 - y0;
                delta += newc[j] - net_cost[k];
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
