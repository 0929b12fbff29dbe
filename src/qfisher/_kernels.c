/* The compiled kernels of qfisher, each the C form of a numpy computation
 * with the same IEEE operations in the same order, so the results are its
 * bits.  Build with -ffp-contract=off: a fused multiply-add rounds once
 * where numpy rounds twice.
 *
 * qfisher_march: the explicit conservative march of diffusion._Kernel.march
 * as one loop, for m in {1, 2} and beta in {2, 3}, where v^m is v or v*v and
 * the face flux |d|^(beta-2) d is d or |d|*d.  It is compiled once for each
 * (m, beta), and each step is one pass over v that updates it and takes the
 * next step's fluxes.
 *
 * qfisher_bump: a windowed Fourier bump of perturb.fourier_bump at each
 * abscissa, through libm's cos and sin, which are numpy's float64 cos and
 * sin on the builds where the perturb module selects this kernel.  gcc may
 * turn each cos/sin pair into one sincos call; glibc's sincos returns the
 * values of its cos and sin.  A per-node memo, keyed by the abscissa's bits,
 * hands back the libm values already computed for those bits, so a dilated
 * grid whose abscissae repeat at a node pays libm only for the new ones.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* np.pi */
#define PI 3.141592653589793

/* The march.
 *
 * v (n) is stepped in place.  fpad (n+1) holds the face fluxes between its
 * two zero outer entries, and d (n-1) receives D(v^m)/h in the flux pass on
 * entry; d is fpad + 1 when beta = 2.
 *
 * io[0] holds t on entry and on return; *steps the step count.  On return
 * io[1] is the CFL dt of the last fluxes taken, io[2] the dt of the last
 * step and io[3] the minimum of the aborting step.  Returns 0 once
 * t >= stop, 1 on a value below clamp_rel * max(max v, 1) (v updated, t not
 * advanced) and 2 when the step count passes budget.
 *
 * One flux pass on entry takes the face fluxes of v.  After that each step
 * is one pass over v and fpad: node i gets x = v[i] + (F[i+1] - F[i]) dt/h,
 * stored as it is, and in the same pass the next step's flux at face
 * (i-1 | i) is taken from the clamped values x <= 0 ? +0 : x and written
 * over F[i], which no later node reads.  The clamp pass, which runs when the
 * numpy march's clamp does, then fixes v only: when the step does not abort,
 * it leaves v at the very values the flux was taken from, and an aborting
 * step leaves v unclamped, as numpy does.
 *
 * The pass runs on pairs of nodes from node 1, two doubles in one SSE2
 * register on every x86-64; node 0 and, when n is even, node n - 1 go one
 * at a time.  A pair's left neighbours are the clamped powers of the pair
 * before, taken by a shuffle rather than reloaded from v.
 *
 * Extrema are packed too: ACC pairs of accumulators take the pairs of each
 * group of GROUP = 2 ACC nodes in turn, so no compare waits on the one
 * before; the pairs after the last whole group go to the first accumulator,
 * and a single node to both lanes of it.  The selection is exact: minpd(x,
 * m) is x < m ? x : m and maxpd(y, m) is y > m ? y : m, lane by lane, each
 * returning one of its operands and the second when either is NaN; that C
 * is the body of each helper on a target without SSE2.  So a minimum or
 * maximum is the least or greatest element whatever the order of the
 * compares, but for the sign of a zero result, on which nothing depends: a
 * zero extremum is compared with 0, raised to 1 in the abort threshold, or
 * makes a zero dmax, whose CFL dt is inf either way.
 *
 * The maxima are numpy's maximum.reduce: NaN when any element is NaN, which
 * the compares skip and pair_nan records.  The minimum after a step skips
 * NaNs, which changes nothing: it only decides whether the clamp runs, and
 * the clamp leaves NaNs and positive values as they are; a NaN makes the
 * maximum that scales the abort threshold NaN, so there is no abort, as
 * numpy's NaN minimum gives none.
 */

#define ACC 4
#define GROUP (2 * ACC)

typedef double pair __attribute__((vector_size(16)));

static inline pair pair_load(const double *p)
{
    pair x;
    memcpy(&x, p, sizeof x);
    return x;
}

/* x < m ? x : m in each lane */
static inline pair pair_min(pair x, pair m)
{
#ifdef __SSE2__
    return _mm_min_pd(x, m);
#else
    return (pair){x[0] < m[0] ? x[0] : m[0], x[1] < m[1] ? x[1] : m[1]};
#endif
}

/* y > m ? y : m in each lane */
static inline pair pair_max(pair y, pair m)
{
#ifdef __SSE2__
    return _mm_max_pd(y, m);
#else
    return (pair){y[0] > m[0] ? y[0] : m[0], y[1] > m[1] ? y[1] : m[1]};
#endif
}

/* seen, made a NaN in each lane where y is NaN: NaN from then on */
static inline pair pair_nan(pair y, pair seen)
{
#ifdef __SSE2__
    return _mm_or_pd(seen, _mm_cmpunord_pd(y, y));
#else
    return (pair){y[0] != y[0] ? y[0] : seen[0], y[1] != y[1] ? y[1] : seen[1]};
#endif
}

/* x <= 0 ? +0.0 : x in each lane, so NaN stays and -0.0 becomes +0.0 */
static inline pair pair_clamp(pair x)
{
#ifdef __SSE2__
    return _mm_andnot_pd(_mm_cmple_pd(x, _mm_setzero_pd()), x);
#else
    return (pair){x[0] <= 0.0 ? 0.0 : x[0], x[1] <= 0.0 ? 0.0 : x[1]};
#endif
}

/* |x| in each lane */
static inline pair pair_abs(pair x)
{
#ifdef __SSE2__
    return _mm_andnot_pd(_mm_set1_pd(-0.0), x);
#else
    return (pair){fabs(x[0]), fabs(x[1])};
#endif
}

/* (prev[1], x[0]): the left neighbours of x's lanes, when x follows prev */
static inline pair pair_shift(pair prev, pair x)
{
#ifdef __SSE2__
    return _mm_shuffle_pd(prev, x, 1);
#else
    return (pair){prev[1], x[0]};
#endif
}

/* the running minimum and maximum of a sequence, and whether it held a NaN */
struct extrema {
    pair lo[ACC], hi[ACC], seen[ACC];
};

static inline void extrema_start(struct extrema *e)
{
    for (int k = 0; k < ACC; k++) {
        e->lo[k] = (pair){INFINITY, INFINITY};
        e->hi[k] = (pair){-INFINITY, -INFINITY};
        e->seen[k] = (pair){0.0, 0.0};
    }
}

/* x into accumulator k: its minimum when with_min, its maximum and NaN
   record when with_max */
static inline void extrema_add(struct extrema *e, int k, pair x, int with_min, int with_max)
{
    if (with_min)
        e->lo[k] = pair_min(x, e->lo[k]);
    if (with_max) {
        e->hi[k] = pair_max(x, e->hi[k]);
        e->seen[k] = pair_nan(x, e->seen[k]);
    }
}

/* the least element, NaNs skipped (inf when there is none) */
static inline double extrema_min(const struct extrema *e)
{
    pair lo = e->lo[0];
    for (int k = 1; k < ACC; k++)
        lo = pair_min(e->lo[k], lo);
    return lo[1] < lo[0] ? lo[1] : lo[0];
}

/* the greatest element, or NaN when any was NaN */
static inline double extrema_max(const struct extrema *e)
{
    pair hi = e->hi[0], seen = e->seen[0];
    for (int k = 1; k < ACC; k++) {
        hi = pair_max(e->hi[k], hi);
        seen = pair_nan(e->seen[k], seen);
    }
    return seen[0] != seen[0] || seen[1] != seen[1] ? NAN : hi[1] > hi[0] ? hi[1] : hi[0];
}

/* max of x[0..n-1], or of |x| = max(max x, -min x) when absolute; NaN when
   any x is NaN */
static double max_reduce(const double *x, long n, int absolute)
{
    struct extrema e;
    long i = 0;
    extrema_start(&e);
    for (; i + GROUP <= n; i += GROUP)
        for (int k = 0; k < ACC; k++)
            extrema_add(&e, k, pair_load(x + i + 2 * k), 1, 1);
    for (; i < n; i++)
        extrema_add(&e, 0, (pair){x[i], x[i]}, 1, 1);
    double hi = extrema_max(&e), lo = extrema_min(&e);
    return absolute && -lo > hi ? -lo : hi;
}

/* the extrema of one fused pass: x's minimum, and its maximum when m = 2;
   the maximum of |d| when beta = 3 */
struct step_extrema {
    struct extrema x, d;
};

/* the fused pass at nodes j and j + 1 with accumulator k: returns their
   clamped v^m, the left neighbours of the next pair */
static inline __attribute__((always_inline)) pair
fused_pair(double *v, double *fpad, long j, pair left, double dt_h, double h,
           struct step_extrema *e, int k, int m2, int beta3)
{
    pair x = pair_load(v + j) + (pair_load(fpad + j + 1) - pair_load(fpad + j)) * dt_h;
    memcpy(v + j, &x, sizeof x);
    pair c = pair_clamp(x);
    pair w = m2 ? c * c : c;
    pair d = (w - pair_shift(left, w)) / h;
    pair a = pair_abs(d);
    pair f = beta3 ? a * d : d;
    memcpy(fpad + j, &f, sizeof f);
    extrema_add(&e->x, k, x, 1, m2);
    extrema_add(&e->d, k, a, 0, beta3);
    return w;
}

/* the fused pass at node i alone, whose left neighbour's clamped v^m is
   left (not read at node 0, which has no face to its left): returns its
   own clamped v^m */
static inline __attribute__((always_inline)) double
fused_one(double *v, double *fpad, long i, double left, double dt_h, double h,
          struct step_extrema *e, int m2, int beta3)
{
    double x = v[i] + (fpad[i + 1] - fpad[i]) * dt_h;
    v[i] = x;
    double c = x <= 0.0 ? 0.0 : x;
    double w = m2 ? c * c : c;
    extrema_add(&e->x, 0, (pair){x, x}, 1, m2);
    if (i > 0) {
        double d = (w - left) / h;
        double a = fabs(d);
        fpad[i] = beta3 ? a * d : d;
        extrema_add(&e->d, 0, (pair){a, a}, 0, beta3);
    }
    return w;
}

/* qfisher_march for one (m, beta), inlined with constant flags by each of
   its four calls */
static inline __attribute__((always_inline)) int
march(double *v, double *d, double *fpad, long n, int m2, int beta3,
      double h, double diffusivity, double cfl_h2, double clamp_rel,
      double target, double stop, long long budget, double *io, long long *steps)
{
    double t = io[0];
    /* the flux pass on entry: d = diff(v^m) / h, F = d or |d| d, and the
       factors (max v)^(m-1) and (max |d|)^(beta-2) of the CFL bound; at
       beta = 2 the one store to fpad[i + 1] is d[i] */
    double ffac = m2 ? max_reduce(v, n, 0) : 1.0;
    for (long i = 0; i < n - 1; i++) {
        double w_lo = m2 ? v[i] * v[i] : v[i];
        double w_hi = m2 ? v[i + 1] * v[i + 1] : v[i + 1];
        double di = (w_hi - w_lo) / h;
        if (beta3) {
            d[i] = di;
            fpad[i + 1] = fabs(di) * di;
        } else {
            fpad[i + 1] = di;
        }
    }
    double gfac = beta3 ? max_reduce(d, n - 1, 1) : 1.0;
    for (;;) {
        /* the CFL dt from the bound (beta-1) m (max v)^(m-1) (max |d|)^(beta-2) */
        double dmax = diffusivity * ffac * gfac;
        double cfl = dmax <= 0 ? INFINITY : cfl_h2 / dmax;
        io[1] = cfl;
        if (!(t < stop)) {
            io[0] = t;
            return 0;
        }
        double rem = target - t;
        double dt = rem < cfl ? rem : cfl;
        double dt_h = dt / h;
        io[2] = dt;

        /* the fused pass: v += dt/h div(F) with its minimum and, at m = 2,
           its maximum, and the next flux with its max |d| at beta = 3 */
        struct step_extrema e;
        extrema_start(&e.x);
        extrema_start(&e.d);
        pair w = {0.0, fused_one(v, fpad, 0, 0.0, dt_h, h, &e, m2, beta3)};
        long i = 1;
        for (; i + GROUP <= n; i += GROUP)
            for (int k = 0; k < ACC; k++)
                w = fused_pair(v, fpad, i + 2 * k, w, dt_h, h, &e, k, m2, beta3);
        for (; i + 2 <= n; i += 2)
            w = fused_pair(v, fpad, i, w, dt_h, h, &e, 0, m2, beta3);
        if (i < n)
            fused_one(v, fpad, i, w[1], dt_h, h, &e, m2, beta3);
        double worst = extrema_min(&e.x);
        if (m2)
            ffac = extrema_max(&e.x);
        if (beta3)
            gfac = extrema_max(&e.d);

        /* the negativity abort, whose threshold reads max v only below a
           negative minimum, and the clamp.  The clamp keeps a positive or NaN
           maximum; any other leaves v all +0, so the flux is 0 and the next
           CFL dt is inf whether the maximum read is +0 or the one before the
           clamp */
        if (!(worst > 0.0)) {
            if (worst < 0.0) {
                double top = m2 ? ffac : max_reduce(v, n, 0);
                if (worst < clamp_rel * (1.0 > top ? 1.0 : top)) {
                    io[0] = t;
                    io[3] = worst;
                    return 1;
                }
            }
            for (long j = 0; j < n; j++)
                v[j] = v[j] <= 0.0 ? 0.0 : v[j];
        }
        t += dt;
        *steps += 1;
        if (*steps > budget) {
            io[0] = t;
            return 2;
        }
    }
}

int qfisher_march(double *v, double *d, double *fpad, long n, int m2, int beta3,
                  double h, double diffusivity, double cfl_h2, double clamp_rel,
                  double target, double stop, long long budget,
                  double *io, long long *steps)
{
#define MARCH(M2, BETA3) march(v, d, fpad, n, M2, BETA3, h, diffusivity, cfl_h2, clamp_rel, \
                               target, stop, budget, io, steps)
    if (m2)
        return beta3 ? MARCH(1, 1) : MARCH(1, 0);
    return beta3 ? MARCH(0, 1) : MARCH(0, 0);
#undef MARCH
}

/* The bump.
 *
 * out[i] = (w * w) * acc at each u[i] with |u[i]| < 1, where w =
 * cos((pi u) / 2) and acc = 0.0 plus, for j = 1..modes in order,
 * coef[j-1] cos(phi) + coef[modes+j-1] sin(phi) with phi = (j pi) u: the
 * operations and order of perturb's numpy mode sum over its trig table.
 * out[i] = +0.0 at every other u[i], NaN included.  coef holds the cos
 * coefficients, then the sin coefficients.
 *
 * The libm part of a u is its row of 2 modes + 1 doubles: cos(phi) and
 * sin(phi) for j = 1..modes, then w * w.  With slots from 2 to 255, node i
 * keeps the rows of `slots` distinct u: keys[i slots + s] is the bit
 * pattern of the u of row rows[(i slots + s) (2 modes + 1)], and cursor[i]
 * (0 at first) is the slot the next new u at node i fills.  Slot 0 keeps
 * the first u a node sees, which on a base grid is its node, revisited by
 * every bump; slots 1 to slots - 1 are then replaced first in, first out.
 * counts[0] and counts[1] count lookups and misses.  Keys start as a
 * pattern no u inside the window has (a NaN's), and a u outside it never
 * reaches the memo, so a hit hands back the very doubles libm returned for
 * those bits and out is the same whatever the memo holds.  With slots = 0
 * there is no memo and its pointers are not read.
 */

/* the row of x: cos and sin of (j pi) x for j = 1..modes, then w * w */
static void libm_row(double x, long modes, double *row)
{
    for (long j = 1; j <= modes; j++) {
        double phi = ((double)j * PI) * x;
        row[2 * j - 2] = cos(phi);
        row[2 * j - 1] = sin(phi);
    }
    double w = cos((PI * x) / 2.0);
    row[2 * modes] = w * w;
}

void qfisher_bump(const double *u, long n, const double *coef, long modes, double *out,
                  long slots, uint64_t *keys, double *rows, unsigned char *cursor,
                  long long *counts)
{
    long width = 2 * modes + 1;
    double scratch[width];
    for (long i = 0; i < n; i++) {
        double x = u[i];
        if (!(fabs(x) < 1.0)) {
            out[i] = 0.0;
            continue;
        }
        double *row = scratch;
        if (slots > 0) {
            uint64_t bits;
            memcpy(&bits, &x, sizeof bits);
            uint64_t *key = keys + i * slots;
            long s = 0;
            while (s < slots && key[s] != bits)
                s++;
            counts[0] += 1;
            if (s == slots) {
                s = cursor[i];
                cursor[i] = (unsigned char)(s + 1 < slots ? s + 1 : 1);
                key[s] = bits;
                libm_row(x, modes, rows + (i * slots + s) * width);
                counts[1] += 1;
            }
            row = rows + (i * slots + s) * width;
        } else {
            libm_row(x, modes, scratch);
        }
        double acc = 0.0;
        for (long j = 0; j < modes; j++)
            acc += coef[j] * row[2 * j] + coef[modes + j] * row[2 * j + 1];
        out[i] = row[2 * modes] * acc;
    }
}
