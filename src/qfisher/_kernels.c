/* The compiled kernels of qfisher, each the C form of a numpy computation
 * with the same IEEE operations in the same order, so the results are its
 * bits.  Build with -ffp-contract=off: a fused multiply-add rounds once
 * where numpy rounds twice.  The only fused multiply-adds are the two
 * explicit ones of the eight-wide march's division, whose result is the
 * quotient's own bits (see "The division" below).
 *
 * qfisher_march: the explicit conservative march of diffusion._Kernel.march
 * as one loop, for m in {1, 2} and beta in {2, 3}, where v^m is v or v*v and
 * the face flux |d|^(beta-2) d is d or |d|*d.  Each step is one pass over v
 * that updates it and takes the next step's fluxes.  The march is written
 * once, generic in its vector width W, and compiled for each (m, beta) at
 * two widths, W in {2, 8}: W = 2, with SSE2 on every x86-64 and plain C
 * elsewhere, and W = 8, with AVX-512F, on x86-64 only.  A call takes the
 * widest body the CPU runs, which qfisher_march_body reports; one library,
 * built with the same flags everywhere, holds both.
 *
 * qfisher_bump: a windowed Fourier bump of perturb.fourier_bump at each
 * abscissa, through libm's cos and sin, which are numpy's float64 cos and
 * sin on the builds where the perturb module selects this kernel.  gcc may
 * turn each cos/sin pair into one sincos call; glibc's sincos returns the
 * values of its cos and sin.  A per-node memo, keyed by the abscissa's bits,
 * hands back the libm values already computed for those bits, so a dilated
 * grid whose abscissae repeat at a node pays libm only for the new ones.
 */

#ifndef VEC

#include <math.h>
#include <stdint.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* the widest body compiled: 8 on x86-64 with gcc's or clang's per-function
   targets, else 2.  A test build with -DQFISHER_MAX_WIDTH=2 leaves out the
   eight-wide body, so that the two-wide one runs as on a CPU without
   AVX-512F */
#ifndef QFISHER_MAX_WIDTH
#define QFISHER_MAX_WIDTH 8
#elif QFISHER_MAX_WIDTH != 2 && QFISHER_MAX_WIDTH != 8
#error "QFISHER_MAX_WIDTH is 2 or 8"
#endif
#if defined(__x86_64__) && defined(__SSE2__) && defined(__GNUC__)
#define WIDEST QFISHER_MAX_WIDTH
#if defined(__clang__)
#include <immintrin.h>
#else
/* gcc's immintrin.h reads the header of every x86 extension: with it gcc 12
   peaks at 152 MB building this file, against 101 MB with the eight-wide
   body's avx512fintrin.h and the three it needs, which gcc lets a file
   include itself once immintrin.h's guard is defined.  The code built is
   the same */
#define _IMMINTRIN_H_INCLUDED
#include <smmintrin.h>
#include <avxintrin.h>
#include <avx2intrin.h>
#include <avx512fintrin.h>
#endif
#else
#define WIDEST 2
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
 * The pass runs on vectors of W nodes from node 1, W doubles in one
 * register; node 0 and the nodes after the last whole vector go one at a
 * time.  A vector's left neighbours are the clamped powers of the vector
 * before, taken by a shuffle rather than reloaded from v.  In the
 * eight-wide body a vector whose x and left neighbour are all at or
 * above a floor, at which v^m is at least W_FLOOR, takes the division
 * below, and needs no clamp and no minimum: the minimum only decides the
 * clamp and the abort, which a positive value changes neither.  Every other
 * vector (a value to clamp, a NaN, a value near 0 as at the front of a
 * compact support) takes the path of the two-wide body, which clamps,
 * divides by h and takes the minimum.
 *
 * Extrema are packed too: ACC vectors of accumulators take the vectors of
 * each group of GROUP = W ACC nodes in turn, so no compare waits on the one
 * before; the vectors after the last whole group go to the first
 * accumulator, and a single node to every lane of it.  The selection is
 * exact: minpd(x, m) is x < m ? x : m and maxpd(y, m) is y > m ? y : m,
 * lane by lane, each returning one of its operands and the second when
 * either is NaN; that C is the body of each helper on a target without
 * SSE2.  So a minimum or maximum is the least or greatest element whatever
 * the order of the compares, but for the sign of a zero result, on which
 * nothing depends: a zero extremum is compared with 0, raised to 1 in the
 * abort threshold, or makes a zero dmax, whose CFL dt is inf either way.
 *
 * The maxima are numpy's maximum.reduce: NaN when any element is NaN, which
 * the compares skip and the nan helper records.  The minimum after a step
 * skips NaNs, which changes nothing: it only decides whether the clamp runs,
 * and the clamp leaves NaNs and positive values as they are; a NaN makes the
 * maximum that scales the abort threshold NaN, so there is no abort, as
 * numpy's NaN minimum gives none.
 *
 * The division.  The two-wide body divides by h.  The eight-wide body would
 * wait on the divider, so it takes y = RN(1/h) once per call, by true
 * division, and in each lane of a vector above the floor
 *
 *     q0 = RN(a y),  r = RN(a - q0 h),  d = RN(q0 + r y),
 *
 * r and d one fused multiply-add each.  d = RN(a/h), the quotient's bits,
 * in every lane, as each lane takes the same operations.
 * Markstein's theorem (P. Markstein, IBM J. Res. Dev. 34 (1990) 111-119;
 * Muller et al., Handbook of Floating-Point Arithmetic, 2nd ed. (2018), on
 * division with an FMA) gives that when q0 is a faithful rounding of a/h,
 * but q0 = RN(a RN(1/h)) can lie 1.5 ulp from a/h, so the case is proved
 * here.  Take the exponent range unbounded (the range is below), a > 0
 * (each step is odd in a) and, scaling by powers of two, a and h in [1, 2)
 * with h > 1 (h = 1 gives y = 1, r = 0, d = a).  Let u = 2^-53, Q = a/h,
 * e = y - 1/h, D = q0 - Q, r* = a - q0 h exactly and X = q0 + r y, so that
 * d = RN(X) and X - Q = -D h e + (r - r*) y.
 *
 * - h e = h y - 1 is a multiple of 2^-105 and |h e| < h u/2 = H 2^-106
 *   (h = H 2^-52; 1/h is no midpoint), so |h e| <= h u/2 - 2^-106.
 * - Q is no midpoint between doubles (a quotient of two doubles never is).
 *   With s the spacing of the doubles at Q (u below 1, 2u above) and m a
 *   midpoint there, a - m h is a nonzero multiple of s u, so
 *   |Q - m| >= s u / h.  d != RN(Q) needs such an m with |Q - m| <= |X - Q|.
 * - q0 >= 1/2, as a y >= y >= 1/2.  If Q >= 1 and q0 >= 1: |D| <= u + a|e|
 *   < s, and r* is a multiple of 2^-104 below 2^-51, so r = r*.  If Q >= 1
 *   and q0 < 1, then q0 = 1 - u and Q < 1 + u/2, at least u/2 from every
 *   midpoint, far beyond |X - Q|.  If Q < 1: |D| <= u/2 + a|e| <
 *   (1 + a) u/2, and r* is a multiple of 2^-105 below 3u, so
 *   |r - r*| <= 2^-105.  So |X - Q| < 3.5 2^-106, and q0 - m, an odd
 *   multiple of s/2 below |D| + |X - Q| in size, is +-s/2 or, at Q < 1,
 *   +-3s/2.
 * - q0 - m = +-s/2: |D| <= s/2 + |Q - m| puts r* below 2s, so r = r*, and
 *   |Q - m| <= (s/2 + |Q - m|) |h e| gives
 *   |Q - m| <= (s/2) (h u/2 - 2^-106) / (1 - u), below s u / h since
 *   h^2 - h 2^-52 + 2^-51 < 4.
 * - q0 - m = +-3s/2: |D| > 3u/2 - 3.5 2^-106 needs (2 - a) u/2 <
 *   3.5 2^-106, so a = 2 - k 2^-52 with k <= 3, and h = 2 - j 2^-52 with
 *   j < k.  Those three pairs give d = RN(Q) in exact arithmetic, and the
 *   tests run them.
 *
 * The range.  Above the floor every difference a is 0 or at least
 * ulp(W_FLOOR) = 2^-912 in size, and the division is taken only for
 * 2^-40 <= h <= 2^40 and rounding to nearest (else every vector takes the
 * other path).  So y, q0
 * and d are normal and r* a multiple of about 2^-106 a >= 2^-1018: nothing
 * underflows, and the results are the unbounded ones unless an operation
 * overflows.  a = +0 gives d = +0, as +0 / h does; -0 never occurs, as
 * x - x is +0.  An infinite power makes an infinite a or an inf - inf, and
 * an infinite a makes r an inf - inf.  So an eight-wide pass clears the
 * MXCSR's exception flags and reads them after: a raised invalid or
 * overflow flag, from these or from any other operation of the pass, marks
 * the step.  After a marked step's clamp, unless the step aborts, the flux
 * pass of the entry takes the fluxes of v again by true division: v then
 * holds the very values the fused pass differenced.
 */

#define ACC 4

/* the least clamped power v^m that the wide division differences */
#define W_FLOOR 0x1p-860

/* CAT(pair, min) is pair_min */
#define CAT(a, b) CAT_(a, b)
#define CAT_(a, b) a##_##b

typedef double pair __attribute__((vector_size(16)));

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

/* (prev[1], x[0]): the left neighbours of x's lanes, when x follows prev
   (gcc emits the shufpd of _mm_shuffle_pd(prev, x, 1) for it) */
static inline pair pair_shift(pair prev, pair x)
{
    return (pair){prev[1], x[0]};
}

/* the two-wide division: a / h, at every vector */
typedef struct {
    double h;
} pair_divisor;

static inline pair_divisor pair_divide_by(double h, int m2)
{
    (void)m2;
    return (pair_divisor){h};
}

static inline pair pair_divide(pair a, const pair_divisor *q)
{
    return a / q->h;
}

/* the lanes, as bits, below the floor of the division: all */
static inline int pair_below(pair x, const pair_divisor *q)
{
    (void)x, (void)q;
    return 3;
}

static inline unsigned pair_watch(void)
{
    return 0;
}

static inline int pair_marked(unsigned csr)
{
    (void)csr;
    return 0;
}

#if WIDEST > 2
/* The floor of x at which v^m is at least W_FLOOR, above which the
   eight-wide body divides through y = RN(1/h) (see "The division"); NaN, so
   that every vector takes the other path, when h is out of range or the
   rounding is not to nearest */
static inline double oct_floor(double h, int m2)
{
    int in = h >= 0x1p-40 && h <= 0x1p40 && _MM_GET_ROUNDING_MODE() == _MM_ROUND_NEAREST;
    return !in ? NAN : m2 ? 0x1p-430 : W_FLOOR;
}

/* the MXCSR before a pass, whose exception flags it clears */
static inline unsigned oct_watch(void)
{
    unsigned csr = _mm_getcsr();
    _mm_setcsr(csr & ~_MM_EXCEPT_MASK);
    __asm__ __volatile__("" ::: "memory");
    return csr;
}

/* whether the pass since oct_watch, which returned csr, raised the invalid
   or overflow flag; the flags are left as they were before the pass or as
   it raised them */
static inline int oct_marked(unsigned csr)
{
    __asm__ __volatile__("" ::: "memory");
    unsigned raised = _mm_getcsr() & _MM_EXCEPT_MASK;
    _mm_setcsr(csr | raised);
    return (raised & (_MM_EXCEPT_INVALID | _MM_EXCEPT_OVERFLOW)) != 0;
}

/* the eight-wide helpers, each the two-wide one's operations on eight lanes;
   vminpd and vmaxpd return the second operand when either is NaN, as minpd
   and maxpd do */
#define OCT __attribute__((target("avx512f")))

typedef double oct __attribute__((vector_size(64)));

static inline OCT oct oct_min(oct x, oct m)
{
    return _mm512_min_pd(x, m);
}

static inline OCT oct oct_max(oct y, oct m)
{
    return _mm512_max_pd(y, m);
}

static inline OCT oct oct_nan(oct y, oct seen)
{
    return _mm512_mask_mov_pd(seen, _mm512_cmp_pd_mask(y, y, _CMP_UNORD_Q), y);
}

static inline OCT oct oct_clamp(oct x)
{
    return _mm512_maskz_mov_pd((__mmask8)~_mm512_cmp_pd_mask(x, _mm512_setzero_pd(), _CMP_LE_OQ),
                               x);
}

static inline OCT oct oct_abs(oct x)
{
    return _mm512_abs_pd(x);
}

/* (prev[7], x[0], ..., x[6]) */
static inline OCT oct oct_shift(oct prev, oct x)
{
    return _mm512_castsi512_pd(
        _mm512_alignr_epi64(_mm512_castpd_si512(x), _mm512_castpd_si512(prev), 7));
}

/* the eight-wide division (see "The division"): h, y = RN(1/h) and the
   floor, in every lane */
typedef struct {
    oct h, y, floor;
} oct_divisor;

static inline OCT oct_divisor oct_divide_by(double h, int m2)
{
    return (oct_divisor){_mm512_set1_pd(h), _mm512_set1_pd(1.0 / h),
                         _mm512_set1_pd(oct_floor(h, m2))};
}

/* RN(a/h) in each lane of a vector above the floor in a pass not marked */
static inline OCT oct oct_divide(oct a, const oct_divisor *q)
{
    oct q0 = a * q->y;
    return _mm512_fmadd_pd(_mm512_fnmadd_pd(q0, q->h, a), q->y, q0);
}

/* the lanes, as bits, whose x is below the floor or NaN */
static inline OCT int oct_below(oct x, const oct_divisor *q)
{
    return _mm512_cmp_pd_mask(x, q->floor, _CMP_NGE_UQ);
}
#endif

#else /* VEC: the march at width W */

/* The march at width W, read once for each width by the #include lines
 * below it: VEC is the W-wide vector type, V(min) its helper VEC_min and so
 * on, and TARGET the attribute of its functions. */

#define V(name) CAT(VEC, name)
#define GROUP (ACC * W)
#define INLINE inline __attribute__((always_inline)) TARGET

static INLINE VEC V(load)(const double *p)
{
    VEC x;
    memcpy(&x, p, sizeof x);
    return x;
}

/* x in every lane */
static INLINE VEC V(splat)(double x)
{
    VEC s;
    for (int k = 0; k < W; k++)
        s[k] = x;
    return s;
}

/* the running minimum and maximum of a sequence, and whether it held a NaN */
typedef struct {
    VEC lo[ACC], hi[ACC], seen[ACC];
} V(extrema);

static INLINE void V(extrema_start)(V(extrema) *e)
{
    for (int k = 0; k < ACC; k++) {
        e->lo[k] = V(splat)(INFINITY);
        e->hi[k] = V(splat)(-INFINITY);
        e->seen[k] = V(splat)(0.0);
    }
}

/* x into accumulator k: its minimum when with_min, its maximum and NaN
   record when with_max */
static INLINE void V(extrema_add)(V(extrema) *e, int k, VEC x, int with_min, int with_max)
{
    if (with_min)
        e->lo[k] = V(min)(x, e->lo[k]);
    if (with_max) {
        e->hi[k] = V(max)(x, e->hi[k]);
        e->seen[k] = V(nan)(x, e->seen[k]);
    }
}

/* the least element, NaNs skipped (inf when there is none) */
static INLINE double V(extrema_min)(const V(extrema) *e)
{
    VEC lo = e->lo[0];
    for (int k = 1; k < ACC; k++)
        lo = V(min)(e->lo[k], lo);
    double least = lo[0];
    for (int k = 1; k < W; k++)
        least = lo[k] < least ? lo[k] : least;
    return least;
}

/* the greatest element, or NaN when any was NaN */
static INLINE double V(extrema_max)(const V(extrema) *e)
{
    VEC hi = e->hi[0], seen = e->seen[0];
    for (int k = 1; k < ACC; k++) {
        hi = V(max)(e->hi[k], hi);
        seen = V(nan)(e->seen[k], seen);
    }
    double greatest = hi[0];
    for (int k = 0; k < W; k++) {
        if (seen[k] != seen[k])
            return NAN;
        greatest = hi[k] > greatest ? hi[k] : greatest;
    }
    return greatest;
}

/* max of x[0..n-1], or of |x| = max(max x, -min x) when absolute; NaN when
   any x is NaN */
static INLINE double V(max_reduce)(const double *x, long n, int absolute)
{
    V(extrema) e;
    long i = 0;
    V(extrema_start)(&e);
    for (; i + GROUP <= n; i += GROUP)
        for (int k = 0; k < ACC; k++)
            V(extrema_add)(&e, k, V(load)(x + i + W * k), 1, 1);
    for (; i < n; i++)
        V(extrema_add)(&e, 0, V(splat)(x[i]), 1, 1);
    double hi = V(extrema_max)(&e), lo = V(extrema_min)(&e);
    return absolute && -lo > hi ? -lo : hi;
}

/* the flux pass: d = diff(v^m) / h, F = d or |d| d, and the factor
   (max |d|)^(beta-2) of the CFL bound; at beta = 2 the one store to
   fpad[i + 1] is d[i] */
static INLINE double V(flux_pass)(const double *v, double *d, double *fpad, long n,
                                  int m2, int beta3, double h)
{
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
    return beta3 ? V(max_reduce)(d, n - 1, 1) : 1.0;
}

/* the extrema of one fused pass: x's minimum, and its maximum when m = 2;
   the maximum of |d| when beta = 3 */
typedef struct {
    V(extrema) x, d;
} V(step_extrema);

/* the fused pass at nodes j to j + W - 1 with accumulator k: returns their
   clamped v^m, the left neighbours of the next vector.  *below_left says
   whether node j - 1 is below the floor of the division, and is set to
   whether node j + W - 1 is */
static INLINE VEC V(fused_vec)(double *v, double *fpad, long j, VEC left, int *below_left,
                               double dt_h, double h, const V(divisor) *q,
                               V(step_extrema) *e, int k, int m2, int beta3)
{
    VEC x = V(load)(v + j) + (V(load)(fpad + j + 1) - V(load)(fpad + j)) * dt_h;
    memcpy(v + j, &x, sizeof x);
    int below = V(below)(x, q);
    VEC w, d;
    if (__builtin_expect(!(below | *below_left), 1)) {
        /* every x and the left neighbour at or above the floor: nothing to
           clamp, no minimum to take, and the division's quotients */
        w = m2 ? x * x : x;
        d = V(divide)(w - V(shift)(left, w), q);
    } else {
        VEC c = V(clamp)(x);
        w = m2 ? c * c : c;
        d = (w - V(shift)(left, w)) / h;
        V(extrema_add)(&e->x, k, x, 1, 0);
    }
    *below_left = below >> (W - 1);
    VEC a = V(abs)(d);
    VEC f = beta3 ? a * d : d;
    memcpy(fpad + j, &f, sizeof f);
    V(extrema_add)(&e->x, k, x, 0, m2);
    V(extrema_add)(&e->d, k, a, 0, beta3);
    return w;
}

/* the fused pass at node i alone, whose left neighbour's clamped v^m is
   left (not read at node 0, which has no face to its left): returns its
   own clamped v^m */
static INLINE double V(fused_one)(double *v, double *fpad, long i, double left, double dt_h,
                                  double h, V(step_extrema) *e, int m2, int beta3)
{
    double x = v[i] + (fpad[i + 1] - fpad[i]) * dt_h;
    v[i] = x;
    double c = x <= 0.0 ? 0.0 : x;
    double w = m2 ? c * c : c;
    V(extrema_add)(&e->x, 0, V(splat)(x), 1, m2);
    if (i > 0) {
        double d = (w - left) / h;
        double a = fabs(d);
        fpad[i] = beta3 ? a * d : d;
        V(extrema_add)(&e->d, 0, V(splat)(a), 0, beta3);
    }
    return w;
}

/* the march for one (m, beta), inlined with constant flags by each of the
   four calls in V(march) */
static INLINE int V(march_for)(double *v, double *d, double *fpad, long n, int m2, int beta3,
                               double h, double diffusivity, double cfl_h2, double clamp_rel,
                               double target, double stop, long long budget, double *io,
                               long long *steps)
{
    double t = io[0];
    V(divisor) q = V(divide_by)(h, m2);
    /* the flux pass on entry, and the factors (max v)^(m-1) and
       (max |d|)^(beta-2) of the CFL bound */
    double ffac = m2 ? V(max_reduce)(v, n, 0) : 1.0;
    double gfac = V(flux_pass)(v, d, fpad, n, m2, beta3, h);
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
        V(step_extrema) e;
        V(extrema_start)(&e.x);
        V(extrema_start)(&e.d);
        unsigned csr = V(watch)();
        VEC w = V(splat)(V(fused_one)(v, fpad, 0, 0.0, dt_h, h, &e, m2, beta3));
        int below_left = !(w[0] >= W_FLOOR);  /* node 0's power, or NaN */
        long i = 1;
        for (; i + GROUP <= n; i += GROUP)
            for (int k = 0; k < ACC; k++)
                w = V(fused_vec)(v, fpad, i + W * k, w, &below_left, dt_h, h, &q, &e, k, m2,
                                 beta3);
        for (; i + W <= n; i += W)
            w = V(fused_vec)(v, fpad, i, w, &below_left, dt_h, h, &q, &e, 0, m2, beta3);
        for (double left = w[W - 1]; i < n; i++)
            left = V(fused_one)(v, fpad, i, left, dt_h, h, &e, m2, beta3);
        double worst = V(extrema_min)(&e.x);
        int marked = V(marked)(csr);
        if (m2)
            ffac = V(extrema_max)(&e.x);
        if (beta3)
            gfac = V(extrema_max)(&e.d);

        /* the negativity abort, whose threshold reads max v only below a
           negative minimum, and the clamp.  The clamp keeps a positive or NaN
           maximum; any other leaves v all +0, so the flux is 0 and the next
           CFL dt is inf whether the maximum read is +0 or the one before the
           clamp */
        if (!(worst > 0.0)) {
            if (worst < 0.0) {
                double top = m2 ? ffac : V(max_reduce)(v, n, 0);
                if (worst < clamp_rel * (1.0 > top ? 1.0 : top)) {
                    io[0] = t;
                    io[3] = worst;
                    return 1;
                }
            }
            for (long j = 0; j < n; j++)
                v[j] = v[j] <= 0.0 ? 0.0 : v[j];
        }
        /* a marked pass: the fluxes of the clamped v again, by true division */
        if (marked)
            gfac = V(flux_pass)(v, d, fpad, n, m2, beta3, h);
        t += dt;
        *steps += 1;
        if (*steps > budget) {
            io[0] = t;
            return 2;
        }
    }
}

/* qfisher_march at width W */
static TARGET int V(march)(double *v, double *d, double *fpad, long n, int m2, int beta3,
                           double h, double diffusivity, double cfl_h2, double clamp_rel,
                           double target, double stop, long long budget, double *io,
                           long long *steps)
{
#define MARCH(M2, BETA3) V(march_for)(v, d, fpad, n, M2, BETA3, h, diffusivity, cfl_h2, \
                                      clamp_rel, target, stop, budget, io, steps)
    if (m2)
        return beta3 ? MARCH(1, 1) : MARCH(1, 0);
    return beta3 ? MARCH(0, 1) : MARCH(0, 0);
#undef MARCH
}

#undef V
#undef GROUP
#undef INLINE

#endif /* VEC */

#ifndef VEC

/* the march at each width: the lines above, read again */
#define VEC pair
#define W 2
#define TARGET
#include "_kernels.c"
#undef VEC
#undef W
#undef TARGET

#if WIDEST > 2
#define VEC oct
#define W 8
#define TARGET OCT
#include "_kernels.c"
#undef VEC
#undef W
#undef TARGET
#endif

/* the body the next qfisher_march call takes: 3 for the eight-wide one with
   AVX-512F, 1 for the two-wide one with SSE2, 0 for the two-wide one in
   plain C; 2 is not used */
int qfisher_march_body(void)
{
#if WIDEST > 2
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return 3;
#endif
#ifdef __SSE2__
    return 1;
#else
    return 0;
#endif
}

int qfisher_march(double *v, double *d, double *fpad, long n, int m2, int beta3,
                  double h, double diffusivity, double cfl_h2, double clamp_rel,
                  double target, double stop, long long budget,
                  double *io, long long *steps)
{
#define MARCH(VEC) CAT(VEC, march)(v, d, fpad, n, m2, beta3, h, diffusivity, cfl_h2, \
                                   clamp_rel, target, stop, budget, io, steps)
    switch (qfisher_march_body()) {
#if WIDEST > 2
    case 3:
        return MARCH(oct);
#endif
    default:
        return MARCH(pair);
    }
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

#endif /* !VEC */
