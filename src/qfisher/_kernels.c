/* The compiled kernels of qfisher, each the C form of a numpy computation
 * with the same IEEE operations in the same order, so the results are its
 * bits.  Build with -ffp-contract=off: a fused multiply-add rounds once
 * where numpy rounds twice.
 *
 * qfisher_march: the explicit conservative march of diffusion._Kernel.march
 * as one loop, for m in {1, 2} and beta in {2, 3}, where v^m is v or v*v and
 * the face flux |d|^(beta-2) d is d or |d|*d.
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

#define LANES 4
/* np.pi */
#define PI 3.141592653589793

/* The march.
 *
 * v (n) is stepped in place.  d (n-1) receives D(v^m)/h and fpad (n+1) the
 * face fluxes between its two zero outer entries; d is fpad + 1 when
 * beta = 2.
 *
 * io[0] holds t on entry and on return; *steps the step count.  On return
 * io[1] is the CFL dt of the last flux pass, io[2] the dt of the last step
 * and io[3] the minimum of the aborting step.  Returns 0 once t >= stop,
 * 1 on a value below clamp_rel * max(max v, 1) (v updated, t not advanced)
 * and 2 when the step count passes budget.
 *
 * Extrema are taken in LANES independent lanes of branch-free compares
 * (x < m ? x : m, which never picks a NaN x), so no compare waits on the one
 * before; element i goes to lane i % LANES.  Each such loop is a body over
 * whole groups of LANES elements, which gcc vectorizes, and a tail.  The
 * maxima are numpy's maximum.reduce: NaN when any element is NaN.  The
 * minimum after a step skips NaNs, which changes nothing: it only decides
 * whether the clamp runs, and the clamp leaves NaNs and positive values as
 * they are; a NaN makes the maximum that scales the abort threshold NaN, so
 * there is no abort, as numpy's NaN minimum gives none.
 */

/* max of x[0..n-1], or of |x| when absolute; NaN when any x is NaN.  A NaN
 * is kept in lane k of nan_seen once one passes through it (a store only on
 * y != y), a blend gcc vectorizes where an integer flag is not. */
static double max_reduce(const double *x, long n, int absolute)
{
    double m[LANES], nan_seen[LANES];
    long i = 0;
    for (int k = 0; k < LANES; k++) {
        m[k] = -INFINITY;
        nan_seen[k] = 0.0;
    }
    for (; i + LANES <= n; i += LANES)
        for (int k = 0; k < LANES; k++) {
            double y = absolute ? fabs(x[i + k]) : x[i + k];
            m[k] = y > m[k] ? y : m[k];
            nan_seen[k] = y != y ? y : nan_seen[k];
        }
    for (int k = 0; i + k < n; k++) {
        double y = absolute ? fabs(x[i + k]) : x[i + k];
        m[k] = y > m[k] ? y : m[k];
        nan_seen[k] = y != y ? y : nan_seen[k];
    }
    for (int k = 1; k < LANES; k++) {
        m[0] = m[k] > m[0] ? m[k] : m[0];
        nan_seen[0] = nan_seen[k] != nan_seen[k] ? nan_seen[k] : nan_seen[0];
    }
    return nan_seen[0] != nan_seen[0] ? NAN : m[0];
}

int qfisher_march(double *v, double *d, double *fpad, long n, int m2, int beta3,
                  double h, double diffusivity, double cfl_h2, double clamp_rel,
                  double target, double stop, long long budget,
                  double *io, long long *steps)
{
    double t = io[0];
    for (;;) {
        /* flux pass: d = diff(v^m) / h, F = d or |d| d, and the CFL dt from
           the bound (beta-1) m (max v)^(m-1) (max |d|)^(beta-2); at beta = 2
           the one store to fpad[i + 1] is d[i] */
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
        double ffac = m2 ? max_reduce(v, n, 0) : 1.0;
        double gfac = beta3 ? max_reduce(d, n - 1, 1) : 1.0;
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

        /* update v += dt/h div(F), then the negativity abort and the clamp */
        double lo[LANES];
        long i = 0;
        for (int k = 0; k < LANES; k++)
            lo[k] = INFINITY;
        for (; i + LANES <= n; i += LANES)
            for (int k = 0; k < LANES; k++) {
                double x = v[i + k] + (fpad[i + k + 1] - fpad[i + k]) * dt_h;
                v[i + k] = x;
                lo[k] = x < lo[k] ? x : lo[k];
            }
        for (int k = 0; i + k < n; k++) {
            double x = v[i + k] + (fpad[i + k + 1] - fpad[i + k]) * dt_h;
            v[i + k] = x;
            lo[k] = x < lo[k] ? x : lo[k];
        }
        double worst = lo[0];
        for (int k = 1; k < LANES; k++)
            worst = lo[k] < worst ? lo[k] : worst;
        if (!(worst > 0.0)) {
            double top = max_reduce(v, n, 0);
            if (worst < 0.0 && worst < clamp_rel * (1.0 > top ? 1.0 : top)) {
                io[0] = t;
                io[3] = worst;
                return 1;
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
