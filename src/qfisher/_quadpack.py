"""Adaptive quadrature and Brent's root finder, ported operation for
operation from the scipy 1.17 routines that qfisher calls, so that each
result is scipy's to the last bit:

- `quad`: QUADPACK's dqagse (finite range, 21-point Gauss-Kronrod), from
  Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK
  (Springer 1983), behind `scipy.integrate.quad` on a finite range;
- `brentq`: Brent's method (Brent, Algorithms for Minimization without
  Derivatives, 1973) as in scipy's brentq.c, behind
  `scipy.optimize.brentq`.

Only the branches qfisher uses are ported: no infinite ranges (dqagie),
extra arguments, break points, weight functions or diagnostics output, and
scipy's default tolerances are fixed.  Failures are scipy's: ValueError
for a bracket whose ends have one sign or a NaN function value,
RuntimeError when brentq does not converge, and an IntegrationWarning (a
UserWarning) when QUADPACK reports ier 1-5.  The arithmetic is plain IEEE
double, as is scipy's compiled code; only the one power (x**1.5, libm
`pow` either way) and divisions that would raise in Python where C yields
inf are guarded.
"""

from __future__ import annotations

import math
import sys
import warnings

EPMACH = sys.float_info.epsilon  # d1mach(4)
UFLOW = sys.float_info.min  # d1mach(1)
OFLOW = sys.float_info.max  # d1mach(2)
#: scipy.integrate.quad's default absolute and relative tolerances
EPSABS = 1.49e-8
EPSREL = 1.49e-8
#: scipy.optimize.brentq's default iteration limit
BRENTQ_MAXITER = 100
#: size of the epsilon table of dqelg (limexp)
LIMEXP = 50

# 21-point Kronrod abscissae on [-1, 1] (positive half, descending to 0),
# their weights, and the weights of the embedded 10-point Gauss rule,
# which uses the odd-numbered (1-based) abscissae
_XGK21 = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK21 = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980029535, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG10 = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


class IntegrationWarning(UserWarning):
    """QUADPACK ended with ier 1-5: the result may miss the tolerance."""


_IER_MESSAGES = {
    1: "the maximum number of subdivisions ({limit}) has been achieved",
    2: "roundoff error prevents the requested tolerance from being achieved",
    3: "extremely bad integrand behavior occurs at some points of the integration interval",
    4: "the algorithm does not converge: roundoff error in the extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
}


def _dqk21(f, a, b):
    """21-point Gauss-Kronrod rule on [a, b]: (result, abserr, resabs,
    resasc), resabs approximating the integral of |f| and resasc that of
    |f - mean|."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK21[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for jtw in (1, 3, 5, 7, 9):  # the Gauss abscissae
        absc = hlgth * _XGK21[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG10[jtw // 2] * fsum
        resk = resk + _WGK21[jtw] * fsum
        resabs = resabs + _WGK21[jtw] * (abs(fval1) + abs(fval2))
    for jtwm1 in (0, 2, 4, 6, 8):
        absc = hlgth * _XGK21[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK21[jtwm1] * fsum
        resabs = resabs + _WGK21[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK21[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK21[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc
        # min(1, ratio**1.5), without the OverflowError Python raises past 1e308
        abserr = resasc * (1.0 if ratio >= 1.0 else ratio ** 1.5)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(limit, last, maxerr, elist, iord, nrmax):
    """Keep iord[:jupbn] the subintervals in descending order of error
    estimate after subinterval `maxerr` was bisected into it and `last - 1`
    (0-based indices; `last` counts the subintervals).  Returns the
    (maxerr, errmax, nrmax) of the subinterval to bisect next."""
    if last <= 2:
        iord[0], iord[1] = 0, 1
    else:
        errmax = elist[maxerr]
        # a difficult integrand may have raised the error of the bisected
        # interval above that of its predecessors
        while nrmax > 0:
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the first jupbn are kept ordered: the rest can no longer
        # be bisected within the limit
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last - 1]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax here, then errmin from the bottom up
                iord[i - 1] = maxerr
                k = jbnd - 1
                for _ in range(jbnd - i):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        break
                    iord[k + 1] = isucc
                    k -= 1
                iord[k + 1] = last - 1
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd - 1] = maxerr
            iord[jupbn - 1] = last - 1
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n, epstab, res3la, nres):
    """Wynn's epsilon algorithm on the n partial results in epstab (a list
    of LIMEXP + 2, updated in place), with res3la the last three
    extrapolations.  Returns (n, nres, result, abserr)."""
    nres += 1
    abserr = OFLOW
    result = epstab[n - 1]
    if n < 3:
        return n, nres, result, max(abserr, 5.0 * EPMACH * abs(result))
    epstab[n + 1] = epstab[n - 1]
    newelm = (n - 1) // 2
    epstab[n - 1] = OFLOW
    num = n
    k1 = n - 1
    for i in range(1, newelm + 1):
        res = epstab[k1 + 2]
        e0 = epstab[k1 - 2]
        e1 = epstab[k1 - 1]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, nres, res, max(err2 + err3, 5.0 * EPMACH * abs(res))
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:  # irregular behaviour: omit part of the table
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr = error
            result = res
    # shift the table
    if n == LIMEXP:
        n = 2 * (LIMEXP // 2) - 1
    ib = 1 if num % 2 == 0 else 0
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n
        for i in range(n):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres - 1] = result
        abserr = OFLOW
    else:
        abserr = (abs(result - res3la[2]) + abs(result - res3la[1])
                  + abs(result - res3la[0]))
        res3la[0], res3la[1], res3la[2] = res3la[1], res3la[2], result
    return n, nres, result, max(abserr, 5.0 * EPMACH * abs(result))


def _qags(f, lo, hi, limit):
    """dqagse's globally adaptive loop over [lo, hi] with the rule dqk21:
    bisect the subinterval of largest error, extrapolating with the epsilon
    algorithm once the smallest subinterval carries it.  Returns (result,
    abserr, ier, last)."""
    ier = 0
    result, abserr, defabs, resabs = _dqk21(f, lo, hi)
    dres = abs(result)
    errbnd = max(EPSABS, EPSREL * dres)
    last = 1
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, last

    alist = [0.0] * limit
    blist = [0.0] * limit
    rlist = [0.0] * limit
    elist = [0.0] * limit
    iord = [0] * limit
    alist[0], blist[0], rlist[0], elist[0] = lo, hi, result, abserr
    rlist2 = [0.0] * (LIMEXP + 2)
    rlist2[0] = result
    res3la = [0.0] * 3
    errmax = abserr
    maxerr = 0
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 0
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1

    summed = False  # leave through the sum of the subinterval results
    for last in range(2, limit + 1):
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _dqk21(f, a1, b1)
        area2, error2, _, defab2 = _dqk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last - 1] = area2
        errbnd = max(EPSABS, EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last - 1] = a1
            blist[last - 1] = b1
            rlist[maxerr] = area2
            rlist[last - 1] = area1
            elist[maxerr] = error2
            elist[last - 1] = error1
        else:
            alist[last - 1] = a2
            blist[maxerr] = b1
            blist[last - 1] = b2
            elist[maxerr] = error1
            elist[last - 1] = error2
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(hi - lo) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[1] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the smallest interval is next
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 1
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: first bisect
            # the larger intervals whose errors still exceed it
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(jupbnd - nrmax):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2 - 1] = area
        numrl2, nres, reseps, abseps = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(EPSABS, EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[0]
        errmax = elist[maxerr]
        nrmax = 0
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # choose between the extrapolated result and the sum over subintervals
    test_divergence = not summed
    if not summed:
        if abserr == OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                test_divergence = False
    if summed:
        result = 0.0
        for k in range(last):
            result = result + rlist[k]
        abserr = errsum
    elif test_divergence and not (ksgn == -1
                                  and max(abs(result), abs(area)) <= defabs * 0.01):
        # result/area is +-inf or NaN in IEEE at area 0
        if area == 0.0:
            diverges = result != 0.0 or errsum > 0.0
        else:
            diverges = 0.01 > result / area or result / area > 100.0 or errsum > abs(area)
        if diverges:
            ier = 6
    # the internal codes 3-6 are reported as 2-5
    return result, abserr, ier - 1 if ier > 2 else ier, last


def quad(f, a: float, b: float, limit: int) -> tuple[float, float, int]:
    """Integral of f over the finite range [a, b], a < b, to scipy's
    default tolerances (EPSABS, EPSREL), in at most `limit` subintervals:
    `scipy.integrate.quad(f, a, b, limit=limit)` to the bit.  Returns
    (value, error estimate, subintervals used), and warns with
    IntegrationWarning when QUADPACK reports trouble (ier 1-5)."""
    result, abserr, ier, last = _qags(f, a, b, limit)
    if ier:
        warnings.warn(f"quad: ier = {ier}: " + _IER_MESSAGES[ier].format(limit=limit),
                      IntegrationWarning, stacklevel=2)
    return result, abserr, last


def _finite_value(f, x):
    """f(x), refusing NaN as scipy's brentq does."""
    fx = f(x)
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def _signbit(x):
    return math.copysign(1.0, x) < 0.0


def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A zero of f in [a, b] by Brent's method, f(a) and f(b) of opposite
    signs: `scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)` to the
    bit, within BRENTQ_MAXITER iterations."""
    xpre, xcur = a, b
    fpre = _finite_value(f, xpre)
    fcur = _finite_value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; a zero denominator (inf or NaN in C) bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                stry = math.inf if denom == 0 else -fcur * (fblk * dblk - fpre * dpre) / denom
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
                bisect = False
        if bisect:
            spre = sbis
            scur = sbis
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _finite_value(f, xcur)
    raise RuntimeError(f"Failed to converge after {BRENTQ_MAXITER} iterations.")
