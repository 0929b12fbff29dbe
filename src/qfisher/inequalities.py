"""Stam-type inequality and the minimum-Fisher variational characterizations.

The Stam product I(beta, q)[f]^(1/beta) N_q[f]^(1/2) is bounded below by its
value on the generalized q-Gaussian family in every dimension (any member:
the product is dilation invariant).  The same family minimizes I(beta, q)
among densities with a fixed alpha-moment, and among densities with a fixed
q-entropy power; both characterizations are certified against randomized
same-constraint perturbation batches, which are 1-D.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import GridDensity, Tolerances
from .info_measures import Q_ONE_WINDOW, entropy_power, i_fisher, m_q, moment_abs
from .perturb import perturbation_batch
from .qgaussian import (
    QGaussianParams,
    closed_form_entropy_power,
    closed_form_i_fisher,
    closed_form_stam_product,
    gamma_for_entropy_power,
    gamma_for_moment,
    grid_density,
    moment_alpha,
)
from .reports import VerificationReport, inequality_report


def stam_hypothesis_ok(q: float, beta: float, n: int) -> bool:
    """Validity window q > max((n-1)/n, n/(n+alpha)).  The first bound is
    exactly positivity of n(q-1)+1, the dilation exponent of phi (phi scales
    as c^(-beta(n(q-1)+1)) under x -> c x, so I ~ c^-beta, N_q ~ c^2, and the
    Stam product is dilation invariant whenever it is defined)."""
    alpha = beta / (beta - 1.0)
    return q > max((n - 1.0) / n, n / (n + alpha))


def stam_product(f: GridDensity, q: float, beta: float) -> float:
    """I(beta, q)[f]^(1/beta) N_q[f]^(1/2) by grid quadrature, I and N_q
    sharing one M_q."""
    mq = None if abs(q - 1.0) < Q_ONE_WINDOW else m_q(f, q)
    return i_fisher(f, q, beta, mq) ** (1.0 / beta) * entropy_power(f, q, mq) ** 0.5


def stam_ratio(f: GridDensity, q: float, beta: float,
               tol: Tolerances = Tolerances()) -> VerificationReport:
    """Stam product of f over the product of the reference q-Gaussian,
    asserted >= 1 (equality exactly on the q-Gaussian family).

    The reference is evaluated in closed form (an independent route from the
    grid quadrature of f).  At beta = 2 the reference scale is gamma = 1;
    otherwise gamma is matched to f's alpha-moment -- immaterial either way
    by scale invariance, but it removes the ambiguity explicitly.  At the
    exact equality point the verdict is quadrature-limited, so pass a slack
    at the quadrature error level rather than the default 1e-9.
    """
    n = f.dim
    alpha = beta / (beta - 1.0)
    if not stam_hypothesis_ok(q, beta, n):
        raise ValueError(
            f"Stam hypothesis fails: need q > max((n-1)/n, n/(n+alpha)) "
            f"= {max((n - 1.0) / n, n / (n + alpha)):g}, got q = {q}"
        )
    ref = QGaussianParams(q, alpha, 1.0, n)
    if beta != 2.0:
        ref = QGaussianParams(q, alpha, gamma_for_moment(ref, moment_abs(f, alpha)), n)
    product_f = stam_product(f, q, beta)
    product_ref = closed_form_stam_product(ref)
    ratio = product_f / product_ref
    return inequality_report(ratio, 1.0, tol.inequality_slack,
                             extras={"product_f": product_f, "product_ref": product_ref,
                                     "ref_gamma": ref.gamma})


#: amplitude ladder for the first-order-stationarity fit: small enough that
#: the quadratic term dominates (for beta < 2 the second variation carries a
#: log factor that depresses the apparent exponent at large amplitudes)
FIT_AMPLITUDES = tuple(np.geomspace(0.003, 0.03, 4))


def _perturbation_sweep(ref: QGaussianParams, constraint: str, target: float, beta: float,
                        n_perturb: int, seed: int, grid_count: int):
    """I of n_perturb perturbed densities, 5 or fewer amplitude levels per
    direction, and the array, shape (directions, FIT_AMPLITUDES), of I of
    the same directions at FIT_AMPLITUDES for the gap-vs-amplitude fit."""
    values, fit = [], []
    batch = perturbation_batch(ref, np.random.default_rng(seed), n_perturb, min(5, n_perturb),
                               constraint, target, grid_count, extra=FIT_AMPLITUDES)
    # each direction yields its ladder rungs, then the FIT_AMPLITUDES
    for _, items in itertools.groupby(batch, key=lambda item: item[0]):
        i_vals = [i_fisher(fp, ref.q, beta) for _, _, fp in items]
        values += i_vals[:-len(FIT_AMPLITUDES)]
        fit.append(i_vals[-len(FIT_AMPLITUDES):])
    return values, np.array(fit)


def _gap_exponent(fit: np.ndarray, i_ref: float) -> float:
    """Slope of log(mean gap) vs log(amplitude) across the fit ladder."""
    # one 1-D mean per column: mean(axis=0) sums in another order
    means = np.array([np.mean(column - i_ref) for column in fit.T])
    if np.any(means <= 0):
        return float("nan")
    slope = np.polyfit(np.log(FIT_AMPLITUDES), np.log(means), 1)[0]
    return float(slope)


def min_fisher_fixed_moment(q: float, alpha: float, target_m: float, n: int = 1,
                            perturbation_count: int = 50, seed: int = 0,
                            grid_count: int = 8001,
                            tol: Tolerances = Tolerances()) -> VerificationReport:
    """q-Gaussians minimize I(beta, q) among densities with a fixed
    alpha-moment: scale gamma to the target moment, then check
    I[G] <= I[perturbed] + slack over a randomized same-moment batch."""
    base = QGaussianParams(q, alpha, 1.0, n)
    ref = QGaussianParams(q, alpha, gamma_for_moment(base, target_m), n)
    moment_err = abs(moment_alpha(ref) - target_m)
    if moment_err > 1e-8 * target_m:
        raise ArithmeticError(f"the dilated gamma misses the target moment {target_m:g} "
                              f"by {moment_err:g}")
    return _min_fisher(ref, alpha / (alpha - 1.0), "moment", target_m, perturbation_count,
                       seed, grid_count, tol, {})


def min_fisher_fixed_entropy(q: float, beta: float, target_n: float, n: int = 1,
                             perturbation_count: int = 50, seed: int = 0,
                             grid_count: int = 8001,
                             tol: Tolerances = Tolerances()) -> VerificationReport:
    """q-Gaussians minimize I(beta, q) among densities with a fixed q-entropy
    power (the constraint is restored by dilation, N_q ~ c^2)."""
    base = QGaussianParams(q, beta / (beta - 1.0), 1.0, n)
    ref = QGaussianParams(q, base.alpha, gamma_for_entropy_power(base, target_n), n)
    return _min_fisher(ref, beta, "entropy_power", target_n,
                       perturbation_count, seed, grid_count, tol,
                       {"target_entropy_power": target_n,
                        "entropy_power_G": closed_form_entropy_power(ref)})


def _min_fisher(ref: QGaussianParams, beta: float, constraint: str, target: float,
                perturbation_count: int, seed: int, grid_count: int, tol: Tolerances,
                extras: dict) -> VerificationReport:
    """I[ref] on the grid against the least I of a same-constraint batch
    around ref, with the constraint's own `extras` in the report.  beta is
    the caller's, not ref.beta, whose round trip through alpha may move
    the last bit."""
    i_ref = i_fisher(grid_density(ref, grid_count), ref.q, beta)
    values, fit = _perturbation_sweep(ref, constraint, target, beta, perturbation_count,
                                      seed, grid_count)
    i_min = min(values)
    return inequality_report(i_min, i_ref, tol.inequality_slack,
                             extras={"value_G": i_ref,
                                     "value_G_closed_form": closed_form_i_fisher(ref),
                                     "min_perturbed": i_min,
                                     "worst_gap": i_min - i_ref,
                                     "gamma": ref.gamma,
                                     **extras,
                                     "gap_amplitude_exponent": _gap_exponent(fit, i_ref),
                                     "perturbations": len(values)})
