"""Generalized Cramer-Rao machinery.

A parametric pair (f, g) of densities on the same grid, an estimator T of a
scalar function h(theta), and an error-moment order alpha > 1 define the
bound chain

    E_g[|T - h|^alpha]^(1/alpha) >= eta'(theta)^T A eta'(theta)
                                    / E_g[|eta'^T A psi_g|^beta]^(1/beta)

for every positive definite A, with the score psi_g = grad_theta f / g and
beta the Hoelder conjugate of alpha.  The scalar case drops A; at
alpha = beta = 2 the supremum over A is attained at A = J_g^-1 with
J_g = E_g[psi psi^T], giving the quadratic bound E_g[|T-h|^2] >=
eta'^T J_g^-1 eta'.  For a location family with (f, g) an escort pair the
chain collapses to the q-Cramer-Rao product

    q E_g[||X||^alpha]^(1/alpha) I(beta, q)[g]^(1/beta) >= n,

with equality exactly at generalized q-Gaussians.  (The q enters through
E_g[||psi||^beta] = q^beta I(beta, q)[g]; reports also carry the value with
the q^beta factor pulled outside the 1/beta power, and the discrepancy
factor q^(beta-1) between the two readings.)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import Axis, GridDensity, NonFiniteError, Tolerances, simpson_weights
from .info_measures import i_fisher, moment_abs, recenter
from .qgaussian import QGaussianParams, pdf as qpdf, reach_radius, sample as qsample
from .reports import VerificationReport, inequality_report

#: relative step for centered differences in theta
DTHETA_REL = 1e-5


class SingularScoreError(ArithmeticError):
    pass


@dataclass
class ParametricModel:
    """Density pair (f, g) on a 1-D quadrature axis, parametrized by theta
    in R^k.

    Density callables take (coords, theta) where coords is the one-element
    list [abscissae] and return the density array; they and `statistic`,
    the efficient estimator of theta, also work on sample coordinates.
    """

    density_f: callable
    density_g: callable
    dim_theta: int
    axis: Axis
    sampler_g: callable | None = None
    name: str = ""
    statistic: callable | None = None
    _coords: list = field(init=False, repr=False)
    _weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._coords = [self.axis.nodes()]
        self._weights = simpson_weights(self.axis)

    def f_values(self, theta) -> np.ndarray:
        return np.asarray(self.density_f(self._coords, np.asarray(theta, dtype=float)), dtype=float)

    def g_values(self, theta) -> np.ndarray:
        return np.asarray(self.density_g(self._coords, np.asarray(theta, dtype=float)), dtype=float)

    def quad(self, arr) -> float:
        return float(np.sum(self._weights * arr))

    def estimator(self, alpha: float) -> "EstimatorSpec":
        """`statistic` as the estimator of theta at error-moment order alpha."""
        return EstimatorSpec(T=self.statistic, h=lambda th: float(th[0]), alpha=alpha)

    def check_normalized(self, thetas):
        for th in thetas:
            for tag, vals in (("f", self.f_values(th)), ("g", self.g_values(th))):
                mass = self.quad(vals)
                if not abs(mass - 1.0) <= 1e-6:  # a NaN mass fails too
                    raise ValueError(
                        f"{tag}(.; theta={np.asarray(th)}) has mass {mass!r}, not 1 within 1e-06"
                    )


@dataclass
class EstimatorSpec:
    """Estimator T(x) of h(theta) with error-moment order alpha > 1."""

    T: callable
    h: callable
    alpha: float

    def __post_init__(self):
        if not self.alpha > 1:
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")

    @property
    def beta(self) -> float:
        return self.alpha / (self.alpha - 1.0)


def _dilate(mask: np.ndarray) -> np.ndarray:
    out = mask.copy()
    out[:-1] |= mask[1:]
    out[1:] |= mask[:-1]
    return out


def _theta_differences(model: ParametricModel, theta: np.ndarray):
    """Yield (i, 2d, f(theta + d e_i), f(theta - d e_i)) for each component
    i, with d = DTHETA_REL (1 + |theta_i|): the centered differences in theta."""
    for i in range(model.dim_theta):
        d = DTHETA_REL * (1.0 + abs(theta[i]))
        tp, tm = theta.copy(), theta.copy()
        tp[i] += d
        tm[i] -= d
        yield i, 2.0 * d, model.f_values(tp), model.f_values(tm)


def score_g(model: ParametricModel, theta) -> np.ndarray:
    """Score grad_theta f / g by centered differences; shape (k, nodes).

    Set to 0 where g = 0.  Raises SingularScoreError when grad_theta f is
    materially nonzero strictly outside (one cell beyond) the support of g.
    The zero-mean property E_g[psi] = 0 is enforced to 1e-6; a NaN mean fails it.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    g = model.g_values(theta)
    gpos = g > 0
    near = _dilate(gpos)
    psi = np.zeros((model.dim_theta,) + g.shape)
    for i, two_d, f_plus, f_minus in _theta_differences(model, theta):
        fd = (f_plus - f_minus) / two_d
        scale = float(np.max(np.abs(fd)))
        stray = np.abs(fd[~near])
        if scale > 0 and stray.size and float(stray.max()) > 1e-8 * scale:
            raise SingularScoreError(
                f"grad_theta f (component {i}) is nonzero where g = 0; "
                "the g-score is singular for this pair"
            )
        psi[i][gpos] = fd[gpos] / g[gpos]
        mean = model.quad(psi[i] * g)
        if not abs(mean) <= 1e-6 * max(1.0, model.quad(np.abs(psi[i]) * g)):
            raise ArithmeticError(
                f"score component {i} fails zero-mean: E_g[psi] = {mean!r}"
            )
    return psi


def eta_dot(model: ParametricModel, est: EstimatorSpec, theta) -> np.ndarray:
    """grad_theta of eta(theta) = E_f[T], by centered differences."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    t_vals = est.T(model._coords)
    out = np.zeros(model.dim_theta)
    for i, two_d, f_plus, f_minus in _theta_differences(model, theta):
        out[i] = (model.quad(t_vals * f_plus) - model.quad(t_vals * f_minus)) / two_d
    return out


def _bound_terms(model: ParametricModel, est: EstimatorSpec, theta):
    """(g, psi, eta', T - h) at theta: what every form of the bound reads,
    once f and g are checked to hold their mass on the grid at theta."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    model.check_normalized([theta])
    return (model.g_values(theta), score_g(model, theta), eta_dot(model, est, theta),
            est.T(model._coords) - est.h(theta))


def _equality_fit(model: ParametricModel, g, a, b, active, scale):
    """Fit a = c b over c > 0: c is the median of a/b over the active nodes
    (b != 0 there) under the quadrature weights |b| g, which minimizes
    E_g|a - c b| over them, floored at 1e-300 (also with no active node).
    Returns c and the residual E_g|a - c b| over all nodes, divided by
    E_g[scale]."""
    w_quad = model._weights * g
    ratio = a[active] / b[active]
    order = np.argsort(ratio, kind="stable")
    cum = np.cumsum((w_quad * np.abs(b))[active][order])
    c = 0.0
    if cum.size and cum[-1] > 0:
        c = float(ratio[order][min(int(np.searchsorted(cum, 0.5 * cum[-1])), cum.size - 1)])
    c = max(c, 1e-300)
    resid = float(np.sum(w_quad * np.abs(a - c * b)))
    return c, resid / max(float(np.sum(w_quad * scale)), 1e-300)


def crm_bound_scalar(model: ParametricModel, est: EstimatorSpec, theta) -> VerificationReport:
    """Scalar bound: E_g[|T-h|^alpha]^(1/alpha) >= |eta'| / E_g[|psi|^beta]^(1/beta).

    Reports, at the default slack, the two sides, their gap, the optimal
    multiplier c of the equality condition psi = c sign(T-h)|T-h|^(alpha-1)
    and its residual E_g|psi - c sign(T-h)|T-h|^(alpha-1)|, normalized by
    E_g[|T-h|^(alpha-1)].  With T = h wherever g > 0 there is nothing to
    fit, and both read 0.
    """
    if model.dim_theta != 1:
        raise ValueError("scalar bound requires dim_theta = 1")
    g, psi, ed, t_err = _bound_terms(model, est, theta)
    psi, ed = psi[0], float(ed[0])
    lhs = model.quad(np.abs(t_err) ** est.alpha * g) ** (1.0 / est.alpha)
    with np.errstate(over="ignore"):
        moment = np.abs(psi) ** est.beta * g
    denom = model.quad(moment) ** (1.0 / est.beta) if np.all(np.isfinite(moment)) else np.inf
    if not np.isfinite(denom) or denom <= 0:
        return VerificationReport(float(lhs), float("nan"), float("nan"), False,
                                  {"flag": "divergent-score-moment"})
    rhs = abs(ed) / denom
    s = np.sign(t_err) * np.abs(t_err) ** (est.alpha - 1.0)
    active = (s != 0) & (g > 0)
    c, resid = _equality_fit(model, g, psi, s, active, np.abs(s)) if np.any(active) else (0.0, 0.0)
    return inequality_report(lhs, rhs, Tolerances().inequality_slack,
                             extras={"eta_dot": ed, "equality_residual": resid, "c_opt": c})


def fisher_matrix_g(model: ParametricModel, theta) -> np.ndarray:
    """J_g(theta) = E_g[psi psi^T], k x k symmetric positive semidefinite."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return _fisher_sum(model, score_g(model, theta), model.g_values(theta))


def _fisher_sum(model: ParametricModel, psi: np.ndarray, g: np.ndarray) -> np.ndarray:
    """E_g[psi psi^T] by quadrature of the score psi against g."""
    k = len(psi)
    J = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            J[i, j] = J[j, i] = model.quad(psi[i] * psi[j] * g)
    if not np.all(np.isfinite(J)):
        raise ArithmeticError(f"non-finite Fisher matrix {J!r}")
    return J


def _inv_fisher(J: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(J)
    if evals.min() <= 1e-12 * max(evals.max(), 1e-300):
        null = evecs[:, int(np.argmin(evals))]
        raise ArithmeticError(f"singular Fisher matrix; null direction {null}")
    return evecs @ np.diag(1.0 / evals) @ evecs.T


def crm_bound_quadratic(model: ParametricModel, est: EstimatorSpec, theta) -> VerificationReport:
    """Quadratic multivariate bound E_g[|T-h|^2] >= eta'^T J_g^-1 eta'
    (alpha = beta = 2) at the default slack, with the equality-condition
    residual of |T-h| = k |eta'^T J^-1 psi| minimized over k > 0.  The
    square root of the rhs is the supremum over A of the crm_bound_general
    objective, attained at A = J_g^-1."""
    if est.alpha != 2.0:
        raise ValueError("quadratic bound requires alpha = 2")
    g, psi, ed, t_err = _bound_terms(model, est, theta)
    J = _fisher_sum(model, psi, g)
    Jinv = _inv_fisher(J)
    rhs = float(ed @ Jinv @ ed)
    lhs = model.quad(t_err ** 2 * g)
    proj = np.abs(np.tensordot(Jinv @ ed, psi, axes=(0, 0)))
    kopt, resid = _equality_fit(model, g, np.abs(t_err), proj, proj > 0, np.abs(t_err))
    return inequality_report(lhs, rhs, Tolerances().inequality_slack,
                             extras={"eta_dot_norm": float(np.linalg.norm(ed)),
                                     "equality_residual": resid,
                                     "k_opt": kopt,
                                     "fisher_matrix": J.tolist()})


def crm_bound_general(model: ParametricModel, est: EstimatorSpec, theta, A) -> float:
    """The bound objective eta'^T A eta' / E_g[|eta'^T A psi|^beta]^(1/beta)
    at a caller-supplied positive definite A.  The supremum over A has a
    closed form only at alpha = beta = 2 (A = J_g^-1); for other alpha,
    evaluate candidate A's and keep the best."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    evals = np.linalg.eigvalsh((A + A.T) / 2.0)
    if not evals.min() > 0:
        raise ValueError("A must be positive definite")
    g, psi, ed, _ = _bound_terms(model, est, theta)
    numer = float(ed @ A @ ed)
    contracted = np.tensordot(A @ ed, psi, axes=(0, 0))
    denom = model.quad(np.abs(contracted) ** est.beta * g) ** (1.0 / est.beta)
    if denom <= 0 or not np.isfinite(denom):
        raise ArithmeticError("divergent or vanishing denominator in the bound objective")
    return numer / denom


def mc_error_moment(model: ParametricModel, est: EstimatorSpec, theta,
                    trials: int, seed: int):
    """Monte Carlo estimate of E_g[|T-h|^alpha]^(1/alpha) with jackknife
    standard error; returns (value, stderr)."""
    if model.sampler_g is None:
        raise ValueError(f"model {model.name!r} has no sampler for g")
    if trials < 2:
        raise ValueError(f"trials must be >= 2 for a jackknife error, got {trials}")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    rng = np.random.default_rng(seed)
    x = np.asarray(model.sampler_g(theta, rng, trials), dtype=float)
    err = np.abs(est.T([x[:, 0]]) - est.h(theta)) ** est.alpha
    s = float(err.sum())
    jack = ((s - err) / (trials - 1.0)) ** (1.0 / est.alpha)
    value = float((s / trials) ** (1.0 / est.alpha))
    se = float(np.sqrt((trials - 1.0) / trials * np.sum((jack - jack.mean()) ** 2)))
    return value, se


def qcr_product(g: GridDensity, q: float, alpha: float,
                tol: Tolerances = Tolerances()) -> VerificationReport:
    """q-Cramer-Rao product q E_g[||X||^alpha]^(1/alpha) I(beta,q)[g]^(1/beta),
    asserted >= n (= dim of g); equality holds exactly at generalized
    q-Gaussians.  The density is recentered (with a warning) if its mean is
    not zero.  Extras carry the alternative reading with the q^beta factor
    outside the 1/beta power and the discrepancy factor between the two."""
    if not 1 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and exceed 1, got {alpha}")
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    beta = alpha / (alpha - 1.0)
    g, shift = recenter(g)
    if shift != 0:
        warnings.warn(f"density recentered by {shift} to enforce zero mean")
    m_a = moment_abs(g, alpha)
    try:
        i_val = i_fisher(g, q, beta)
    except NonFiniteError:
        i_val = float("inf")  # Fisher integrand overflowed on the grid
    if not np.isfinite(i_val):
        return VerificationReport(float("nan"), float(g.dim), float("nan"), False,
                                  {"flag": "divergent-fisher"})
    product = q * m_a ** (1.0 / alpha) * i_val ** (1.0 / beta)
    outside = q ** beta * m_a ** (1.0 / alpha) * i_val ** (1.0 / beta)
    return inequality_report(product, float(g.dim), tol.inequality_slack,
                             extras={"moment_alpha": m_a, "i_fisher": i_val,
                                     "qbeta_outside_form": outside,
                                     "form_discrepancy_factor": q ** (beta - 1.0)})


# ---------------------------------------------------------------------------
# Model registry
# ---------------------------------------------------------------------------

def gaussian_location_model(n: int = 1, sigma: float = 1.0, count: int = 4001,
                            theta: float = 0.0) -> ParametricModel:
    """Product of n unit-variance(*sigma^2) normals with scalar location
    theta along the all-ones vector, reduced to its sufficient statistic
    s = 1^T x ~ N(n theta, n sigma^2).

    The reduction is exact: T = s/n is the sample mean, the s-score equals
    the full-model score 1^T(x - theta 1)/sigma^2 as a function of s, and all
    moments in the bound chain coincide with the n-dimensional ones, so the
    model lives on the 1-D axis of s for every n, over 10 standard deviations
    of s plus 1 on either side of n theta.  A sigma whose variance n sigma^2
    is not finite and > 0 is refused before the axis is built.
    """
    var = n * sigma * sigma  # a float's ** 2 raises OverflowError where * gives inf
    if not 0.0 < var < np.inf:
        raise ValueError(f"sigma = {sigma} gives the variance n sigma^2 = {var}, "
                         f"which must be finite and > 0")
    half_width = 10.0 * np.sqrt(var) + 1.0
    ax = Axis(n * theta - half_width, n * theta + half_width, count)

    def dens(coords, theta):
        s = coords[0]
        mu = n * theta[0]
        return np.exp(-(s - mu) ** 2 / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)

    def sampler(theta, rng, size):
        return rng.normal(n * theta[0], np.sqrt(var), size=size)[:, None]

    model = ParametricModel(dens, dens, 1, ax, sampler,
                            name=f"gaussian-location(n={n}, sigma={sigma})",
                            statistic=sample_mean_estimator(n).T)
    model.check_normalized([np.array([theta]), np.array([theta + 0.25])])
    return model


def sample_mean_estimator(n: int = 1) -> EstimatorSpec:
    return EstimatorSpec(T=lambda coords: coords[0] / n, h=lambda th: float(th[0]), alpha=2.0)


def qgaussian_location_model(q: float, alpha: float, gamma: float = 1.0,
                             count: int = 4001, theta: float = 0.0) -> ParametricModel:
    """f = g = generalized q-Gaussian, scalar location parameter (1-D)."""
    p = QGaussianParams(q, alpha, gamma, 1)
    return _location_pair(p, p, count, theta, "qgaussian-location")


def escort_pair_model(q: float, alpha: float, gamma: float = 1.0,
                      count: int = 4001, theta: float = 0.0) -> ParametricModel:
    """Location family with (f, g) the escort pair of order q built from a
    generalized q-Gaussian g: f ~ g^q (itself a q-Gaussian with index
    (2q-1)/q and scale q gamma), so q must exceed 1/2."""
    if not q > 0.5:
        raise ValueError(f"the escort pair needs q > 1/2, where f's index (2q - 1)/q is "
                         f"positive; got q = {q}")
    pg = QGaussianParams(q, alpha, gamma, 1)
    pf = QGaussianParams((2.0 * q - 1.0) / q, alpha, q * gamma, 1)
    return _location_pair(pf, pg, count, theta, "escort-pair")


def _location_pair(pf: QGaussianParams, pg: QGaussianParams, count: int, theta: float,
                   name: str) -> ParametricModel:
    """Location family theta -> (pf, pg) q-Gaussians shifted by theta, on
    `count` nodes over [theta - r, theta + r]: r covers both supports (or
    1 - 1e-12 bulks) with a 5 % margin, plus 0.5 of room for theta to move;
    draws come from pg."""
    r = max(reach_radius(pg), reach_radius(pf)) * 1.05 + 0.5
    ax = Axis(theta - r, theta + r, count)

    def dens_f(coords, theta):
        return qpdf(pf, coords[0] - theta[0])

    def dens_g(coords, theta):
        return qpdf(pg, coords[0] - theta[0])

    def sampler(theta, rng, size):
        seed = int(rng.integers(0, 2 ** 63 - 1))
        return qsample(pg, seed, size) + theta[0]

    model = ParametricModel(dens_f, dens_g, 1, ax, sampler,
                            name=f"{name}(q={pg.q}, alpha={pg.alpha}, gamma={pg.gamma})",
                            statistic=lambda coords: coords[0])
    model.check_normalized([np.array([theta]), np.array([theta + 0.125])])
    return model


#: model name -> builder; the builder's parameters but count and theta (the
#: grid count, and the theta its axis is centred on) are the options its
#: model reads, and the model names its efficient statistic
MODEL_REGISTRY = {
    "gaussian-location": gaussian_location_model,
    "qgaussian-location": qgaussian_location_model,
    "escort-pair": escort_pair_model,
}
