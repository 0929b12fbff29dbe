"""Generalized q-Gaussian densities and the Barenblatt self-similar profile.

The family, on R^n with entropic index q > 0, exponent alpha > 1 and scale
gamma > 0:

    G(x) = Z^-1 (1 - (q-1) gamma ||x||^alpha)_+^(1/(q-1))      q != 1
    G(x) = Z^-1 exp(-gamma ||x||^alpha)                        q  = 1

Compact support for q > 1, power tails for q < 1 (integrable when
alpha/(1-q) > n), stretched exponential at q = 1.  Normalizations and
alpha-moments are closed Beta/Gamma integrals; every normalization is
cross-checked against a double-exponential radial rule (tanh-sinh on the
support for q > 1, exp-sinh on [0, inf) for q <= 1) on a fixed node set.
`gamma_for_moment` inverts the exact dilation law moment ~ 1/gamma with no
root find.  Two root finds stay, because their bits reach the pinned
`reproduce` summary: `gamma_for_entropy_power` keeps Brent's method (at the
criterion-8 points it returns 1.0000000000000002 and 0.9999999999999994
where the law N ~ gamma^(-2/alpha) gives 1.0), and the compact-support
(q > 1) Barenblatt constant C keeps adaptive Gauss-Kronrod quadrature and
Brent's method (it differs from the closed Beta form by 4.6e-12 relative
at (m, beta) = (1, 3)).  Both call scipy's compiled QUADPACK and Brent
routines, through `core.quad` and `core.brentq`, so their bits are those of
scipy's `quad` and `brentq`.  On unbounded supports (q <= 1) the Barenblatt
mass is its closed Gamma/Beta form by `math.lgamma`, and C follows from it
with no root find.

Every scipy routine comes through `core.scipy_module`, which imports the
compiled module (`scipy.special._ufuncs`, `scipy.integrate._quadpack`,
`scipy.optimize._zeros`) without its package's `__init__`: that spares each
command scipy.special's array-API layer (about 0.2 s and 13 MB), with the
same objects and so the same bits.  The modules load at a function's first
call, so that a command loads only those its path reaches.  Whichever
loads first also loads scipy's top-level package (10-20 ms, once per
process): the q > 1 Barenblatt constant, for one, loads it in a command
that reaches no scipy.special ufunc, such as 1-D pme `diffuse`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Axis, GridDensity, brentq, normalize, quad, special_functions, sphere_surface

#: tail mass left outside sampling / gridding windows
DEFAULT_TAIL_MASS = 1e-12
#: knots, equally spaced in probability, of the sampler's radial quantile table
CDF_KNOTS = 4096


@dataclass(frozen=True)
class QGaussianParams:
    """Parameters (q, alpha, gamma, dim) of a generalized q-Gaussian."""

    q: float
    alpha: float
    gamma: float
    dim: int = 1

    def __post_init__(self):
        if not 0 < self.q < math.inf:
            raise ValueError(f"q must be finite and positive, got {self.q}")
        if not 1 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and exceed 1, got {self.alpha}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.q < 1 and self.alpha / (1.0 - self.q) <= self.dim:
            raise ValueError(
                f"not integrable: q < 1 requires alpha/(1-q) > n, "
                f"got alpha/(1-q) = {self.alpha / (1.0 - self.q):g} <= n = {self.dim}"
            )

    @property
    def beta(self) -> float:
        """Hoelder conjugate of alpha."""
        return self.alpha / (self.alpha - 1.0)


def support_radius(p: QGaussianParams) -> float:
    """Radius of the support: finite only for q > 1."""
    if p.q > 1:
        return ((p.q - 1.0) * p.gamma) ** (-1.0 / p.alpha)
    return math.inf


def tail_radius(p: QGaussianParams, tail_mass: float = DEFAULT_TAIL_MASS) -> float:
    """Radius enclosing all probability mass except `tail_mass`, from the
    analytic radial CDF (incomplete Beta/Gamma)."""
    return float(_radial_quantile(p, 1.0 - tail_mass, tail_mass))


def reach_radius(p: QGaussianParams, tail_mass: float = DEFAULT_TAIL_MASS) -> float:
    """Radius a grid or a bump window must reach: the support radius for
    q > 1, else the radius leaving out `tail_mass`."""
    return support_radius(p) if p.q > 1 else tail_radius(p, tail_mass)


def _radial_quantile(p: QGaussianParams, mass, tail):
    """Radius R with P(||X|| <= R) = mass, given mass and tail = 1 - mass
    both (scalars or arrays): each branch inverts the side it reads
    accurately."""
    sf = special_functions()
    n_a = p.dim / p.alpha
    if p.q > 1:
        u = sf.betaincinv(n_a, 1.0 / (p.q - 1.0) + 1.0, mass)
        return (u / ((p.q - 1.0) * p.gamma)) ** (1.0 / p.alpha)
    if p.q == 1:
        return (sf.gammaincinv(n_a, mass) / p.gamma) ** (1.0 / p.alpha)
    # the CDF is I_t(n/alpha, s - n/alpha) at t = y/(1+y), y = (1-q) gamma R^alpha;
    # invert the tail I_(1-t)(s - n/alpha, n/alpha) for u = 1 - t, since t
    # itself rounds to 1 for heavy tails and y = t/(1-t) would be inf
    s_bar = 1.0 / (1.0 - p.q)
    u = sf.betaincinv(s_bar - n_a, n_a, tail)
    return ((1.0 - u) / (u * (1.0 - p.q) * p.gamma)) ** (1.0 / p.alpha)


def radial_profile(p: QGaussianParams, r) -> np.ndarray:
    """Unnormalized radial profile of the density at radius r >= 0."""
    r = np.asarray(r, dtype=float)
    if p.q == 1:
        return np.exp(-p.gamma * r ** p.alpha)
    base = 1.0 - (p.q - 1.0) * p.gamma * r ** p.alpha
    if p.q > 1:
        return np.where(base > 0, np.maximum(base, 0.0) ** (1.0 / (p.q - 1.0)), 0.0)
    return base ** (1.0 / (p.q - 1.0))


@lru_cache(maxsize=256)
def normalization(p: QGaussianParams) -> float:
    """Normalization constant Z = int (profile) dx, in closed Beta/Gamma form,
    cross-checked against the double-exponential radial rule to 1e-8 relative."""
    sf = special_functions()
    n, a, g, q = p.dim, p.alpha, p.gamma, p.q
    omega = sphere_surface(n)
    if q > 1:
        z = omega / a * ((q - 1.0) * g) ** (-n / a) * sf.beta(n / a, 1.0 / (q - 1.0) + 1.0)
    elif q == 1:
        z = omega / a * g ** (-n / a) * sf.gamma(n / a)
    else:
        s_bar = 1.0 / (1.0 - q)
        z = omega / a * ((1.0 - q) * g) ** (-n / a) * sf.beta(n / a, s_bar - n / a)
    z_quad = _radial_mass_quad(p)
    if not abs(z - z_quad) <= 1e-8 * abs(z):  # a NaN fails too
        raise ArithmeticError(
            f"normalization cross-check failed: closed form {z!r} vs quadrature {z_quad!r}"
        )
    return float(z)


#: log of y^alpha past which (1 + y^alpha)^-s is y^(-alpha s) to 1e-17 relative
_FAR_LOG = 17.0 * math.log(10.0)


def _double_exponential_rules():
    """Fixed nodes of two double-exponential rules, u = (pi/2) sinh t on a
    uniform t-grid of step 1/64.

    tanh-sinh on [0, 1]: x = (1 + tanh u)/2 for |t| <= 3.2, dropping the
    nodes that round onto 1.  exp-sinh on [0, inf): y = e^u for
    -4 <= t <= 10, with y tabulated only while u < _FAR_LOG (which covers
    y^alpha < 1e17 for every alpha > 1), so that no node overflows; past
    that the caller works with u alone.  Returns (x, x weights, u, y,
    u weights), the u weights being step du/dt."""
    step = 1.0 / 64
    t = step * np.arange(round(-3.2 / step), round(3.2 / step) + 1)
    u = 0.5 * np.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * u))
    wx = step * 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    t = step * np.arange(round(-4.0 / step), round(10.0 / step) + 1)
    u = 0.5 * np.pi * np.sinh(t)
    return x[x < 1.0], wx[x < 1.0], u, np.exp(u[u < _FAR_LOG]), step * 0.5 * np.pi * np.cosh(t)


_TS_X, _TS_W, _ES_U, _ES_Y, _ES_DU = _double_exponential_rules()


def _radial_mass_quad(p: QGaussianParams) -> float:
    """Z by a double-exponential rule: tanh-sinh on [0, R] for q > 1, and
    exp-sinh on [0, inf) for q <= 1 in the variable y = r / r_s, where
    c r_s^alpha = 1 for c the coefficient of r^alpha in the profile.

    Past y^alpha = 1e17 the q < 1 profile is its power tail y^(-alpha s),
    s = 1/(1-q), to 1e-17 relative; those nodes are summed in log form,
    since the profile underflows long before a heavy tail's mass is spent.
    The q = 1 profile is exp(-1e17) = 0 there."""
    tail = 0.0
    if p.q > 1:
        radius = support_radius(p)
        r, w = radius * _TS_X, radius * _TS_W
    else:
        c = (1.0 - p.q) * p.gamma if p.q < 1 else p.gamma
        radius = c ** (-1.0 / p.alpha)
        near = np.searchsorted(_ES_U, _FAR_LOG / p.alpha)
        r = radius * _ES_Y[:near]
        w = r * _ES_DU[:near]
        if p.q < 1:
            decay = p.alpha / (1.0 - p.q) - p.dim
            tail = radius ** p.dim * np.sum(_ES_DU[near:] * np.exp(-decay * _ES_U[near:]))
    bulk = np.sum(w * radial_profile(p, r) * r ** (p.dim - 1))
    return float(sphere_surface(p.dim) * (bulk + tail))


def pdf(p: QGaussianParams, x) -> np.ndarray:
    """Density at abscissae x (dim 1) or at radii x (dim >= 2): a function
    of |x|, for a scalar or any array."""
    return radial_profile(p, np.abs(np.asarray(x, dtype=float))) / normalization(p)


def moment_alpha(p: QGaussianParams) -> float:
    """E ||X||^alpha in closed form (Beta-integral ratio)."""
    n_a = p.dim / p.alpha
    if p.q > 1:
        return float(n_a / ((p.q - 1.0) * p.gamma * (n_a + 1.0 / (p.q - 1.0) + 1.0)))
    if p.q == 1:
        return float(p.dim / (p.alpha * p.gamma))
    s_bar = 1.0 / (1.0 - p.q)
    if s_bar - n_a - 1.0 <= 0:
        raise ValueError(
            f"divergent moment: q < 1 requires alpha/(1-q) > n + alpha, "
            f"got alpha/(1-q) = {p.alpha * s_bar:g} <= n + alpha = {p.dim + p.alpha:g}"
        )
    return float(n_a / ((1.0 - p.q) * p.gamma * (s_bar - n_a - 1.0)))


def gamma_for_moment(p: QGaussianParams, target_moment: float) -> float:
    """Scale gamma such that E||X||^alpha = target, from the exact dilation
    law moment(gamma) = moment(1) / gamma."""
    if not 0 < target_moment < math.inf:
        raise ValueError(f"target moment must be finite and positive, got {target_moment}")
    return moment_alpha(QGaussianParams(p.q, p.alpha, 1.0, p.dim)) / target_moment


def grid_density(p: QGaussianParams, count: int = 4001) -> GridDensity:
    """The density sampled on `count` nodes, normalized: [-R, R] for dim 1,
    the radii [0, R] for dim >= 2 (radial), with R = tail_radius(p) * 1.05,
    so that the support edge (q > 1) is interior to the grid."""
    # not reach_radius: for q > 1 the tail radius sits just inside the
    # support radius, and these nodes reach the pinned `reproduce` bytes
    # (criteria 6-8)
    r = tail_radius(p) * 1.05
    ax = Axis(-r if p.dim == 1 else 0.0, r, count)
    return normalize(GridDensity(ax, pdf(p, ax.nodes()), p.dim))


def sample(p: QGaussianParams, seed: int, count: int) -> np.ndarray:
    """i.i.d. draws, shape (count, dim): radius by inverse CDF, direction
    uniform on the sphere.

    The radial quantile is tabulated at CDF_KNOTS probabilities k / K and
    interpolated linearly between them, so a draw stays in its knot cell and
    the sampled radial CDF is within 1/K of the exact one at every radius.
    Draws past the last knot, 1/K of them, are inverted exactly, so the
    tail beyond it has the exact law.
    """
    rng = np.random.default_rng(seed)
    if count == 0:
        return np.empty((0, p.dim))
    knots = np.arange(CDF_KNOTS) / CDF_KNOTS
    u = rng.uniform(0.0, 1.0, size=count)
    r = np.interp(u, knots, _radial_quantile(p, knots, 1.0 - knots))
    tail = u > knots[-1]
    r[tail] = _radial_quantile(p, u[tail], 1.0 - u[tail])
    if p.dim == 1:
        sign = rng.choice([-1.0, 1.0], size=count)
        return (r * sign)[:, None]
    vec = rng.normal(size=(count, p.dim))
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    return r[:, None] * vec


# ---------------------------------------------------------------------------
# Closed-form information functionals of the family (independent references
# for the grid-quadrature routes)
# ---------------------------------------------------------------------------

def closed_form_m_q(p: QGaussianParams) -> float:
    """M_q = int G^q dx = Z^(1-q) (1 - (q-1) gamma m_alpha) with m_alpha the
    alpha-moment (integrate u^(s+1) = u * u^s against the profile)."""
    if p.q == 1:
        return 1.0
    if p.q < 1 and p.alpha * p.q / (1.0 - p.q) <= p.dim:
        raise ValueError(f"M_q diverges: q alpha/(1-q) = {p.alpha * p.q / (1.0 - p.q):g} <= n")
    z = normalization(p)
    return float(z ** (1.0 - p.q) * (1.0 - (p.q - 1.0) * p.gamma * moment_alpha(p)))


def closed_form_phi_fisher(p: QGaussianParams) -> float:
    """phi(beta, q)[G] = (gamma alpha)^beta Z^(-beta(q-1)) m_alpha, for beta
    the Hoelder conjugate of the family's own alpha (the exponent algebra
    collapses the boundary powers: (alpha-1) beta = alpha)."""
    z = normalization(p)
    return float((p.gamma * p.alpha) ** p.beta * z ** (-p.beta * (p.q - 1.0)) * moment_alpha(p))


def closed_form_i_fisher(p: QGaussianParams) -> float:
    """I(beta, q)[G] = (gamma alpha)^beta m_alpha / (1 - (q-1) gamma m_alpha)^beta."""
    m_a = moment_alpha(p)
    return float((p.gamma * p.alpha) ** p.beta * m_a / (1.0 - (p.q - 1.0) * p.gamma * m_a) ** p.beta)


def closed_form_entropy_power(p: QGaussianParams) -> float:
    """N_q[G]; at q = 1 via the Shannon entropy ln Z + n/alpha."""
    if p.q == 1:
        h = math.log(normalization(p)) + p.dim / p.alpha
        return float(math.exp(2.0 * h / p.dim))
    return float(closed_form_m_q(p) ** (2.0 / p.dim / (1.0 - p.q)))


def closed_form_stam_product(p: QGaussianParams) -> float:
    """I(beta, q)[G]^(1/beta) N_q[G]^(1/2) -- the reference side of the Stam
    inequality (scale invariant: I ~ c^-beta and N ~ c^2 under dilation)."""
    return float(closed_form_i_fisher(p) ** (1.0 / p.beta)
                 * closed_form_entropy_power(p) ** 0.5)


def gamma_for_entropy_power(p: QGaussianParams, target_n: float) -> float:
    """Scale gamma so N_q[G] = target, by Brent's method (scipy's `brentq`,
    bit for bit) on the monotone map log gamma -> N_q (N ~ gamma^(-2/alpha))."""
    if not 0 < target_n < math.inf:
        raise ValueError(f"target entropy power must be finite and positive, got {target_n}")
    base = closed_form_entropy_power(QGaussianParams(p.q, p.alpha, 1.0, p.dim))

    def residual(log_g):
        gam = math.exp(log_g)
        return closed_form_entropy_power(QGaussianParams(p.q, p.alpha, gam, p.dim)) - target_n

    guess = (base / target_n) ** (p.alpha / 2.0)
    lo, hi = math.log(guess / 8.0), math.log(guess * 8.0)
    log_g = brentq(residual, lo, hi, 1e-13, 1e-13)
    return float(math.exp(log_g))


# ---------------------------------------------------------------------------
# Doubly nonlinear diffusion: parameters and the Barenblatt profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusionParams:
    """Parameters of f_t = div(|grad f^m|^(beta-2) grad f^m) on R^n.

    Derived quantities: alpha = beta/(beta-1) (Hoelder conjugate),
    q = m + 1 - alpha/beta, delta = n(beta-1)m + beta - n, and the profile
    constants of the self-similar solution
        f(x, t) = t^(-n/delta) B(x t^(-1/delta)),
        B(x) = (C - k |x|^alpha)_+^(1/(q-1))          (q != 1)
        B(x) = C exp(-rate |x|^alpha)                 (q  = 1)
    with k = (m(beta-1) - 1) / (m beta) * delta^(-1/(beta-1)) and
    rate = (beta-1) / (m beta) * delta^(-1/(beta-1)).  (Direct substitution
    in the PDE fixes the 1/m factor; at m = 1, beta = 2 these reduce to the
    familiar heat-kernel constants.)
    """

    m: float
    beta: float
    dim: int = 1

    def __post_init__(self):
        if not 1 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and exceed 1, got {self.beta}")
        if not 0 < self.m < math.inf:
            raise ValueError(f"m must be finite and positive, got {self.m}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        # delta / n = m(beta-1) + beta/n - 1: one check for both conditions
        if self.delta <= 0:
            raise ValueError(f"self-similarity and Barenblatt existence require delta = "
                             f"n(beta-1)m + beta - n > 0, i.e. m(beta-1) + beta/n - 1 > 0, "
                             f"got delta = {self.delta}")

    @property
    def alpha(self) -> float:
        return self.beta / (self.beta - 1.0)

    @property
    def q(self) -> float:
        return self.m + 1.0 - self.alpha / self.beta

    @property
    def delta(self) -> float:
        return self.dim * (self.beta - 1.0) * self.m + self.beta - self.dim

    @property
    def k(self) -> float:
        return ((self.m * (self.beta - 1.0) - 1.0) / (self.m * self.beta)
                * self.delta ** (-1.0 / (self.beta - 1.0)))

    @property
    def profile_rate(self) -> float:
        """Decay rate of the exponential branch (q = 1, i.e. m(beta-1) = 1)."""
        return ((self.beta - 1.0) / (self.m * self.beta)
                * self.delta ** (-1.0 / (self.beta - 1.0)))

    @property
    def is_q1(self) -> bool:
        return abs(self.m * (self.beta - 1.0) - 1.0) < 1e-12


def barenblatt_profile(dp: DiffusionParams, C: float, xi) -> np.ndarray:
    """Self-similar profile B at the similarity coordinate xi (dim 1) or
    at the similarity radius xi (dim >= 2): a function of |xi|."""
    r = np.abs(np.asarray(xi, dtype=float))
    if dp.is_q1:
        return C * np.exp(-dp.profile_rate * r ** dp.alpha)
    base = C - dp.k * r ** dp.alpha
    expo = 1.0 / (dp.q - 1.0)
    if dp.q > 1:
        return np.where(base > 0, np.maximum(base, 0.0) ** expo, 0.0)
    return base ** expo


def barenblatt(dp: DiffusionParams, C: float, x, t: float) -> np.ndarray:
    """Self-similar solution f(x, t) = t^(-n/delta) B(x t^(-1/delta))."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    x = np.asarray(x, dtype=float)
    scale = t ** (1.0 / dp.delta)
    return t ** (-dp.dim / dp.delta) * barenblatt_profile(dp, C, x / scale)


def barenblatt_mass(dp: DiffusionParams, C: float) -> float:
    """Total mass of the profile B.  With omega the sphere surface,
    a = n/alpha and s = 1/(1-q), it is omega C Gamma(a) / (alpha rate^a)
    at q = 1 and omega B(a, s - a) kappa^(-a) C^(a - s) / alpha for q < 1,
    kappa = -k, both by `math.lgamma` (s > a is the existence condition
    that `DiffusionParams` checks).  For q > 1 it is adaptive radial
    quadrature over the support: QUADPACK (scipy's `quad`, bit for bit),
    not a closed form, because the constants C found from it reach the
    `reproduce` summary, whose bytes are pinned."""
    if not C > 0:
        raise ValueError("C must be positive")
    omega = sphere_surface(dp.dim)
    alpha, n_a = dp.alpha, dp.dim / dp.alpha
    if dp.is_q1:
        return omega * C * math.exp(math.lgamma(n_a)) / (alpha * dp.profile_rate ** n_a)
    if dp.q < 1:
        s = 1.0 / (1.0 - dp.q)
        beta_fn = math.exp(math.lgamma(n_a) + math.lgamma(s - n_a) - math.lgamma(s))
        return omega * beta_fn * (-dp.k) ** (-n_a) * C ** (n_a - s) / alpha
    # barenblatt_profile(dp, C, r) * r ** (dim - 1) on a float, with the
    # bits of the array form (Python's ** gives numpy's power bits on one
    # element)
    k, expo, lift = dp.k, 1.0 / (dp.q - 1.0), dp.dim - 1

    def integrand(r):
        base = C - k * abs(r) ** alpha
        if not base > 0:
            return 0.0
        return base ** expo * r ** lift

    return omega * quad(integrand, 0.0, (C / k) ** (1.0 / alpha), 200)


def barenblatt_mass_constant(dp: DiffusionParams) -> float:
    """The constant C giving the profile unit total mass.  For q <= 1 the
    mass is mass(1) C^e, e = 1 at q = 1 and e = n/alpha - s < 0 below, so
    C = mass(1)^(-1/e) directly.  For q > 1, by 1-D root finding on the
    monotone map C -> mass(C), the quadrature of :func:`barenblatt_mass`.
    Its 1e-10 check bounds that quadrature's own residual at C, which reads
    below 2e-14, and not the exact mass: the Beta-function mass at the C
    returned misses 1 by up to about 2e-10 (+1.75e-10 at (m, beta, n) =
    (3, 3, 1), -1.54e-10 at (0.8, 4, 2)), a miss only a closed-form C for
    q > 1 would remove."""
    if dp.is_q1 or dp.q < 1:
        e = 1.0 if dp.is_q1 else dp.dim / dp.alpha - 1.0 / (1.0 - dp.q)
        return barenblatt_mass(dp, 1.0) ** (-1.0 / e)
    residuals = {}

    def residual(log_c):
        # by the exact log_c: brentq evaluates the bracket ends again, and
        # the closing check is at its root
        if log_c not in residuals:
            residuals[log_c] = barenblatt_mass(dp, math.exp(log_c)) - 1.0
        return residuals[log_c]

    lo, hi = -2.0, 2.0
    for _ in range(60):
        if residual(lo) * residual(hi) < 0:
            break
        lo -= 2.0
        hi += 2.0
    else:
        raise ArithmeticError(
            f"mass root-finding failed to bracket: C in [{math.exp(lo):g}, {math.exp(hi):g}]"
        )
    log_c = brentq(residual, lo, hi, 1e-15, 1e-15)
    c = float(math.exp(log_c))
    resid = residual(log_c)
    if abs(resid) > 1e-10:
        raise ArithmeticError(f"mass residual {resid:g} exceeds 1e-10 at C = {c!r}")
    return c


def barenblatt_density(dp: DiffusionParams, t: float, axis: Axis, C: float | None = None) -> GridDensity:
    """Unit-mass (by default) Barenblatt solution sampled at time t on
    `axis` (radii on [0, R] for dim >= 2)."""
    if C is None:
        C = barenblatt_mass_constant(dp)
    return GridDensity(axis, barenblatt(dp, C, axis.nodes(), t), dp.dim)


def barenblatt_equivalent_qgaussian(dp: DiffusionParams, C: float, t: float) -> QGaussianParams:
    """The q-Gaussian parameters matching the Barenblatt solution's shape at
    fixed time t: gamma = k t^(-alpha/delta) / (C (q-1)) for q != 1, and
    the exponential one, q = 1 exactly, with gamma = rate t^(-alpha/delta)."""
    if dp.is_q1:
        return QGaussianParams(1.0, dp.alpha, dp.profile_rate * t ** (-dp.alpha / dp.delta), dp.dim)
    gamma = dp.k * t ** (-dp.alpha / dp.delta) / (C * (dp.q - 1.0))
    return QGaussianParams(dp.q, dp.alpha, gamma, dp.dim)
