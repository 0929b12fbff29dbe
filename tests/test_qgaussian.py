"""q-Gaussian family and Barenblatt profile tests."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special, stats

from qfisher import qgaussian
from qfisher.acceptance import QCR_POINTS
from qfisher.core import Axis, brentq, integrate
from qfisher.qgaussian import (
    DiffusionParams,
    QGaussianParams,
    barenblatt,
    barenblatt_density,
    barenblatt_equivalent_qgaussian,
    barenblatt_mass,
    barenblatt_mass_constant,
    closed_form_entropy_power,
    closed_form_i_fisher,
    closed_form_m_q,
    closed_form_phi_fisher,
    closed_form_stam_product,
    gamma_for_entropy_power,
    gamma_for_moment,
    grid_density,
    moment_alpha,
    _radial_mass_quad,
    normalization,
    pdf,
    sample,
    support_radius,
    tail_radius,
)

P_COMPACT = QGaussianParams(2.0, 2.0, 1.0, 1)     # (3/4)(1 - x^2)_+ on [-1, 1]
P_GAUSS = QGaussianParams(1.0, 2.0, 0.5, 1)       # standard normal


def quad_oracle(p, moment=0):
    """Independent radial quadrature of the unnormalized profile."""
    upper = support_radius(p)
    if not np.isfinite(upper):
        upper = np.inf

    def profile(r):
        if p.q == 1:
            val = np.exp(-p.gamma * r ** p.alpha)
        else:
            base = 1.0 - (p.q - 1.0) * p.gamma * r ** p.alpha
            val = max(base, 0.0) ** (1.0 / (p.q - 1.0)) if p.q > 1 else base ** (1.0 / (p.q - 1.0))
        return val * r ** (p.dim - 1 + moment)

    surface = {1: 2.0, 2: 2 * np.pi, 3: 4 * np.pi}[p.dim]
    val, _ = sp_integrate.quad(profile, 0.0, upper, limit=200)
    return surface * val


class TestPdfAndNormalization:
    def test_compact_support_clamp(self):
        assert pdf(P_COMPACT, 2.0) == 0.0
        assert pdf(P_COMPACT, 1.0) == 0.0
        assert pdf(P_COMPACT, 0.999) > 0.0

    def test_peak_values(self):
        assert pdf(P_COMPACT, 0.0) == pytest.approx(0.75, abs=1e-10)
        assert pdf(P_GAUSS, 0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-10)

    def test_normalizations_closed_form(self):
        assert normalization(P_COMPACT) == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert normalization(P_GAUSS) == pytest.approx(np.sqrt(2 * np.pi), abs=1e-12)

    def test_normalization_vs_independent_quadrature(self):
        for p in (QGaussianParams(1.5, 2.0, 1.0, 1),
                  QGaussianParams(0.6, 2.0, 1.0, 1),
                  QGaussianParams(2.5, 3.0, 0.7, 2),
                  QGaussianParams(1.0, 1.5, 2.0, 2)):
            assert normalization(p) == pytest.approx(quad_oracle(p), rel=1e-8)

    def test_integrability_guard(self):
        with pytest.raises(ValueError, match="alpha/\\(1-q\\) > n"):
            QGaussianParams(0.2, 2.0, 1.0, 3)

    def test_param_validation(self):
        nan, inf = float("nan"), float("inf")
        for bad in (dict(q=-1.0), dict(alpha=1.0), dict(gamma=0.0), dict(dim=0),
                    dict(q=nan), dict(q=inf), dict(alpha=nan), dict(alpha=inf),
                    dict(gamma=nan), dict(gamma=inf)):
            kwargs = dict(q=2.0, alpha=2.0, gamma=1.0, dim=1)
            kwargs.update(bad)
            with pytest.raises(ValueError, match=next(iter(bad))):
                QGaussianParams(**kwargs)


class TestCrossCheckQuadrature:
    """The double-exponential rule behind the normalization cross-check,
    against the closed form and against scipy's adaptive quad."""

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.95, 1.0, 1.05, 1.5, 2.0, 5.0, 11.0])
    def test_sweep_matches_closed_form_and_quad(self, q):
        worst_closed = worst_quad = 0.0
        for alpha, n, gamma in itertools.product([1.1, 2.0, 3.5, 8.0], [1, 2, 3, 5],
                                                 [0.01, 1.0, 100.0]):
            try:
                p = QGaussianParams(q, alpha, gamma, n)
            except ValueError:  # not integrable
                continue
            # no node may overflow or meet 0 * inf on the way to the sum
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                z_de = _radial_mass_quad(p)
            z = normalization(p)
            worst_closed = max(worst_closed, abs(z_de - z) / z)
            # quad itself misses by up to 2e-4 on the steepest profiles
            # (gamma = 100) and its oracle here knows n <= 3 only
            if gamma < 100 and n <= 3:
                worst_quad = max(worst_quad, abs(z_de - quad_oracle(p)) / z)
        assert worst_closed < 1e-12
        assert worst_quad < 1e-8

    @pytest.mark.parametrize("q, alpha, n", [
        (0.01, 1.001, 1),   # alpha/(1-q) = 1.011: tail ~ r^-1.011
        (0.35, 2.0, 3),     # alpha/(1-q) = 3.08 against n = 3
        (0.5, 1.1, 2),      # alpha/(1-q) = 2.2 against n = 2
    ])
    def test_heavy_tail_near_the_integrability_bound(self, q, alpha, n):
        # most of the mass lies where the profile underflows: summed from
        # the power tail in log form
        p = QGaussianParams(q, alpha, 1.0, n)
        z = normalization(p)
        assert _radial_mass_quad(p) == pytest.approx(z, rel=1e-12)
        assert quad_oracle(p) == pytest.approx(z, rel=1e-8)

    def test_steep_compact_profile_accepted(self):
        # scipy's quad missed this Z by 9e-7, so the check refused valid parameters
        p = QGaussianParams(5.0, 1.1, 100.0, 2)
        assert _radial_mass_quad(p) == pytest.approx(normalization(p), rel=1e-12)

    @pytest.mark.parametrize("p", [P_COMPACT, P_GAUSS, QGaussianParams(0.5, 1.1, 1.0, 2)],
                             ids=["compact", "gauss", "heavy"])
    @pytest.mark.parametrize("fault", [1.0 + 1e-7, np.nan], ids=["scaled", "nan"])
    def test_faulty_profile_fails_the_check(self, monkeypatch, p, fault):
        # negative control: a profile off by 1e-7 relative, or NaN at one
        # node, must not pass for the closed form
        profile = qgaussian.radial_profile

        def faulty(params, r):
            values = np.array(profile(params, r), dtype=float)
            if np.isnan(fault):
                values.flat[values.size // 2] = np.nan
            else:
                values *= fault
            return values

        normalization.cache_clear()
        monkeypatch.setattr(qgaussian, "radial_profile", faulty)
        try:
            with pytest.raises(ArithmeticError, match="cross-check failed"):
                normalization(p)
        finally:
            normalization.cache_clear()


class TestMoments:
    def test_gaussian_variance(self):
        assert moment_alpha(P_GAUSS) == pytest.approx(1.0, abs=1e-12)

    def test_compact_second_moment(self):
        assert moment_alpha(P_COMPACT) == pytest.approx(0.2, abs=1e-12)

    def test_gamma_scaling_law(self):
        # substitution x -> gamma^(1/alpha) x: moment(gamma) = moment(1)/gamma
        base = moment_alpha(P_COMPACT)
        scaled = moment_alpha(QGaussianParams(2.0, 2.0, 4.0, 1))
        assert scaled == pytest.approx(base / 4.0, abs=1e-12)

    def test_moment_vs_quadrature(self):
        for p in (QGaussianParams(1.5, 2.0, 1.0, 1), QGaussianParams(0.7, 2.0, 2.0, 1)):
            oracle = quad_oracle(p, moment=p.alpha) / quad_oracle(p)
            assert moment_alpha(p) == pytest.approx(oracle, rel=1e-8)

    def test_divergent_moment_raises(self):
        # q < 1 with alpha/(1-q) in (n, n + alpha]: normalizable, infinite moment
        p = QGaussianParams(0.3, 2.0, 1.0, 1)  # alpha/(1-q) = 2.857 <= n + alpha = 3
        with pytest.raises(ValueError, match="n \\+ alpha"):
            moment_alpha(p)

    def test_gamma_for_moment_round_trip(self):
        g = gamma_for_moment(QGaussianParams(1.5, 2.0, 1.0, 1), 0.37)
        assert moment_alpha(QGaussianParams(1.5, 2.0, g, 1)) == pytest.approx(0.37, abs=1e-10)


class TestSampling:
    def test_empty(self):
        assert sample(P_COMPACT, seed=1, count=0).shape == (0, 1)

    def test_compact_moments(self):
        pts = sample(P_COMPACT, seed=123, count=1_000_000)[:, 0]
        sigma_hat = pts.std()
        assert abs(pts.mean()) < 3 * sigma_hat / 1e3
        assert pts.min() > -1.0 and pts.max() < 1.0
        assert np.mean(pts ** 2) == pytest.approx(0.2, abs=0.002)

    def test_gaussian_ks(self):
        pts = sample(P_GAUSS, seed=321, count=200_000)[:, 0]
        stat = stats.kstest(pts, "norm").statistic
        # 1% critical value of the one-sample KS statistic
        assert stat < 1.628 / np.sqrt(len(pts))

    def test_2d_direction_uniformity(self):
        pts = sample(QGaussianParams(1.5, 2.0, 1.0, 2), seed=9, count=50_000)
        assert pts.shape == (50_000, 2)
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        # uniform angles: mean resultant length ~ 0
        assert np.hypot(np.cos(angles).mean(), np.sin(angles).mean()) < 0.02

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("q", [0.5, 0.75, 1.0, 1.5, 2.0])
    def test_radial_law(self, q, n):
        # P(||X|| <= t) against the closed-form radial CDF: with
        # u = |q - 1| gamma t^alpha, I_u(n/alpha, 1/(q-1) + 1) for q > 1,
        # the lower incomplete Gamma P(n/alpha, u) at q = 1, and
        # I_(u/(1+u))(n/alpha, 1/(1-q) - n/alpha) for q < 1
        p = QGaussianParams(q, 2.0, 1.0, n)
        radii = np.linalg.norm(sample(p, seed=1, count=200_000), axis=1)
        a = n / p.alpha
        for t in (0.25, 0.5, 1.0, 2.0, 4.0):
            u = abs(q - 1.0) * p.gamma * t ** p.alpha
            if q > 1:
                exact = special.betainc(a, 1.0 / (q - 1.0) + 1.0, min(u, 1.0))
            elif q == 1:
                exact = special.gammainc(a, p.gamma * t ** p.alpha)
            else:
                exact = special.betainc(a, 1.0 / (1.0 - q) - a, u / (1.0 + u))
            assert abs(np.mean(radii <= t) - exact) < 3e-3, t

    def test_deterministic_given_seed(self):
        a = sample(P_COMPACT, seed=7, count=1000)
        b = sample(P_COMPACT, seed=7, count=1000)
        assert np.array_equal(a, b)


class TestGridDensityProperties:
    def test_unit_mass_over_random_valid_params(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            q = float(rng.uniform(0.4, 3.0))
            alpha = float(rng.uniform(1.2, 4.0))
            gamma = float(rng.uniform(0.25, 4.0))
            if q < 1 and alpha / (1 - q) <= 1:
                continue
            f = grid_density(QGaussianParams(q, alpha, gamma, 1), count=4001)
            assert integrate(f) == pytest.approx(1.0, abs=1e-8)

    def test_support_exactness(self):
        f = grid_density(P_COMPACT, count=2001)
        x = f.axis.nodes()
        r = support_radius(P_COMPACT)
        assert np.all(f.values[np.abs(x) < r] > 0)
        assert np.all(f.values[np.abs(x) > r] == 0.0)

    def test_q_to_one_continuity(self):
        x = np.linspace(-2.0, 2.0, 401)
        ref = pdf(QGaussianParams(1.0, 2.0, 0.5, 1), x)
        for q in (1.0 - 1e-4, 1.0 + 1e-4):
            vals = pdf(QGaussianParams(q, 2.0, 0.5, 1), x)
            assert np.max(np.abs(vals - ref)) < 1e-3

    def test_tail_radius_mass(self):
        p = QGaussianParams(0.7, 2.0, 1.0, 1)
        r9 = tail_radius(p, 1e-9)
        # oracle: mass beyond r9 via independent quadrature
        def profile(r):
            return (1.0 + 0.3 * r ** 2) ** (-1.0 / 0.3)
        tail, _ = sp_integrate.quad(profile, r9, np.inf, limit=200)
        assert 2 * tail / normalization(p) == pytest.approx(1e-9, rel=1e-3)

    @pytest.mark.parametrize("q,n", [(0.3, 2), (0.4, 2), (0.4, 3), (0.5, 3)])
    def test_heavy_tail_radius_finite(self, q, n):
        # here I_t(n/alpha, s - n/alpha) = 1 - 1e-12 rounds t to 1; the tail
        # is read back from the complementary Beta at 1 - t = 1/(1 + y)
        from scipy.special import betainc
        p = QGaussianParams(q, 2.0, 1.0, n)
        r = tail_radius(p, 1e-12)
        assert np.isfinite(r)
        s, n_a = 1.0 / (1.0 - q), n / p.alpha
        tail = betainc(s - n_a, n_a, 1.0 / (1.0 + (1.0 - q) * p.gamma * r ** p.alpha))
        assert tail == pytest.approx(1e-12, rel=1e-10)


class TestClosedForms:
    @pytest.mark.parametrize("p", [P_COMPACT, P_GAUSS,
                                   QGaussianParams(1.5, 2.0, 1.0, 1),
                                   QGaussianParams(2.0, 3.0, 1.0, 1)])
    def test_m_q_and_entropy_power_vs_grid(self, p):
        from qfisher.info_measures import entropy_power, i_fisher, m_q
        f = grid_density(p, count=8001)
        assert closed_form_m_q(p) == pytest.approx(m_q(f, p.q), rel=1e-7)
        assert closed_form_entropy_power(p) == pytest.approx(entropy_power(f, p.q), rel=1e-6)
        assert closed_form_i_fisher(p) == pytest.approx(i_fisher(f, p.q, p.beta), rel=1e-5)

    # q < 1 reads 3.3e-5 at (0.8, 2) on 8001 nodes: its tail is cut, not resolved
    @pytest.mark.parametrize("q, alpha", QCR_POINTS + ((1.0, 2.0), (1.0, 3.0)))
    def test_phi_fisher_vs_grid(self, q, alpha):
        from qfisher.info_measures import phi_fisher
        p = QGaussianParams(q, alpha, 1.0, 1)
        grid = phi_fisher(grid_density(p, 8001), q, p.beta)
        assert grid == pytest.approx(closed_form_phi_fisher(p), rel=1e-6)

    def test_phi_fisher_converges_at_order_2(self):
        # central differences: the error falls 4x per halving of the spacing
        from qfisher.info_measures import phi_fisher
        p = QGaussianParams(1.5, 2.0, 1.0, 1)
        exact = closed_form_phi_fisher(p)
        errs = [abs(phi_fisher(grid_density(p, n), p.q, p.beta) / exact - 1.0)
                for n in (4001, 8001, 16001)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 2.0) < 0.1), errs

    def test_gamma_for_entropy_power(self):
        g = gamma_for_entropy_power(QGaussianParams(1.0, 2.0, 1.0, 1), float(2 * np.pi * np.e))
        assert g == pytest.approx(0.5, rel=1e-10)


class TestBarenblatt:
    def test_heat_kernel_branch(self):
        dp = DiffusionParams(1.0, 2.0, 1)
        assert dp.is_q1 and dp.q == pytest.approx(1.0)
        C = barenblatt_mass_constant(dp)
        x = np.linspace(-4.0, 4.0, 401)
        kernel = np.exp(-x ** 2 / 4.0) / np.sqrt(4 * np.pi)
        assert np.allclose(barenblatt(dp, C, x, 1.0), kernel, atol=1e-10)
        t = 2.7
        kernel_t = np.exp(-x ** 2 / (4 * t)) / np.sqrt(4 * np.pi * t)
        assert np.allclose(barenblatt(dp, C, x, t), kernel_t, atol=1e-10)

    def test_pme_support_edge(self):
        dp = DiffusionParams(2.0, 2.0, 1)
        C = barenblatt_mass_constant(dp)
        t = 1.7
        edge = (C / dp.k) ** (1.0 / dp.alpha) * t ** (1.0 / dp.delta)
        assert barenblatt(dp, C, edge * 1.0001, t) == 0.0
        assert barenblatt(dp, C, edge * 0.9999, t) > 0.0

    def test_self_similar_scaling_identity(self):
        dp = DiffusionParams(2.0, 2.0, 1)
        x = np.linspace(-2.0, 2.0, 101)
        lhs = barenblatt(dp, 0.4, x, 4.0)
        rhs = 4.0 ** (-dp.dim / dp.delta) * barenblatt(dp, 0.4, x * 4.0 ** (-1.0 / dp.delta), 1.0)
        assert np.allclose(lhs, rhs, rtol=1e-14, atol=0)

    def test_mass_constant_pme_closed_form(self):
        dp = DiffusionParams(2.0, 2.0, 1)
        C = barenblatt_mass_constant(dp)
        # oracle: int (C - k x^2)_+ dx = (4/3) C^(3/2) / sqrt(k) = 1
        assert C == pytest.approx((3.0 * np.sqrt(dp.k) / 4.0) ** (2.0 / 3.0), rel=1e-12)
        assert barenblatt_mass(dp, C) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m,beta", [(2.0, 3.0), (2.0, 2.0), (1.0, 3.0)])
    def test_mass_constant_skips_repeated_masses(self, m, beta, monkeypatch):
        # the bracket ends, evaluated again inside brentq, and the closing
        # check at brentq's root are each one mass evaluation fewer
        dp = DiffusionParams(m, beta, 1)
        calls = []

        def counted(dp, C):
            calls.append(C)
            return barenblatt_mass(dp, C)

        monkeypatch.setattr(qgaussian, "barenblatt_mass", counted)
        want = ref_barenblatt_mass_constant(dp)
        ref_calls = len(calls)
        calls.clear()
        got = barenblatt_mass_constant(dp)
        assert got.hex() == want.hex()
        assert len(calls) == ref_calls - 3
        assert len(set(calls)) == len(calls)

    def test_mass_monotone_in_C(self):
        dp = DiffusionParams(2.0, 2.0, 1)
        C = barenblatt_mass_constant(dp)
        assert barenblatt_mass(dp, 2 * C) > barenblatt_mass(dp, C)

    def test_corrected_profile_constant_solves_pde(self):
        # residual of the self-similar ODE -(1/delta) xi B = |(B^m)'|^(beta-2) (B^m)'
        # vanishes with the 1/(m beta) profile constant (and not with 1/beta)
        dp = DiffusionParams(2.0, 2.0, 1)
        C = barenblatt_mass_constant(dp)
        xi = np.linspace(0.05, 0.9 * (C / dp.k) ** 0.5, 4000)
        B = (C - dp.k * xi ** 2)
        dBm = np.gradient(B ** dp.m, xi)
        resid = np.max(np.abs(-xi * B / dp.delta - dBm))
        assert resid < 5e-3
        k_wrong = dp.k * dp.m
        Bw = (C - k_wrong * xi ** 2).clip(0)
        dBmw = np.gradient(Bw ** dp.m, xi)
        resid_wrong = np.max(np.abs(-xi * Bw / dp.delta - dBmw))
        assert resid_wrong > 100 * resid

    def test_fixed_time_shape_is_qgaussian(self):
        dp = DiffusionParams(2.0, 2.0, 1)
        C = barenblatt_mass_constant(dp)
        t = 1.6
        p_eq = barenblatt_equivalent_qgaussian(dp, C, t)
        ax = Axis(-3.0, 3.0, 2001)
        vals = barenblatt(dp, C, ax.nodes(), t)
        from qfisher.core import GridDensity, normalize
        bb = normalize(GridDensity(ax, vals))
        assert np.allclose(bb.values, pdf(p_eq, ax.nodes()), atol=1e-8)

    def test_plap_profile_params(self):
        dp = DiffusionParams(1.0, 3.0, 1)
        assert dp.alpha == pytest.approx(1.5)
        assert dp.q == pytest.approx(1.5)
        assert dp.delta == pytest.approx(4.0)
        assert dp.k == pytest.approx(1.0 / 6.0)
        assert 1.0 / dp.alpha + 1.0 / dp.beta == pytest.approx(1.0, abs=1e-15)

    def test_invariant_violations(self):
        with pytest.raises(ValueError, match="delta"):
            DiffusionParams(0.1, 1.2, 3)
        for m, beta in [(1.0, 1.0), (1.0, float("nan")), (1.0, float("inf")),
                        (float("nan"), 2.0), (float("inf"), 2.0)]:
            with pytest.raises(ValueError, match="m must|beta must"):
                DiffusionParams(m, beta, 1)
        with pytest.raises(ValueError, match="positive"):
            barenblatt(DiffusionParams(2.0, 2.0, 1), 0.4, 0.0, 0.0)

    def test_density_grid(self):
        dp = DiffusionParams(2.0, 2.0, 1)
        f = barenblatt_density(dp, 1.0, Axis(-3.0, 3.0, 1001))
        assert integrate(f) == pytest.approx(1.0, abs=1e-6)


def _identity_points():
    """(m, beta, n) over m in {0.5, ..., 3}, beta in {1.5, ..., 4} and n in
    {1, 2, 3} where a Barenblatt profile exists and its q-Gaussian has a
    finite M_q and alpha-moment: 60 points with q > 1, 9 with q < 1 and 9
    with q = 1, at (m, beta) = (0.5, 3), (1, 2) and (2, 1.5)."""
    points = []
    for m, beta, n in itertools.product((0.5, 0.75, 1.0, 1.5, 2.0, 3.0), (1.5, 2.0, 2.5, 3.0, 4.0),
                                        (1, 2, 3)):
        try:
            dp = DiffusionParams(m, beta, n)
            closed_form_m_q(QGaussianParams(dp.q, dp.alpha, 1.0, n))
            points.append((m, beta, n))
        except ValueError:  # no profile, q <= 0, or a divergent M_q or moment
            pass
    return points


IDENTITY_POINTS = _identity_points()


@pytest.mark.parametrize("m,beta,n", IDENTITY_POINTS)
def test_debruijn_identity_in_closed_form(m, beta, n):
    # B_t is its q-Gaussian dilated by c ~ t^(1/delta), under which M_q
    # scales as c^(n(1-q)): so dS_q/dt = n M_q / (delta t), and the identity
    # dS_q/dt = q m^(beta-1) phi along B_t is algebraic in the closed forms.
    # q > 1 misses by up to 8.7e-10 (at (3, 3, 1)): its C, root-found on a
    # quadrature, misses unit mass by up to 1.75e-10 there
    dp, t = DiffusionParams(m, beta, n), 1.5
    g = barenblatt_equivalent_qgaussian(dp, barenblatt_mass_constant(dp), t)
    lhs = n * closed_form_m_q(g) / (dp.delta * t)
    rhs = dp.q * m ** (beta - 1.0) * closed_form_phi_fisher(g)
    assert lhs == pytest.approx(rhs, rel=1e-13 if dp.is_q1 or dp.q < 1 else 2e-9)


@pytest.mark.parametrize("m,beta,n", [point for point in IDENTITY_POINTS
                                      if DiffusionParams(*point).is_q1])
def test_q1_barenblatt_is_its_exponential_qgaussian(m, beta, n):
    dp, t = DiffusionParams(m, beta, n), 1.5
    g = barenblatt_equivalent_qgaussian(dp, barenblatt_mass_constant(dp), t)
    assert g.q == 1.0 and (g.alpha, g.dim) == (dp.alpha, n)
    x = np.linspace(-6.0 if n == 1 else 0.0, 6.0, 1201)
    want = pdf(g, x)
    assert np.max(np.abs(barenblatt(dp, barenblatt_mass_constant(dp), x, t) - want)) \
        <= 2e-15 * np.max(want)


#: (m, beta, n) -> the relative gate on the entropy-power slope: the
#: identity test's 1e-13 where the quadrature constant C meets unit mass to
#: rounding, its q > 1 gate 2e-9 where C misses (1.2e-11 to 7.5e-11 read)
SLOPE_POINTS = {(2.0, 2.0, 1): 1e-13, (2.0, 2.0, 2): 1e-13, (3.0, 1.5, 2): 1e-13,
                (1.0, 3.0, 1): 2e-9, (2.0, 3.0, 1): 2e-9, (1.5, 2.5, 1): 2e-9, (1.0, 3.0, 3): 2e-9}


@pytest.mark.parametrize("m,beta,n", sorted(SLOPE_POINTS))
def test_entropy_power_grows_at_the_stam_rate(m, beta, n):
    # de Bruijn composed with Stam: d/dt N_q^g >= g (2/n) q m^(beta-1) K^beta,
    # g = beta/2 - (beta-1) n (1-q)/2 and K the Stam product of the
    # q-Gaussian; along the Barenblatt N_q^g is linear in t, at equality
    dp = DiffusionParams(m, beta, n)
    C, q = barenblatt_mass_constant(dp), dp.q
    g = beta / 2.0 - (beta - 1.0) * n * (1.0 - q) / 2.0
    times = (1.0, 1.5, 2.0, 3.0)
    powers = [closed_form_entropy_power(barenblatt_equivalent_qgaussian(dp, C, t)) ** g
              for t in times]
    slopes = np.diff(powers) / np.diff(times)
    assert np.max(np.abs(slopes / slopes[0] - 1.0)) <= 1e-13
    K = closed_form_stam_product(QGaussianParams(q, dp.alpha, 1.0, n))
    bound = g * (2.0 / n) * q * m ** (beta - 1.0) * K ** beta
    assert slopes[0] == pytest.approx(bound, rel=SLOPE_POINTS[(m, beta, n)])
    if n == 1 and (m, beta) in {(2.0, 2.0), (1.0, 3.0), (2.0, 3.0)}:
        assert f"{bound:.7g}" == {(2.0, 2.0): "41.66667", (1.0, 3.0): "130.6867",
                                  (2.0, 3.0): "236.5179"}[(m, beta)]


#: (m, beta, n) of unbounded-support profiles: q = 1 at alpha = 2 and 1.5
#: and n = 1-3, and q < 1 down to the heavy tail of (0.35, 2, 3)
Q1_POINTS = [(1.0, 2.0, 1), (0.5, 3.0, 1), (1.0, 2.0, 2), (1.0, 2.0, 3)]
UNBOUNDED_POINTS = Q1_POINTS + [(0.5, 2.0, 1), (0.8, 2.0, 1), (1.5, 1.5, 1), (0.6, 2.0, 2),
                                (0.4, 2.0, 3), (0.35, 2.0, 3)]


def mp_barenblatt_mass(dp, C):
    """The profile's mass at 40 digits from dp's float parameters: the
    Gamma integral at q = 1, the Beta integral for q < 1."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        n, alpha, C = dp.dim, mpmath.mpf(dp.alpha), mpmath.mpf(C)
        omega = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
        if dp.is_q1:
            rate = mpmath.mpf(dp.profile_rate)
            return omega * C * mpmath.gamma(n / alpha) / (alpha * rate ** (n / alpha))
        s, kappa = 1 / (1 - mpmath.mpf(dp.q)), -mpmath.mpf(dp.k)
        return (omega * mpmath.beta(n / alpha, s - n / alpha) * kappa ** (-n / alpha)
                * C ** (n / alpha - s) / alpha)


@pytest.mark.parametrize("m,beta,n", UNBOUNDED_POINTS)
class TestUnboundedMass:
    def test_unit_mass(self, m, beta, n):
        dp = DiffusionParams(m, beta, n)
        assert dp.is_q1 or dp.q < 1
        assert abs(mp_barenblatt_mass(dp, barenblatt_mass_constant(dp)) - 1) <= 1e-14

    def test_one_mass_evaluation(self, m, beta, n, monkeypatch):
        dp = DiffusionParams(m, beta, n)
        calls = []

        def counted(dp, C):
            calls.append(C)
            return barenblatt_mass(dp, C)

        monkeypatch.setattr(qgaussian, "barenblatt_mass", counted)
        barenblatt_mass_constant(dp)
        assert len(calls) == 1


@pytest.mark.parametrize("m,beta,n", Q1_POINTS)
def test_q1_constant_within_2_ulps(m, beta, n):
    dp = DiffusionParams(m, beta, n)
    C = barenblatt_mass_constant(dp)
    exact = float(1 / mp_barenblatt_mass(dp, 1.0))
    assert abs(C - exact) <= 2 * math.ulp(exact)
    if (m, beta, n) == (1.0, 2.0, 1):
        assert abs(C - 1.0 / (2.0 * math.sqrt(math.pi))) <= 2 * math.ulp(C)


def ref_barenblatt_mass_constant(dp):
    """barenblatt_mass_constant as it was before its residuals were
    memoized (kept verbatim but for the module prefix and the messages)."""

    def residual(log_c):
        return qgaussian.barenblatt_mass(dp, math.exp(log_c)) - 1.0

    lo, hi = -2.0, 2.0
    for _ in range(60):
        if residual(lo) * residual(hi) < 0:
            break
        lo -= 2.0
        hi += 2.0
    else:
        raise ArithmeticError("bracket")
    log_c = brentq(residual, lo, hi, 1e-15, 1e-15)
    c = float(math.exp(log_c))
    resid = qgaussian.barenblatt_mass(dp, c) - 1.0
    if abs(resid) > 1e-10:
        raise ArithmeticError("residual")
    return c
